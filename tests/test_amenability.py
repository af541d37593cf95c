"""Means, verdicts, diagonals, derivations, certificates.

Three independent oracles anchor the derived quantities:
* the averaging functional (1/|G| on every element) for the Johnson mean;
* p not dividing |G| for the Schikhof verdict (never used inside the
  implementation, which runs the norm and lattice methods instead);
* character theory for derivation dimensions: on the regular bimodule
  dim Der = |G| - #conjugacy classes, on the outer tensor bimodule
  dim Der = |G|^2 - |G|, and 0 on the trivial bimodule.

The derivation certificate is also compared with exact elimination of the
Leibniz rows (exact_linalg, kept under tests/ as the oracle), and the
bimodule axioms that give its part (b) with the Johnson identities taken
one linear form at a time (oracles.johnson_identity_failure).
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from exact_linalg import Echelon, kernel_basis_sparse, spans_equal
from oracles import (apply, bimodule_axiom_failure, from_coeffs,
                     johnson_identity_failure, kernel_basis_failure,
                     leibniz_rows, pair_closure, permuted, relabel,
                     relabelled_catalog, stock_actions, tensor_of,
                     transpose, uncatalogued_groups, valuation)

import padicamen.amenability as amenability
import padicamen.hopf as hopf
from padicamen import cli
from padicamen.amenability import (STOCK_BIMODULES, Bimodule, certify,
                                   derivation_spaces, diagonal_ideal_identity,
                                   invariant_functional_space, johnson_check,
                                   mean_from_diagonal, outer_tensor_bimodule,
                                   regular_bimodule, render_json,
                                   schikhof_check, stock_bimodules,
                                   trivial_bimodule,
                                   virtual_diagonal_construct)
from padicamen.errors import InternalCheckError, OrderCapError
from padicamen.finite_group import (ORDER_CAP_ENV, FiniteGroup, catalog,
                                    cyclic, dihedral, enumerate_subgroups,
                                    from_spec, from_table, quaternion8,
                                    symmetric)
from padicamen.group_algebra import (AlgebraElement, GroupAlgebra,
                                     basis_classes, convolve, norm_exponent)
from padicamen.hopf import (BasisMap, basis_tensor, e_map, lemma2_data, pi0,
                            translations)


def conjugacy_class_count(grp):
    """Oracle: count conjugacy classes by brute force."""
    seen = set()
    classes = 0
    for x in range(grp.order):
        if x in seen:
            continue
        classes += 1
        for g in range(grp.order):
            seen.add(grp.table[grp.table[g][x]][grp.inverses[g]])
    return classes


def construct_diagonal(grp):
    """The virtual diagonal of grp from freshly computed inputs."""
    return virtual_diagonal_construct(grp, johnson_check(grp))


def test_invariant_space_is_one_dimensional_and_uniform():
    for grp in [cyclic(1), cyclic(5), dihedral(4), symmetric(3),
                quaternion8()]:
        basis = invariant_functional_space(grp)
        assert len(basis) == 1
        m = basis[0]
        # constant vector: scaling it normalizes to the averaging oracle
        assert len(m.coeffs) == grp.order
        assert len(set(m.coeffs.values())) == 1
        assert m.coeffs[0] != 0


def test_johnson_mean_is_averaging_functional():
    for spec in ["cyclic:6", "symmetric:3", "quaternion:8"]:
        grp = from_spec(spec)
        mean = johnson_check(grp)
        n = grp.order
        assert mean.coeffs == dict.fromkeys(range(n), Fraction(1, n))
        for p in (2, 3, 5):
            assert norm_exponent(mean, p) == valuation(n, p)
            doc = certify(grp, p)["johnson"]
            assert doc["invariant_space_dim"] == 1
            assert doc["amenable"] is True
            assert doc["mean_norm_exponent"] == valuation(n, p)


def test_schikhof_matches_order_divisibility_oracle():
    # analytic oracle, used only here: amenable iff p does not divide |G|
    for grp in catalog(12):
        subgroups, mean = enumerate_subgroups(grp), johnson_check(grp)
        for p in (2, 3, 5):
            sv = schikhof_check(grp, p, subgroups, mean)
            assert sv.amenable == (grp.order % p != 0), (grp.name, p)
            assert sv.amenable == (sv.witness is None)
            if not sv.amenable:
                s1, s2, idx = sv.witness
                assert idx % p == 0
                assert s2.contains(s1)
                assert idx == s2.order // s1.order
            else:
                assert sv.witness is None


def test_schikhof_witness_on_cyclic_p():
    for p in (2, 3, 5, 7):
        grp = cyclic(p)
        sv = schikhof_check(grp, p, enumerate_subgroups(grp),
                            johnson_check(grp))
        assert not sv.amenable
        s1, s2, idx = sv.witness
        assert s1.members == (0,)
        assert s2.order == p
        assert idx == p
        doc = certify(grp, p)["schikhof"]
        assert doc["method_lattice"]["witness"]["index"] == p
        assert doc["method_norm"]["mean_norm_exponent"] == 1


def test_schikhof_reuses_precomputed_data(monkeypatch):
    # one lattice and one mean serve every prime; neither is rebuilt
    grp = dihedral(4)
    subs = enumerate_subgroups(grp)
    mean = johnson_check(grp)

    def refuse(group):
        raise AssertionError("schikhof_check rebuilt an input")
    for name in ("enumerate_subgroups", "johnson_check"):
        monkeypatch.setattr(amenability, name, refuse)
    verdicts = [schikhof_check(grp, p, subs, mean) for p in (2, 3, 5)]
    assert [sv.amenable for sv in verdicts] == [False, True, True]
    assert {sv.subgroup_count for sv in verdicts} == {len(subs)}


def test_virtual_diagonal_closed_form():
    for spec in ["cyclic:4", "symmetric:3", "quaternion:8"]:
        grp = from_spec(spec)
        d = construct_diagonal(grp)
        n = grp.order
        expected = {
            g * n + grp.inverses[g]: Fraction(1, n) for g in range(n)
        }
        assert d.coeffs == expected
        env = GroupAlgebra(grp).enveloping
        assert d.algebra.compatible(env)


def test_virtual_diagonal_identities_reverified():
    grp = symmetric(3)
    alg = GroupAlgebra(grp)
    d = construct_diagonal(grp)
    one = alg.one()
    # (a (x) 1) d = (1 (x) a) d for every basis a
    for a in range(grp.order):
        da = alg.delta(a)
        left = tensor_of(da, one, alg.enveloping) * d
        right = tensor_of(one, da, alg.enveloping) * d
        assert left == right
        assert convolve(pi0(d), da) == da
        assert convolve(da, pi0(d)) == da
    assert pi0(d) == one
    assert d * d == d


def test_mean_from_diagonal_round_trip():
    for spec in ["cyclic:6", "dihedral:4", "symmetric:3"]:
        grp = from_spec(spec)
        m = mean_from_diagonal(construct_diagonal(grp))
        assert m == johnson_check(grp)


def test_round_trip_rejects_tampered_diagonal(monkeypatch):
    # the marginal of delta_e (x) delta_e is delta_e, not the mean, and
    # mean_from_diagonal leaves that to certify's round trip
    def tampered(group, mean):
        env, e = GroupAlgebra(group).enveloping, group.identity
        return basis_tensor(env, e, e)
    monkeypatch.setattr(amenability, "virtual_diagonal_construct", tampered)
    with pytest.raises(InternalCheckError, match="round trip failed"):
        certify(cyclic(3), 2)


def test_diagonal_ideal_identity_equals_one_minus_d():
    for spec in ["cyclic:4", "symmetric:3"]:
        grp = from_spec(spec)
        alg = GroupAlgebra(grp)
        d = construct_diagonal(grp)
        u = diagonal_ideal_identity(grp, d)
        env = alg.enveloping
        expected = basis_tensor(env, grp.identity, grp.identity) - d
        assert u == expected
        assert pi0(u).is_zero()
        # right-identity property on random kernel elements
        rng = random.Random(5)
        n = grp.order
        for _ in range(10):
            raw = {
                (rng.randrange(n), rng.randrange(n)):
                    Fraction(rng.randint(-3, 3))
                for _ in range(4)
            }
            v = sum((basis_tensor(env, g, h).scale(c)
                     for (g, h), c in raw.items()), AlgebraElement(env, {}))
            v = v - tensor_of(pi0(v), alg.one(), env)
            assert pi0(v).is_zero()
            assert v * u == v


def test_diagonal_ideal_identity_trivial_group():
    grp = cyclic(1)
    u = diagonal_ideal_identity(grp, construct_diagonal(grp))
    assert u.is_zero()


def test_virtual_diagonal_construct_rejects_each_corruption():
    # a wrong lift of delta_e is refused earlier, by the quotient check:
    # test_hopf.py::test_quotient_check_pins_the_lift_of_delta_e
    grp = symmetric(3)
    alg = GroupAlgebra(grp)
    mean = johnson_check(grp)

    # E(delta_e) = 1 (x) 1, so E(delta_a).E(mean) = E(delta_a) != E(mean)
    with pytest.raises(InternalCheckError, match="quotient relation"):
        virtual_diagonal_construct(grp, alg.one())
    # twice the mean is invariant too, so only the closed form catches it
    with pytest.raises(InternalCheckError, match="closed form"):
        virtual_diagonal_construct(grp, mean.scale(2))


def _ideal_identity_with(grp, coeffs):
    env = GroupAlgebra(grp).enveloping
    n = grp.order
    fake = from_coeffs(env, {g * n + h: c for (g, h), c in coeffs.items()})
    return diagonal_ideal_identity(grp, fake)


def test_diagonal_ideal_identity_rejects_corrupted_diagonals():
    grp = symmetric(3)
    n, e = grp.order, grp.identity
    g = 1  # a transposition
    # 2d: pi0(1 (x) 1 - 2d) = -delta_e
    doubled = {(x, grp.inverses[x]): Fraction(2, n) for x in range(n)}
    with pytest.raises(InternalCheckError, match="not in ker pi0"):
        _ideal_identity_with(grp, doubled)
    # delta_g (x) delta_{g^-1}: pi0 gives delta_e, but d.d != d
    with pytest.raises(InternalCheckError, match="is not zero"):
        _ideal_identity_with(grp, {(g, grp.inverses[g]): Fraction(1)})
    # delta_e (x) delta_e: u = 0 annihilates the kernel instead of fixing it
    with pytest.raises(InternalCheckError,
                       match="kernel generator x_%s$" % grp.labels[1]):
        _ideal_identity_with(grp, {(e, e): Fraction(1)})


@pytest.mark.parametrize("spec", ["symmetric:3", "quaternion:8"])
def test_kernel_generators_agree_with_the_kernel_basis_scan(spec):
    # v_{g,h} = (1 (x) delta_h).x_g, so x_s.u = x_s for every s in S
    # exactly when v.u = v on the whole kernel basis.  The g with x_g.u =
    # x_g form a subgroup K, and each generator is the least element
    # outside the closure of those before it, so the first failing
    # generator is min(G - K), the first g of the scan's failing (g, h)
    grp = from_spec(spec)
    u = diagonal_ideal_identity(grp, construct_diagonal(grp))
    assert amenability._kernel_generator_failure(u) is None
    assert kernel_basis_failure(u) is None
    for k in range(u.algebra.dim):
        perturbed = u + u.algebra.delta(k)
        generator = amenability._kernel_generator_failure(perturbed)
        scan = kernel_basis_failure(perturbed)
        assert scan is not None and generator == scan[0], (spec, k)
    # sum_{h in H} delta_h (x) delta_{h^-1} is balanced for exactly the g
    # in H, so adding it breaks x_g.u = x_g exactly for the g outside H
    for sub in enumerate_subgroups(grp)[:-1]:
        perturbed = u + from_coeffs(u.algebra, {
            h * grp.order + grp.inverses[h]: Fraction(1) for h in sub.members})
        outside = min(set(grp.elements()) - set(sub.members))
        assert amenability._kernel_generator_failure(perturbed) == outside
        assert kernel_basis_failure(perturbed)[0] == outside, sub.members


def _indicator(alg, members):
    return AlgebraElement(alg, dict.fromkeys(members, 1))


@pytest.mark.parametrize("seed", range(3))
def test_generating_set_decides_what_every_element_decides(seed):
    # the kernel identity, the invariant classes and the quotient relation
    # check read S only, and each decides what the same identity at every
    # element of G decides
    rng = random.Random(seed)
    for grp in relabelled_catalog(12, seed):
        n, table, alg = grp.order, grp.table, GroupAlgebra(grp)
        mean = johnson_check(grp)
        u = diagonal_ideal_identity(grp,
                                    virtual_diagonal_construct(grp, mean))
        env = u.algebra
        # x_g.w = 0 for every g when w is a function of the product yx of
        # the legs of its basis tensors x (x) y: two such w keep u.  The
        # sum over h in <T> of delta_h (x) delta_{h^-1}, for a proper
        # prefix T of S, breaks x_g.u = x_g for g outside <T> only
        kept = [_indicator(env, (x * n + y for x in range(n)
                                 for y in range(n) if table[y][x] == t))
                for t in (grp.identity, rng.randrange(n))]
        broken = [_indicator(env, (h * n + grp.inverses[h] for h in
                                   pair_closure(grp, frozenset(
                                       grp.generators[:size]))))
                  for size in range(len(grp.generators))]
        for w in [env.delta(k) for k in range(n * n)] + kept + broken:
            assert (amenability._kernel_generator_failure(u + w) is None) \
                == (kernel_basis_failure(u + w) is None), (grp.name, w)

        # the invariant classes of the prefixes T of S: the pairs (th, h)
        # for t in T against the pairs (kh, h) for every k in <T>
        for size in range(len(grp.generators) + 1):
            prefix = grp.generators[:size]
            spanned = pair_closure(grp, frozenset(prefix))
            classes = basis_classes(n, ((table[k][h], h) for k in spanned
                                        for h in range(n)))
            every_pair = {frozenset(k for k in range(n) if classes[k] == r)
                          for r in set(classes)}
            on_prefix = invariant_functional_space(FiniteGroup(
                grp.name, n, table, grp.identity, grp.inverses, grp.labels,
                prefix))
            assert {frozenset(m.num) for m in on_prefix} == every_pair

        # E(delta_a).E(f) = E(f) for a in S exactly when for every a: the
        # relation check raises exactly when f is not left invariant
        means = [mean, mean.scale(2), AlgebraElement(alg, {})]
        means += [_indicator(alg, pair_closure(grp, frozenset(
            grp.generators[:size]))) for size in range(len(grp.generators))]
        means += [AlgebraElement(alg, {g: rng.randrange(1, 3)
                                       for g in rng.sample(range(n), n // 2)})
                  for _ in range(3)]
        verdicts = set()
        for f in means:
            ef = e_map(f)
            invariant = all(e_map(alg.delta(a)) * ef == ef
                            for a in grp.elements())
            try:
                virtual_diagonal_construct(grp, f)
            except InternalCheckError as exc:
                survives = "quotient relation" in str(exc)
            else:
                survives = False
            assert survives != invariant, (grp.name, f)
            verdicts.add(invariant)
        assert verdicts == ({True, False} if n > 1 else {True})


def test_derivation_dims_match_character_theory(monkeypatch):
    # with A4, Dic12, SL(2,3), C2^3, C2^4 and A5, dim Der on the regular
    # bimodule is 8, 6, 17, 0, 0 and 55
    monkeypatch.setenv(ORDER_CAP_ENV, "60")
    for grp in [cyclic(4), cyclic(6), dihedral(3), dihedral(4),
                symmetric(3), quaternion8(), *uncatalogued_groups()]:
        n = grp.order
        classes = conjugacy_class_count(grp)
        # Der = Inn on a Bimodule; the derivations document prints
        # inner_dim as derivation_dim, with all_inner true, which
        # test_documents.py reads on these groups with read_derivations
        reg = derivation_spaces(regular_bimodule(grp))
        assert reg.inner_dim == n - classes, grp.name
        triv = derivation_spaces(trivial_bimodule(grp))
        assert triv.inner_dim == 0
        outer = derivation_spaces(outer_tensor_bimodule(grp))
        assert outer.inner_dim == n * n - n, grp.name


def _sparse_sum(terms):
    out = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def oracle_derivations(grp, dim, left, right):
    """Derivation basis by elimination of every Leibniz row, and the inner
    generators ad_{e_c}, over the flat index g*dim + c of D[g, c], for
    the actions left and right of every element."""
    n = grp.order
    rows = list(leibniz_rows(grp.table, dim, [mp.images for mp in left],
                             [mp.images for mp in right]))
    right_t = [transpose(mp).images for mp in right]
    left_t = [transpose(mp).images for mp in left]
    inner = [_sparse_sum(
        term for g in range(n) for term in (
            (g * dim + right_t[g][c], Fraction(1)),
            (g * dim + left_t[g][c], Fraction(-1))))
        for c in range(dim)]
    return kernel_basis_sparse(rows, n * dim), [v for v in inner if v]


def _columns(vec, dim):
    """D(delta_g) for every g, from a flat derivation vector."""
    cols = {}
    for flat, v in vec.items():
        g, c = divmod(flat, dim)
        cols.setdefault(g, {})[c] = v
    return cols


def test_derivation_vectors_satisfy_leibniz():
    # independent re-verification: reconstruct each oracle basis derivation
    # as a map and check D(delta_g delta_h) = g.D(delta_h) + D(delta_g).h
    # with the dual actions applied directly
    grp = symmetric(3)
    rep = derivation_spaces(regular_bimodule(grp))
    dim, left, right = stock_actions(grp, "regular")
    basis, _ = oracle_derivations(grp, dim, left, right)
    assert len(basis) == rep.inner_dim
    n = grp.order
    right_t = [transpose(mp) for mp in right]
    left_t = [transpose(mp) for mp in left]
    for vec in basis:
        cols = _columns(vec, dim)
        for g in range(n):
            for h in range(n):
                gh = grp.table[g][h]
                lhs = dict(cols.get(gh, {}))
                rhs = {}
                for c, v in apply(right_t[g], cols.get(h, {})).items():
                    rhs[c] = rhs.get(c, Fraction(0)) + v
                for c, v in apply(left_t[h], cols.get(g, {})).items():
                    rhs[c] = rhs.get(c, Fraction(0)) + v
                rhs = {c: v for c, v in rhs.items() if v}
                lhs = {c: v for c, v in lhs.items() if v}
                assert lhs == rhs


def test_derivation_report_prime_independence_and_doc(capsys):
    # the certificate has integer coefficients and takes no prime: the
    # section the derivations command writes is the same at every prime
    assert derivation_spaces(outer_tensor_bimodule(cyclic(4))) == (16, 64, 12)
    for p in (2, 3):
        assert cli.main(["derivations", "--group", "cyclic:4", "--prime",
                         str(p), "--bimodule", "outer_tensor",
                         "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bimodules"] == {"outer_tensor": {
            "bimodule": "outer_tensor",
            "module_dim": 16,
            "unknowns": 64,
            "derivation_dim": 12,
            "inner_dim": 12,
            "all_inner": True,
        }}


def test_derivation_certificate_matches_elimination_oracle():
    # relabelling moves the generators the certificate reads, and not the
    # rows the elimination reads
    for grp in relabelled_catalog(8, 7):
        _match_elimination_oracle(grp)


def _match_elimination_oracle(grp):
    n = grp.order
    for name, bim in stock_bimodules(grp).items():
        rep = derivation_spaces(bim)
        dim, left, right = stock_actions(grp, name)
        basis, inner = oracle_derivations(grp, dim, left, right)
        ech = Echelon(n * dim)
        ech.add_rows(inner)
        case = (grp.name, grp.identity, name)
        assert rep.inner_dim == len(basis), case
        assert rep.inner_dim == ech.rank, case
        assert spans_equal(basis, inner, n * dim), case
        # Johnson's xi_D = -|G|^{-1} sum_h D(delta_h).delta_{h^-1}
        # recovers every basis derivation as ad_{xi_D}
        right_t = [transpose(mp) for mp in right]
        left_t = [transpose(mp) for mp in left]
        for vec in basis:
            cols = _columns(vec, dim)
            xi = _sparse_sum(
                (c, -v / n) for h in range(n)
                for c, v in apply(left_t[grp.inverses[h]],
                                  cols.get(h, {})).items())
            for g in range(n):
                ad = _sparse_sum([
                    *apply(right_t[g], xi).items(),
                    *((c, -v) for c, v in apply(left_t[g], xi).items())])
                assert ad == cols.get(g, {}), case


def _corrupted_bimodule_args(name, side):
    """Constructor arguments of the stock bimodule over symmetric:3 with
    one transposition swapped in the action of one element on one side."""
    grp = symmetric(3)
    dim, left, right = stock_actions(grp, name)
    actions = {"left": left, "right": right}
    images = list(actions[side][1].images)
    images[0], images[1] = images[1], images[0]
    actions[side][1] = BasisMap(dim, images)
    return name, grp, dim, actions["left"], actions["right"]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", ["regular", "outer_tensor"])
def test_derivation_certificate_rejects_a_non_action(capsys, monkeypatch,
                                                     name, side):
    args = _corrupted_bimodule_args(name, side)
    # part (a) of the certificate is the bimodule axioms
    with pytest.raises(ValueError):
        Bimodule(*args)
    monkeypatch.setattr(amenability, name + "_bimodule",
                        lambda group: Bimodule(*args))
    argv = ["derivations", "--group", "symmetric:3", "--prime", "2",
            "--bimodule", name]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: derivation certificate "
                          "part (a) fails on %s" % name)
    assert err.count("\n") == 1


@pytest.mark.parametrize("grp", list(relabelled_catalog(8, 13))
                         + uncatalogued_groups(),
                         ids=lambda g: "%s@%d" % (g.name, g.identity))
def test_outer_tensor_legs_match_the_definition(monkeypatch, grp):
    # the outer tensor is built from the regular bimodule's maps of S, not
    # by its constructor: it holds the maps of S of the definition, and
    # its report is that of the bimodule the constructor builds from them
    monkeypatch.setenv(ORDER_CAP_ENV, "60")
    bim = outer_tensor_bimodule(grp)
    dim, left, right = stock_actions(grp, "outer_tensor")
    assert len(bim.left) == len(bim.right) == len(grp.generators)
    assert bim.left == [left[a] for a in grp.generators]
    assert bim.right == [right[a] for a in grp.generators]
    built = Bimodule("outer_tensor", grp, dim, left, right)
    assert derivation_spaces(bim) == derivation_spaces(built)


@pytest.mark.parametrize("side", ["left", "right"])
def test_outer_tensor_fails_part_a_on_a_broken_leg(capsys, monkeypatch,
                                                   side):
    args = _corrupted_bimodule_args("regular", side)
    monkeypatch.setattr(amenability, "regular_bimodule",
                        lambda group: Bimodule(*args))
    argv = ["derivations", "--group", "symmetric:3", "--prime", "2",
            "--bimodule", "outer_tensor"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: derivation certificate "
                          "part (a) fails on outer_tensor: bimodule regular")
    assert err.count("\n") == 1


def _unvalidated_actions(grp, rng):
    """(name, dim, left, right) of the stock bimodules, and of actions
    that break their axioms: random permutations at dim 1, 2, 3 and n,
    one transposition swapped in the action of each element on each side,
    the two sides swapped, and the same maps on both sides."""
    n = grp.order
    for dim in (1, 2, 3, n):
        yield "random", dim, *([BasisMap(dim, rng.sample(range(dim), dim))
                                for _ in range(n)] for _ in range(2))
    for name in STOCK_BIMODULES:
        dim, left, right = stock_actions(grp, name)
        yield name, dim, left, right
        if dim == 1:
            continue
        for k, side in itertools.product(grp.elements(), range(2)):
            actions = [list(left), list(right)]
            images = list(actions[side][k].images)
            images[0], images[1] = images[1], images[0]
            actions[side][k] = BasisMap(dim, images)
            yield name, dim, *actions
        yield name, dim, right, left
        yield name, dim, left, left


@pytest.mark.parametrize("grp", list(relabelled_catalog(8, 11)) + [
    g for g in uncatalogued_groups() if g.order <= 12],
    ids=lambda g: "%s@%d" % (g.name, g.identity))
def test_bimodule_axioms_imply_the_johnson_identities(grp):
    # part (b) of the derivation certificate, D = ad(xi_D), is stated by
    # the cancellation of its terms through bimodule laws: every action the
    # Bimodule constructor accepts passes each identity (g, c), and actions
    # it refuses can fail one
    refused_and_failing = 0
    for name, dim, left, right in _unvalidated_actions(
            grp, random.Random(grp.order)):
        failure = johnson_identity_failure(grp, left, right)
        try:
            Bimodule(name, grp, dim, left, right)
        except ValueError:
            refused_and_failing += failure is not None
        else:
            assert failure is None, (name, left, right, failure)
    assert refused_and_failing


def test_bimodule_validation_rejects_bad_actions():
    grp = symmetric(3)
    _, left, right = stock_actions(grp, "regular")
    # swapping the sides breaks the homomorphism laws on a nonabelian group
    with pytest.raises(ValueError):
        Bimodule("swapped", grp, grp.order, right, left)
    with pytest.raises(ValueError):
        Bimodule("short", grp, grp.order, left[:-1], right)
    shifted = [left[grp.table[1][g]] for g in range(grp.order)]
    with pytest.raises(ValueError):
        Bimodule("nonunital", grp, grp.order, shifted, right)


def _refused_exactly_when_broken(name, grp, dim, left, right):
    """The all-pairs oracle's first broken axiom, asserting that the
    Bimodule constructor refuses the actions exactly when there is one."""
    broken = bimodule_axiom_failure(grp, left, right)
    try:
        Bimodule(name, grp, dim, left, right)
    except ValueError:
        assert broken is not None, (name, grp.name, grp.identity)
    else:
        assert broken is None, (name, grp.name, grp.identity, broken)
    return broken


@pytest.mark.parametrize("grp", list(relabelled_catalog(8, 5)),
                         ids=lambda g: "%s@%d" % (g.name, g.identity))
def test_bimodule_axioms_on_generators_match_every_pair(grp):
    # swapped sides, and one transposition swapped in the action of each
    # element on each side: the check on the generating set refuses
    # exactly what the check at every pair refuses
    for name in ("regular", "outer_tensor"):
        dim, good_left, good_right = stock_actions(grp, name)
        cases = [(good_right, good_left)]
        for k, side in itertools.product(grp.elements(), range(2)):
            actions = [list(good_left), list(good_right)]
            images = list(actions[side][k].images)
            images[0], images[-1] = images[-1], images[0]
            actions[side][k] = BasisMap(dim, images)
            cases.append(actions)
        for left, right in cases:
            _refused_exactly_when_broken(name, grp, dim, left, right)


@pytest.mark.parametrize("spec", ["cyclic:4", "symmetric:3"])
def test_commutation_on_generators_matches_every_pair(spec):
    # the right regular action moved by a permutation p of the basis is an
    # antirepresentation, which commutes with the left one for some p only
    grp = from_spec(spec)
    _, left, good_right = stock_actions(grp, "regular")
    verdicts = set()
    for images in itertools.permutations(grp.elements()):
        p = BasisMap(grp.order, images)
        right = [p.compose(r).compose(transpose(p)) for r in good_right]
        broken = _refused_exactly_when_broken("moved", grp, grp.order,
                                              left, right)
        assert broken is None or broken[0] == "commute"
        verdicts.add(broken is None)
    assert verdicts == {True, False}


def test_stock_bimodules_names():
    stock = stock_bimodules(cyclic(3))
    assert set(stock) == {"regular", "trivial", "outer_tensor"}
    assert stock["regular"].dimension == 3
    assert stock["trivial"].dimension == 1
    assert stock["outer_tensor"].dimension == 9


def test_n_squared_builders_refuse_above_the_cap(monkeypatch):
    # lemma2_data partitions n^2 basis tensors and the outer_tensor
    # bimodule has dimension n^2, each of its 2|S| maps n^2 long: the cap
    # refuses both before building
    monkeypatch.delenv(ORDER_CAP_ENV, raising=False)
    grp = cyclic(30)
    with pytest.raises(OrderCapError,
                       match="^quotient isomorphism check refused: group "
                             "order 30 exceeds the cap 24"):
        lemma2_data(grp)
    with pytest.raises(OrderCapError,
                       match="^derivation certificate refused: group "
                             "order 30 exceeds the cap 24"):
        stock_bimodules(grp, ("outer_tensor",))


def test_certify_document_shape_and_stability():
    grp = cyclic(6)
    doc = certify(grp, 3)
    assert doc["schema"] == "padicamen.certificate/1"
    assert doc["group"]["name"] == "cyclic:6"
    assert doc["prime"] == 3
    assert doc["johnson"]["amenable"] is True
    assert doc["schikhof"]["amenable"] is False
    assert doc["schikhof"]["method_lattice"]["witness"]["index"] % 3 == 0
    assert set(doc["checks"].values()) == {"pass"}
    assert len(doc["checks"]) == 11
    # byte stability: rendering twice and recomputing give identical bytes
    text1 = render_json(doc)
    text2 = render_json(certify(cyclic(6), 3))
    assert text1 == text2
    assert text1.endswith("\n")
    # diagonal block carries the closed form
    assert doc["diagonal"]["norm_exponent"] == 1
    assert doc["diagonal"]["pi0"] == {"0": "1/1"}


def test_certify_runs_johnson_check_once(monkeypatch):
    calls = []
    real = amenability.johnson_check

    def counting(group):
        calls.append(group.name)
        return real(group)
    monkeypatch.setattr(amenability, "johnson_check", counting)
    for spec, p in [("cyclic:4", 2), ("symmetric:3", 3)]:
        calls.clear()
        certify(from_spec(spec), p)
        assert calls == [spec]


def test_certify_builds_lemma2_data_once(monkeypatch):
    # certify builds the quotient data once, for the quotient check, which
    # is its only reader: the virtual diagonal takes the lift of delta_e
    # to be the class of the unit once that check has passed
    calls = []
    real = amenability.lemma2_data

    def counting(group):
        calls.append(group.name)
        return real(group)
    def refuse(group):
        raise AssertionError("lemma2_iso_check built its own data")
    monkeypatch.setattr(amenability, "lemma2_data", counting)
    monkeypatch.setattr(hopf, "lemma2_data", refuse)
    for spec, p in [("cyclic:4", 2), ("symmetric:3", 3)]:
        calls.clear()
        certify(from_spec(spec), p)
        assert calls == [spec]


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


GOLDEN_PRIMES = (2, 3, 5, 7)


def _golden_digests():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["sha256"]


def _without_norms(doc):
    """A certificate without the fields that read |.|_p."""
    doc = json.loads(render_json(doc))
    for key in ("prime", "schikhof"):
        del doc[key]
    del doc["johnson"]["mean_norm_exponent"]
    del doc["diagonal"]["norm_exponent"]
    return doc


@pytest.mark.parametrize("grp", catalog(8), ids=lambda g: g.name)
def test_certificate_is_the_same_at_every_prime_but_its_norms(grp):
    # the Johnson side is an identity over Q: only the norms move with p
    docs = [_without_norms(certify(grp, p)) for p in GOLDEN_PRIMES]
    assert all(doc == docs[0] for doc in docs), grp.name


@pytest.mark.parametrize("grp", catalog(8), ids=lambda g: g.name)
def test_verify_documents_differ_only_in_the_prime(capsys, grp):
    docs = []
    for p in (2, 3):
        argv = ["verify", "--group", grp.name, "--prime", str(p),
                "--format", "structured"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        for part in (doc, doc["hopf"], doc["dual_action_identity"],
                     doc["quotient_isomorphism"]):
            assert part.pop("prime") == p
        docs.append(doc)
    assert docs[0] == docs[1]


def test_golden_certificates_are_catalog_12_at_four_primes():
    recorded = {k for k in _golden_digests() if k.startswith("certify ")}
    assert recorded == {"certify %s p%d" % (grp.name, p)
                        for grp in catalog(12) for p in GOLDEN_PRIMES}


@pytest.mark.parametrize("grp", catalog(12), ids=lambda g: g.name)
def test_certificates_match_golden_digests(grp):
    # digests of documents recorded from an earlier version of the package
    digests = _golden_digests()
    for p in GOLDEN_PRIMES:
        text = render_json(certify(grp, p))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            digests["certify %s p%d" % (grp.name, p)], (grp.name, p)


# CLI documents of the golden set, with the order cap each needs
GOLDEN_CLI = {
    "check --group symmetric:4 --prime 3": None,
    "check --group cyclic:30 --prime 7": "30",
    "verify --group symmetric:4 --prime 3": None,
    "sweep --max-order 4": None,
    "sweep --max-order 24": None,
    "derivations --group symmetric:4 --prime 2 --bimodule regular": None,
    "derivations --group dihedral:6 --prime 2": None,
    "derivations --group dihedral:8 --prime 2": None,
}


def test_golden_set_is_covered():
    keys = set(_golden_digests())
    certified = {k for k in keys if k.startswith("certify ")}
    assert keys == certified | set(GOLDEN_CLI)


@pytest.mark.parametrize("key", sorted(GOLDEN_CLI))
def test_cli_documents_match_golden_digests(capsys, monkeypatch, tmp_path,
                                            key):
    if GOLDEN_CLI[key] is not None:
        monkeypatch.setenv("PADICAMEN_ORDER_CAP", GOLDEN_CLI[key])
    out = tmp_path / "doc.json"
    assert cli.main(key.split() + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        _golden_digests()[key]


def _fails_internally(capsys, grp, p, match):
    """certify raises InternalCheckError matching match, and the CLI exits
    2 with one line on stderr."""
    with pytest.raises(InternalCheckError, match=match):
        certify(grp, p)
    assert cli.main(["check", "--group", grp.name, "--prime", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: ") and err.count("\n") == 1


def test_zero_total_invariant_functional_exits_2(capsys, monkeypatch):
    # a functional that vanishes on 1 cannot be normalized into a mean
    def vanishing(group):
        alg = GroupAlgebra(group)
        return [alg.delta(1) - alg.one()]
    monkeypatch.setattr(amenability, "invariant_functional_space", vanishing)
    _fails_internally(capsys, symmetric(3), 3, "vanishes on 1")


def _two_functionals(group):
    basis = invariant_functional_space(group)
    return basis + basis


def _nonconstant_functional(group):
    return [AlgebraElement(GroupAlgebra(group),
                           {g: g + 1 for g in group.elements()})]


def _twice_the_mean(group, mean):
    return virtual_diagonal_construct(group, mean.scale(2))


def _off_subgroups(stand_in_on):
    """stand_in_on(H) for H = <S minus s>, s in S of symmetric:3: each H is
    proper, and a stand-in right on H and wrong off it fails a check on S
    only at the generator outside H."""
    grp = symmetric(3)
    subgroups = [pair_closure(grp, frozenset(grp.generators) - {s})
                 for s in grp.generators]
    assert all(len(h) < grp.order for h in subgroups)
    return tuple(stand_in_on(h) for h in subgroups)


def _ones_on(members):
    # (n/|H|).1_H for the all-ones vector: e_0 = delta_e - 1_H/|H| has
    # augmentation 0, and X = delta_e - e_0 is left invariant under H only
    return lambda algebra: AlgebraElement(
        algebra, dict.fromkeys(members, algebra.dim), len(members))


def _first_leg_in(members):
    # 1 (x) 1 for delta_a (x) delta_b with a outside H: (a (x) 1).d =
    # (1 (x) a).d holds at every a in H and at no other a
    return lambda alg, g, h: (basis_tensor(alg, g, h) if g in members
                              else alg.one())


# the corrupted inputs of each named check, in the order certify runs
# them: (module, name, stand-in or tuple of stand-ins, message)
NEGATIVE_CONTROLS = {
    # S = identity, not inversion, in the map every antipode check reads
    "hopf_axioms": (
        hopf, "antipode_map", lambda group: BasisMap.identity(group.order),
        "Hopf axioms failed on symmetric:3"),
    # right translations x -> xc where eq1_check reads the left ones
    # x -> cx; the Hopf axioms read no translation, so they still pass (a
    # corrupted E fails the e_homomorphism Hopf check first)
    "dual_action_identity": (
        hopf, "translations", lambda group: translations(group)[::-1],
        "dual action identity failed"),
    # the quotient relations of all generators but the last
    "quotient_isomorphism": (
        amenability, "lemma2_data", lambda group: lemma2_data(FiniteGroup(
            group.name, group.order, group.table, group.identity,
            group.inverses, group.labels, group.generators[:-1])),
        "quotient isomorphism check failed"),
    "invariant_space_dimension_one": (
        amenability, "invariant_functional_space", _two_functionals,
        "has dimension 2, expected 1"),
    "mean_normalized_and_invariant": (
        amenability, "invariant_functional_space", _nonconstant_functional,
        "disagrees with the averaging functional"),
    # every index 1: the lattice method passes although p | |G|
    "schikhof_methods_agree": (
        amenability, "subgroup_index", lambda s1, s2: 1,
        "norm and lattice methods disagree"),
    # e_0 = delta_e - 1_H/|H| is in I_0 and a right identity on
    # delta_s - delta_e for s in H only
    "augmentation_ideal_identity": (
        GroupAlgebra, "ones", _off_subgroups(_ones_on),
        "I_0 identity fails on basis element"),
    # twice the mean is invariant too, so only the closed form catches it
    "virtual_diagonal_closed_form": (
        amenability, "virtual_diagonal_construct", _twice_the_mean,
        "constructed diagonal differs from the closed form"),
    # the balance identity read with a (x) 1 replaced by 1 (x) 1 off H
    "virtual_diagonal_identities": (
        amenability, "basis_tensor", _off_subgroups(_first_leg_in),
        "balance identity fails at"),
    "mean_diagonal_round_trip": (
        amenability, "mean_from_diagonal",
        lambda d: mean_from_diagonal(d).scale(2),
        "mean/diagonal round trip failed"),
    # 1 (x) 1 - 2d leaves ker pi0
    "multiplication_kernel_right_identity": (
        amenability, "diagonal_ideal_identity",
        lambda group, d: diagonal_ideal_identity(group, d.scale(2)),
        "is not in ker pi0"),
}


def test_every_named_check_has_a_negative_control():
    assert list(NEGATIVE_CONTROLS) == list(certify(symmetric(3), 3)["checks"])


@pytest.mark.parametrize("check", sorted(NEGATIVE_CONTROLS))
def test_named_check_fails_on_corrupted_input(capsys, monkeypatch, check):
    module, name, stand_ins, message = NEGATIVE_CONTROLS[check]
    grp = symmetric(3)
    assert check in certify(grp, 3)["checks"]
    if not isinstance(stand_ins, tuple):
        stand_ins = (stand_ins,)
    for stand_in in stand_ins:
        monkeypatch.setattr(module, name, stand_in)
        _fails_internally(capsys, grp, 3, message)


def test_certify_trivial_group():
    doc = certify(cyclic(1), 2)
    assert doc["johnson"]["amenable"] is True
    assert doc["schikhof"]["amenable"] is True
    assert doc["johnson"]["mean_norm_exponent"] == 0
    assert doc["diagonal"]["tensor"] == {"0": {"0": "1/1"}}


def test_certificate_is_invariant_under_relabelling():
    # the identity leaves index 0 and the generators are other elements, so
    # Light's test, the quotient relations and the lattice read other
    # indices; only the label order and the first lattice witness may move
    grp = symmetric(4)
    moved = from_table(grp.name, *relabel(grp, random.Random(1)))
    assert moved.identity != 0
    assert {moved.labels[a] for a in moved.generators} != \
        {grp.labels[a] for a in grp.generators}
    for p in (2, 3, 5):
        docs = [_label_free(certify(g, p)) for g in (grp, moved)]
        assert docs[0] == docs[1]
        assert docs[0]["schikhof"]["method_lattice"]["subgroup_count"] == 30


def _label_free(doc):
    """doc with its labels sorted and its first lattice witness dropped,
    the two fields a relabelling may move."""
    doc["group"]["labels"].sort()
    doc["schikhof"]["method_lattice"].pop("witness", None)
    return doc


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(catalog(12)).flatmap(lambda grp: st.tuples(
    st.just(grp), st.permutations(range(grp.order)))))
def test_certificate_is_invariant_under_drawn_relabelling(case):
    grp, new = case
    moved = from_table(grp.name, *permuted(grp, new))
    for p in (2, 3, 5, 7):
        assert _label_free(certify(grp, p)) == _label_free(certify(moved, p))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(uncatalogued_groups()).flatmap(lambda grp: st.tuples(
    st.just(grp), st.permutations(range(grp.order)))))
def test_uncatalogued_groups_are_invariant_under_drawn_relabelling(case):
    # groups built from permutations and matrices mod p, not from a spec
    grp, new = case
    moved = from_table(grp.name, *permuted(grp, new))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ORDER_CAP_ENV, "60")
        for p in (2, 3, 5, 7):
            doc = certify(moved, p)
            assert doc["schikhof"]["amenable"] == (grp.order % p != 0)
            assert _label_free(doc) == _label_free(certify(grp, p))
        stock = stock_bimodules(moved)
        for name, bim in stock_bimodules(grp).items():
            assert derivation_spaces(bim) == derivation_spaces(stock[name])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(catalog(12)).flatmap(lambda grp: st.tuples(
    st.just(grp), st.permutations(range(grp.order)))))
def test_derivations_are_invariant_under_drawn_relabelling(case):
    # part (c) reads the actions of S only, and S moves with the element
    # order; no report may
    grp, new = case
    moved = stock_bimodules(from_table(grp.name, *permuted(grp, new)))
    for name, bim in stock_bimodules(grp).items():
        assert derivation_spaces(bim) == derivation_spaces(moved[name])
