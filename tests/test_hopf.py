"""Hopf diagrams, the enveloping embedding, and the quotient isomorphism."""

import json
import random
from fractions import Fraction

import pytest
from exact_linalg import Echelon
from oracles import (HOPF_PAIR_CHECKS, QuotientRelations, apply,
                     dual_action_verdicts, from_coeffs, hopf_pair_witnesses,
                     pair_closure, relabel, relabelled_catalog, tensor_of,
                     transpose, uncatalogued_groups)

import padicamen.amenability as amenability
import padicamen.group_algebra as group_algebra
from padicamen import cli
from padicamen.amenability import certify
from padicamen.errors import InternalCheckError
from padicamen.finite_group import (ORDER_CAP_ENV, FiniteGroup, catalog,
                                    cyclic, dihedral, from_table, quaternion8,
                                    symmetric)
from padicamen.group_algebra import (AlgebraElement, GroupAlgebra,
                                     TensorAlgebra, augmentation,
                                     basis_classes, convolve, norm_exponent)
import padicamen.hopf as hopf
from padicamen.hopf import (BasisMap, antipode_map, basis_tensor, delta_map,
                            e_basis_map, e_map, eq1_check, lemma2_data,
                            lemma2_iso_check, mult_map, pi0, translations,
                            verify_hopf_axioms)

GROUPS = [cyclic(1), cyclic(4), cyclic(6), dihedral(3), dihedral(4),
          symmetric(3), quaternion8()]


def all_pass(axioms):
    """Whether every check of verify_hopf_axioms passed."""
    return all(r.passed for r in axioms.values())


def random_element(rng, alg, span=6):
    return from_coeffs(alg, {
        g: Fraction(rng.randint(-span, span), rng.randint(1, 3))
        for g in range(alg.group.order)
    })


def test_comultiply_is_diagonal():
    alg = GroupAlgebra(symmetric(3))
    f = from_coeffs(alg, {0: 1, 1: 2, 3: Fraction(1, 3), 5: -5})
    t = delta_map(alg.group).apply(f, alg.tensor)
    assert t.algebra is alg.tensor
    for g in range(6):
        for h in range(6):
            expected = f.coeffs.get(g, 0) if g == h else 0
            assert t.coeffs.get(g * 6 + h, 0) == expected


def test_antipode_reverses():
    grp = cyclic(4)
    alg = GroupAlgebra(grp)
    s = antipode_map(grp)
    assert s.apply(alg.delta(1), alg) == alg.delta(3)
    f = from_coeffs(alg, {0: 1, 1: 2, 2: 3, 3: 4})
    assert s.apply(s.apply(f, alg), alg) == f
    # S is an algebra antihomomorphism: S(fh) = S(h)S(f)
    rng = random.Random(9)
    nab = GroupAlgebra(symmetric(3))
    s = antipode_map(nab.group)
    for _ in range(20):
        f, h = random_element(rng, nab), random_element(rng, nab)
        assert s.apply(convolve(f, h), nab) == \
            convolve(s.apply(h, nab), s.apply(f, nab))


def verify_document(capsys, grp):
    """The document the verify command writes for grp at p = 2."""
    assert cli.main(["verify", "--group", grp.name, "--prime", "2",
                     "--format", "structured"]) == 0
    return json.loads(capsys.readouterr().out)


def test_hopf_axioms_pass_on_catalog_groups(capsys):
    for grp in GROUPS:
        assert all_pass(verify_hopf_axioms(grp)), grp.name
        doc = verify_document(capsys, grp)["hopf"]
        assert doc["antipode_corrupted"] is False
        assert doc["all_pass"] and doc["order"] == grp.order


def corrupt_antipode(monkeypatch, images):
    """S delta_g = delta_images[g] in the one statement of the antipode,
    which the diagrams and the antihomomorphism check both read."""
    monkeypatch.setattr(hopf, "antipode_map",
                        lambda group: BasisMap(group.order, images))


def test_corrupted_antipode_fails_antipode_axioms(monkeypatch):
    grp = symmetric(3)
    corrupt_antipode(monkeypatch, range(6))
    report = verify_hopf_axioms(grp)
    assert not report["antipode_left"].passed
    assert not report["antipode_right"].passed
    assert report["antipode_left"].witness is not None
    assert report["antipode_right"].witness is not None
    # the untouched diagrams still commute
    assert report["coassociativity"].passed
    assert report["counit_left"].passed
    assert report["counit_right"].passed
    assert not report["antipode_antihomomorphism"].passed
    assert not all_pass(report)


def test_corrupted_antipode_by_transposition(monkeypatch):
    grp = symmetric(3)
    # swap two non-inverse elements on top of inversion
    images = list(grp.inverses)
    a, b = 1, 2
    images[a], images[b] = images[b], images[a]
    corrupt_antipode(monkeypatch, images)
    report = verify_hopf_axioms(grp)
    assert not all_pass(report)


def test_e_map_is_homomorphism():
    grp = symmetric(3)
    alg = GroupAlgebra(grp)
    n = grp.order
    for g in range(n):
        for h in range(n):
            lhs = e_map(alg.delta(g)) * e_map(alg.delta(h))
            rhs = e_map(alg.delta(grp.table[g][h]))
            assert lhs == rhs
    # and linearly on random elements
    rng = random.Random(12)
    for _ in range(15):
        f, h = random_element(rng, alg), random_element(rng, alg)
        assert e_map(convolve(f, h)) == e_map(f) * e_map(h)


def test_pi0_collapses_e_map_to_augmentation():
    rng = random.Random(3)
    alg = GroupAlgebra(dihedral(4))
    for _ in range(15):
        f = random_element(rng, alg)
        collapsed = pi0(e_map(f))
        assert collapsed == alg.one().scale(augmentation(f))


def test_pi0_on_both_flavors():
    alg = GroupAlgebra(symmetric(3))
    grp = alg.group
    for target in (alg.tensor, alg.enveloping):
        t = basis_tensor(target, 1, 2)
        assert pi0(t) == alg.delta(grp.table[1][2])
        assert pi0(t).algebra is alg


def test_pi0_is_left_module_map():
    # pi0(w . u) = delta_wg * pi0(u) * delta_wh for basis w = (wg, wh)
    rng = random.Random(77)
    grp = symmetric(3)
    alg = GroupAlgebra(grp)
    n = grp.order
    for _ in range(8):
        coeffs = {
            (rng.randrange(n), rng.randrange(n)):
                Fraction(rng.randint(-4, 4))
            for _ in range(5)
        }
        u = sum((basis_tensor(alg.enveloping, g, h).scale(c)
                 for (g, h), c in coeffs.items()),
                AlgebraElement(alg.enveloping, {}))
        for wg in range(n):
            for wh in range(n):
                w = basis_tensor(alg.enveloping, wg, wh)
                lhs = pi0(w * u)
                rhs = convolve(convolve(alg.delta(wg), pi0(u)),
                               alg.delta(wh))
                assert lhs == rhs


def test_tensor_flavors_differ():
    grp = symmetric(3)
    alg = GroupAlgebra(grp)
    n = grp.order
    g, h, a, b = 1, 2, 3, 4
    plain = basis_tensor(alg.tensor, g, h) * basis_tensor(alg.tensor, a, b)
    env = basis_tensor(alg.enveloping, g, h) \
        * basis_tensor(alg.enveloping, a, b)
    assert plain.coeffs == {grp.table[g][a] * n + grp.table[h][b]: 1}
    assert env.coeffs == {grp.table[g][a] * n + grp.table[b][h]: 1}
    assert plain.coeffs != env.coeffs  # S3 is nonabelian at these points


def test_tensor_algebras_built_once_per_algebra():
    grp = symmetric(3)
    alg = GroupAlgebra(grp)
    assert alg.tensor is alg.tensor and alg.enveloping is alg.enveloping
    for target in (alg.tensor, alg.enveloping):
        assert target.base is alg and target.dim == 36
        assert target.tensor is alg.tensor
        assert target.enveloping is alg.enveloping
        # the factor tables are G's own, no n^4-entry table of G x G^op
        assert target.first is grp.table and len(target.second) == 6
    assert alg.enveloping.second is grp.opposite_table
    assert alg.enveloping.one() == basis_tensor(alg.enveloping, 0, 0)
    # an algebra built separately over the same data is compatible
    assert GroupAlgebra(symmetric(3)).enveloping.compatible(alg.enveloping)
    assert not GroupAlgebra(cyclic(6)).enveloping.compatible(alg.enveloping)


def test_tensor_element_ops():
    alg = GroupAlgebra(cyclic(3))
    t = tensor_of(from_coeffs(alg, {0: 1, 1: 2}),
                  from_coeffs(alg, {1: 1, 2: 1}), alg.tensor)
    assert t.coeffs == {1: 1, 2: 1, 4: 2, 5: 2}
    assert (t - t).is_zero()
    assert t.scale(0).is_zero()
    assert (t + t) == t.scale(2)
    assert (-t) == t.scale(-1)
    doc = t.to_doc()
    assert doc["0"]["1"] == "1/1"
    with pytest.raises(ValueError):
        t + alg.ones()  # l(G) and l(G x G)
    with pytest.raises(ValueError):
        convolve(alg.ones(), t)
    # G is abelian, so G^op = G and the two tensor algebras coincide
    assert alg.tensor.compatible(alg.enveloping)
    nab = GroupAlgebra(symmetric(3))
    plain, env = nab.tensor.one(), nab.enveloping.one()
    assert plain != env
    for op in (lambda a, b: a + b, lambda a, b: a - b, convolve):
        with pytest.raises(ValueError):
            op(plain, env)


def test_basis_map_basics():
    f = Fraction
    # e0 -> e2, e1 -> 0, e2 -> e0 inside a 3-dimensional target
    m = BasisMap(3, (2, None, 0))
    ident = BasisMap.identity(3)
    assert m.ncols == 3
    assert m.compose(ident) == m == ident.compose(m)
    assert m.compose(m).images == (0, None, 2)
    assert apply(m, {0: f(1), 1: f(4), 2: f(3)}) == {2: f(1), 0: f(3)}
    assert apply(BasisMap(1, (0, 0)), {0: f(1), 1: f(-1)}) == {}
    assert transpose(m).images == (2, None, 0)
    e = BasisMap(4, (3, 1))  # injective, rank 2 in a 4-dimensional target
    assert transpose(e).images == (None, 1, None, 0)
    assert transpose(e).compose(e) == BasisMap.identity(2)
    with pytest.raises(ValueError):
        transpose(BasisMap(1, (0, 0)))
    with pytest.raises(ValueError):
        m.compose(e)  # e lands in dimension 4, m reads dimension 3
    kron = e.kron(m)
    assert kron.nrows == 12 and kron.ncols == 6
    assert kron.images == (11, None, 9, 5, None, 3)
    assert m.first_column_difference(ident) == 0
    assert m.first_column_difference(m) is None
    assert m != BasisMap(4, (2, None, 0))


def test_eq1_identity_on_catalog_groups():
    for grp in GROUPS:
        report = eq1_check(grp)
        assert all(report.values()), grp.name
        assert len(report) == grp.order


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_action_identity_matches_transposed_oracle(monkeypatch, seed):
    # the package compares E L_c with l_E(c) E, the oracle their
    # transposes over all n^2 basis functionals; with a corrupted E or
    # right translations in place of the left ones, some c fail
    verdicts = set()
    for grp in relabelled_catalog(12, seed):
        left, right = translations(grp)
        for e, sides in [(e_basis_map(grp), (left, right)),
                         (_diagonal_e(grp), (left, right)),
                         (_shifted_e(grp), (left, right)),
                         (e_basis_map(grp), (right, left))]:
            monkeypatch.setattr(hopf, "e_basis_map", lambda group, e=e: e)
            monkeypatch.setattr(hopf, "translations",
                                lambda group, sides=sides: sides)
            per_c = eq1_check(grp)
            assert per_c == dual_action_verdicts(grp, e, sides[0]), grp.name
            verdicts.update(per_c.values())
    assert verdicts == {True, False}


def enveloping_relations(grp, elements):
    """u.E(delta_a) - u for u = delta_g (x) delta_h and a in elements, in
    the order g, h, a, through the generic enveloping product."""
    env = GroupAlgebra(grp).enveloping
    n = grp.order
    return [(basis_tensor(env, g, h) * e_map(env.base.delta(a))
             - basis_tensor(env, g, h)).coeffs
            for g in range(n) for h in range(n) for a in elements]


def test_lemma2_relation_count():
    # the package keeps the relations of the generators a in S, the oracle
    # those of every a != e; each is e_i - e_j, as the generic enveloping
    # product confirms pair by pair, and the relation for a = e vanishes
    for grp, gens in [(cyclic(3), (1,)), (symmetric(3), (1, 2))]:
        relations, _ = lemma2_data(grp)
        n = grp.order
        assert grp.generators == gens
        assert len(relations) == n * n * len(gens)
        assert enveloping_relations(grp, gens) == \
            [{i: Fraction(1), j: Fraction(-1)} for i, j in relations]
        oracle = QuotientRelations(grp.table, grp.inverses, grp.identity)
        assert len(oracle) == n * n * n - n * n
        others = [a for a in range(n) if a != grp.identity]
        assert enveloping_relations(grp, others) == \
            [{i: Fraction(1), j: Fraction(-1)} for i, j in oracle]
        assert not any(enveloping_relations(grp, [grp.identity]))


def test_lemma2_data_rebuilt_and_consistent():
    # nothing is cached: two builds read the same relations off the table
    # and give equal classes, not one shared object
    grp = dihedral(3)
    first = lemma2_data(grp)
    second = lemma2_data(dihedral(3))
    assert list(first[0]) == list(second[0]) and first[1] == second[1]
    assert first[0] is not second[0] and first[1] is not second[1]
    assert len(set(first[1])) == grp.order


def test_lemma2_classes_match_echelon_oracle():
    # the span of every relation, not only the generator relations that
    # built the classes
    for grp in catalog(8):
        n = grp.order
        _, classes = lemma2_data(grp)
        ech = Echelon(n * n)
        ech.add_rows({i: Fraction(1), j: Fraction(-1)} for i, j in
                     QuotientRelations(grp.table, grp.inverses, grp.identity))
        assert len(set(classes)) == n * n - ech.rank, grp.name
        for k, c in enumerate(classes):
            assert c == min(x for x in range(n * n) if classes[x] == c)
            if k != c:
                assert ech.contains({k: Fraction(1), c: Fraction(-1)})
        products = [grp.table[k // n][k % n] for k in range(n * n)]
        for k in range(n * n):
            for m in range(n * n):
                assert (classes[k] == classes[m]) == \
                    (products[k] == products[m])


def test_lemma2_iso_check_on_catalog_groups(capsys):
    for grp in GROUPS:
        report = lemma2_iso_check(grp, lemma2_data(grp))
        assert report.all_pass, grp.name
        assert report.quotient_dim == grp.order
        assert report.well_defined and report.bijective
        assert report.action_commutes
        doc = verify_document(capsys, grp)["quotient_isomorphism"]
        assert doc["dim_ok"] and doc["all_pass"]


def test_quotient_isomorphism_fails_with_diagonal_e(monkeypatch):
    # E(delta_a) = delta_a (x) delta_a: every relation read off the table
    # with inversion replaced by the identity map
    grp = symmetric(3)
    relations = QuotientRelations(grp.table, tuple(range(grp.order)),
                                  grp.identity)
    data = (relations, basis_classes(grp.order ** 2, relations))
    report = lemma2_iso_check(grp, data)
    assert report.quotient_dim == 2
    assert not (report.dim_ok or report.well_defined or report.bijective)
    assert not report.all_pass
    # certify builds the data once and hands it to the check
    monkeypatch.setattr(amenability, "lemma2_data", lambda group: data)
    with pytest.raises(InternalCheckError,
                       match="^quotient isomorphism check failed$"):
        certify(grp, 2)


def _s3_class_maps():
    """Class maps of S3 that get the lift of delta_e wrong, each with the
    flags of lemma2_iso_check that fail on it, under either relation set."""
    grp = symmetric(3)
    n, e, t = grp.order, grp.identity, 1
    others = {e * n + a for a in range(n) if a != e}

    def classes_with(reps, rest):
        """Class map whose classes are reps, every other index in rest's."""
        return tuple(k if k in reps else rest for k in range(n * n))
    return {
        # every basis tensor its own class: dimension n^2
        "dimension_36": (classes_with(set(range(n * n)), None),
                         {"dim_ok", "bijective"}),
        # no representative multiplies to e, and two multiply to t
        "no_class_over_e": (classes_with(others | {t * n + e}, t * n + e),
                            {"bijective", "action_commutes"}),
        # the one class over e is delta_t (x) delta_{t^-1}'s, and e (x) e
        # sits in the class of e (x) 1: the representatives still have n
        # distinct products, so only the action check sees it
        "class_over_e_is_t_t_inverse": (
            classes_with(others | {t * n + grp.inverses[t]}, min(others)),
            {"action_commutes"}),
        # two classes over e, and none over t
        "two_classes_over_e": (classes_with(
            (others - {e * n + t}) | {e * n + e, t * n + grp.inverses[t]},
            e * n + e), {"bijective", "action_commutes"}),
    }


@pytest.mark.parametrize("case", sorted(_s3_class_maps()))
def test_quotient_check_pins_the_lift_of_delta_e(monkeypatch, case):
    # the virtual diagonal takes the lift of delta_e to be the class of
    # 1 (x) 1 because this check passed: each class map here gets that
    # class wrong, and the check fails with the true relations and with
    # none (well_defined reads only the relations, so it passes on both)
    grp = symmetric(3)
    classes, failing = _s3_class_maps()[case]
    for relations in (lemma2_data(grp)[0], ()):
        report = lemma2_iso_check(grp, (relations, classes))
        assert not report.all_pass
        assert report.well_defined
        flags = {"dim_ok": report.dim_ok, "bijective": report.bijective,
                 "action_commutes": report.action_commutes}
        assert {name for name, ok in flags.items() if not ok} == failing
        monkeypatch.setattr(amenability, "lemma2_data",
                            lambda group: (relations, classes))
        with pytest.raises(InternalCheckError,
                           match="^quotient isomorphism check failed$"):
            certify(grp, 2)


def test_diagonal_e_is_refused_at_the_hopf_axioms():
    # the generator relations rest on E(st) = E(s)E(t): with the diagonal
    # E they alone pass, so certify must refuse the group at the Hopf
    # axioms, where e_homomorphism fails, before the quotient is read
    s3 = symmetric(3)
    grp = FiniteGroup(s3.name, s3.order, s3.table, s3.identity,
                      tuple(range(6)), s3.labels, s3.generators)
    assert lemma2_iso_check(grp, lemma2_data(grp)).all_pass
    assert not verify_hopf_axioms(grp)["e_homomorphism"].passed
    with pytest.raises(InternalCheckError,
                       match="^Hopf axioms failed on symmetric:3$"):
        certify(grp, 2)


@pytest.mark.parametrize("grp", GROUPS[1:] + [symmetric(4)],
                         ids=lambda g: g.name)
def test_quotient_isomorphism_fails_without_a_generator(grp):
    # a generating set that does not generate leaves too many classes
    short = FiniteGroup(grp.name, grp.order, grp.table, grp.identity,
                        grp.inverses, grp.labels, grp.generators[:-1])
    report = lemma2_iso_check(short, lemma2_data(short))
    assert report.quotient_dim > grp.order
    assert not report.dim_ok and not report.all_pass
    with pytest.raises(InternalCheckError,
                       match="^quotient isomorphism check failed$"):
        certify(short, 2)


def test_quotient_isomorphism_fails_with_missing_relations():
    # keep the relations of a = e (none) and the involution a = (12) only:
    # they pair each tensor j with one other, so the 36 fall into 18 pairs
    grp = symmetric(3)
    n, t = grp.order, grp.labels.index("102")
    relations = [(i, j) for i, j in lemma2_data(grp)[0]
                 if grp.table[grp.inverses[j // n]][i // n] == t]
    assert [j for _, j in relations] == list(range(n * n))
    classes = tuple(min(i, j) for i, j in relations)
    report = lemma2_iso_check(grp, (relations, classes))
    assert report.quotient_dim == 18
    assert report.well_defined
    assert not (report.dim_ok or report.bijective or report.all_pass)
    # n classes, e (x) e, t (x) t^-1 and e (x) a for a >= 2, two over e
    e = grp.identity
    reps = {e * n + e, t * n + grp.inverses[t]} | set(range(e * n + 2, n))
    classes = tuple(k if k in reps else e * n + e for k in range(n * n))
    report = lemma2_iso_check(grp, ([], classes))
    assert report.dim_ok and report.well_defined
    assert not report.bijective and not report.all_pass


def test_quotient_isomorphism_fails_with_plain_product(monkeypatch):
    # the enveloping product read through G's own table, not the opposite
    grp = symmetric(3)
    data = lemma2_data(grp)
    monkeypatch.setattr(FiniteGroup, "opposite_table",
                        property(lambda self: self.table))
    report = lemma2_iso_check(grp, data)
    assert report.dim_ok and report.well_defined and report.bijective
    assert not report.action_commutes and not report.all_pass
    # the enveloping product's flat index with its legs exchanged,
    # (g, h) read as (h, g): delta_g (x) 1 times e (x) delta_z lands on
    # z (x) g, whose product zg differs from gz for noncommuting g, z
    monkeypatch.undo()
    product_index = TensorAlgebra.product_index

    def exchanged(self, i, j):
        g, h = divmod(product_index(self, i, j), self.base.dim)
        return h * self.base.dim + g
    monkeypatch.setattr(TensorAlgebra, "product_index", exchanged)
    report = lemma2_iso_check(grp, data)
    assert report.dim_ok and report.well_defined and report.bijective
    assert not report.action_commutes


def test_swapped_second_leg_fails_both_checks(monkeypatch):
    # the product rule with its second leg read as second[y][s]: the
    # enveloping product becomes the plain one, which E does not respect
    def swapped(self, i, j):
        m = len(self.second)
        g, s = divmod(i, m)
        x, y = divmod(j, m)
        return self.first[g][x] * m + self.second[y][s]
    grp = symmetric(3)
    data = lemma2_data(grp)
    assert all(eq1_check(grp).values())
    assert lemma2_iso_check(grp, data).action_commutes
    monkeypatch.setattr(GroupAlgebra, "product_index", swapped)
    assert not all(eq1_check(grp).values())
    report = lemma2_iso_check(grp, data)
    assert report.dim_ok and report.well_defined and report.bijective
    assert not report.action_commutes


S3 = symmetric(3)
# every class representative is delta_e (x) delta_z with e at index 0, so
# the generators delta_g (x) 1 and 1 (x) delta_h of the action check read
# every entry of the opposite table and every entry of the class map
S3_REPS = sorted(set(lemma2_data(S3)[1]))
OPPOSITE_ENTRIES = [(h, y) for h in range(S3.order) if h != S3.identity
                    for y in range(S3.order)]
NON_REPRESENTATIVES = [k for k, r in enumerate(lemma2_data(S3)[1]) if k != r]


@pytest.mark.parametrize("h, y", OPPOSITE_ENTRIES)
def test_action_check_reads_every_opposite_table_entry(monkeypatch, h, y):
    assert S3.identity == 0 and S3_REPS == list(range(S3.order))
    corrupted = [list(row) for row in S3.opposite_table]
    corrupted[h][y] = (corrupted[h][y] + 1) % S3.order
    monkeypatch.setattr(FiniteGroup, "opposite_table",
                        property(lambda self: corrupted))
    report = lemma2_iso_check(S3, lemma2_data(S3))
    assert report.well_defined and report.bijective
    assert not report.action_commutes


@pytest.mark.parametrize("k", NON_REPRESENTATIVES)
def test_action_check_reads_every_class_entry(k):
    relations, classes = lemma2_data(S3)
    corrupted = list(classes)
    # re-point k at the next class
    corrupted[k] = S3_REPS[(S3_REPS.index(classes[k]) + 1) % len(S3_REPS)]
    report = lemma2_iso_check(S3, (relations, tuple(corrupted)))
    assert report.well_defined and report.bijective
    assert not report.action_commutes


def test_hopf_structure_builds_and_validates():
    grp = quaternion8()
    delta = delta_map(grp)
    assert delta.ncols == 8 and delta.nrows == 64
    assert delta.images == tuple(g * 8 + g for g in range(8))
    s = antipode_map(grp)
    assert s.ncols == 8 and s.images == grp.inverses
    mult = mult_map(grp)
    assert mult.nrows == 8 and mult.ncols == 64
    assert mult.images[2 * 8 + 4] == grp.table[2][4]


def test_basis_map_apply_adds_drops_and_reduces():
    alg = GroupAlgebra(cyclic(4))
    m = BasisMap(4, (1, 1, None, 3))
    # delta_0 and delta_1 share an image and cancel, delta_2 goes to 0,
    # and 2/4 at delta_3 is kept over the denominator, then reduced
    image = m.apply(AlgebraElement(alg, {0: 1, 1: -1, 2: 5, 3: 2}, 4), alg)
    assert (image.num, image.den) == ({3: 1}, 2)
    assert m.apply(alg.delta(0) + alg.delta(1), alg) == alg.delta(1).scale(2)
    assert m.apply(alg.delta(2), alg).is_zero()
    for f, target in [(alg.delta(0), alg.tensor),
                      (alg.tensor.delta(0), alg)]:
        with pytest.raises(ValueError, match="basis map of shape 4 x 4"):
            m.apply(f, target)


@pytest.mark.parametrize("grp", [symmetric(3), quaternion8(), dihedral(4)],
                         ids=lambda g: g.name)
def test_tensor_products_match_per_leg_convolution(grp):
    # both product rules on every basis quadruple, each leg computed by
    # convolution instead of the Cayley-table lookup of the product rule
    alg = GroupAlgebra(grp)
    n = grp.order
    delta = [alg.delta(g) for g in range(n)]
    for g in range(n):
        for h in range(n):
            plain_gh = basis_tensor(alg.tensor, g, h)
            env_gh = basis_tensor(alg.enveloping, g, h)
            for a in range(n):
                first = convolve(delta[g], delta[a])
                for b in range(n):
                    assert plain_gh * basis_tensor(alg.tensor, a, b) == \
                        tensor_of(first, convolve(delta[h], delta[b]),
                                  alg.tensor)
                    assert env_gh * basis_tensor(alg.enveloping, a, b) == \
                        tensor_of(first, convolve(delta[b], delta[h]),
                                  alg.enveloping)


def _shifted_delta(group, t=1):
    # delta_g -> delta_g (x) delta_{tg}, t != e
    n = group.order
    return BasisMap(n * n, (g * n + group.table[t][g] for g in range(n)))


def _diagonal_e(group):
    # E(delta_g) = delta_g (x) delta_g
    n = group.order
    return BasisMap(n * n, (g * n + g for g in range(n)))


def _shifted_e(group):
    # E(delta_g) = delta_g (x) delta_{g^-1 t}, t != e for a nontrivial group
    n, t = group.order, (group.generators or (group.identity,))[0]
    return BasisMap(n * n, (g * n + group.table[group.inverses[g]][t]
                            for g in range(n)))


def test_corrupted_comultiplication_fails_diagrams(monkeypatch):
    grp = symmetric(3)
    n = grp.order
    e = grp.identity
    # delta_g -> delta_g (x) delta_e breaks the left counit law; it is
    # still coassociative, since both sides send delta_g to g (x) e (x) e
    monkeypatch.setattr(hopf, "delta_map",
                        lambda group: BasisMap(n * n, (g * n + e
                                                       for g in range(n))))
    report = verify_hopf_axioms(grp)
    assert not report["counit_left"].passed
    assert report["counit_left"].witness == "basis column 021"
    assert report["counit_right"].passed
    assert report["coassociativity"].passed
    # delta_g -> delta_g (x) delta_{tg}, t != e, breaks coassociativity too:
    # the sides give g (x) tg (x) tg and g (x) tg (x) ttg
    monkeypatch.setattr(hopf, "delta_map", _shifted_delta)
    report = verify_hopf_axioms(grp)
    for name in ("coassociativity", "counit_left"):
        assert not report[name].passed, name
        assert report[name].witness == "basis column 012", name
    assert report["counit_right"].passed
    assert not all_pass(report)


def test_corrupted_e_fails_dual_action_identity(monkeypatch):
    grp = symmetric(3)
    # E(delta_g) = delta_g (x) delta_g instead of delta_g (x) delta_{g^-1}
    monkeypatch.setattr(hopf, "e_basis_map", _diagonal_e)
    report = eq1_check(grp)
    assert False in report.values()
    assert report["012"]  # the identity element still commutes
    assert not all(report.values())
    # the Hopf check reads the same E, so it rejects it first
    hopf_report = verify_hopf_axioms(grp)
    assert not hopf_report["e_homomorphism"].passed
    assert not all_pass(hopf_report)


@pytest.mark.parametrize("builder, stand_in, axiom", [
    ("delta_map", _shifted_delta, "comultiplication_homomorphism"),
    ("antipode_map", lambda group: BasisMap.identity(group.order),
     "antipode_antihomomorphism"),
    ("e_basis_map", _diagonal_e, "e_homomorphism"),
], ids=["delta", "antipode", "e"])
def test_each_pair_check_fails_on_its_own_map(monkeypatch, builder,
                                              stand_in, axiom):
    # the pair check reads the map its builder states, and no other
    grp = symmetric(3)
    assert grp.identity == 0 and grp.table[1][0] != 0
    monkeypatch.setattr(hopf, builder, stand_in)
    report = verify_hopf_axioms(grp)
    failed = [name for name in HOPF_PAIR_CHECKS
              if not report[name].passed]
    assert failed == [axiom]
    witness = report[axiom].witness
    assert witness.startswith("pair (") and witness.endswith(")")
    assert not all_pass(report)


STAND_INS = [
    ("delta_map", lambda group: _shifted_delta(
        group, (group.generators or (group.identity,))[0])),
    ("antipode_map", lambda group: BasisMap.identity(group.order)),
    ("e_basis_map", _diagonal_e),
    ("e_basis_map", _shifted_e),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_checks_match_per_pair_oracle(monkeypatch, seed):
    # the package reads each basis image once, the oracle builds both
    # factors' images again for every pair; with the true maps and with
    # each stand-in they agree on every verdict and witness
    rng = random.Random(seed)
    # the six groups the catalog lacks, shared out over the seeds
    groups = list(relabelled_catalog(12, seed)) + [
        from_table(grp.name, *relabel(grp, rng))
        for grp in uncatalogued_groups()[seed::3]]
    for builder, stand_in in [(None, None)] + STAND_INS:
        monkeypatch.undo()
        monkeypatch.setenv(ORDER_CAP_ENV, "60")
        if builder is not None:
            monkeypatch.setattr(hopf, builder, stand_in)
        failed = set()
        for grp in groups:
            report = verify_hopf_axioms(grp)
            for name, witness in hopf_pair_witnesses(grp).items():
                result = report[name]
                assert (result.passed, result.witness) == \
                    (witness is None, witness), (grp.name, builder, name)
                if witness is not None:
                    failed.add(name)
        assert bool(failed) == (builder is not None), builder


def test_pair_checks_apply_the_maps_to_each_basis_image_once(monkeypatch):
    # per pair (g, h), g in S, one image of the product under each of
    # Delta, S and E, and one image of each basis element under each:
    # 3n|S| + 3n applications, where all n^2 pairs made 126
    calls = []
    apply_map = BasisMap.apply

    def counted(self, f, target):
        calls.append(self)
        return apply_map(self, f, target)
    monkeypatch.setattr(BasisMap, "apply", counted)
    grp = symmetric(3)
    n, rows = grp.order, len(grp.generators)
    assert all_pass(verify_hopf_axioms(grp))
    assert len(calls) <= 3 * n * rows + 3 * n == 54


def patch_convolve(monkeypatch, stand_in):
    # AlgebraElement.__mul__ reads group_algebra's name, the pair checks
    # hopf's own
    monkeypatch.setattr(group_algebra, "convolve", stand_in)
    monkeypatch.setattr(hopf, "convolve", stand_in)


def test_passing_pair_checks_make_four_products_per_generating_row_pair(
        monkeypatch):
    # per pair (g, h), g in S, one product of the two basis elements,
    # shared by the four identities, and one product of the two images
    # for each of Delta, S and E: 4n|S|, where all n^2 pairs made
    # 4n^2 = 144
    calls = []

    def counted(f, h):
        calls.append((f, h))
        return convolve(f, h)
    patch_convolve(monkeypatch, counted)
    grp = symmetric(3)
    n, rows = grp.order, len(grp.generators)
    assert all_pass(verify_hopf_axioms(grp))
    assert len(calls) <= 4 * n * rows == 48


def test_each_identity_keeps_its_own_first_failing_pair(monkeypatch):
    # Delta shifted by a generator t fails at every pair, since
    # t gh != tg th, and the identity antipode only at pairs that do not
    # commute, never at (g, g); so a loop that stopped at the first
    # failure of any identity would miss the antipode's witness
    monkeypatch.setattr(hopf, "delta_map", lambda group: _shifted_delta(
        group, group.generators[0]))
    monkeypatch.setattr(hopf, "antipode_map",
                        lambda group: BasisMap.identity(group.order))
    both = 0
    for seed in (0, 1, 2):
        for grp in relabelled_catalog(12, seed):
            if grp.order == 1:
                continue
            report = verify_hopf_axioms(grp)
            for name, witness in hopf_pair_witnesses(grp).items():
                result = report[name]
                assert (result.passed, result.witness) == \
                    (witness is None, witness), (grp.name, name)
            comult = report["comultiplication_homomorphism"]
            anti = report["antipode_antihomomorphism"]
            assert not comult.passed, grp.name
            assert report["counit_homomorphism"].passed
            assert report["e_homomorphism"].passed
            if not anti.passed:
                assert anti.witness != comult.witness, grp.name
                both += 1
    assert both > 0


def test_counit_check_alone_catches_a_scaled_product(monkeypatch):
    # a product that doubles every result scales both sides of the Delta,
    # S and E identities alike, but not epsilon(delta_g delta_h) = 1
    patch_convolve(monkeypatch, lambda f, h: convolve(f, h).scale(2))
    grp = symmetric(3)
    report = verify_hopf_axioms(grp)
    failed = [name for name, r in report.items() if not r.passed]
    assert failed == ["counit_homomorphism"]
    e = grp.labels[grp.identity]
    assert report["counit_homomorphism"].witness == \
        f"pair ({e}, {e})"


def _off_subgroup(builder, members):
    # the builder's map on delta_h for h in members, 0 on the other cosets
    def stand_in(group):
        true = builder(group)
        return BasisMap(true.nrows, (i if g in members else None
                                     for g, i in enumerate(true.images)))
    return stand_in


def test_generating_set_decides_what_every_element_decides(monkeypatch):
    # For s in S with H = <S minus s> proper, the stand-ins agree with
    # Delta, epsilon, S and E on H and send every other coset Hr to 0.
    # Then P(h, x) holds for every h in H and x in G, since hx lies in H
    # exactly when x does, and P(g, h) fails exactly where gh lies in H
    # but g and h do not both; so a pair check that skipped the row s
    # would pass them.  A twist of the cosets within G, f(hr) = h sigma(r),
    # cannot serve C2^k: there every f with f(hx) = f(h)f(x) for all h in
    # a subgroup H of index 2 is a homomorphism.
    checked = 0
    for grp in catalog(12) + uncatalogued_groups():
        n, table, labels = grp.order, grp.table, grp.labels
        for s in grp.generators:
            members = pair_closure(grp, frozenset(grp.generators) - {s})
            if len(members) == n:
                continue
            monkeypatch.undo()
            monkeypatch.setenv(ORDER_CAP_ENV, "60")
            for builder in (delta_map, antipode_map, e_basis_map):
                monkeypatch.setattr(hopf, builder.__name__,
                                    _off_subgroup(builder, members))
            monkeypatch.setattr(hopf, "augmentation", lambda f: sum(
                v for k, v in f.num.items() if k in members))
            g, h = next((g, h) for g in range(n) for h in range(n)
                        if (table[g][h] in members)
                        != (g in members and h in members))
            witness = f"pair ({labels[g]}, {labels[h]})"
            report = verify_hopf_axioms(grp)
            for name in HOPF_PAIR_CHECKS:
                result = report[name]
                assert (result.passed, result.witness) == \
                    (False, witness), (grp.name, s, name)
            # the oracle reads the builders, and group_algebra's epsilon
            assert hopf_pair_witnesses(grp) == dict(
                dict.fromkeys(HOPF_PAIR_CHECKS, witness),
                counit_homomorphism=None), (grp.name, s)
            checked += 1
    assert checked == 49
    # cyclic:1: S is empty and the row e is the whole check
    monkeypatch.undo()
    patch_convolve(monkeypatch, lambda f, h: convolve(f, h).scale(2))
    report = verify_hopf_axioms(cyclic(1))
    assert report["counit_homomorphism"].witness == "pair (0, 0)"


def test_tensor_norm_and_doc_stability():
    alg = GroupAlgebra(cyclic(2))
    t = tensor_of(alg.ones(), alg.ones(), alg.enveloping).scale(Fraction(1, 2))
    assert norm_exponent(t, 2) == 1
    assert norm_exponent(AlgebraElement(alg.enveloping, {}), 2) is None
    doc = t.to_doc()
    assert doc == {"0": {"0": "1/2", "1": "1/2"},
                   "1": {"0": "1/2", "1": "1/2"}}
