"""The theorem engine: means, virtual diagonals, derivations, certificates.

For a finite group G over Q_p the story certified here is:

* G always carries a left-invariant functional with m(1) != 0 (Johnson
  amenability); the invariant space is one-dimensional and the normalized
  mean is the averaging functional with norm exponent v_p(|G|).
* The sharper notion demanding ||m|| <= 1 (Schikhof amenability) holds
  exactly when that exponent is <= 0; independently, exactly when no
  subgroup index is divisible by p.  Both methods are computed and must
  agree; p | |G| is the separating case.
* Amenability of the convolution algebra itself is witnessed by a virtual
  diagonal, constructed here by tracing the proof: lift delta_e through
  the quotient isomorphism, which certify decides first, to the class of
  the unit, push the mean through E, and land on the closed form
  |G|^{-1} sum_g delta_g (x) delta_{g^{-1}}.  Its marginal recovers the
  mean, closing the round trip.
* Derivations into dual bimodules are all inner, by Johnson's proof
  rather than by solving: with the virtual diagonal's xi_D, D = ad(xi_D)
  and ad(xi) a derivation are formal consequences of the bimodule axioms,
  decided on a generating set when a bimodule is built, by the
  cancellation written out at derivation_spaces; and the multiplication
  kernel has an exact right identity 1 (x) 1 - d.

Everything on the Johnson side (the mean, the quotient, the diagonal and
the derivations) is an identity over the rationals and takes no prime.
The prime is read only where a p-adic norm is: by schikhof_check and by
certify, which writes the Schikhof verdict and the norms of the mean and
the diagonal.

A stage takes the results of the stages before it as arguments, in the
order of the proof: schikhof_check the mean and the subgroup lattice,
virtual_diagonal_construct the mean, diagonal_ideal_identity the
diagonal.  certify computes each once and hands it on.

Every verification is exact; a failed check raises InternalCheckError
because each identity holds by theorem for valid inputs.  A homomorphism
or ideal identity is decided on S = group.generators, as it then holds on
G; every one here, the balance identity included, reads only S.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InternalCheckError
from .finite_group import (FiniteGroup, Subgroup, enumerate_subgroups,
                           require_within_cap, subgroup_index)
from .group_algebra import (AlgebraElement, GroupAlgebra, augmentation,
                            basis_classes, format_norm_exponent, i0_identity,
                            norm_exponent)
from .hopf import (BasisMap, basis_tensor, counit_map, e_map, eq1_check,
                   lemma2_data, lemma2_iso_check, pi0, translations,
                   verify_hopf_axioms)
from .valued_field import require_prime


def invariant_functional_space(group: FiniteGroup) -> List[AlgebraElement]:
    """Basis of the left-invariant functionals, as elements of l(G).  The
    constraints m(g.phi) = m(phi) on the delta basis are m_gh - m_h = 0,
    so these are the functionals constant on the classes of the pairs
    (gh, h), and the class indicators are a basis; the n|S| pairs with g
    in the generating set S give the same classes."""
    alg = GroupAlgebra(group)
    # m_sh = m_h for every s in S and h gives m_gh = m_h, g a word in S
    classes = basis_classes(group.order, (
        (group.table[s][h], h) for s in group.generators
        for h in group.elements()))
    return [AlgebraElement(alg, dict.fromkeys(
        (k for k, r in enumerate(classes) if r == root), 1))
        for root in sorted(set(classes))]


def johnson_check(group: FiniteGroup) -> AlgebraElement:
    """Search the invariant space for a functional with m(1) != 0 and
    return it normalized to m(1) = 1: the witness that a left-invariant
    mean exists, which every finite group has.

    The invariant space is required to have dimension 1 and the mean to
    equal the averaging functional phi -> |G|^{-1} sum_g phi(g), which is
    normalized and left invariant.
    """
    require_within_cap(group.order, "invariant mean computation")
    alg = GroupAlgebra(group)
    n = group.order
    basis = invariant_functional_space(group)
    if len(basis) != 1:
        raise InternalCheckError(
            "invariant functional space of %s has dimension %d, expected 1"
            % (group.name, len(basis))
        )
    m0 = basis[0]
    # the invariant functionals are the constants c, and m0(1) = |G|.c
    total = augmentation(m0)
    if total == 0:
        raise InternalCheckError(
            "invariant functional of %s vanishes on 1" % group.name)
    mean = m0.scale(Fraction(1, total))
    if mean != AlgebraElement(alg, dict.fromkeys(range(n), 1), n):
        raise InternalCheckError(
            "invariant-space mean disagrees with the averaging functional")
    return mean


class SchikhofVerdict(NamedTuple):
    """Dual-method verdict for the contractive-mean notion.

    The norm method asks whether the normalized mean has norm exponent
    mean_norm_exponent <= 0; the lattice method sweeps every containment
    pair in the subgroup lattice for an index divisible by p, and witness
    is the first such pair (s1, s2, index), or None.  The two verdicts are
    computed independently and must agree, so amenable is each of them:
    the mean is contractive and witness is None.
    """

    amenable: bool
    mean_norm_exponent: int
    witness: Optional[Tuple[Subgroup, Subgroup, int]]
    subgroup_count: int
    pairs_checked: int


def schikhof_check(group: FiniteGroup, prime: int,
                   subgroups: Sequence[Subgroup],
                   mean: AlgebraElement) -> SchikhofVerdict:
    """Decide whether the normalized invariant mean is contractive.

    subgroups is enumerate_subgroups(group) and mean is
    johnson_check(group); neither reads the prime, so one of each serves
    every prime.  Both methods run in full: the norm method via the
    mean's exponent, the lattice method via every subgroup containment
    pair (first failing pair, in the deterministic enumeration order,
    becomes the witness).  Disagreement raises, since both reduce to
    p | |G| by theorem.
    """
    require_prime(prime)
    exponent = norm_exponent(mean, prime)
    norm_pass = exponent <= 0

    witness = None
    pairs = 0
    for s1 in subgroups:
        for s2 in subgroups:
            if not s2.contains(s1):
                continue
            pairs += 1
            idx = subgroup_index(s1, s2)
            if idx % prime == 0 and witness is None:
                witness = (s1, s2, idx)
    lattice_pass = witness is None

    if norm_pass != lattice_pass:
        raise InternalCheckError(
            "norm and lattice methods disagree on %s at p=%d"
            % (group.name, prime)
        )
    return SchikhofVerdict(norm_pass, exponent, witness, len(subgroups),
                           pairs)


def virtual_diagonal_construct(group: FiniteGroup,
                               mean: AlgebraElement) -> AlgebraElement:
    """Build the virtual diagonal by tracing the proof of the equivalence:
    lift delta_e through the quotient isomorphism of lemma2_iso_check and
    multiply the lift by E(mean).  The lift is the class of the unit
    1 (x) 1, so d = E(mean) once the relation check below makes .E(mean) a
    map on the quotient; then verify the closed form and the balance
    identity (a (x) 1).d = (1 (x) a).d exactly, for a in S.  The other two
    identities, pi0(d) = delta_e and d.d = d, are decided once, by
    diagonal_ideal_identity on this d in the same certify run, as
    pi0(1 (x) 1 - d) = 0 and d.(1 (x) 1 - d) = 0.  mean is
    johnson_check(group), the result of the earlier stage of the proof.
    """
    require_within_cap(group.order, "virtual diagonal construction")
    alg = GroupAlgebra(group)
    n = group.order

    # the lift reads no class: certify runs this after lemma2_iso_check
    # passed on lemma2_data(group), whose classes are the basis_classes of
    # the relations that well_defined reads, so pi0 is constant on each
    # class; bijective makes the class over delta_e unique, and pi0(1 (x)
    # 1) = delta_e, so the lift is the class of the unit 1 (x) 1 and
    # lift.E(m) = E(m).  The relation check stays: it makes .E(m) a map
    # on the quotient rather than on representatives.  Each relation is
    # u.(E(delta_a) - 1 (x) 1) for a basis tensor u, and left
    # multiplication by delta_g (x) delta_h sends delta_x (x) delta_y to
    # delta_gx (x) delta_yh, a bijection of the basis, so it is injective:
    # every relation dies under .E(m) exactly when E(delta_a).E(m) = E(m)
    # for every a in S.  These extend to G through E(st) = E(s)E(t), which
    # e_homomorphism and eq1_check decide in the same certify run.
    d = e_map(mean)
    for a in group.generators:
        if e_map(alg.delta(a)) * d != d:
            raise InternalCheckError(
                "a quotient relation survives multiplication by E(mean) "
                "at %s" % group.labels[a])

    closed = AlgebraElement(alg.enveloping, {
        g * n + group.inverses[g]: 1 for g in range(n)}, n)
    if d != closed:
        raise InternalCheckError(
            "constructed diagonal differs from the closed form")
    # S suffices, every g being a word in S: if d is balanced at a and b,
    # (ab (x) 1).d = (a (x) 1).(1 (x) b).d = (1 (x) b).(a (x) 1).d, as the
    # legs commute, and that is (1 (x) b).(1 (x) a).d = (1 (x) ab).d
    env, e = alg.enveloping, group.identity
    for a in group.generators:
        if basis_tensor(env, a, e) * d != basis_tensor(env, e, a) * d:
            raise InternalCheckError(
                "balance identity fails at %s" % group.labels[a])
    return d


def mean_from_diagonal(d: AlgebraElement) -> AlgebraElement:
    """Recover the mean from the diagonal as its marginal (1 (x) epsilon)(d):
    m(phi) = sum_{g,h} d_{g,h} phi(g).  The map is the composite the
    counit_right Hopf diagram certifies.

    Nothing is checked here: certify requires the marginal to equal
    johnson_check's mean, which is pinned to the averaging functional, so
    once that equality holds the marginal is normalized and invariant.
    """
    alg = d.algebra.base
    marginal = BasisMap.identity(alg.dim).kron(counit_map(alg.group))
    return marginal.apply(d, alg)


class Bimodule:
    """Two-sided module over l(G) whose group elements permute a basis,
    held by the actions of S = group.generators: left[i] and right[i] are
    the BasisMaps of S[i], which are all that derivation_spaces reads.

    The constructor takes one map per group element and side and checks
    the bimodule axioms: the left action is a unital representation, the
    right action a unital antirepresentation, and the two commute.  Each
    action map then has an inverse, so it is a permutation.  The laws are
    read on S: 2n|S| + |S|^2 checks in place of 3n^2.  The one other
    Bimodule is outer_tensor_bimodule's, built from a constructed one.
    """

    def __init__(self, name: str, group: FiniteGroup, dimension: int,
                 left: Sequence[BasisMap], right: Sequence[BasisMap]):
        left, right = list(left), list(right)
        if len(left) != group.order or len(right) != group.order:
            raise ValueError(
                "bimodule %s: need one matrix per group element" % name)
        if any((mp.nrows, mp.ncols) != (dimension, dimension)
               for mp in left + right):
            raise ValueError("bimodule %s: matrix is not %d x %d"
                             % (name, dimension, dimension))
        ident, e = BasisMap.identity(dimension), group.identity
        if left[e] != ident or right[e] != ident:
            raise ValueError("bimodule %s: actions are not unital" % name)

        def fail(what: str, g: int, h: int) -> ValueError:
            return ValueError("bimodule %s: %s at (%s, %s)" % (
                name, what, group.labels[g], group.labels[h]))

        # The set A of g with L_gh = L_g L_h for every h contains e and is
        # closed under the product (L_abh = L_a L_b L_h = L_ab L_h), so
        # once every generator is in A, A is the whole group; likewise for
        # R_gh = R_h R_g.  L_g and R_h are then products of L_s and R_t
        # for s, t in S, and they commute once those do.
        for g, h in itertools.product(group.generators, group.elements()):
            gh = group.table[g][h]
            if left[gh] != left[g].compose(left[h]):
                raise fail("left action is not a homomorphism", g, h)
            if right[gh] != right[h].compose(right[g]):
                raise fail("right action is not an antihomomorphism", g, h)
            if h in group.generators and \
                    left[g].compose(right[h]) != right[h].compose(left[g]):
                raise fail("actions do not commute", g, h)
        self.name, self.group, self.dimension = name, group, dimension
        self.left = [left[a] for a in group.generators]
        self.right = [right[a] for a in group.generators]

    def __repr__(self):
        return f"Bimodule({self.name!r}, dim={self.dimension})"


def regular_bimodule(group: FiniteGroup) -> Bimodule:
    """X = l(G) itself, both actions by convolution."""
    left, right = translations(group)
    return Bimodule("regular", group, group.order, left, right)


def trivial_bimodule(group: FiniteGroup) -> Bimodule:
    """One-dimensional module where both sides act through epsilon."""
    n = group.order
    ident = BasisMap.identity(1)
    return Bimodule("trivial", group, 1, [ident] * n, [ident] * n)


def outer_tensor_bimodule(group: FiniteGroup) -> Bimodule:
    """X = l(G) (x) l(G) with the left action on the left leg and the
    right action on the right leg: L_a (x) 1 and 1 (x) R_a for a in S,
    read off regular_bimodule(group).  Nothing is decided again."""
    leg = regular_bimodule(group)
    n = group.order
    ident = BasisMap.identity(n)
    # The laws of X are the laws of its legs, which the constructor of leg
    # has just decided.  M -> M (x) 1 and M -> 1 (x) M are injective and
    # multiplicative, so L_gh (x) 1 = (L_g (x) 1)(L_h (x) 1) exactly when
    # L_gh = L_g L_h, 1 (x) R_gh = (1 (x) R_h)(1 (x) R_g) exactly when
    # R_gh = R_h R_g, and L_e (x) 1 = 1 = 1 (x) R_e; the legs commute,
    # (L_g (x) 1)(1 (x) R_h) = L_g (x) R_h = (1 (x) R_h)(L_g (x) 1).
    bim = Bimodule.__new__(Bimodule)
    bim.name, bim.group, bim.dimension = "outer_tensor", group, n * n
    bim.left = [lg.kron(ident) for lg in leg.left]
    bim.right = [ident.kron(rg) for rg in leg.right]
    return bim


STOCK_BIMODULES = ("regular", "trivial", "outer_tensor")


def stock_bimodules(group: FiniteGroup,
                    names: Sequence[str] = STOCK_BIMODULES
                    ) -> Dict[str, Bimodule]:
    """The stock bimodules with the given names, built in that order.  One
    that fails the bimodule axioms, which hold by construction and are
    part (a) of the derivation certificate, raises InternalCheckError."""
    require_within_cap(group.order, "derivation certificate")
    builders = {
        "regular": regular_bimodule,
        "trivial": trivial_bimodule,
        "outer_tensor": outer_tensor_bimodule,
    }
    out = {}
    for name in names:
        try:
            out[name] = builders[name](group)
        except ValueError as exc:
            raise InternalCheckError(
                "derivation certificate part (a) fails on %s: %s"
                % (name, exc)) from None
    return out


class DerivationReport(NamedTuple):
    """Counts for one bimodule X: module_dim = dim X, the unknowns
    D[g, c] of a derivation into X^*, n.dim X of them, and inner_dim =
    dim Inn.  A report exists only for a Bimodule, whose axioms give
    Der = Inn by the cancellation at derivation_spaces, so dim Der is
    inner_dim and every derivation is inner."""

    module_dim: int
    unknowns: int
    inner_dim: int


def derivation_spaces(bimodule: Bimodule) -> DerivationReport:
    """Certify that every derivation D: A -> X^* is inner, and count them.

    The unknowns are D[g, c], component c of D(delta_g), at flat index
    g*dim + c.  With R_g, L_h the right and left actions of X, the dual
    actions are (delta_g.Y)_c = Y[R_g c] and (Y.delta_h)_c = Y[L_h c], so
    the derivation identity is the Leibniz row l(g, h, c) = D[gh, c] -
    D[h, R_g c] - D[g, L_h c] = 0, and ad_xi[g, c] = xi[R_g c] - xi[L_g c].
    Der = Inn holds by three exact steps with integer coefficients, of
    which only (c) computes anything here:

    (a) Inn in Der is the bimodule axioms, checked on a generating set
        when the Bimodule, or the outer tensor's leg, is built: on ad_xi
        the row l(g, h, c) is xi[R_gh c] - xi[L_gh c] - xi[R_h R_g c] +
        xi[L_h R_g c] - xi[R_g L_h c] + xi[L_g L_h c], whose terms
        cancel pair by pair, the 1st and 3rd through R_gh = R_h R_g, the
        2nd and 6th through L_gh = L_g L_h, the 4th and 5th through
        L_h R_g = R_g L_h.
    (b) Der in Inn is the bimodule axioms too: the virtual diagonal
        |G|^{-1} sum_h delta_h (x) delta_{h^-1} gives Johnson's xi_D =
        -|G|^{-1} sum_h D(delta_h).delta_{h^-1}, that is n.xi_D[x] =
        -sum_h D[h, L_{h^-1} x], and n.(D - ad_{xi_D})[g, c] +
        sum_k l(g, k, L_{k^-1} c) = 0 as linear forms in the unknowns,
        so every D satisfying the Leibniz rows is ad_{xi_D}.  For each h
        the terms cancel in three pairs: D[h, L_{h^-1} R_g c] against
        D[h, R_g L_{h^-1} c] through L_{h^-1} R_g = R_g L_{h^-1};
        D[h, L_{h^-1} L_g c] against D[h, L_{h^-1 g} c], the term
        D[gk, L_{k^-1} c] at k = g^-1 h, through L_{h^-1} L_g = L_{h^-1 g};
        and one of the n copies of D[g, c] against D[g, L_h L_{h^-1} c]
        through L_h L_{h^-1} = L_e = 1.  These are bimodule laws, which
        (a) decides before any Bimodule exists, so (b) holds on every
        Bimodule; tests/oracles.johnson_identity_failure collects the
        terms one linear form at a time.
    (c) ad_xi is a derivation, so it vanishes on G once it vanishes on
        the generating set S, and ad_xi = 0 exactly when xi is constant
        on the classes of the pairs (R_a c, L_a c) for a in S: dim Inn =
        dim - #classes.
    """
    group = bimodule.group
    require_within_cap(group.order, "derivation certificate")
    n, dim = group.order, bimodule.dimension
    classes = basis_classes(dim, (
        pair for ra, la in zip(bimodule.right, bimodule.left)
        for pair in zip(ra.images, la.images)))
    return DerivationReport(dim, n * dim, dim - len(set(classes)))


def _kernel_generator_failure(u: AlgebraElement) -> Optional[int]:
    """First g in the generating set S with x_g.u != x_g, where x_g =
    delta_g (x) 1 - 1 (x) delta_g in the enveloping algebra of u, or None."""
    alg, e = u.algebra, u.algebra.group.identity
    # x_gh = (delta_g (x) 1).x_h + (1 (x) delta_h).x_g, so the x_s for s in
    # S generate ker pi0 as a left ideal, and {v : v.u = v} is one
    for g in alg.group.generators:
        x = basis_tensor(alg, g, e) - basis_tensor(alg, e, g)
        if x * u != x:
            return g
    return None


def diagonal_ideal_identity(group: FiniteGroup,
                            d: AlgebraElement) -> AlgebraElement:
    """Verify that u = 1 (x) 1 - d is a right identity of ker pi0, for d
    the virtual diagonal from virtual_diagonal_construct(group).

    Three exact checks: pi0(u) = 0; d.u = 0; and x_s.u = x_s for s in the
    generating set S, x_s = delta_s (x) 1 - 1 (x) delta_s.  In the
    enveloping algebra (1 (x) delta_h).x_g = delta_g (x) delta_h -
    delta_e (x) delta_gh = v_{g,h}, the kernel basis, and x_gh =
    (delta_g (x) 1).x_h + (1 (x) delta_h).x_g, so the x_s generate ker
    pi0 as a left ideal; the v with v.u = v form a left ideal, so v.u = v
    on all of ker pi0.  The checks determine u: if u' passes them too,
    then x = u - u' lies in ker pi0, so (1 (x) 1 - d).x = u.u - u.u' =
    u - u = 0 and d.x = 0, and x = (1 (x) 1).x = 0.  The first two
    checks are the diagonal's pi0(d) = delta_e and d.d = d, decided only
    here; the third cannot stand in for them, since x_s.d = 0 by balance,
    so u = 1 (x) 1 - 2d passes it.
    """
    require_within_cap(group.order, "kernel identity check")
    u = d.algebra.one() - d
    if not pi0(u).is_zero():
        raise InternalCheckError("1 (x) 1 - d is not in ker pi0")
    if not (d * u).is_zero():
        raise InternalCheckError("d.(1 (x) 1 - d) is not zero")
    g = _kernel_generator_failure(u)
    if g is not None:
        raise InternalCheckError(
            "right identity fails on the kernel generator x_%s"
            % group.labels[g])
    return u


# certify's named checks in run order; a document means every one passed
CHECKS = ("hopf_axioms", "dual_action_identity", "quotient_isomorphism",
          "invariant_space_dimension_one", "mean_normalized_and_invariant",
          "schikhof_methods_agree", "augmentation_ideal_identity",
          "virtual_diagonal_closed_form", "virtual_diagonal_identities",
          "mean_diagonal_round_trip", "multiplication_kernel_right_identity")


def certify(group: FiniteGroup, prime: int) -> dict:
    """Run the full battery for one (group, prime) and assemble the
    certificate document.  Any failed internal check raises; a document
    is only ever produced with every check passing, and this is the one
    writer of its sections.  Only the Schikhof verdict and the two norm
    exponents of the document read the prime."""
    require_within_cap(group.order, "certificate run")
    require_prime(prime)

    if not all(r.passed for r in verify_hopf_axioms(group).values()):
        raise InternalCheckError(
            "Hopf axioms failed on %s" % group.name)
    if not all(eq1_check(group).values()):
        raise InternalCheckError("dual action identity failed")
    l2 = lemma2_iso_check(group, lemma2_data(group))
    if not l2.all_pass:
        raise InternalCheckError("quotient isomorphism check failed")
    mean = johnson_check(group)
    subgroups = enumerate_subgroups(group)
    sv = schikhof_check(group, prime, subgroups, mean)
    i0_identity(GroupAlgebra(group))
    d = virtual_diagonal_construct(group, mean)
    m2 = mean_from_diagonal(d)
    if m2 != mean:
        raise InternalCheckError("mean/diagonal round trip failed")
    diagonal_ideal_identity(group, d)

    lattice = {
        "pass": sv.amenable,
        "subgroup_count": sv.subgroup_count,
        "pairs_checked": sv.pairs_checked,
    }
    if sv.witness is not None:
        s1, s2, idx = sv.witness
        lattice["witness"] = {"s1": s1.label_set(), "s2": s2.label_set(),
                              "index": idx, "prime": prime}
    return {
        "schema": "padicamen.certificate/1",
        "group": group_head(group),
        "prime": prime,
        "johnson": {
            "amenable": True,
            # johnson_check raises unless the invariant space is a line
            "invariant_space_dim": 1,
            "mean": mean.to_doc(),
            "mean_norm_exponent": sv.mean_norm_exponent,
        },
        # schikhof_check raises unless both methods give this verdict
        "schikhof": {
            "amenable": sv.amenable,
            "method_norm": {"mean_norm_exponent": sv.mean_norm_exponent,
                            "pass": sv.amenable},
            "method_lattice": lattice,
        },
        "diagonal": {
            "tensor": d.to_doc(),
            "norm_exponent": format_norm_exponent(norm_exponent(d, prime)),
            "pi0": pi0(d).to_doc(),
        },
        "checks": dict.fromkeys(CHECKS, "pass"),
    }


def group_head(group: FiniteGroup) -> dict:
    """The group section of every document: its name, order and labels."""
    return {"name": group.name, "order": group.order,
            "labels": list(group.labels)}


def render_json(doc: dict) -> str:
    """Canonical byte-stable rendering shared by every emitter."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
