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
  the quotient isomorphism, push the mean through E, and land on the
  closed form |G|^{-1} sum_g delta_g (x) delta_{g^{-1}}.  Its marginal
  recovers the mean, closing the round trip.
* Derivations into dual bimodules are all inner, certified through the
  virtual diagonal as in Johnson's proof rather than solved and through
  the bimodule axioms on a generating set, and the multiplication kernel
  has an exact right identity 1 (x) 1 - d.

Everything on the Johnson side (the mean, the quotient, the diagonal and
the derivations) is an identity over the rationals and takes no prime.
The prime is read only where a p-adic norm is: by schikhof_check, by the
to_doc(prime) writers of the mean and the diagonal, and by certify.

A stage takes the results of the stages before it as arguments, in the
order of the proof: schikhof_check the mean and the subgroup lattice,
virtual_diagonal_construct the mean and the quotient data of lemma2_data,
diagonal_ideal_identity the diagonal.  certify computes each once and
hands it on.

Every verification is exact; a failed check raises InternalCheckError
because each identity holds by theorem for valid inputs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalCheckError
from .finite_group import (FiniteGroup, Subgroup, enumerate_subgroups,
                           require_within_cap, subgroup_index)
from .group_algebra import (AlgebraElement, DualFunctional, GroupAlgebra,
                            SparseVec, basis_classes, convolve,
                            format_norm_exponent, i0_identity, norm_exponent)
from .hopf import (BasisMap, Lemma2Data, basis_tensor, e_map, eq1_check,
                   lemma2_data, lemma2_iso_check, pi0, tensor_of,
                   verify_hopf_axioms)
from .valued_field import require_prime


def invariant_functional_space(group: FiniteGroup) -> List[DualFunctional]:
    """Basis of the left-invariant functionals.  The constraints
    m(g.phi) = m(phi) on the delta basis are m_gh - m_h = 0, so these are
    the functionals constant on the classes of the pairs (gh, h), and the
    class indicators are a basis."""
    alg = GroupAlgebra(group)
    classes = basis_classes(group.order, (
        (gh, h) for row in group.table for h, gh in enumerate(row)))
    return [DualFunctional(alg, dict.fromkeys(
        (k for k, r in enumerate(classes) if r == root), 1))
        for root in sorted(set(classes))]


def _non_invariant_pair(m: DualFunctional) -> Optional[Tuple[int, int]]:
    """First pair (g, h) with m(g.delta_h) != m(delta_h), or None.

    g.delta_h = delta_gh, so this is left invariance on the delta basis,
    read off the coefficients and the Cayley table.
    """
    c, table = m.num, m.algebra.group.table  # one denominator for all
    return next(((g, h) for g, row in enumerate(table)
                 for h, gh in enumerate(row)
                 if c.get(gh, 0) != c.get(h, 0)), None)


@dataclass
class JohnsonCertificate:
    """Witness for the existence of a left-invariant mean with m(1) != 0,
    normalized to m(1) = 1.  Every finite group has one."""

    invariant_space_dim: int
    mean: DualFunctional

    def to_doc(self, prime: int):
        return {
            "amenable": True,
            "invariant_space_dim": self.invariant_space_dim,
            "mean": self.mean.to_doc(),
            "mean_norm_exponent": norm_exponent(self.mean, prime),
        }


def johnson_check(group: FiniteGroup) -> JohnsonCertificate:
    """Search the invariant space for a functional with m(1) != 0 and
    normalize it.

    The mean is required to equal the averaging functional
    phi -> |G|^{-1} sum_g phi(g), which is normalized and left invariant.
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
    total = m0.pair(alg.ones())
    if total == 0:
        raise InternalCheckError(
            "invariant functional of %s vanishes on 1" % group.name)
    mean = m0.scale(1 / total)
    if mean != DualFunctional(alg, dict.fromkeys(range(n), 1), n):
        raise InternalCheckError(
            "invariant-space mean disagrees with the averaging functional")
    return JohnsonCertificate(1, mean)


@dataclass
class SchikhofVerdict:
    """Dual-method verdict for the contractive-mean notion.

    method_norm asks whether the normalized mean has norm exponent <= 0;
    method_lattice sweeps every containment pair in the subgroup lattice
    for an index divisible by p.  The two verdicts are computed
    independently and must agree.
    """

    group_name: str
    order: int
    prime: int
    amenable: bool
    mean_norm_exponent: int
    norm_method_pass: bool
    lattice_method_pass: bool
    witness: Optional[Tuple[Subgroup, Subgroup, int]]
    subgroup_count: int
    pairs_checked: int

    def to_doc(self):
        lattice = {
            "pass": self.lattice_method_pass,
            "subgroup_count": self.subgroup_count,
            "pairs_checked": self.pairs_checked,
        }
        if self.witness is not None:
            s1, s2, idx = self.witness
            lattice["witness"] = {
                "s1": s1.label_set(),
                "s2": s2.label_set(),
                "index": idx,
                "prime": self.prime,
            }
        return {
            "amenable": self.amenable,
            "method_norm": {
                "mean_norm_exponent": self.mean_norm_exponent,
                "pass": self.norm_method_pass,
            },
            "method_lattice": lattice,
        }


def schikhof_check(group: FiniteGroup, prime: int,
                   subgroups: Sequence[Subgroup],
                   johnson: JohnsonCertificate) -> SchikhofVerdict:
    """Decide whether the normalized invariant mean is contractive.

    subgroups is enumerate_subgroups(group) and johnson is
    johnson_check(group); neither reads the prime, so one of each serves
    every prime.  Both methods run in full: the norm method via the
    mean's exponent, the lattice method via every subgroup containment
    pair (first failing pair, in the deterministic enumeration order,
    becomes the witness).  Disagreement raises, since both reduce to
    p | |G| by theorem.
    """
    require_prime(prime)
    exponent = norm_exponent(johnson.mean, prime)
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
    return SchikhofVerdict(
        group_name=group.name,
        order=group.order,
        prime=prime,
        amenable=norm_pass,
        mean_norm_exponent=exponent,
        norm_method_pass=norm_pass,
        lattice_method_pass=lattice_pass,
        witness=witness,
        subgroup_count=len(subgroups),
        pairs_checked=pairs,
    )


@dataclass
class VirtualDiagonal:
    """A verified virtual diagonal: balanced, with pi0(d) the identity."""

    tensor: AlgebraElement

    def to_doc(self, prime: int):
        return {
            "tensor": self.tensor.to_doc(),
            "norm_exponent": format_norm_exponent(
                norm_exponent(self.tensor, prime)),
            "pi0": pi0(self.tensor).to_doc(),
        }


def _verify_diagonal(alg: GroupAlgebra, d: AlgebraElement) -> None:
    grp = alg.group
    one = alg.one()
    p0 = pi0(d)
    if p0 != one:
        raise InternalCheckError("pi0 of the diagonal is not delta_e")
    if d * d != d:
        raise InternalCheckError("diagonal is not idempotent")
    for a in grp.elements():
        da = alg.delta(a)
        if tensor_of(da, one, alg.enveloping) * d != \
                tensor_of(one, da, alg.enveloping) * d:
            raise InternalCheckError(
                "balance identity fails at %s" % grp.labels[a])
        if convolve(p0, da) != da or convolve(da, p0) != da:
            raise InternalCheckError(
                "pi0(d) is not a two-sided identity at %s" % grp.labels[a])


def virtual_diagonal_construct(group: FiniteGroup,
                               johnson: JohnsonCertificate,
                               lemma2: Lemma2Data) -> VirtualDiagonal:
    """Build the virtual diagonal by tracing the proof of the equivalence.

    Steps: take the classes of the basis tensors under the relations
    u.E(a) - epsilon(a).u, which form a basis of the quotient; lift
    delta_e through the induced isomorphism, with no solve, to the one
    class whose representative multiplies to e, and confirm it is the
    class of delta_e (x) delta_e; check that right multiplication by
    E(mean) kills every relation, which reduces to E(delta_a).E(mean) =
    E(mean) for the n basis elements a; multiply the lift by E(mean); then
    verify the closed form and both virtual-diagonal identities exactly.
    johnson is johnson_check(group) and lemma2 is lemma2_data(group), the
    results of the two earlier stages of the proof.
    """
    require_within_cap(group.order, "virtual diagonal construction")
    alg = GroupAlgebra(group)
    grp = group
    n = grp.order
    _, classes = lemma2
    reps = sorted(set(classes))
    if len(reps) != n:
        raise InternalCheckError(
            "quotient dimension %d differs from group order %d"
            % (len(reps), n)
        )

    # lift delta_e through the induced isomorphism class(e_r) -> pi0(e_r):
    # it sends each class to one basis element, so the lift is the one
    # class whose representative multiplies to e
    over_e = [r for r in reps if grp.table[r // n][r % n] == grp.identity]
    if not over_e:
        raise InternalCheckError(
            "delta_e is not in the image of the induced map")
    if over_e != [classes[grp.identity * n + grp.identity]]:
        raise InternalCheckError(
            "lift of delta_e is not the class of delta_e (x) delta_e")
    u0 = alg.enveloping.delta(over_e[0])

    # push the mean through E; relations must die, making the step a map
    # on the quotient rather than on representatives.  Each relation is
    # u.(E(delta_a) - 1 (x) 1) for a basis tensor u, and left
    # multiplication by delta_g (x) delta_h sends delta_x (x) delta_y to
    # delta_gx (x) delta_yh, a bijection of the basis, so it is injective:
    # every relation dies under .E(m) exactly when E(delta_a).E(m) = E(m)
    # for every a.
    em = e_map(AlgebraElement(alg, johnson.mean.num, johnson.mean.den))
    for a in range(n):
        if e_map(alg.delta(a)) * em != em:
            raise InternalCheckError(
                "a quotient relation survives multiplication by E(mean) "
                "at %s" % grp.labels[a])
    d = u0 * em

    closed = AlgebraElement(alg.enveloping, {
        g * n + grp.inverses[g]: 1 for g in range(n)}, n)
    if d != closed:
        raise InternalCheckError(
            "constructed diagonal differs from the closed form")
    _verify_diagonal(alg, d)
    return VirtualDiagonal(d)


def mean_from_diagonal(diagonal: VirtualDiagonal) -> DualFunctional:
    """Recover the mean from the diagonal: m(phi) = sum_{g,h} d_{g,h} phi(g).

    Left invariance and m(1) = 1 are consequences of the diagonal
    identities; both are re-verified exactly on output.
    """
    t = diagonal.tensor
    alg = t.algebra.base
    num: SparseVec = {}
    for k, v in t.num.items():
        g = k // alg.dim
        num[g] = num.get(g, 0) + v
    m = DualFunctional(alg, {g: v for g, v in num.items() if v}, t.den)
    if m.pair(alg.ones()) != 1:
        raise InternalCheckError("diagonal marginal is not normalized")
    if _non_invariant_pair(m) is not None:
        raise InternalCheckError("diagonal marginal is not left invariant")
    return m


class Bimodule:
    """Two-sided module over l(G) whose group elements permute a basis:
    one BasisMap per group element and side.

    Construction checks the bimodule axioms: the left action is a unital
    representation, the right action a unital antirepresentation, and the
    two commute.  Each action map then has an inverse, so it is a
    permutation.  The laws are read on the generating set S =
    group.generators: 2n|S| + |S|^2 checks in place of 3n^2.
    """

    def __init__(self, name: str, group: FiniteGroup, dimension: int,
                 left: Sequence[BasisMap], right: Sequence[BasisMap]):
        self.name = name
        self.group = group
        self.dimension = dimension
        self.left = list(left)
        self.right = list(right)
        self._validate()

    def _validate(self):
        grp, dim, name = self.group, self.dimension, self.name
        left, right, gens = self.left, self.right, grp.generators
        if len(left) != grp.order or len(right) != grp.order:
            raise ValueError(
                "bimodule %s: need one matrix per group element" % name)
        if any((mp.nrows, mp.ncols) != (dim, dim) for mp in left + right):
            raise ValueError(
                "bimodule %s: matrix is not %d x %d" % (name, dim, dim))
        ident, e = BasisMap.identity(dim), grp.identity
        if left[e] != ident or right[e] != ident:
            raise ValueError("bimodule %s: actions are not unital" % name)

        def fail(what: str, g: int, h: int) -> ValueError:
            return ValueError("bimodule %s: %s at (%s, %s)" % (
                name, what, grp.labels[g], grp.labels[h]))

        # The set A of g with L_gh = L_g L_h for every h contains e and is
        # closed under the product (L_abh = L_a L_b L_h = L_ab L_h), so
        # once every generator is in A, A is the whole group; likewise for
        # R_gh = R_h R_g.  L_g and R_h are then products of L_s and R_t
        # for s, t in S, and they commute once those do.
        for g, h in itertools.product(gens, grp.elements()):
            gh = grp.table[g][h]
            if left[gh] != left[g].compose(left[h]):
                raise fail("left action is not a homomorphism", g, h)
            if right[gh] != right[h].compose(right[g]):
                raise fail("right action is not an antihomomorphism", g, h)
            if h in gens and \
                    left[g].compose(right[h]) != right[h].compose(left[g]):
                raise fail("actions do not commute", g, h)

    def __repr__(self):
        return f"Bimodule({self.name!r}, dim={self.dimension})"


def _translations(group: FiniteGroup):
    """The maps x -> gx and x -> xg on l(G), for every g."""
    n = group.order
    return ([BasisMap(n, group.table[g]) for g in range(n)],
            [BasisMap(n, group.opposite_table[g]) for g in range(n)])


def regular_bimodule(group: FiniteGroup) -> Bimodule:
    """X = l(G) itself, both actions by convolution."""
    left, right = _translations(group)
    return Bimodule("regular", group, group.order, left, right)


def trivial_bimodule(group: FiniteGroup) -> Bimodule:
    """One-dimensional module where both sides act through epsilon."""
    n = group.order
    ident = BasisMap.identity(1)
    return Bimodule("trivial", group, 1, [ident] * n, [ident] * n)


def outer_tensor_bimodule(group: FiniteGroup) -> Bimodule:
    """X = l(G) (x) l(G) with the left action on the left leg and the
    right action on the right leg."""
    n = group.order
    ident = BasisMap.identity(n)
    left, right = _translations(group)
    return Bimodule("outer_tensor", group, n * n,
                    [lg.kron(ident) for lg in left],
                    [ident.kron(rg) for rg in right])


STOCK_BIMODULES = ("regular", "trivial", "outer_tensor")


def stock_bimodules(group: FiniteGroup,
                    names: Sequence[str] = STOCK_BIMODULES
                    ) -> Dict[str, Bimodule]:
    """The stock bimodules with the given names, built in that order.  One
    that fails the bimodule axioms, which hold by construction and are
    part (a) of the derivation certificate, raises InternalCheckError."""
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


@dataclass
class DerivationReport:
    """Derivation and inner-derivation counts for one bimodule.  A report
    exists only once Der = Inn is certified, so all_inner always holds."""

    group_name: str
    order: int
    bimodule_name: str
    module_dim: int
    unknowns: int
    derivation_dim: int
    inner_dim: int
    all_inner = True

    def to_doc(self):
        return {
            "bimodule": self.bimodule_name,
            "module_dim": self.module_dim,
            "unknowns": self.unknowns,
            "derivation_dim": self.derivation_dim,
            "inner_dim": self.inner_dim,
            "all_inner": self.all_inner,
        }


Terms = List[Tuple[int, int]]


def _neg(terms: Iterable[Tuple[int, int]]) -> Terms:
    return [(k, -v) for k, v in terms]


def _collect(terms: Terms) -> Dict[int, int]:
    """The linear form sum v.e_k of (k, v) terms, zeros dropped."""
    out: Dict[int, int] = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _johnson_xi(left, inverses, dim: int, x: int) -> Terms:
    """|G|.xi_D[x] = -sum_h D[h, L_{h^-1} x] as terms in the unknowns."""
    return [(h * dim + left[hi][x], -1) for h, hi in enumerate(inverses)]


def derivation_spaces(bimodule: Bimodule) -> DerivationReport:
    """Certify that every derivation D: A -> X^* is inner, and count them.

    The unknowns are D[g, c], component c of D(delta_g), at flat index
    g*dim + c.  With R_g, L_h the right and left actions of X, the dual
    actions are (delta_g.Y)_c = Y[R_g c] and (Y.delta_h)_c = Y[L_h c], so
    the derivation identity is the Leibniz row l(g, h, c) = D[gh, c] -
    D[h, R_g c] - D[g, L_h c] = 0, and ad_xi[g, c] = xi[R_g c] - xi[L_g c].
    Three exact steps with integer coefficients give Der = Inn:

    (a) Inn in Der is the bimodule axioms, checked on a generating set
        when the Bimodule is built: on ad_xi the row l(g, h, c) is
        xi[R_gh c] - xi[L_gh c] - xi[R_h R_g c] + xi[L_h R_g c] -
        xi[R_g L_h c] + xi[L_g L_h c], whose terms cancel pair by pair,
        the 1st and 3rd through R_gh = R_h R_g, the 2nd and 6th through
        L_gh = L_g L_h, the 4th and 5th through L_h R_g = R_g L_h.
    (b) Der in Inn: the virtual diagonal |G|^{-1} sum_h delta_h (x)
        delta_{h^-1} gives Johnson's xi_D = -|G|^{-1} sum_h
        D(delta_h).delta_{h^-1}, and n.(D - ad_{xi_D})[g, c] =
        -sum_k l(g, k, L_{k^-1} c) as linear forms in the unknowns.  So
        every D satisfying the Leibniz rows is ad_{xi_D}.
    (c) ad_xi is a derivation, so it vanishes on G once it vanishes on
        the generating set S, and ad_xi = 0 exactly when xi is constant
        on the classes of the pairs (R_a c, L_a c) for a in S: dim Inn =
        dim - #classes.
    """
    group = bimodule.group
    require_within_cap(group.order, "derivation certificate")
    n, dim = group.order, bimodule.dimension
    table, inv, labels = group.table, group.inverses, group.labels
    left = [mp.images for mp in bimodule.left]
    right = [mp.images for mp in bimodule.right]

    def leibniz(g: int, h: int, c: int) -> Terms:
        """Terms of l(g, h, c) in the unknowns."""
        return [(table[g][h] * dim + c, 1), (h * dim + right[g][c], -1),
                (g * dim + left[h][c], -1)]

    for g, c in itertools.product(range(n), range(dim)):
        lhs = _collect([(g * dim + c, n)]
                       + _neg(_johnson_xi(left, inv, dim, right[g][c]))
                       + _johnson_xi(left, inv, dim, left[g][c]))
        rhs = _collect(_neg(term for k in range(n) for term in
                            leibniz(g, k, left[inv[k]][c])))
        if lhs != rhs:
            raise InternalCheckError(
                "derivation certificate part (b) fails on %s: D - ad(xi_D) "
                "is no combination of Leibniz rows at (%s, %d)"
                % (bimodule.name, labels[g], c))

    classes = basis_classes(dim, (
        (right[a][c], left[a][c]) for a in group.generators
        for c in range(dim)))
    inner_dim = dim - len(set(classes))
    return DerivationReport(group.name, n, bimodule.name, dim,
                            n * dim, inner_dim, inner_dim)


def _kernel_generator_failure(u: AlgebraElement) -> Optional[int]:
    """First g != e with x_g.u != x_g, where x_g = delta_g (x) 1 -
    1 (x) delta_g in the enveloping algebra of u, or None."""
    alg, e = u.algebra, u.algebra.group.identity
    for g in range(alg.base.dim):
        x = basis_tensor(alg, g, e) - basis_tensor(alg, e, g)
        if g != e and x * u != x:
            return g
    return None


def diagonal_ideal_identity(group: FiniteGroup,
                            diagonal: VirtualDiagonal) -> AlgebraElement:
    """Verify that u = 1 (x) 1 - d is a right identity of ker pi0, for d
    the tensor of diagonal, from virtual_diagonal_construct(group).

    Three exact checks: pi0(u) = 0; d.u = 0; and x_g.u = x_g for the
    generators x_g = delta_g (x) 1 - 1 (x) delta_g, g != e, of ker pi0.
    In the enveloping algebra (1 (x) delta_h).x_g = delta_g (x) delta_h -
    delta_e (x) delta_gh = v_{g,h}, the kernel basis, so by associativity
    v_{g,h}.u = v_{g,h} on all of it.  The checks determine u: if u'
    passes them too, then x = u - u' lies in ker pi0, so (1 (x) 1 - d).x
    = u.u - u.u' = u - u = 0 and d.x = 0, and x = (1 (x) 1).x = 0.
    """
    require_within_cap(group.order, "kernel identity check")
    d = diagonal.tensor
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


def certify(group: FiniteGroup, prime: int) -> dict:
    """Run the full battery for one (group, prime) and assemble the
    certificate document.  Any failed internal check raises; a document
    is only ever produced with every check passing.  Only the Schikhof
    verdict and the two norm exponents of the document read the prime."""
    require_within_cap(group.order, "certificate run")
    require_prime(prime)
    alg = GroupAlgebra(group)
    checks: Dict[str, str] = {}

    hopf_report = verify_hopf_axioms(group)
    if not hopf_report.all_pass:
        raise InternalCheckError(
            "Hopf axioms failed on %s" % group.name)
    checks["hopf_axioms"] = "pass"

    eq1 = eq1_check(group)
    if not eq1.all_pass:
        raise InternalCheckError("dual action identity failed")
    checks["dual_action_identity"] = "pass"

    lemma2 = lemma2_data(group)
    l2 = lemma2_iso_check(group, lemma2)
    if not l2.all_pass:
        raise InternalCheckError("quotient isomorphism check failed")
    checks["quotient_isomorphism"] = "pass"

    jc = johnson_check(group)
    checks["invariant_space_dimension_one"] = "pass"
    checks["mean_normalized_and_invariant"] = "pass"

    subgroups = enumerate_subgroups(group)
    sv = schikhof_check(group, prime, subgroups, jc)
    checks["schikhof_methods_agree"] = "pass"

    i0_identity(alg)
    checks["augmentation_ideal_identity"] = "pass"

    vd = virtual_diagonal_construct(group, jc, lemma2)
    checks["virtual_diagonal_closed_form"] = "pass"
    checks["virtual_diagonal_identities"] = "pass"

    m2 = mean_from_diagonal(vd)
    if m2 != jc.mean:
        raise InternalCheckError("mean/diagonal round trip failed")
    checks["mean_diagonal_round_trip"] = "pass"

    diagonal_ideal_identity(group, vd)
    checks["multiplication_kernel_right_identity"] = "pass"

    return {
        "schema": "padicamen.certificate/1",
        "group": {
            "name": group.name,
            "order": group.order,
            "labels": list(group.labels),
        },
        "prime": prime,
        "johnson": jc.to_doc(prime),
        "schikhof": sv.to_doc(),
        "diagonal": vd.to_doc(prime),
        "checks": checks,
    }


def render_json(doc: dict) -> str:
    """Canonical byte-stable rendering shared by every emitter."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
