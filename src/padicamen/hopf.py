"""Hopf structure on l(G), the enveloping algebra, and its diagram checks.

The comultiplication, counit, and antipode are determined on the delta
basis by delta_x -> delta_x (x) delta_x, epsilon(f) = sum_g f(g), and
Sf(g) = f(g^{-1}).  Everything here is finite-dimensional, so the five
commuting diagrams of the Hopf definition, the homomorphism property of
E = (1 (x) S) Delta into A^e = A (x) A^op, the dual-action identity
E^*(phi).c = E^*(phi.E(c)), and the quotient isomorphism
A^e_E (x)_A K ~ A are all decided exactly.  They are identities over
the rationals, so they hold at every prime and none of them takes one.

Tensors are elements of the group algebras l(G x G) = A (x) A and
l(G x G^op) = A^e of group_algebra, so Delta, E and pi0 are maps between
l(G) and those two.  Every structure map also sends a basis vector to one
basis vector, so each is stored as a BasisMap, a tuple of basis indices.
Every quotient relation is a difference of two basis tensors, so the
quotient is held as a partition of the basis into classes.  Diagram sides
are computed through genuinely independent code paths: composition of
index tuples on one side, direct coefficient formulas or generic products
in the tensor algebras on the other.  eq1_check compares transposed index
tuples with generic enveloping products, and the action check of the
quotient isomorphism compares generic products with G's table, so a
transposition or index mistake in one path cannot cancel against the same
mistake in the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .finite_group import FiniteGroup, require_within_cap
from .group_algebra import (AlgebraElement, GroupAlgebra, SparseVec,
                            augmentation, basis_classes, convolve)


def basis_tensor(algebra: GroupAlgebra, g: int, h: int) -> AlgebraElement:
    """delta_g (x) delta_h in the tensor algebra given."""
    return algebra.delta(g * algebra.base.dim + h)


def tensor_of(f: AlgebraElement, h: AlgebraElement,
              target: GroupAlgebra) -> AlgebraElement:
    """The elementary tensor f (x) h in target, a tensor algebra of the
    algebra of f and h."""
    f._require_same(h)
    if target is target.base or not target.base.compatible(f.algebra):
        raise ValueError("%r is no tensor algebra of %r" % (target, f.algebra))
    n = f.algebra.dim
    return AlgebraElement(target, {
        g * n + x: a * b
        for g, a in f.num.items() for x, b in h.num.items()}, f.den * h.den)


def comultiply(f: AlgebraElement) -> AlgebraElement:
    """Delta(f): diagonal tensor sum_g f(g) delta_g (x) delta_g."""
    n = f.algebra.dim
    return AlgebraElement(
        f.algebra.tensor, {g * n + g: c for g, c in f.num.items()}, f.den)


def antipode(f: AlgebraElement,
             perm: Optional[Sequence[int]] = None) -> AlgebraElement:
    """S f(g) = f(perm(g)); the honest antipode uses perm = inversion.

    The perm override exists for negative controls that deliberately
    break the antipode axioms.
    """
    if perm is None:
        perm = f.algebra.group.inverses
    num = f.num
    return AlgebraElement(f.algebra, {
        g: num[x] for g, x in enumerate(perm) if x in num}, f.den)


def e_map(f: AlgebraElement) -> AlgebraElement:
    """E = (1 (x) S) Delta into the enveloping algebra:
    E(delta_g) = delta_g (x) delta_{g^{-1}}."""
    inv = f.algebra.group.inverses
    n = f.algebra.dim
    return AlgebraElement(f.algebra.enveloping,
                          {g * n + inv[g]: c for g, c in f.num.items()}, f.den)


def pi0(t: AlgebraElement) -> AlgebraElement:
    """The multiplication map sum t_{g,h} delta_g (x) delta_h ->
    sum t_{g,h} delta_{gh}, from either tensor algebra to l(G)."""
    table = t.algebra.group.table
    n = len(table)
    out: SparseVec = {}
    for k, v in t.num.items():
        gh = table[k // n][k % n]
        out[gh] = out.get(gh, 0) + v
    return AlgebraElement(t.algebra.base,
                          {k: v for k, v in out.items() if v}, t.den)


def basis_index(x: AlgebraElement) -> Optional[int]:
    """k when x is the basis vector e_k with coefficient 1, else None."""
    if x.den == 1 and len(x.num) == 1:
        ((k, c),) = x.num.items()
        if c == 1:
            return k
    return None


class BasisMap:
    """Linear map sending every basis vector to one basis vector or to 0.

    images[j] is the index of the image of e_j, taken with coefficient 1,
    or None when e_j maps to 0; nrows is the dimension of the target.
    The Hopf structure maps, translations by group elements and the
    actions of the stock bimodules all have this form, so composition,
    tensor product, transposition and equality act on index tuples.
    """

    __slots__ = ("nrows", "images")

    def __init__(self, nrows: int, images: Iterable[Optional[int]]):
        self.nrows = nrows
        self.images = tuple(images)

    @property
    def ncols(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "BasisMap":
        return cls(n, range(n))

    def compose(self, other: "BasisMap") -> "BasisMap":
        """self after other."""
        if other.nrows != self.ncols:
            raise ValueError("composition dimension mismatch")
        im = self.images
        return BasisMap(
            self.nrows, (None if j is None else im[j] for j in other.images))

    def kron(self, other: "BasisMap") -> "BasisMap":
        """Tensor product map on flat indices (i, j) -> i*rows(other)+j."""
        m = other.nrows
        return BasisMap(self.nrows * m, (
            None if i is None or j is None else i * m + j
            for i in self.images for j in other.images))

    def transpose(self) -> "BasisMap":
        """Transpose of an injective map: e_i goes to e_j where
        images[j] = i, and to 0 where i is no image."""
        out: List[Optional[int]] = [None] * self.nrows
        for j, i in enumerate(self.images):
            if i is None:
                continue
            if out[i] is not None:
                raise ValueError("transpose of a non-injective basis map")
            out[i] = j
        return BasisMap(self.ncols, out)

    def __eq__(self, other):
        if not isinstance(other, BasisMap):
            return NotImplemented
        return (self.nrows, self.images) == (other.nrows, other.images)

    def first_column_difference(self, other: "BasisMap") -> Optional[int]:
        """Smallest column index where two maps of one shape differ, None
        if they are equal."""
        for j, (a, b) in enumerate(zip(self.images, other.images)):
            if a != b:
                return j
        return None


def delta_map(group: FiniteGroup) -> BasisMap:
    """Comultiplication: delta_g -> delta_g (x) delta_g."""
    n = group.order
    return BasisMap(n * n, (g * n + g for g in range(n)))


def counit_map(group: FiniteGroup) -> BasisMap:
    return BasisMap(1, (0,) * group.order)


def antipode_map(group: FiniteGroup,
                 perm: Optional[Sequence[int]] = None) -> BasisMap:
    """S delta_g = delta_x where perm(x) = g; perm defaults to inversion."""
    if perm is None:
        perm = group.inverses
    images = [0] * group.order
    for x, g in enumerate(perm):
        images[g] = x
    return BasisMap(group.order, images)


def mult_map(group: FiniteGroup) -> BasisMap:
    n = group.order
    return BasisMap(n, (group.table[g][h] for g in range(n) for h in range(n)))


def unit_map(group: FiniteGroup) -> BasisMap:
    return BasisMap(group.order, (group.identity,))


def e_basis_map(group: FiniteGroup) -> BasisMap:
    """E: delta_g -> delta_g (x) delta_{g^{-1}}."""
    n = group.order
    return BasisMap(n * n, (g * n + group.inverses[g] for g in range(n)))


def left_conv_map(group: FiniteGroup, c: int) -> BasisMap:
    """x -> delta_c * x on l(G)."""
    return BasisMap(group.order, group.table[c])


def env_left_mult_matrix(t: AlgebraElement) -> BasisMap:
    """Map w -> t . w in the enveloping algebra for a basis tensor t,
    built through the generic product so it is an independent code
    path."""
    alg = t.algebra
    if not alg.compatible(alg.enveloping):
        raise ValueError("an element of the enveloping algebra is required")
    images = []
    for k in range(alg.dim):
        image = basis_index(t * alg.delta(k))
        if image is None:
            raise ValueError(
                "left multiplication does not map basis tensors to "
                "basis tensors")
        images.append(image)
    return BasisMap(alg.dim, images)


@dataclass
class AxiomResult:
    passed: bool
    checked: str
    witness: Optional[str] = None

    def to_doc(self):
        doc = {"pass": self.passed, "checked": self.checked}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass
class HopfReport:
    group_name: str
    order: int
    antipode_corrupted: bool
    axioms: "Dict[str, AxiomResult]" = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.axioms.values())

    def to_doc(self):
        return {
            "group": self.group_name,
            "order": self.order,
            "antipode_corrupted": self.antipode_corrupted,
            "axioms": {name: r.to_doc() for name, r in self.axioms.items()},
            "all_pass": self.all_pass,
        }


def _matrix_axiom(report: HopfReport, labels, name: str,
                  lhs: BasisMap, rhs: BasisMap, checked: str):
    j = lhs.first_column_difference(rhs)
    if j is None:
        report.axioms[name] = AxiomResult(True, checked)
    else:
        report.axioms[name] = AxiomResult(
            False, checked, witness=f"basis column {labels[j % len(labels)]}")


def verify_hopf_axioms(group: FiniteGroup,
                       antipode_perm: Optional[Sequence[int]] = None
                       ) -> HopfReport:
    """Check the five Hopf diagrams plus the structural homomorphism and
    involution properties, exactly, on the full delta basis.

    antipode_perm substitutes an arbitrary permutation for inversion in S;
    passing the identity permutation on a nonabelian group is the standard
    negative control and must break both antipode diagrams.
    """
    alg = GroupAlgebra(group)
    require_within_cap(group.order, "Hopf structure verification")
    n = group.order
    labels = group.labels
    perm = tuple(antipode_perm) if antipode_perm else None
    delta = delta_map(group)
    counit = counit_map(group)
    s = antipode_map(group, perm)
    mult = mult_map(group)
    ident = BasisMap.identity(n)
    report = HopfReport(group.name, n, antipode_perm is not None)

    basis_note = f"all {n} basis columns"
    _matrix_axiom(
        report, labels, "coassociativity",
        delta.kron(ident).compose(delta), ident.kron(delta).compose(delta),
        basis_note)
    _matrix_axiom(
        report, labels, "counit_left",
        counit.kron(ident).compose(delta), ident, basis_note)
    _matrix_axiom(
        report, labels, "counit_right",
        ident.kron(counit).compose(delta), ident, basis_note)
    nu_eps = unit_map(group).compose(counit)
    _matrix_axiom(
        report, labels, "antipode_left",
        mult.compose(s.kron(ident)).compose(delta), nu_eps, basis_note)
    _matrix_axiom(
        report, labels, "antipode_right",
        mult.compose(ident.kron(s)).compose(delta), nu_eps, basis_note)
    _matrix_axiom(
        report, labels, "antipode_involutive",
        s.compose(s), ident, basis_note)

    pair_note = f"all {n * n} basis pairs"

    def first_pair_failure(predicate):
        for g in range(n):
            for h in range(n):
                if not predicate(g, h):
                    return f"pair ({labels[g]}, {labels[h]})"
        return None

    def record_pairs(name, predicate):
        witness = first_pair_failure(predicate)
        report.axioms[name] = AxiomResult(witness is None, pair_note, witness)

    record_pairs(
        "comultiplication_homomorphism",
        lambda g, h: comultiply(convolve(alg.delta(g), alg.delta(h)))
        == comultiply(alg.delta(g)) * comultiply(alg.delta(h)))
    record_pairs(
        "counit_homomorphism",
        lambda g, h: augmentation(convolve(alg.delta(g), alg.delta(h)))
        == augmentation(alg.delta(g)) * augmentation(alg.delta(h)))
    record_pairs(
        "antipode_antihomomorphism",
        lambda g, h: antipode(convolve(alg.delta(g), alg.delta(h)), perm)
        == convolve(antipode(alg.delta(h), perm), antipode(alg.delta(g), perm)))
    record_pairs(
        "e_homomorphism",
        lambda g, h: e_map(convolve(alg.delta(g), alg.delta(h)))
        == e_map(alg.delta(g)) * e_map(alg.delta(h)))
    return report


@dataclass
class Eq1Report:
    """Outcome of the dual-action identity E^*(phi).c = E^*(phi.E(c))."""

    group_name: str
    order: int
    per_c: "Dict[str, bool]" = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.per_c.values())

    def to_doc(self):
        return {
            "group": self.group_name,
            "order": self.order,
            "checked": f"all {self.order * self.order} basis functionals "
                       f"x {self.order} basis elements",
            "per_c": dict(sorted(self.per_c.items())),
            "all_pass": self.all_pass,
        }


def eq1_check(group: FiniteGroup) -> Eq1Report:
    """Verify E^*(phi).c = E^*(phi.E(c)) for every basis functional phi on
    the enveloping algebra and every basis element c.

    The left side routes through transposed convolution maps, the right
    side through the generic enveloping product; comparing the two
    composed maps column by column covers every basis phi at once.
    """
    require_within_cap(group.order, "dual action identity check")
    alg = GroupAlgebra(group)
    n = group.order
    et = e_basis_map(group).transpose()
    report = Eq1Report(group.name, n)
    for c in range(n):
        lhs = left_conv_map(group, c).transpose().compose(et)
        env = env_left_mult_matrix(e_map(alg.delta(c)))
        rhs = et.compose(env.transpose())
        report.per_c[group.labels[c]] = lhs == rhs
    return report


@dataclass
class Lemma2Report:
    group_name: str
    order: int
    quotient_dim: int
    expected_dim: int
    well_defined: bool
    bijective: bool
    action_commutes: bool

    @property
    def dim_ok(self) -> bool:
        return self.quotient_dim == self.expected_dim

    @property
    def all_pass(self) -> bool:
        return self.dim_ok and self.well_defined and self.bijective \
            and self.action_commutes

    def to_doc(self):
        return {
            "group": self.group_name,
            "order": self.order,
            "quotient_dim": self.quotient_dim,
            "expected_dim": self.expected_dim,
            "dim_ok": self.dim_ok,
            "well_defined": self.well_defined,
            "bijective": self.bijective,
            "action_commutes": self.action_commutes,
            "all_pass": self.all_pass,
        }


Lemma2Data = Tuple[Sequence[Tuple[int, int]], Tuple[int, ...]]


def lemma2_data(group: FiniteGroup) -> Lemma2Data:
    """Quotient relations of the enveloping algebra and the classes they
    generate, over the flat index g*n + h of delta_g (x) delta_h.

    For u = delta_g (x) delta_h, u.E(delta_a) = delta_ga (x) delta_{a^-1 h},
    so the relation u.E(delta_a) - epsilon(delta_a).u is e_i - e_j with
    i = flat(ga, a^-1 h) and j = flat(g, h).  The generators S suffice:
    u.(E(st) - 1 (x) 1) = (u.E(s)).(E(t) - 1 (x) 1) + u.(E(s) - 1 (x) 1)
    since E(st) = E(s)E(t), and u.E(s) is a basis tensor, so the n^2 |S|
    relations of a in S span those of every a in G.  The e_homomorphism
    Hopf check, which certify and the verify command run first, certifies
    E(st) = E(s)E(t).  relations holds the pairs (i, j) in the order
    g, h, a, and classes is their partition of the basis from
    basis_classes: entry k is the smallest flat index in the class of k.
    """
    n, table = group.order, group.table
    # (a, row of a^-1) for a in S
    moves = [(a, table[group.inverses[a]]) for a in group.generators]
    relations = tuple(
        (row[a] * n + back[h], g * n + h)
        for g, row in enumerate(table) for h in range(n)
        for a, back in moves)
    return relations, basis_classes(n * n, relations)


def lemma2_iso_check(group: FiniteGroup,
                     lemma2: Optional[Lemma2Data] = None) -> Lemma2Report:
    """Certify the isomorphism class(u) -> pi0(u) from the quotient of the
    enveloping algebra by the span of u.E(a) - epsilon(a).u onto l(G).

    Checks, in order: the quotient has dimension |G|; pi0 agrees at both
    ends of every relation, so it is constant on each class they join
    (the map is well defined, given E(st) = E(s)E(t)); the class
    representatives have |G| distinct products (the map is bijective);
    and it commutes with the left enveloping action.  The relation span
    is a left ideal, since w.u.(E(a) - 1 (x) 1) is the relation of the
    basis tensor w.u, so the quotient is a left module and the last check
    needs only the 2n generators w = delta_g (x) 1 and 1 (x) delta_h.
    For each, w.e_r is computed through the generic enveloping product,
    which reads the opposite table, and compared with delta_wg *
    pi0(e_r) * delta_wh read from G's table: 2n^2 products.  lemma2 may
    carry lemma2_data(group), already built.
    """
    require_within_cap(group.order, "quotient isomorphism check")
    env = GroupAlgebra(group).enveloping
    n, e = group.order, group.identity
    table = group.table
    relations, classes = lemma2_data(group) if lemma2 is None else lemma2
    well_defined = all(
        table[i // n][i % n] == table[j // n][j % n] for i, j in relations)
    # induced map on classes: class of e_r -> delta_{pi0(e_r)}
    phi = {r: table[r // n][r % n] for r in sorted(set(classes))}
    bijective = len(phi) == n and len(set(phi.values())) == n

    def commutes(wg: int, wh: int) -> bool:
        w = basis_tensor(env, wg, wh)
        for r, x in phi.items():
            k = basis_index(w * env.delta(r))
            if k is None or phi[classes[k]] != table[table[wg][x]][wh]:
                return False
        return True

    action_commutes = not well_defined or all(
        commutes(g, e) and commutes(e, g) for g in range(n))

    return Lemma2Report(
        group_name=group.name,
        order=n,
        quotient_dim=len(phi),
        expected_dim=n,
        well_defined=well_defined,
        bijective=bijective,
        action_commutes=action_commutes,
    )
