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
quotient is held as a partition of the basis into classes.  Each of
Delta, S, E, pi0 and the left translations is stated once, by the
function that builds its BasisMap, and BasisMap.apply carries it to
elements, so every stage reads the map a check certified.  The counit is
counit_map, which the counit diagrams read, and augmentation on
elements, which the counit_homomorphism check reads.  The two sides
of a check still come from independent code paths.  The diagrams compare
compositions of index tuples.  A pair check compares a map applied to a
product read off G's table with the product of the images under the
target's product rule (GroupAlgebra.product_index, whose second leg
reads the opposite table in the enveloping algebra).  On coefficient
vectors the two sides of the dual-action identity are (E L_c)^T and
(l_E(c) E)^T, for L_c the left translation by c and l_E(c) the left
multiplication by E(delta_c), and M^T = N^T exactly when M = N.  So
eq1_check compares E L_c, read off G's table, with l_E(c) E, read off
the enveloping product rule by index.  Column a of those maps is
E(delta_ca) and E(delta_c)E(delta_a), so the dual-action identity and
the e_homomorphism pair check decide the same equations
E(ca) = E(c)E(a), the pair check through convolve and BasisMap.apply.
Both stay, and each can fail on its own: eq1_check reads the
translations and the pair check reads convolve.  The action check of the
quotient isomorphism compares the enveloping product rule with G's
table, so an index mistake in one path cannot cancel against the same
mistake in the other.
"""

from __future__ import annotations

from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .finite_group import FiniteGroup, require_within_cap
from .group_algebra import (AlgebraElement, GroupAlgebra, SparseVec,
                            augmentation, basis_classes, convolve)


def basis_tensor(algebra: GroupAlgebra, g: int, h: int) -> AlgebraElement:
    """delta_g (x) delta_h in the tensor algebra given."""
    return algebra.delta(g * algebra.base.dim + h)


class BasisMap:
    """Linear map sending every basis vector to one basis vector or to 0.

    images[j] is the index of the image of e_j, taken with coefficient 1,
    or None when e_j maps to 0; nrows is the dimension of the target.
    The Hopf structure maps, translations by group elements and the
    actions of the stock bimodules all have this form, so composition,
    tensor product and equality act on index tuples.
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

    def apply(self, f: AlgebraElement, target: GroupAlgebra) -> AlgebraElement:
        """The image of f in target, an algebra of dimension nrows: the
        coefficients of columns with one image add up, and a column sent
        to 0 or a sum that cancels is dropped."""
        if f.algebra.dim != self.ncols or target.dim != self.nrows:
            raise ValueError("basis map of shape %d x %d applied from "
                             "dimension %d to %d" % (self.nrows, self.ncols,
                                                     f.algebra.dim, target.dim))
        im = self.images
        out: SparseVec = {}
        for j, v in f.num.items():
            i = im[j]
            if i is not None:
                out[i] = out.get(i, 0) + v
        return AlgebraElement(target, {i: v for i, v in out.items() if v},
                              f.den)

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


def antipode_map(group: FiniteGroup) -> BasisMap:
    """S: delta_g -> delta_{g^{-1}}."""
    return BasisMap(group.order, group.inverses)


def mult_map(group: FiniteGroup) -> BasisMap:
    n = group.order
    return BasisMap(n, (group.table[g][h] for g in range(n) for h in range(n)))


def unit_map(group: FiniteGroup) -> BasisMap:
    return BasisMap(group.order, (group.identity,))


def e_basis_map(group: FiniteGroup) -> BasisMap:
    """E = (1 (x) S) Delta: delta_g -> delta_g (x) delta_{g^{-1}}."""
    n = group.order
    return BasisMap(n * n, (g * n + group.inverses[g] for g in range(n)))


def translations(group: FiniteGroup
                 ) -> Tuple[List[BasisMap], List[BasisMap]]:
    """The maps x -> gx and x -> xg on l(G), for every g."""
    n = group.order
    return ([BasisMap(n, group.table[g]) for g in range(n)],
            [BasisMap(n, group.opposite_table[g]) for g in range(n)])


def e_map(f: AlgebraElement) -> AlgebraElement:
    """E(f) in the enveloping algebra, for f in l(G)."""
    return e_basis_map(f.algebra.group).apply(f, f.algebra.enveloping)


def pi0(t: AlgebraElement) -> AlgebraElement:
    """The multiplication map sum t_{g,h} delta_g (x) delta_h ->
    sum t_{g,h} delta_{gh}, from either tensor algebra to l(G)."""
    return mult_map(t.algebra.group).apply(t, t.algebra.base)


class AxiomResult(NamedTuple):
    passed: bool
    checked: str
    witness: Optional[str] = None

    def to_doc(self):
        doc = {"pass": self.passed, "checked": self.checked}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


class HopfReport(NamedTuple):
    """The Hopf diagrams and structural properties of one group.  The
    antipode checked is always inversion, so antipode_corrupted, kept in
    the document, is always false."""

    group_name: str
    order: int
    axioms: "Dict[str, AxiomResult]"
    antipode_corrupted = False

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


def verify_hopf_axioms(group: FiniteGroup) -> HopfReport:
    """Check the five Hopf diagrams plus the structural homomorphism and
    involution properties, exactly, on the full delta basis.

    Every check reads the maps of delta_map, antipode_map and
    e_basis_map, each built once per call: the diagrams compose them, and
    the pair checks apply them to the product of two basis elements and
    to each factor.  Replacing S with another permutation, such as the
    identity on a nonabelian group, fails the antipode checks; replacing
    Delta or E with a map that is no homomorphism fails its pair check.
    """
    alg = GroupAlgebra(group)
    require_within_cap(group.order, "Hopf structure verification")
    n = group.order
    labels = group.labels
    delta = delta_map(group)
    counit = counit_map(group)
    s = antipode_map(group)
    e = e_basis_map(group)
    mult = mult_map(group)
    ident = BasisMap.identity(n)
    report = HopfReport(group.name, n, {})

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

    tensor, env = alg.tensor, alg.enveloping
    record_pairs(
        "comultiplication_homomorphism",
        lambda g, h: delta.apply(convolve(alg.delta(g), alg.delta(h)), tensor)
        == delta.apply(alg.delta(g), tensor)
        * delta.apply(alg.delta(h), tensor))
    record_pairs(
        "counit_homomorphism",
        lambda g, h: augmentation(convolve(alg.delta(g), alg.delta(h)))
        == augmentation(alg.delta(g)) * augmentation(alg.delta(h)))
    record_pairs(
        "antipode_antihomomorphism",
        lambda g, h: s.apply(convolve(alg.delta(g), alg.delta(h)), alg)
        == convolve(s.apply(alg.delta(h), alg), s.apply(alg.delta(g), alg)))
    record_pairs(
        "e_homomorphism",
        lambda g, h: e.apply(convolve(alg.delta(g), alg.delta(h)), env)
        == e.apply(alg.delta(g), env) * e.apply(alg.delta(h), env))
    return report


class Eq1Report(NamedTuple):
    """Outcome of the dual-action identity E^*(phi).c = E^*(phi.E(c))."""

    group_name: str
    order: int
    per_c: "Dict[str, bool]"

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

    On coefficient vectors the left side sends phi to L_c^T E^T phi and
    the right side to E^T l_E(c)^T phi, for L_c the left translation by c
    and l_E(c) the left multiplication by E(delta_c).  By transposition
    they are (E L_c)^T and (l_E(c) E)^T, and M^T = N^T exactly when
    M = N.  So comparing the n images of E L_c, through the left
    translations of translations(group) read off G's table, with those of
    l_E(c) E, read off the enveloping product rule by index, decides the
    identity for all n^2 basis phi at once: 2n^2 reads in all.  Column a
    of the two maps is E(delta_ca) and E(delta_c)E(delta_a), so these are
    the equations E(ca) = E(c)E(a) that the e_homomorphism Hopf check
    decides through convolve and BasisMap.apply.  Each check can fail on
    its own: this one reads the translations and the pair check convolve.
    """
    require_within_cap(group.order, "dual action identity check")
    env = GroupAlgebra(group).enveloping
    e = e_basis_map(group)
    left, _ = translations(group)
    report = Eq1Report(group.name, group.order, {})
    for c, label in enumerate(group.labels):
        by_ec = tuple(env.product_index(e.images[c], j) for j in e.images)
        report.per_c[label] = e.compose(left[c]).images == by_ec
    return report


class Lemma2Report(NamedTuple):
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
    require_within_cap(group.order, "quotient isomorphism check")
    n, table = group.order, group.table
    # (a, row of a^-1) for a in S
    moves = [(a, table[group.inverses[a]]) for a in group.generators]
    relations = tuple(
        (row[a] * n + back[h], g * n + h)
        for g, row in enumerate(table) for h in range(n)
        for a, back in moves)
    return relations, basis_classes(n * n, relations)


def lemma2_iso_check(group: FiniteGroup, lemma2: Lemma2Data) -> Lemma2Report:
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
    For each, w.e_r is read off the enveloping product rule by index,
    whose second leg reads the opposite table, and compared with delta_wg
    * pi0(e_r) * delta_wh read from G's table: 2n^2 products.  lemma2 is
    lemma2_data(group), which certify also hands to the virtual diagonal.
    """
    require_within_cap(group.order, "quotient isomorphism check")
    env = GroupAlgebra(group).enveloping
    n, e = group.order, group.identity
    table = group.table
    products = mult_map(group).images
    relations, classes = lemma2
    well_defined = all(products[i] == products[j] for i, j in relations)
    # induced map on classes: class of e_r -> delta_{pi0(e_r)}
    phi = {r: products[r] for r in sorted(set(classes))}
    bijective = len(phi) == n and len(set(phi.values())) == n

    def commutes(wg: int, wh: int) -> bool:
        w = wg * n + wh
        return all(phi[classes[env.product_index(w, r)]]
                   == table[table[wg][x]][wh] for r, x in phi.items())

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
