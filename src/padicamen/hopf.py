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
compositions of index tuples.  A pair check compares a map applied to the
convolution of two basis elements, read off G's table, with the product
of their two images under the target's product rule
(GroupAlgebra.product_index, whose second leg reads the opposite table in
the enveloping algebra); each basis image is built once per call, and
every pair with that factor reads it.  The four pair checks run in one
loop over the rows g in S (S = group.generators) and every column h,
which forms the convolution of each pair once and hands it to all four,
each with its own comparison; every g is a nonempty word in S, so those
rows decide all n^2 pairs, and only a failure reruns the loop over all
of them to name each identity's first failing pair.  On coefficient
vectors the two sides of the dual-action identity are (E L_c)^T and
(l_E(c) E)^T, for L_c the left translation by c and l_E(c) the left
multiplication by E(delta_c), and M^T = N^T exactly when M = N.  So
eq1_check compares E L_c, read off G's table, with l_E(c) E, read off
the enveloping product rule by index: column a of those maps is
E(delta_ca) and E(delta_c)E(delta_a), and it reads every entry of the
opposite table.  The e_homomorphism pair check reads the enveloping
product rule only on the rows S, so the two are not one
comparison, and each can fail on its own.  The action check of the
quotient isomorphism compares the enveloping product rule with G's
table, so an index mistake in one path cannot cancel against the same
mistake in the other.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
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
    """One Hopf check: whether it passed, what it read, and the first
    basis column or pair where it failed, if it did."""

    passed: bool
    checked: str
    witness: Optional[str] = None


def verify_hopf_axioms(group: FiniteGroup) -> Dict[str, AxiomResult]:
    """Check the five Hopf diagrams plus the structural homomorphism and
    involution properties, exactly, on the full delta basis, and return
    each check's result by name: the six diagrams, then the four pair
    checks.  The antipode checked is always inversion.

    Every check reads the maps of delta_map, antipode_map and e_basis_map,
    each built once per call: the diagrams compose them.  The pair checks
    apply them, and augmentation, to each basis element once per call.
    Then one loop over the pairs (g, h) with g in S forms the convolution
    of the two basis elements once per pair, and each of the four
    identities applies its map to it and compares that with the product of
    the two stored images: 4n|S| generic products and 3n|S| + 3n
    applications of a BasisMap.  Those rows decide all n^2 basis pairs, by
    the argument beside the loop; if an identity fails on them, the loop
    reruns over all n^2, and each identity keeps its own first failing
    pair in (g, h) order, so one failing identity hides no other.
    Replacing S with another permutation, such as the identity on a
    nonabelian group, fails the antipode checks; replacing Delta or E
    with a map that is no homomorphism fails its pair check.  A product
    rule that scales every product by the same constant c != 1 scales
    both sides of the Delta, S and E identities alike, so only
    counit_homomorphism catches it: epsilon(delta_g delta_h) = c, where
    epsilon(delta_g) epsilon(delta_h) = 1.
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
    nu_eps = unit_map(group).compose(counit)

    def diagram(lhs: BasisMap, rhs: BasisMap) -> AxiomResult:
        j = lhs.first_column_difference(rhs)
        return AxiomResult(j is None, f"all {n} basis columns",
                           None if j is None else f"basis column {labels[j]}")

    axioms = {
        "coassociativity": diagram(delta.kron(ident).compose(delta),
                                   ident.kron(delta).compose(delta)),
        "counit_left": diagram(counit.kron(ident).compose(delta), ident),
        "counit_right": diagram(ident.kron(counit).compose(delta), ident),
        "antipode_left": diagram(
            mult.compose(s.kron(ident)).compose(delta), nu_eps),
        "antipode_right": diagram(
            mult.compose(ident.kron(s)).compose(delta), nu_eps),
        "antipode_involutive": diagram(s.compose(s), ident),
    }

    tensor, env = alg.tensor, alg.enveloping
    basis = [alg.delta(g) for g in range(n)]
    delta_of = [delta.apply(b, tensor) for b in basis]
    eps_of = [augmentation(b) for b in basis]
    s_of = [s.apply(b, alg) for b in basis]
    e_of = [e.apply(b, env) for b in basis]
    def scan(rows: Iterable[int]) -> Dict[str, Tuple[int, int]]:
        # first failing pair of each identity, in (g, h) order
        first: Dict[str, Tuple[int, int]] = {}
        for g in rows:
            delta_g, eps_g, s_g, e_g = delta_of[g], eps_of[g], s_of[g], e_of[g]
            for h, c in enumerate(basis):
                gh = convolve(basis[g], c)
                if delta.apply(gh, tensor) != delta_g * delta_of[h]:
                    first.setdefault("comultiplication_homomorphism", (g, h))
                if augmentation(gh) != eps_g * eps_of[h]:
                    first.setdefault("counit_homomorphism", (g, h))
                if s.apply(gh, alg) != convolve(s_of[h], s_g):
                    first.setdefault("antipode_antihomomorphism", (g, h))
                if e.apply(gh, env) != e_g * e_of[h]:
                    first.setdefault("e_homomorphism", (g, h))
        return first

    # Write P(g, h) for phi(delta_g delta_h) = phi(delta_g) phi(delta_h),
    # the factors swapped for the antipode.  Every g is a nonempty word in
    # S, since e = s^(ord s).  If P(s, .) holds for every s in S, then
    # phi(s g' h) = phi(s) phi(g' h) = phi(s) phi(g') phi(h) = phi(s g') phi(h)
    # by induction on the word and associativity of the target's product,
    # so the rows S decide all n^2 pairs; the row e is read only when S is
    # empty (cyclic:1).  Only a failure scans every row, to name each
    # identity's first failing pair in (g, h) order.
    first = scan(group.generators or (group.identity,))
    if first:
        first = scan(range(n))

    pair_note = f"all {n * n} basis pairs"
    for name in ("comultiplication_homomorphism", "counit_homomorphism",
                 "antipode_antihomomorphism", "e_homomorphism"):
        if name in first:
            g, h = first[name]
            axioms[name] = AxiomResult(
                False, pair_note, f"pair ({labels[g]}, {labels[h]})")
        else:
            axioms[name] = AxiomResult(True, pair_note)
    return axioms


def eq1_check(group: FiniteGroup) -> Dict[str, bool]:
    """Decide E^*(phi).c = E^*(phi.E(c)) for every basis functional phi on
    the enveloping algebra and every basis element c, and return the
    verdict for each c by its label.

    On coefficient vectors the left side sends phi to L_c^T E^T phi and
    the right side to E^T l_E(c)^T phi, for L_c the left translation by c
    and l_E(c) the left multiplication by E(delta_c).  By transposition
    they are (E L_c)^T and (l_E(c) E)^T, and M^T = N^T exactly when
    M = N.  So comparing the n images of E L_c, through the left
    translations of translations(group) read off G's table, with those of
    l_E(c) E, read off the enveloping product rule by index, decides the
    identity for all n^2 basis phi at once: 2n^2 reads in all.  Column a
    of the two maps is E(delta_ca) and E(delta_c)E(delta_a): this check
    reads all n^2 equations E(ca) = E(c)E(a), where the e_homomorphism
    Hopf check reads them on the rows S through convolve.
    """
    require_within_cap(group.order, "dual action identity check")
    env = GroupAlgebra(group).enveloping
    e = e_basis_map(group)
    left, _ = translations(group)
    per_c = {}
    for c, label in enumerate(group.labels):
        by_ec = tuple(env.product_index(e.images[c], j) for j in e.images)
        per_c[label] = e.compose(left[c]).images == by_ec
    return per_c


class Lemma2Report(NamedTuple):
    """The quotient's dimension, the order it must equal, and the three
    properties of the map class(u) -> pi0(u) that lemma2_iso_check
    decides."""

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


class GeneratorRelations:
    """The relations of lemma2_data in the order g, h, a, read off G's
    table on every iteration, never held and never through the enveloping
    product rule: the independent side of lemma2_iso_check's action check."""

    def __init__(self, group: FiniteGroup):
        self.group = group

    def __len__(self) -> int:
        return self.group.order ** 2 * len(self.group.generators)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        group = self.group
        n, table = group.order, group.table
        # (a, row of a^-1) for a in S
        moves = [(a, table[group.inverses[a]]) for a in group.generators]
        for g, row in enumerate(table):
            for h in range(n):
                j = g * n + h
                for a, back in moves:
                    yield row[a] * n + back[h], j


Lemma2Data = Tuple[Iterable[Tuple[int, int]], Tuple[int, ...]]


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
    E(st) = E(s)E(t).  The relations are GeneratorRelations(group), and
    classes is their partition from basis_classes: entry k is the
    smallest flat index in the class of k.
    """
    require_within_cap(group.order, "quotient isomorphism check")
    relations = GeneratorRelations(group)
    return relations, basis_classes(group.order ** 2, relations)


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
    lemma2_data(group).  Once this passes, the lift of delta_e is the
    class of the unit, so virtual_diagonal_construct reads no class.
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
        quotient_dim=len(phi),
        expected_dim=n,
        well_defined=well_defined,
        bijective=bijective,
        action_commutes=action_commutes,
    )
