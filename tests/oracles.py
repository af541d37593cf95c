"""Brute-force references for the reduced checks of the package.

The package checks what the proofs need: associativity and the lemma-2
quotient relations on a generating set of the group, the kernel right
identity on the generators x_s of ker pi0 for s in that set, and the
subgroup lattice by cyclic extension.  The functions here do the full
work those reductions avoid, so tests can require the two to agree.  The
package's elements hold int numerators over one denominator;
`fraction_add` and `fraction_convolve` are the sum and the product on
plain Fraction coefficients, as the package computed them before.
`apply` applies a BasisMap to a sparse vector and `transpose` gives the
transpose of an injective one, which tests use to apply transposed
actions.  The package decides the dual-action identity
on the maps E L_c and l_E(c) E, whose transposes are its two sides, and
`dual_action_verdicts` composes the transposed maps themselves, over all
n^2 basis functionals.  `tensor_of` builds the elementary tensor
f (x) h coefficient by coefficient, and `relabel` moves a group's
elements to other indices (by `permuted`, given the new index of each),
for checks that relabelling changes no verdict;
`relabelled_catalog` pairs each catalog group with such a copy.  The
package checks the bimodule axioms on a generating set too, and
`bimodule_axiom_failure` checks them at every pair.  A Bimodule holds
only the actions of that set, and `stock_actions` gives the actions of
every element of the stock bimodules, from their definitions.  The package reads
each basis image of Delta, epsilon, S and E once for its Hopf pair checks,
and `hopf_pair_witnesses` applies the maps again to both factors of
every pair.  The package states part (b) of the derivation certificate,
D = ad(xi_D), by the cancellation of its terms through the bimodule
axioms, and `johnson_identity_failure` collects the linear forms of each
identity (g, c) of it one at a time, at every g, for any actions.
`closed_group` closes permutations or matrices mod p into a table, for
groups the catalog lacks (`uncatalogued_groups`).
`read_johnson_and_diagonal` reads the mean and the diagonal of a
certificate document back by their labels, trusting none of its writers.
`valuation` is v_p of a rational, with INFINITE_VALUATION at zero: the
package only ever takes the valuations of nonzero int numerators and
denominators.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from padicamen.finite_group import (FiniteGroup, Subgroup, catalog,
                                    from_table)
import padicamen.hopf as hopf
from padicamen.group_algebra import (AlgebraElement, GroupAlgebra,
                                     augmentation, convolve)
from padicamen.hopf import BasisMap, basis_tensor
from padicamen.valued_field import int_valuation

FractionVec = Dict[int, Fraction]

#: Valuation of zero.  An IEEE infinity compares correctly against every
#: integer valuation, which is the only arithmetic it ever sees.
INFINITE_VALUATION = math.inf


def associativity_failure(table: Sequence[Sequence[int]]
                          ) -> Optional[Tuple[int, int, int]]:
    """First triple (a, b, c) with (ab)c != a(bc), or None: all n^3."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


@dataclass(frozen=True)
class QuotientRelations:
    """Every lemma-2 quotient relation u.E(delta_a) - epsilon(delta_a).u,
    a != e, as the flat index pair (i, j) of e_i - e_j, in the order
    g, h, a: the n^3 - n^2 pairs the package's generator relations span.
    They are read off the table again on every iteration, so they are
    never held at once."""

    table: Tuple[Tuple[int, ...], ...]
    inverses: Tuple[int, ...]
    identity: int

    def __len__(self) -> int:
        n = len(self.table)
        return n * n * (n - 1)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        table, e = self.table, self.identity
        n = len(table)
        # (a, row of a^-1) for a != e
        moves = [(a, table[ai]) for a, ai in enumerate(self.inverses)
                 if a != e]
        for g, row in enumerate(table):
            for h in range(n):
                j = g * n + h
                for a, back in moves:
                    yield row[a] * n + back[h], j


def valuation(x, p: int):
    """v_p(x) as an exact integer; INFINITE_VALUATION for x = 0."""
    x = Fraction(x)
    if x == 0:
        return INFINITE_VALUATION
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def fraction_add(a: FractionVec, b: FractionVec) -> FractionVec:
    """a + b, coefficient by coefficient, zeros dropped."""
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + v
        if nv:
            out[k] = nv
        else:
            del out[k]
    return out


def fraction_convolve(alg: GroupAlgebra, a: FractionVec,
                      b: FractionVec) -> FractionVec:
    """The product of l(G x H) on Fraction coefficients: bilinear extension
    of delta_(g,s) * delta_(x,y) = delta_(first[g][x], second[s][y])."""
    first, second = alg.first, alg.second
    m = len(second)
    right = [(divmod(k, m), c) for k, c in b.items()]
    out: FractionVec = {}
    for k, c in a.items():
        g, s = divmod(k, m)
        row_g, row_s = first[g], second[s]
        for (x, y), d in right:
            key = row_g[x] * m + row_s[y]
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def apply(mp: BasisMap, vec: FractionVec) -> FractionVec:
    """The image of a sparse vector under a basis map."""
    out: FractionVec = {}
    for j, c in vec.items():
        i = mp.images[j]
        if i is None:
            continue
        nv = out.get(i, Fraction(0)) + c
        if nv:
            out[i] = nv
        else:
            out.pop(i, None)
    return out


def transpose(mp: BasisMap) -> BasisMap:
    """Transpose of an injective basis map: e_i goes to e_j where
    images[j] = i, and to 0 where i is no image."""
    out: List[Optional[int]] = [None] * mp.nrows
    for j, i in enumerate(mp.images):
        if i is None:
            continue
        if out[i] is not None:
            raise ValueError("transpose of a non-injective basis map")
        out[i] = j
    return BasisMap(mp.ncols, out)


def dual_action_verdicts(group: FiniteGroup, e: BasisMap,
                         left: Sequence[BasisMap]) -> Dict[str, bool]:
    """For each label c, whether E^*(phi).c = E^*(phi.E(c)) holds for
    every basis functional phi, with E the basis map e and left[c] the
    translation by c: the transposed sides L_c^T E^T and E^T l_E(c)^T,
    n^2 columns each, where l_E(c) is left multiplication by E(delta_c)
    in the enveloping algebra, read off G's table with the second leg in
    the opposite order."""
    table = group.table
    n = group.order
    et = transpose(e)
    verdicts = {}
    for c, label in enumerate(group.labels):
        g, s = divmod(e.images[c], n)
        by_ec = BasisMap(n * n, (table[g][x] * n + table[y][s]
                                 for x in range(n) for y in range(n)))
        verdicts[label] = transpose(left[c]).compose(et) == \
            et.compose(transpose(by_ec))
    return verdicts


def tensor_of(f: AlgebraElement, h: AlgebraElement,
              target: GroupAlgebra) -> AlgebraElement:
    """The elementary tensor f (x) h in target, a tensor algebra of the
    algebra of f and h."""
    n = f.algebra.dim
    return AlgebraElement.from_coeffs(target, {
        g * n + x: a * b
        for g, a in f.coeffs.items() for x, b in h.coeffs.items()})


def kernel_basis_failure(u: AlgebraElement) -> Optional[Tuple[int, int]]:
    """First (g, h), g != e, with v.u != v for the kernel basis vector
    v = delta_g (x) delta_h - delta_e (x) delta_gh of ker pi0, or None:
    the full scan over all n^2 - n basis vectors."""
    alg, grp = u.algebra, u.algebra.group
    e = grp.identity
    for g in range(grp.order):
        if g == e:
            continue
        for h in range(grp.order):
            v = basis_tensor(alg, g, h) - basis_tensor(alg, e, grp.table[g][h])
            if v * u != v:
                return g, h
    return None


def relabel(g: FiniteGroup, rng: random.Random
            ) -> Tuple[List[str], List[List[int]]]:
    """Labels and table of g with its elements moved to a random order,
    the identity among them, so the identity leaves its index.  The
    trivial group has no other index, so it raises ValueError."""
    if g.order == 1:
        raise ValueError("the identity of a trivial group cannot move")
    new = list(range(g.order))
    while new[g.identity] == g.identity:
        rng.shuffle(new)
    return permuted(g, new)


def permuted(g: FiniteGroup, new: Sequence[int]
             ) -> Tuple[List[str], List[List[int]]]:
    """Labels and table of g with element a moved to index new[a]."""
    table = [[0] * g.order for _ in range(g.order)]
    for a, row in enumerate(g.table):
        for b, ab in enumerate(row):
            table[new[a]][new[b]] = new[ab]
    labels = [""] * g.order
    for a, label in enumerate(g.labels):
        labels[new[a]] = label
    return labels, table


def relabelled_catalog(max_order: int, seed: int) -> Iterator[FiniteGroup]:
    """catalog(max_order), each group of order > 1 followed by a relabelled
    copy whose identity is off its index, both named as in the catalog."""
    rng = random.Random(seed)
    for grp in catalog(max_order):
        yield grp
        if grp.order > 1:
            yield from_table(grp.name, *relabel(grp, rng))


def bimodule_axiom_failure(group: FiniteGroup, left: Sequence[BasisMap],
                           right: Sequence[BasisMap]
                           ) -> Optional[Tuple[str, int, int]]:
    """First (law, g, h) at which the actions break a bimodule axiom, or
    None: the homomorphism, antihomomorphism and commutation laws at all
    n^2 pairs, and unitality at the identity."""
    e = group.identity
    if left[e] != BasisMap.identity(left[e].ncols) or \
            right[e] != BasisMap.identity(right[e].ncols):
        return "unital", e, e
    for g, row in enumerate(group.table):
        for h, gh in enumerate(row):
            if left[gh] != left[g].compose(left[h]):
                return "left", g, h
            if right[gh] != right[h].compose(right[g]):
                return "right", g, h
            if left[g].compose(right[h]) != right[h].compose(left[g]):
                return "commute", g, h
    return None


def stock_actions(group: FiniteGroup, name: str
                  ) -> Tuple[int, List[BasisMap], List[BasisMap]]:
    """(dimension, left, right) of the stock bimodule name, one action per
    element and side, read off the table: on l(G) (regular) x -> gx and
    x -> xg; on the trivial module the identity of dimension 1; on l(G)
    (x) l(G) (outer_tensor) x (x) y -> gx (x) y and x (x) y -> x (x) yg,
    n maps n^2 long per side."""
    table, n = group.table, group.order
    if name == "regular":
        return (n, [BasisMap(n, table[g]) for g in range(n)],
                [BasisMap(n, (table[x][g] for x in range(n)))
                 for g in range(n)])
    if name == "trivial":
        return 1, [BasisMap.identity(1)] * n, [BasisMap.identity(1)] * n
    if name == "outer_tensor":
        return (n * n,
                [BasisMap(n * n, (table[g][x] * n + y for x in range(n)
                                  for y in range(n))) for g in range(n)],
                [BasisMap(n * n, (x * n + table[y][g] for x in range(n)
                                  for y in range(n))) for g in range(n)])
    raise ValueError("no stock bimodule %r" % name)


def hopf_pair_witnesses(group: FiniteGroup) -> Dict[str, Optional[str]]:
    """The witness of each Hopf pair check, None where it passes: the
    first pair (g, h) in row order whose product's image differs from the
    product of the images, each factor's image built again for the pair.
    The maps are read from hopf's builders at each call."""
    alg = GroupAlgebra(group)
    tensor, env = alg.tensor, alg.enveloping
    delta = hopf.delta_map(group)
    s = hopf.antipode_map(group)
    e = hopf.e_basis_map(group)
    d = alg.delta
    predicates = {
        "comultiplication_homomorphism":
            lambda g, h: delta.apply(convolve(d(g), d(h)), tensor)
            == delta.apply(d(g), tensor) * delta.apply(d(h), tensor),
        "counit_homomorphism":
            lambda g, h: augmentation(convolve(d(g), d(h)))
            == augmentation(d(g)) * augmentation(d(h)),
        "antipode_antihomomorphism":
            lambda g, h: s.apply(convolve(d(g), d(h)), alg)
            == convolve(s.apply(d(h), alg), s.apply(d(g), alg)),
        "e_homomorphism":
            lambda g, h: e.apply(convolve(d(g), d(h)), env)
            == e.apply(d(g), env) * e.apply(d(h), env),
    }
    n, labels = group.order, group.labels
    return {name: next((f"pair ({labels[g]}, {labels[h]})"
                        for g in range(n) for h in range(n)
                        if not holds(g, h)), None)
            for name, holds in predicates.items()}


def pair_closure(g: FiniteGroup, seed: frozenset) -> frozenset:
    """The subgroup generated by seed, closed over all member pairs."""
    members = set(seed)
    members.add(g.identity)
    frontier = list(members)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(members):
                for c in (g.table[a][b], g.table[b][a]):
                    if c not in members:
                        members.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(members)


def closure_subgroups(g: FiniteGroup) -> List[Subgroup]:
    """Every subgroup, sorted by (order, member tuple): seed with each
    cyclic subgroup, then extend the subgroups new in each round by every
    element outside them, closing over all member pairs, until a round
    finds nothing new.  A subgroup extended once gives nothing new when
    extended again, so this is the fixpoint of extending every known
    subgroup in every round."""
    known = {frozenset({g.identity})}
    for x in g.elements():
        known.add(pair_closure(g, frozenset({x})))
    fresh = set(known)
    while fresh:
        found = set()
        for base in fresh:
            for x in g.elements():
                if x in base:
                    continue
                ext = pair_closure(g, base | {x})
                if ext not in known:
                    found.add(ext)
        known |= found
        fresh = found
    subs = [Subgroup(g, tuple(sorted(m))) for m in known]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def _collect(terms: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """The linear form sum v.e_k of (k, v) terms, zeros dropped."""
    out: Dict[int, int] = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def johnson_identity_failure(group: FiniteGroup, left: Sequence[BasisMap],
                             right: Sequence[BasisMap]
                             ) -> Optional[Tuple[int, int]]:
    """First (g, c) at which n.(D - ad_{xi_D})[g, c] = -sum_k l(g, k,
    L_{k^-1} c) fails as linear forms in the unknowns D[g, c] at
    g*dim + c, or None, for Johnson's |G|.xi_D[x] = -sum_h D[h, L_{h^-1} x]
    and the Leibniz rows l(g, h, c) = D[gh, c] - D[h, R_g c] - D[g, L_h c],
    with L and R the left and right actions, bimodule laws or not."""
    n, dim = group.order, left[0].ncols
    table, inv = group.table, group.inverses
    left = [mp.images for mp in left]
    right = [mp.images for mp in right]

    def xi(x: int) -> List[Tuple[int, int]]:
        return [(h * dim + left[hi][x], -1) for h, hi in enumerate(inv)]

    def leibniz(g: int, h: int, c: int) -> List[Tuple[int, int]]:
        return [(table[g][h] * dim + c, 1), (h * dim + right[g][c], -1),
                (g * dim + left[h][c], -1)]

    for g in range(n):
        for c in range(dim):
            lhs = _collect([(g * dim + c, n)]
                           + [(k, -v) for k, v in xi(right[g][c])]
                           + xi(left[g][c]))
            rhs = _collect((k, -v) for h in range(n)
                           for k, v in leibniz(g, h, left[inv[h]][c]))
            if lhs != rhs:
                return g, c
    return None


def closed_group(name: str, generators: Sequence[Hashable],
                 multiply: Callable[[Hashable, Hashable], Hashable]
                 ) -> FiniteGroup:
    """The group the generators generate under multiply, through
    from_table: its elements are the generators, then each new product of
    an element by a generator in the order found, labelled by str.  In a
    finite group every element is such a product, the identity and the
    inverses too."""
    elements = list(dict.fromkeys(generators))
    index = {x: i for i, x in enumerate(elements)}
    for x in elements:  # the list grows while it is read
        for s in generators:
            xs = multiply(x, s)
            if xs not in index:
                index[xs] = len(elements)
                elements.append(xs)
    table = [[index[multiply(x, y)] for y in elements] for x in elements]
    return from_table(name, [str(x) for x in elements], table)


def compose(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """The permutation i -> a[b[i]] of permutations given by their images."""
    return tuple(a[i] for i in b)


def matrix_product(p: int) -> Callable:
    """The product of 2 x 2 matrices mod p, as tuples of rows."""
    def multiply(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % p
                           for j in range(2)) for i in range(2))
    return multiply


def uncatalogued_groups() -> List[FiniteGroup]:
    """Groups catalog(24) lacks, built from permutations and matrices
    mod p: the alternating group A4, the dicyclic group of order 12,
    SL(2, 3), the elementary abelian groups C2^3 and C2^4, the last the
    one whose generating set has four elements, and A5, the smallest
    group that is not solvable."""
    return [
        closed_group("A4", [(1, 2, 0, 3), (1, 0, 3, 2)], compose),
        closed_group("Dic12", [((4, 0), (0, 10)), ((0, 12), (1, 0))],
                     matrix_product(13)),
        closed_group("SL(2,3)", [((1, 1), (0, 1)), ((0, 2), (1, 0))],
                     matrix_product(3)),
        closed_group("C2^3", [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
                              (0, 1, 2, 3, 5, 4)], compose),
        closed_group("C2^4", [(1, 0, 2, 3, 4, 5, 6, 7),
                              (0, 1, 3, 2, 4, 5, 6, 7),
                              (0, 1, 2, 3, 5, 4, 6, 7),
                              (0, 1, 2, 3, 4, 5, 7, 6)], compose),
        # the 3-cycles (0 1 2) and (2 3 4)
        closed_group("A5", [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], compose),
    ]


def read_johnson_and_diagonal(doc: dict, labels: Sequence[str],
                              table: Sequence[Sequence[int]]
                              ) -> Optional[str]:
    """The first thing wrong in the "johnson" and "diagonal" sections of
    a certificate document for the group with these labels and Cayley
    table, or None.  It trusts no writer of the package: every
    coefficient is parsed with Fraction and read by its label.  The mean
    must be 1/n on every label and the diagonal exactly
    sum_g 1/n delta_g (x) delta_{g^-1}, both with norm exponent v_p(n);
    the diagonal must be balanced, (a (x) 1).d = (1 (x) a).d for every a,
    in the enveloping algebra, whose second leg multiplies in the
    opposite order, and pi0 must be printed as delta_e."""
    n, p = len(labels), doc["prime"]
    index = {label: k for k, label in enumerate(labels)}
    e = next(x for x in range(n) if all(table[x][y] == y for y in range(n)))
    inverse = [row.index(e) for row in table]
    vp = 0
    while n % p ** (vp + 1) == 0:
        vp += 1

    def parsed(coeffs):
        return {index[label]: Fraction(text)
                for label, text in coeffs.items()}
    johnson, diagonal = doc["johnson"], doc["diagonal"]
    tensor = diagonal["tensor"]
    unknown = {*johnson["mean"], *tensor, *diagonal["pi0"],
               *(h for row in tensor.values() for h in row)} - set(index)
    if unknown:
        return "labels %s are not the group's" % sorted(unknown)
    if johnson["amenable"] is not True or \
            johnson["invariant_space_dim"] != 1:
        return "johnson: not a one-dimensional invariant space"
    if parsed(johnson["mean"]) != dict.fromkeys(range(n), Fraction(1, n)):
        return "johnson: the mean is not 1/n on every label"
    if johnson["mean_norm_exponent"] != vp:
        return "johnson: mean_norm_exponent is not v_p(n)"
    d = {(index[g], h): c for g, row in tensor.items()
         for h, c in parsed(row).items()}
    for a in range(n):
        # (a (x) 1).(g (x) h) = ag (x) h and (1 (x) a).(g (x) h) = g (x) ha
        if {(table[a][g], h): c for (g, h), c in d.items()} != \
                {(g, table[h][a]): c for (g, h), c in d.items()}:
            return "diagonal: not balanced at %s" % labels[a]
    if d != {(g, inverse[g]): Fraction(1, n) for g in range(n)}:
        return "diagonal: not sum_g 1/n delta_g (x) delta_g^-1"
    if diagonal["norm_exponent"] != vp:
        return "diagonal: norm_exponent is not v_p(n)"
    if parsed(diagonal["pi0"]) != {e: 1}:
        return "diagonal: pi0 is not delta_e"
    return None
