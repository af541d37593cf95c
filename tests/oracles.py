"""Brute-force references for the reduced checks of the package.

The package checks what the proofs need: associativity and the lemma-2
quotient relations on a generating set of the group, the kernel right
identity on the n generators of ker pi0, and the subgroup lattice by cyclic
extension.  The functions here do the full work those reductions avoid, so
tests can require the two to agree.  The package's elements hold int
numerators over one denominator; `fraction_add` and `fraction_convolve` are
the sum and the product on plain Fraction coefficients, as the package
computed them before.  `apply` applies a BasisMap to a sparse vector, which
tests use to apply transposed actions, and `relabel` moves a group's
elements to other indices, for checks that relabelling changes no verdict;
`relabelled_catalog` pairs each catalog group with such a copy.  The
package checks the bimodule axioms on a generating set too, and
`bimodule_axiom_failure` checks them at every pair.
`valuation` is v_p of a rational, with INFINITE_VALUATION at zero: the
package only ever takes the valuations of nonzero int numerators and
denominators.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from padicamen.finite_group import (FiniteGroup, Subgroup, catalog,
                                    from_table)
from padicamen.group_algebra import AlgebraElement, GroupAlgebra
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
