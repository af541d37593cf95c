"""Finite groups as validated Cayley tables.

Groups are plain multiplication tables over element indices 0..n-1.
Construction always runs the full validation: Latin square property,
two-sided identity, inverses, and associativity by Light's test on a
generating set, kept as FiniteGroup.generators: O(n**2 log n) reads in
all.  The order cap (default 24, environment-overridable) guards the
downstream computations that grow faster than n: the n**2 |S| quotient
relations, the outer tensor bimodule of dimension n**2 and the subgroup
lattice, not polynomial in n.  parse_spec reads the order a spec
declares, off a built-in spec's parameters or from a parsed table file,
so the command line applies the cap before a table is built or validated.

Subgroup enumeration is by cyclic extension (J. Neubuser, Numer. Math. 2
(1960) 280-292): seed with the distinct cyclic subgroups, then join each
subgroup found, once, with every cyclic subgroup it does not contain.
This finds the complete subgroup lattice without scanning 2**n subsets.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import GroupValidationError, OrderCapError, SpecParseError

DEFAULT_ORDER_CAP = 24
ORDER_CAP_ENV = "PADICAMEN_ORDER_CAP"


def order_cap() -> int:
    """Active group-order cap; the environment variable wins when set."""
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SpecParseError(
            f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise SpecParseError(f"{ORDER_CAP_ENV} must be positive, got {cap}")
    return cap


def require_within_cap(order: int, what: str) -> None:
    cap = order_cap()
    if order > cap:
        raise OrderCapError(
            f"{what} refused: group order {order} exceeds the cap {cap} "
            f"(override via {ORDER_CAP_ENV})"
        )


class FiniteGroup:
    """Validated finite group presented by its Cayley table; a group is
    never changed once built."""

    def __init__(self, name: str, order: int,
                 table: Tuple[Tuple[int, ...], ...], identity: int,
                 inverses: Tuple[int, ...], labels: Tuple[str, ...],
                 generators: Tuple[int, ...]):
        self.name, self.order, self.table = name, order, table
        self.identity, self.inverses = identity, inverses
        self.labels, self.generators = labels, generators

    @functools.cached_property
    def opposite_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Cayley table of the opposite group: opposite_table[h][y] = yh."""
        return tuple(zip(*self.table))

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def from_table(name: str, labels: Sequence[str],
               table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Build and fully validate a group from a raw Cayley table."""
    n = len(table)
    if n == 0:
        raise GroupValidationError(f"{name}: empty table")
    if len(labels) != n:
        raise GroupValidationError(
            f"{name}: {len(labels)} labels for order {n}")
    if len(set(labels)) != n:
        raise GroupValidationError(f"{name}: duplicate labels")
    full = list(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupValidationError(
                f"{name}: row {i} has length {len(row)}, expected {n}")
        # type(), not isinstance: JSON true/false arrive as bool, an int
        if any(type(x) is not int or not 0 <= x < n for x in row):
            raise GroupValidationError(
                f"{name}: row {i} contains an out-of-range entry")
        if sorted(row) != full:
            raise GroupValidationError(
                f"{name}: row {i} is not a permutation (Latin square fails)")
    for j in range(n):
        col = [table[i][j] for i in range(n)]
        if sorted(col) != full:
            raise GroupValidationError(
                f"{name}: column {j} is not a permutation (Latin square fails)")

    identity: Optional[int] = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and \
                all(table[i][e] == i for i in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupValidationError(f"{name}: no two-sided identity")

    inverses = []
    for i in range(n):
        j = table[i].index(identity)
        if table[j][i] != identity:
            raise GroupValidationError(
                f"{name}: element {labels[i]} has no two-sided inverse")
        inverses.append(j)

    # Light's associativity test (A. H. Clifford and G. B. Preston, The
    # Algebraic Theory of Semigroups I, 1961).  The set A of a with
    # (xa)y = x(ay) for all x, y contains e and is closed under the
    # product, so once every generator passes and the generators' closure
    # K is the whole table, the table is associative.  While the test
    # passes, K is a subgroup and K.a misses K for each new generator a,
    # so each generator at least doubles K and |S| <= log2 n.
    generators: List[int] = []
    closure = {identity}
    while len(closure) < n:
        a = min(x for x in full if x not in closure)
        for x, row in enumerate(table):
            xa = table[row[a]]
            for y, ay in enumerate(table[a]):
                if xa[y] != row[ay]:
                    raise GroupValidationError(
                        "%s: associativity fails at triple (%s, %s, %s)"
                        % (name, labels[x], labels[a], labels[y]))
        generators.append(a)
        closure = _closure(table, identity, generators)

    return FiniteGroup(
        name=name,
        order=n,
        table=tuple(tuple(row) for row in table),
        identity=identity,
        inverses=tuple(inverses),
        labels=tuple(labels),
        generators=tuple(generators),
    )


def _declared_order(kind: str, n: int) -> int:
    """The order of the built-in group kind:n, read off n alone; a
    parameter the kind does not take raises SpecParseError."""
    if kind == "cyclic" and n < 1:
        raise SpecParseError(f"cyclic order must be >= 1, got {n}")
    if kind == "dihedral" and n < 1:
        raise SpecParseError(f"dihedral parameter must be >= 1, got {n}")
    if kind == "symmetric":
        if not 1 <= n <= 4:
            raise SpecParseError(
                f"symmetric group parameter must be in 1..4, got {n}")
        return math.factorial(n)
    if kind == "quaternion" and n != 8:
        raise SpecParseError("the quaternion group here is quaternion:8")
    return 2 * n if kind == "dihedral" else n


def cyclic(n: int) -> FiniteGroup:
    _declared_order("cyclic", n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = [str(i) for i in range(n)]
    return from_table(f"cyclic:{n}", labels, table)


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; elements s^f r^k."""
    _declared_order("dihedral", n)

    def idx(f: int, k: int) -> int:
        return f * n + k

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for f in range(2):
        for k in range(n):
            for g in range(2):
                for l in range(n):
                    # (s^f r^k)(s^g r^l) = s^(f+g) r^(k*(-1)^g + l)
                    kk = (-k if g else k) + l
                    table[idx(f, k)][idx(g, l)] = idx((f + g) % 2, kk % n)
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return from_table(f"dihedral:{n}", labels, table)


def symmetric(n: int) -> FiniteGroup:
    """Permutations of {0..n-1} under composition; capped at n = 4."""
    _declared_order("symmetric", n)
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    labels = ["".join(str(x) for x in p) for p in perms]
    return from_table(f"symmetric:{n}", labels, table)


def quaternion8() -> FiniteGroup:
    """The quaternion group {±1, ±i, ±j, ±k}."""
    # unit products: (flip, unit) for units indexed 1, i, j, k = 0..3
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def idx(sign: int, unit: int) -> int:
        return 2 * unit + sign

    table = [[0] * 8 for _ in range(8)]
    for s1 in range(2):
        for u1 in range(4):
            for s2 in range(2):
                for u2 in range(4):
                    flip, unit = unit_mul[(u1, u2)]
                    table[idx(s1, u1)][idx(s2, u2)] = \
                        idx((s1 + s2 + flip) % 2, unit)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return from_table("quaternion:8", labels, table)


def product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with componentwise multiplication."""
    na, nb = a.order, b.order

    def idx(i: int, j: int) -> int:
        return i * nb + j

    table = [[0] * (na * nb) for _ in range(na * nb)]
    for i1 in range(na):
        for j1 in range(nb):
            for i2 in range(na):
                for j2 in range(nb):
                    table[idx(i1, j1)][idx(i2, j2)] = \
                        idx(a.table[i1][i2], b.table[j1][j2])
    labels = [
        f"({a.labels[i]},{b.labels[j]})"
        for i in range(na) for j in range(nb)
    ]
    return from_table(f"product:{a.name},{b.name}", labels, table)


def read_table_file(path: str) -> Tuple[str, list, list]:
    """The name, labels and table of a Cayley-table document: JSON with
    fields name, order, labels, table (row-major element indices).  The
    fields are checked: the name and labels printable, so a message that
    quotes them is one line, and the table has order rows, each a list;
    the table itself is validated by from_table."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read group file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or nesting
        raise SpecParseError(f"group file {path!r} is not valid JSON: {exc}") \
            from exc
    if not isinstance(doc, dict):
        raise SpecParseError(f"group file {path!r}: top level must be an object")
    missing = [k for k in ("name", "order", "labels", "table") if k not in doc]
    if missing:
        raise SpecParseError(
            f"group file {path!r}: missing fields {', '.join(missing)}")
    name, n = doc["name"], doc["order"]
    labels, table = doc["labels"], doc["table"]
    if not isinstance(name, str):
        raise SpecParseError(f"group file {path!r}: name must be a string")
    if type(n) is not int or n < 1:
        raise SpecParseError(f"group file {path!r}: bad order {n!r}")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SpecParseError(f"group file {path!r}: labels must be strings")
    if not all(x.isprintable() for x in (name, *labels)):
        raise SpecParseError(
            f"group file {path!r}: name and labels must be printable")
    if not isinstance(table, list) or len(table) != n or \
            not all(isinstance(row, list) for row in table):
        raise SpecParseError(
            f"group file {path!r}: table must have {n} rows, each a list")
    return name, labels, table


_BUILDERS = {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric,
             "quaternion": lambda n: quaternion8()}


def _names_a_file(spec: str) -> bool:
    """Whether spec is a path to a Cayley-table file: one with a path
    separator, one ending in .json, or a file whose name starts with no
    built-in kind.  A file named like a built-in spec, such as
    "cyclic:3", is read as "./cyclic:3" only."""
    if os.path.sep in spec or spec.endswith(".json"):
        return True
    kind = spec.partition(":")[0]
    return kind not in _BUILDERS and kind != "product" and \
        os.path.isfile(spec)


def _factors(spec: str) -> List[Tuple[str, int, int]]:
    """(kind, parameter, order) of each factor of a built-in spec, one or,
    for "product:a,b", two; every parameter is checked, nothing built."""
    kind, _, params = spec.partition(":")
    if kind == "product":
        parts = params.split(",")
        if len(parts) != 2:
            raise SpecParseError(
                f"product spec needs exactly two factors, got {spec!r}")
        factors = []
        for part in parts:
            if part.startswith("product"):
                raise SpecParseError(
                    f"nested product specs are not supported: {part!r}")
            factors += _factors(part)
        return factors
    if kind not in _BUILDERS:
        raise SpecParseError(f"unknown group kind {kind!r} in spec {spec!r}")
    try:
        n = int(params)
    except ValueError as exc:
        raise SpecParseError(
            f"bad parameter {params!r} in group spec {spec!r}") from exc
    return [(kind, n, _declared_order(kind, n))]


def parse_spec(spec: str) -> Tuple[int, Callable[[], FiniteGroup]]:
    """The order a group spec declares and the function that builds its
    group.  A spec is "cyclic:n", "dihedral:n", "symmetric:n",
    "quaternion:8", "product:a,b" (a and b non-product specs), whose order
    is read off its parameters, or a path to a Cayley-table file, whose
    order is the declared one once read_table_file has read the file;
    neither builds or validates a table before build() is called."""
    spec = spec.strip()
    if _names_a_file(spec):
        name, labels, table = read_table_file(spec)
        return len(table), lambda: from_table(name, labels, table)
    factors = _factors(spec)

    def build() -> FiniteGroup:
        groups = [_BUILDERS[kind](n) for kind, n, _ in factors]
        return groups[0] if len(groups) == 1 else product(*groups)
    return math.prod(order for _, _, order in factors), build


def from_spec(spec: str) -> FiniteGroup:
    """The group of a spec (see parse_spec), built past the order cap."""
    return parse_spec(spec)[1]()


class Subgroup:
    """Validated subgroup given by its member index set: sorted element
    indices, holding the identity and closed under products.  That is all
    a subset of G needs: it then holds each x^-1 = x^(ord x - 1), and its
    order divides |G| by Lagrange."""

    def __init__(self, group: FiniteGroup, members: Tuple[int, ...]):
        self.group, self.members = group, members
        g, mem = group, self.member_set
        if tuple(sorted(mem)) != self.members:
            raise GroupValidationError("subgroup members must be sorted")
        if g.identity not in mem:
            raise GroupValidationError("subgroup misses the identity")
        if self.members[0] < 0 or self.members[-1] >= g.order:
            raise GroupValidationError("subgroup members must be elements")
        for i in self.members:
            for j in self.members:
                if g.table[i][j] not in mem:
                    raise GroupValidationError(
                        "subgroup not closed under product %s*%s"
                        % (g.labels[i], g.labels[j])
                    )

    @functools.cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    def label_set(self) -> List[str]:
        return [self.group.labels[i] for i in self.members]

    def contains(self, other: "Subgroup") -> bool:
        return other.member_set <= self.member_set

    def __repr__(self):
        return f"Subgroup(members={self.members!r})"


def _closure(table: Sequence[Sequence[int]], identity: int,
             gens: Sequence[int]) -> frozenset:
    """The subgroup generated by gens: the identity closed under right
    multiplication by each generator, |K| * len(gens) table reads."""
    members = {identity}
    frontier = [identity]
    for a in frontier:  # grows while it is read
        row = table[a]
        for s in gens:
            if row[s] not in members:
                members.add(row[s])
                frontier.append(row[s])
    return frozenset(members)


def enumerate_subgroups(g: FiniteGroup) -> List[Subgroup]:
    """Complete subgroup list, sorted by (order, member tuple).

    Cyclic extension: a worklist starts with the distinct cyclic
    subgroups, and each subgroup K it yields, held with a generator tuple,
    is closed once over its generators and x for every distinct <x> not
    in K.  Every <x_1, ..., x_k> ends such a chain of joins, so the list
    is complete.  Refuses groups above the order cap instead of silently
    truncating.
    """
    require_within_cap(g.order, "subgroup enumeration")
    # any generator of <x> serves
    cyclic = {_closure(g.table, g.identity, (x,)): x for x in g.elements()}
    known = {members: (x,) for members, x in cyclic.items()}
    worklist = list(known)
    for base in worklist:  # grows while it is read
        for x in cyclic.values():
            if x in base:
                continue
            gens = known[base] + (x,)
            ext = _closure(g.table, g.identity, gens)
            if ext not in known:
                known[ext] = gens
                worklist.append(ext)
    subs = [Subgroup(g, tuple(sorted(m))) for m in known]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def subgroup_index(s1: Subgroup, s2: Subgroup) -> int:
    """The index [S2 : S1] for S1 contained in S2."""
    if s1.group is not s2.group:
        raise GroupValidationError("subgroups belong to different groups")
    outside = s1.member_set - s2.member_set
    if outside:
        witness = s1.group.labels[min(outside)]
        raise GroupValidationError(
            f"containment fails: element {witness} is in S1 but not S2")
    # S1 is then a subgroup of S2, so Lagrange makes the division exact
    return s2.order // s1.order


_CATALOG_SPECS = (
    *("cyclic:%d" % n for n in range(1, 17)),
    *("dihedral:%d" % n for n in range(3, 9)),
    "symmetric:3", "symmetric:4", "quaternion:8",
    "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4",
    "product:cyclic:3,cyclic:3", "product:cyclic:2,cyclic:6",
    "product:cyclic:2,symmetric:3",
)


def catalog(max_order: int) -> List[FiniteGroup]:
    """The deterministic test family, filtered by order.

    Cyclic groups up to 16, dihedral groups of the 3..8-gons, the
    symmetric groups on 3 and 4 letters, the quaternion group, and a few
    direct products (the Klein group among them).  Each is built from its
    spec, so any row of a report can be replayed through the CLI, and
    never read from a file of the same name.
    """
    return [build() for order, build in map(parse_spec, _CATALOG_SPECS)
            if order <= max_order]
