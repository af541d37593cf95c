"""Group construction, validation, subgroup lattice, and the catalog.

Subgroup counts are asserted against standard group-theoretic values
(divisor counts for cyclic groups, the known lattices of S3, D4, Q8).
"""

import json
import random

import pytest
from oracles import (associativity_failure, closed_group, closure_subgroups,
                     compose, pair_closure, relabel, uncatalogued_groups)

import padicamen.finite_group as finite_group
from padicamen.errors import (GroupValidationError, OrderCapError,
                              SpecParseError)
from padicamen.finite_group import (DEFAULT_ORDER_CAP, ORDER_CAP_ENV,
                                    FiniteGroup, Subgroup, catalog, cyclic,
                                    dihedral, enumerate_subgroups, from_spec,
                                    from_table, order_cap, parse_spec,
                                    product, quaternion8, require_within_cap,
                                    subgroup_index, symmetric)

# commutative Latin square with two-sided identity 0 and two-sided
# inverses (1 and every pair 2/4, 3/5) that is nevertheless not
# associative, so it exercises exactly the associativity check
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]

# the two non-associative reduced Latin squares of order 5 with two-sided
# inverses are loops; this is the first in lexicographic order
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_cyclic_basics():
    g = cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.table[2][5] == 1
    assert g.inverses[2] == 4
    assert g.labels == tuple(str(i) for i in range(6))


def test_trivial_group():
    g = cyclic(1)
    assert g.order == 1 and g.identity == 0 and g.inverses == (0,)


def test_dihedral_structure():
    g = dihedral(4)
    assert g.order == 8
    # reflections square to the identity
    for i in range(g.order):
        if g.labels[i].startswith("s"):
            assert g.table[i][i] == g.identity
    # dihedral relation: s r s = r^{-1}
    r = g.labels.index("r1")
    s = g.labels.index("sr0")
    srs = g.table[g.table[s][r]][s]
    assert srs == g.inverses[r]
    assert g.table[r][s] != g.table[s][r]  # nonabelian


def test_symmetric_group():
    g = symmetric(3)
    assert g.order == 6
    assert sorted(g.labels) == ["012", "021", "102", "120", "201", "210"]
    # composition oracle on permutations of {0,1,2}
    for i in range(6):
        for j in range(6):
            pi = [int(c) for c in g.labels[i]]
            pj = [int(c) for c in g.labels[j]]
            composed = "".join(str(pi[pj[k]]) for k in range(3))
            assert g.labels[g.table[i][j]] == composed


def test_quaternion_group():
    g = quaternion8()
    assert g.order == 8
    lab = {name: i for i, name in enumerate(g.labels)}
    # i*j = k, j*i = -k, i^2 = -1
    assert g.table[lab["i"]][lab["j"]] == lab["k"]
    assert g.table[lab["j"]][lab["i"]] == lab["-k"]
    assert g.table[lab["i"]][lab["i"]] == lab["-1"]
    # unique element of order 2
    order2 = [x for x in range(8)
              if x != g.identity and g.table[x][x] == g.identity]
    assert order2 == [lab["-1"]]


def test_product_group():
    g = product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.name == "product:cyclic:2,cyclic:3"
    # componentwise multiplication
    assert g.labels[g.table[1 * 3 + 2][1 * 3 + 2]] == "(0,1)"


def _loop8():
    """The table of C2^3 with the intercalate on rows 1, 2 and columns 4, 7
    switched: still a Latin square with identity 0 and x*x = 0."""
    table = [[a ^ b for b in range(8)] for a in range(8)]
    for row in (1, 2):
        table[row][4], table[row][7] = table[row][7], table[row][4]
    return table


def _reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    in_row = [{i} for i in range(n)]
    in_col = [set(range(n))] + [{j} for j in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [list(r) for r in rows]
            return
        i, j = cells[k]
        for v in range(n):
            if v not in in_row[i] and v not in in_col[j]:
                rows[i][j] = v
                in_row[i].add(v)
                in_col[j].add(v)
                yield from fill(k + 1)
                in_row[i].discard(v)
                in_col[j].discard(v)

    return fill(0)


def _witness(message, labels):
    """The triple (x, a, y) an associativity failure names."""
    triple = message.rpartition("(")[2].rstrip(")").split(", ")
    return tuple(labels.index(t) for t in triple)


@pytest.mark.parametrize("n, squares, groups", [
    (1, 1, 1), (2, 1, 1), (3, 1, 1), (4, 4, 4), (5, 8, 6), (6, 1808, 80)])
def test_light_test_accepts_exactly_the_associative_tables(n, squares,
                                                            groups):
    # every reduced Latin square with two-sided inverses: from_table must
    # accept exactly those the n^3 scan calls associative, the (n-1)!/|Aut|
    # labellings of each group (6 of C5; 60 of C6 and 20 of S3), and name
    # a failing triple for the others
    labels = [str(i) for i in range(n)]
    seen = accepted = 0
    for table in _reduced_latin_squares(n):
        if any(table[row.index(0)][x] for x, row in enumerate(table)):
            continue  # a one-sided inverse, refused before associativity
        seen += 1
        try:
            from_table("square", labels, table)
        except GroupValidationError as exc:
            assert associativity_failure(table) is not None
            x, a, y = _witness(str(exc), labels)
            assert table[table[x][a]][y] != table[x][table[a][y]]
        else:
            assert associativity_failure(table) is None
            accepted += 1
    assert (seen, accepted) == (squares, groups)


def test_validation_rejects_nonassociative_loop():
    # loops of orders 5, 6 and 8: each fails only at associativity, and
    # the triple named fails it
    for table in (LOOP5, NONASSOC_LOOP, _loop8()):
        labels = [f"x{i}" for i in range(len(table))]
        assert associativity_failure(table) is not None
        with pytest.raises(GroupValidationError,
                           match="^loop: associativity fails at triple") \
                as exc:
            from_table("loop", labels, table)
        x, a, y = _witness(str(exc.value), labels)
        assert table[table[x][a]][y] != table[x][table[a][y]]


def test_light_test_finds_a_failure_outside_the_first_closure():
    # generator 1 passes and closes to the group {0, 1}; the failure is at
    # the second generator, 2
    t = NONASSOC_LOOP
    assert all(t[t[x][1]][y] == t[x][t[1][y]]
               for x in range(6) for y in range(6))
    assert t[1][1] == 0
    with pytest.raises(GroupValidationError, match=(
            r"^loop: associativity fails at triple \(2, 2, 4\)$")):
        from_table("loop", [str(i) for i in range(6)], t)


def test_generators_double_the_closure():
    # each generator is the smallest element outside the subgroup the
    # earlier ones generate, and at least doubles it
    rng = random.Random(11)
    for g in catalog(24) + [_relabelled(g, rng) for g in catalog(24)
                            if g.order > 1]:
        closure = frozenset({g.identity})
        for k, a in enumerate(g.generators, 1):
            assert a == min(set(g.elements()) - closure)
            grown = pair_closure(g, frozenset(g.generators[:k]))
            assert len(grown) >= 2 * len(closure)
            closure = grown
        assert len(closure) == g.order, g.name


def test_validation_rejects_broken_tables():
    with pytest.raises(GroupValidationError):
        from_table("dup-row", ["a", "b"], [[0, 0], [1, 0]])
    with pytest.raises(GroupValidationError):
        from_table("bad-range", ["a", "b"], [[0, 1], [1, 2]])
    with pytest.raises(GroupValidationError):
        from_table("ragged", ["a", "b"], [[0, 1], [1]])
    with pytest.raises(GroupValidationError):
        from_table("dup-label", ["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(GroupValidationError):
        from_table("empty", [], [])


def test_validation_rejects_boolean_entries():
    # bool is an int subclass, and True == 1, so this table would otherwise
    # validate as the cyclic group of order 2
    with pytest.raises(GroupValidationError, match="out-of-range"):
        from_table("x", ["a", "b"], [[0, True], [True, 0]])
    with pytest.raises(GroupValidationError):
        from_table("x", ["a", "b"], [[False, 1], [1, False]])


def test_from_spec_strings():
    assert from_spec("cyclic:12").order == 12
    assert from_spec("dihedral:5").order == 10
    assert from_spec("symmetric:4").order == 24
    assert from_spec("quaternion:8").order == 8
    g = from_spec("product:cyclic:2,symmetric:3")
    assert g.order == 12
    for bad in ("frobnicate:3", "cyclic:x", "quaternion:4",
                "product:cyclic:2", "product:product:cyclic:2,cyclic:2,cyclic:2"):
        with pytest.raises(SpecParseError):
            from_spec(bad)


def test_parse_spec_reads_the_order_without_building(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(finite_group, "from_table", refuse)
    assert parse_spec("cyclic:12")[0] == 12
    assert parse_spec(" dihedral:5")[0] == 10
    assert parse_spec("symmetric:4")[0] == 24
    assert parse_spec("quaternion:8")[0] == 8
    assert parse_spec("product:cyclic:1000,dihedral:1000")[0] == 2 * 10 ** 6
    # a table file's order is the declared one, read before validation
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"name": "x", "order": 2, "labels": ["a", "b"],
                                "table": [[0, 0], [0, 0]]}))
    assert parse_spec(str(path))[0] == 2
    for bad in ("frobnicate:3", "cyclic:x", "cyclic:0", "dihedral:-1",
                "symmetric:5", "quaternion:4", "product:cyclic:2",
                "product:cyclic:2,product:cyclic:2,cyclic:2"):
        with pytest.raises(SpecParseError):
            parse_spec(bad)
    monkeypatch.undo()
    with pytest.raises(GroupValidationError):
        parse_spec(str(path))[1]()
    # from_spec itself builds past the cap; the CLI refuses such a spec
    assert from_spec("cyclic:30").order == 30 > DEFAULT_ORDER_CAP


def test_from_file_round_trip(tmp_path):
    g = dihedral(3)
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({
        "name": g.name,
        "order": g.order,
        "labels": list(g.labels),
        "table": [list(row) for row in g.table],
    }))
    h = from_spec(str(path))
    assert h.table == g.table and h.labels == g.labels


def test_from_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecParseError):
        from_spec(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"name": "x", "order": 1}))
    with pytest.raises(SpecParseError, match="missing"):
        from_spec(str(missing))
    with pytest.raises(SpecParseError):
        from_spec(str(tmp_path / "nope.json"))


def test_subgroup_counts_match_group_theory():
    expected = {
        "cyclic:1": 1,
        "cyclic:2": 2,
        "cyclic:6": 4,   # divisors of 6
        "cyclic:12": 6,  # divisors of 12
        "cyclic:16": 5,  # divisors of 16
        "symmetric:3": 6,
        "dihedral:4": 10,
        "dihedral:6": 16,
        "quaternion:8": 6,
        "product:cyclic:2,cyclic:2": 5,  # Klein four-group
    }
    for spec, count in expected.items():
        g = from_spec(spec)
        subs = enumerate_subgroups(g)
        assert len(subs) == count, spec
        # deterministic ordering: sorted by (order, members)
        keys = [(s.order, s.members) for s in subs]
        assert keys == sorted(keys)
        # first is trivial, last is the whole group
        assert subs[0].members == (g.identity,)
        assert subs[-1].order == g.order
        # every subgroup is closed (Subgroup validates on construction,
        # so reconstruct to exercise the checks)
        for s in subs:
            Subgroup(g, s.members)


def _relabelled(g, rng):
    return from_table(g.name + "~", *relabel(g, rng))


def test_relabel_moves_the_identity_and_refuses_the_trivial_group():
    rng = random.Random(3)
    for g in catalog(12):
        if g.order == 1:
            with pytest.raises(ValueError):
                relabel(g, rng)
            continue
        moved = _relabelled(g, rng)
        assert moved.identity != g.identity, g.name
        assert sorted(moved.labels) == sorted(g.labels)


def test_subgroup_lattice_matches_closure_oracle(monkeypatch):
    rng = random.Random(7)
    relabelled = [_relabelled(g, rng) for g in catalog(24) if g.order > 1]
    assert all(g.identity != 0 for g in relabelled)
    monkeypatch.setenv(ORDER_CAP_ENV, "72")
    uncatalogued = uncatalogued_groups()
    # every subgroup of the catalog is generated by two elements; the
    # Klein group times C2 inside D4 x C2 needs three
    for g in catalog(24) + relabelled + uncatalogued + [
            from_spec("product:dihedral:4,cyclic:2"),
            from_spec("product:symmetric:4,cyclic:3")]:
        assert [s.members for s in enumerate_subgroups(g)] == \
            [s.members for s in closure_subgroups(g)], g.name
    # the standard counts of A4, Dic12, SL(2,3), C2^3, C2^4 and A5
    assert [len(enumerate_subgroups(g)) for g in uncatalogued] == \
        [10, 8, 15, 16, 67, 59]


def test_symmetric_group_on_five_letters_has_156_subgroups(monkeypatch):
    # the standard count; S5 is not solvable, and the closure oracle is
    # not run at order 120
    monkeypatch.setenv(ORDER_CAP_ENV, "120")
    s5 = closed_group("S5", [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], compose)
    assert s5.order == 120
    assert len(enumerate_subgroups(s5)) == 156


def test_subgroup_validation():
    g = cyclic(4)
    with pytest.raises(GroupValidationError):
        Subgroup(g, (1, 0))  # unsorted
    with pytest.raises(GroupValidationError):
        Subgroup(g, (1, 3))  # misses identity
    with pytest.raises(GroupValidationError):
        Subgroup(g, (0, 1))  # not closed: 1+1 = 2 missing
    # indices outside the group, which Python would read from the end of
    # a row: without the range check (-2, 0, 2) passes as closed
    for members in [(-2, 0, 2), (0, 2, 4)]:
        with pytest.raises(GroupValidationError, match="must be elements"):
            Subgroup(g, members)
    with pytest.raises(GroupValidationError, match="must be elements"):
        Subgroup(cyclic(1), (-1, 0))


def test_subgroup_index():
    g = symmetric(3)
    subs = enumerate_subgroups(g)
    whole = subs[-1]
    a3 = next(s for s in subs if s.order == 3)
    assert subgroup_index(a3, whole) == 2
    trivial = subs[0]
    assert subgroup_index(trivial, whole) == 6
    with pytest.raises(GroupValidationError):
        subgroup_index(whole, a3)  # not contained
    h = cyclic(6)
    with pytest.raises(GroupValidationError):
        subgroup_index(trivial, enumerate_subgroups(h)[-1])


def test_catalog_shape():
    assert len(catalog(8)) == 14
    assert len(catalog(16)) == 29
    assert len(catalog(24)) == 30
    names = [g.name for g in catalog(24)]
    assert len(set(names)) == len(names)
    assert "symmetric:4" in names
    for g in catalog(16):
        assert g.order <= 16
        # names are replayable specs
        h = from_spec(g.name)
        assert h.table == g.table


def test_catalog_reads_no_file_named_like_a_spec(monkeypatch, tmp_path):
    # a table file named like a catalog spec, where from_spec looks first
    (tmp_path / "cyclic:3").write_text(json.dumps({
        "name": "impostor", "order": 2, "labels": ["a", "b"],
        "table": [[0, 1], [1, 0]]}))
    monkeypatch.chdir(tmp_path)
    assert [g.name for g in catalog(3)] == ["cyclic:1", "cyclic:2", "cyclic:3"]
    assert catalog(3)[2].order == 3


def test_catalog_case_count_for_four_primes():
    # the dual-method sweep needs at least 80 (group, prime) cases
    assert len(catalog(16)) * 4 >= 80


def test_order_cap_env(monkeypatch):
    monkeypatch.delenv(ORDER_CAP_ENV, raising=False)
    assert order_cap() == DEFAULT_ORDER_CAP
    require_within_cap(24, "test")
    with pytest.raises(OrderCapError, match=ORDER_CAP_ENV):
        require_within_cap(25, "test")
    monkeypatch.setenv(ORDER_CAP_ENV, "30")
    require_within_cap(30, "test")
    monkeypatch.setenv(ORDER_CAP_ENV, "4")
    with pytest.raises(OrderCapError):
        require_within_cap(6, "test")
    monkeypatch.setenv(ORDER_CAP_ENV, "zero")
    with pytest.raises(SpecParseError):
        order_cap()
    monkeypatch.setenv(ORDER_CAP_ENV, "0")
    with pytest.raises(SpecParseError):
        order_cap()


def test_enumerate_subgroups_respects_cap(monkeypatch):
    monkeypatch.setenv(ORDER_CAP_ENV, "4")
    with pytest.raises(OrderCapError):
        enumerate_subgroups(cyclic(6))


def test_inverses_are_two_sided():
    rng = random.Random(3)
    for g in [cyclic(7), dihedral(5), symmetric(4), quaternion8()]:
        for _ in range(20):
            x = rng.randrange(g.order)
            assert g.table[x][g.inverses[x]] == g.identity
            assert g.table[g.inverses[x]][x] == g.identity
