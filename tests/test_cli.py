"""CLI behaviour: documents, text renderings, exit codes."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import permuted, relabel, relabelled_catalog

import padicamen.cli as cli
import padicamen.finite_group as finite_group
from padicamen.errors import InternalCheckError
from padicamen.finite_group import catalog, cyclic, from_spec


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_check_structured_document(capsys):
    rc, out, err = run(capsys, [
        "check", "--group", "cyclic:6", "--prime", "2",
        "--format", "structured"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema"] == "padicamen.certificate/1"
    assert doc["group"] == {
        "name": "cyclic:6", "order": 6,
        "labels": ["0", "1", "2", "3", "4", "5"],
    }
    assert doc["prime"] == 2
    assert doc["johnson"]["amenable"] is True
    assert doc["johnson"]["mean_norm_exponent"] == 1
    assert doc["schikhof"]["amenable"] is False
    assert doc["schikhof"]["method_norm"]["pass"] is False
    assert doc["schikhof"]["method_lattice"]["witness"]["index"] % 2 == 0
    assert doc["diagonal"]["pi0"] == {"0": "1/1"}
    assert list(doc["checks"].values()) == ["pass"] * 11


def test_check_text_lines(capsys):
    rc, out, err = run(capsys, [
        "check", "--group", "symmetric:3", "--prime", "5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "certificate: symmetric:3 at p=5"
    assert "order: 6" in lines
    assert "johnson_amenable: true" in lines
    assert "schikhof_amenable: true" in lines
    assert "checks_passed: 11/11" in lines
    assert any(line.startswith("schikhof_lattice_method: pass")
               for line in lines)


def test_check_text_reports_witness(capsys):
    rc, out, _ = run(capsys, ["check", "--group", "cyclic:3", "--prime", "3"])
    assert rc == 0
    assert "schikhof_amenable: false" in out
    assert "schikhof_lattice_method: fail (index 3 of {0} inside" in out


def test_out_file_matches_structured_stdout(capsys, tmp_path):
    path = tmp_path / "cert.json"
    rc, out, _ = run(capsys, [
        "check", "--group", "dihedral:3", "--prime", "2",
        "--format", "structured", "--out", str(path)])
    assert rc == 0
    assert path.read_text(encoding="utf-8") == out


def test_out_file_written_even_in_text_mode(capsys, tmp_path):
    path = tmp_path / "cert.json"
    rc, out, _ = run(capsys, [
        "verify", "--group", "cyclic:4", "--prime", "3",
        "--out", str(path)])
    assert rc == 0
    assert out.startswith("verify: cyclic:4 at p=3")
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["schema"] == "padicamen.verify/1"
    assert doc["all_pass"] is True


def test_sweep_text_table_and_oracle(capsys):
    rc, out, _ = run(capsys, ["sweep", "--max-order", "8",
                              "--primes", "2,3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == [
        "group", "order", "prime", "johnson", "schikhof",
        "mean_norm_exponent", "p_divides_order"]
    body = [line.split("\t") for line in lines[1:]]
    assert len(body) == 14 * 2
    for group, order, prime, johnson, schikhof, _, divides in body:
        assert johnson == "true"
        expected = int(order) % int(prime) == 0
        assert divides == str(expected).lower()
        assert schikhof == str(not expected).lower()


def test_sweep_structured_and_deterministic(capsys):
    argv = ["sweep", "--max-order", "8", "--primes", "5",
            "--format", "structured"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "padicamen.sweep/1"
    assert doc["max_order"] == 8 and doc["primes"] == [5]
    assert len(doc["rows"]) == 14
    row = doc["rows"][0]
    assert set(row) == {"group", "order", "prime", "johnson_amenable",
                        "schikhof_amenable", "mean_norm_exponent",
                        "p_divides_order"}


def test_verify_text_lists_axioms(capsys):
    rc, out, _ = run(capsys, ["verify", "--group", "quaternion:8",
                              "--prime", "2"])
    assert rc == 0
    lines = out.splitlines()
    for axiom in ("coassociativity", "counit_left", "antipode_left",
                  "antipode_involutive", "e_homomorphism"):
        assert "hopf %s: pass" % axiom in lines
    assert any(line.startswith("dual_action_identity: pass")
               for line in lines)
    assert any(line.startswith("quotient_isomorphism: pass (dim 8,")
               for line in lines)
    assert lines[-1] == "all: pass"


def test_derivations_all_and_single(capsys):
    rc, out, _ = run(capsys, ["derivations", "--group", "cyclic:4",
                              "--prime", "3", "--format", "structured"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "padicamen.derivations/1"
    assert set(doc["bimodules"]) == {"regular", "trivial", "outer_tensor"}
    assert doc["all_inner"] is True
    assert doc["bimodules"]["outer_tensor"]["derivation_dim"] == 12

    rc, out, _ = run(capsys, ["derivations", "--group", "symmetric:3",
                              "--prime", "2", "--bimodule", "regular"])
    assert rc == 0
    assert "bimodule regular: module_dim 6, derivation_dim 3, inner_dim 3, " \
           "all_inner true" in out
    assert out.splitlines()[-1] == "all_inner: true"


RELABELLED_SPECS = [g.name for g in catalog(12) if g.order > 1]


def _relabelled_file(tmp_path, spec):
    """The table of spec moved to new indices, the identity off index 0,
    written as a table file."""
    labels, table = relabel(from_spec(spec), random.Random(spec))
    assert table[0] != list(range(len(table)))  # 0 is not the identity
    return _table_file(tmp_path, labels, table)


def _table_file(tmp_path, labels, table):
    """The path of a table file holding labels and table."""
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps({"name": "relabelled", "order": len(table),
                                "labels": labels, "table": table}),
                    encoding="utf-8")
    return str(path)


def _documents(capsys, command, groups, prime):
    """The structured documents of command on each group, in order."""
    docs = []
    for group in groups:
        rc, out, err = run(capsys, [command, "--group", group,
                                    "--prime", str(prime),
                                    "--format", "structured"])
        assert rc == 0 and err == "", group
        docs.append(json.loads(out))
    return docs


@pytest.mark.parametrize("spec", RELABELLED_SPECS)
def test_derivations_are_invariant_under_relabelling(capsys, tmp_path, spec):
    # the table moved to new indices, the identity off index 0, and read
    # from a file: every stock bimodule keeps its dimensions
    original, moved = _documents(
        capsys, "derivations", (spec, _relabelled_file(tmp_path, spec)), 2)
    assert moved["bimodules"] == original["bimodules"]
    assert set(moved["bimodules"]) == {"regular", "trivial", "outer_tensor"}


# tmp_path and capsys serve every example: each writes its file again and
# reads its own output
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(catalog(12)).flatmap(lambda grp: st.tuples(
    st.just(grp), st.permutations(range(grp.order)))))
def test_derivations_are_invariant_under_a_drawn_relabelling(
        capsys, tmp_path, case):
    grp, new = case
    original, moved = _documents(
        capsys, "derivations",
        (grp.name, _table_file(tmp_path, *permuted(grp, new))), 2)
    assert moved["bimodules"] == original["bimodules"]


def _check_fields(doc):
    """What a certificate says that does not depend on the labels: the
    verdicts, the exponents, the lattice counts and the check set."""
    johnson, schikhof = doc["johnson"], doc["schikhof"]
    lattice = dict(schikhof["method_lattice"])
    lattice.pop("witness", None)
    return {
        "johnson": (johnson["amenable"], johnson["invariant_space_dim"],
                    johnson["mean_norm_exponent"]),
        "schikhof": (schikhof["amenable"], schikhof["method_norm"], lattice),
        "diagonal_norm_exponent": doc["diagonal"]["norm_exponent"],
        "checks": doc["checks"],
    }


def _verify_fields(doc):
    """What a verify document says that does not depend on the labels:
    the pass map of the Hopf axioms, the count of elements c that pass
    the dual-action identity, and the quotient fields."""
    per_c = doc["dual_action_identity"]["per_c"]
    quotient = dict(doc["quotient_isomorphism"])
    del quotient["group"]
    return {
        "hopf": {name: axiom["pass"]
                 for name, axiom in doc["hopf"]["axioms"].items()},
        "per_c": (len(per_c), sum(per_c.values())),
        "quotient": quotient,
        "all_pass": doc["all_pass"],
    }


def _same_fields(capsys, groups):
    """check at p = 2, 3, 5, 7 and verify give the same label-free fields
    on each group; the fields of the first are returned."""
    checks = {}
    for p in (2, 3, 5, 7):
        original, moved = map(_check_fields,
                              _documents(capsys, "check", groups, p))
        assert moved == original, p
        checks[p] = original
    original, moved = map(_verify_fields,
                          _documents(capsys, "verify", groups, 3))
    assert moved == original
    return checks, original


@pytest.mark.parametrize("spec", RELABELLED_SPECS)
def test_check_and_verify_are_invariant_under_relabelling(capsys, tmp_path,
                                                          spec):
    # as for derivations: the identity off index 0, read from a file
    checks, verify = _same_fields(
        capsys, (spec, _relabelled_file(tmp_path, spec)))
    n = from_spec(spec).order
    assert verify["per_c"] == (n, n) and verify["all_pass"]
    assert all(len(doc["checks"]) == 11 for doc in checks.values())
    assert [p for p, doc in checks.items() if not doc["schikhof"][0]] == \
        [p for p in (2, 3, 5, 7) if n % p == 0]


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(catalog(12)).flatmap(lambda grp: st.tuples(
    st.just(grp), st.permutations(range(grp.order)))),
    st.sampled_from((2, 3, 5, 7)))
def test_check_and_verify_are_invariant_under_a_drawn_relabelling(
        capsys, tmp_path, case, prime):
    # permuted keeps the labels and moves the indices, the identity's too,
    # so what the documents key by label must not move either: the mean,
    # the diagonal and the dual-action verdict of each c
    grp, new = case
    groups = (grp.name, _table_file(tmp_path, *permuted(grp, new)))
    original, moved = _documents(capsys, "check", groups, prime)
    assert _check_fields(moved) == _check_fields(original)
    assert moved["johnson"]["mean"] == original["johnson"]["mean"]
    assert moved["diagonal"] == original["diagonal"]
    original, moved = _documents(capsys, "verify", groups, prime)
    assert _verify_fields(moved) == _verify_fields(original)
    assert moved["dual_action_identity"]["per_c"] == \
        original["dual_action_identity"]["per_c"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_is_invariant_under_relabelling(capsys, monkeypatch, seed):
    # sweep reads only the built-in catalog, so the catalog is replaced in
    # process by its relabelled copies, which keep the catalog names (the
    # trivial group has none and stays); a sweep row holds no label
    argv = ["sweep", "--max-order", "24", "--format", "structured"]
    rc, original, err = run(capsys, argv)
    assert rc == 0 and err == ""
    copies = list({g.name: g for g in relabelled_catalog(24, seed)}.values())
    assert [g.name for g in copies] == [g.name for g in catalog(24)]
    assert all(g.identity != 0 for g in copies if g.order > 1)
    monkeypatch.setattr(cli, "catalog", lambda max_order: copies)
    rc, moved, err = run(capsys, argv)
    assert rc == 0 and err == ""
    assert moved == original


def _order_300_file(tmp_path, defect):
    """cyclic:300 as a table file, with defect applied to its labels and
    table near their ends."""
    grp = cyclic(300)
    labels, table = list(grp.labels), [list(row) for row in grp.table]
    defect(labels, table)
    path = tmp_path / "order300.json"
    path.write_text(json.dumps({"name": "big", "order": 300,
                                "labels": labels, "table": table}),
                    encoding="utf-8")
    return str(path)


def _bad_last_entry(labels, table):
    table[-1][-1] = 300


def _int_last_label(labels, table):
    labels[-1] = 299


def _repeated_last_label(labels, table):
    labels[-1] = labels[-2]


@pytest.mark.parametrize("defect, message", [
    (_bad_last_entry, "big: row 299 contains an out-of-range entry"),
    (_int_last_label, "labels must be strings"),
    (_repeated_last_label, "big: duplicate labels"),
], ids=["bad-last-entry", "int-last-label", "repeated-last-label"])
def test_hostile_table_file_at_order_300_exits_1(capsys, monkeypatch,
                                                 tmp_path, defect, message):
    # under a cap that admits the file, the defect at the end of the
    # labels or of the table is found and reported in one line
    monkeypatch.setenv("PADICAMEN_ORDER_CAP", "300")
    path = _order_300_file(tmp_path, defect)
    for command in ("check", "verify", "derivations"):
        rc, out, err = run(capsys, [command, "--group", path,
                                    "--prime", "2"])
        assert rc == 1 and out == "", command
        assert err.startswith("error: ") and err.count("\n") == 1, command
        assert message in err and "Traceback" not in err, command


def test_product_of_coprime_cyclics_certifies_as_cyclic(capsys):
    # C2 x C3 is C6 under other labels, with the identity at index 0 in both
    checks, _ = _same_fields(capsys, ("cyclic:6", "product:cyclic:2,cyclic:3"))
    assert checks[2]["schikhof"][2]["subgroup_count"] == 4


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["check", "--prime", "3"],
    ["check", "--group", "cyclic:6", "--prime", "4"],
    ["check", "--group", "cyclic:0", "--prime", "2"],
    ["check", "--group", "nosuchdir/table.json", "--prime", "2"],
    ["check", "--group", "wedge:5", "--prime", "2"],
    ["sweep", "--primes", "2,six"],
    ["sweep", "--primes", ""],
    [],
    ["sweep", "--max-order", "-3"],
    ["sweep", "--max-order", "0"],
    ["sweep", "--primes", "2,2"],
    ["sweep", "--primes", "3, 2,3"],
    # the smallest prime above the bound of the primality test
    ["check", "--group", "cyclic:2", "--prime", "318665857834031151167483"],
])
def test_usage_errors_exit_1(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "verify", "derivations"])
def test_large_prime_is_decided_fast(capsys, command):
    # trial division took 1.0 s on a 12-digit prime and never finished on
    # this 19-digit one
    start = time.monotonic()
    rc, out, err = run(capsys, [command, "--group", "cyclic:2",
                                "--prime", "1000000000000000003"])
    assert time.monotonic() - start < 1
    assert rc == 0 and err == ""
    assert "p=1000000000000000003" in out.splitlines()[0]


def test_over_cap_group_exits_1(capsys, monkeypatch, tmp_path):
    # validation reads O(n^2 log n) entries, so even order 400 is read and
    # refused by the cap, also with the identity off index 0, and before
    # the bimodules, the outer tensor's maps n^2 long, are built
    labels, table = relabel(cyclic(400), random.Random(4))
    assert labels.index("0") != 0
    path = tmp_path / "relabelled400.json"
    path.write_text(json.dumps({"name": "relabelled", "order": 400,
                                "labels": labels, "table": table}))

    def refuse(group, names):
        raise AssertionError("bimodules built")
    monkeypatch.setattr(cli, "stock_bimodules", refuse)
    for command, group in itertools.product(
            ("check", "verify", "derivations"),
            ("cyclic:30", "cyclic:400", str(path))):
        rc, out, err = run(capsys, [command, "--group", group,
                                    "--prime", "2"])
        assert rc == 1 and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "exceeds the cap 24" in err


@pytest.mark.parametrize("command, stage", [
    ("check", "certificate run"),
    ("verify", "Hopf structure verification"),
    ("derivations", "derivation certificate"),
])
@pytest.mark.parametrize("group", ["cyclic:100000",
                                   "product:cyclic:1000,cyclic:1000"])
def test_over_cap_spec_is_refused_before_its_table_is_built(
        capsys, monkeypatch, command, stage, group):
    # the declared order is read off the spec; building the n^2-entry
    # table of either group would take minutes, so the builders refuse
    # before they write a table, and from_table refuses too
    def refuse(*args):
        raise AssertionError("group built")
    monkeypatch.setattr(finite_group, "from_table", refuse)
    monkeypatch.setattr(finite_group, "_BUILDERS",
                        dict.fromkeys(finite_group._BUILDERS, refuse))
    start = time.monotonic()
    rc, out, err = run(capsys, [command, "--group", group, "--prime", "2"])
    assert time.monotonic() - start < 0.5
    assert rc == 1 and out == ""
    order = 10 ** 5 if group == "cyclic:100000" else 10 ** 6
    assert err == ("error: %s refused: group order %d exceeds the cap 24 "
                   "(override via PADICAMEN_ORDER_CAP)\n" % (stage, order))


@pytest.mark.parametrize("command, stage", [
    ("check", "certificate run"),
    ("verify", "Hopf structure verification"),
    ("derivations", "derivation certificate"),
])
def test_over_cap_file_is_refused_before_its_table_is_validated(
        capsys, monkeypatch, tmp_path, command, stage):
    # six rows, the last of them no Latin row: the cap of 4 refuses the
    # file by its declared order, and the table is never validated
    monkeypatch.setenv("PADICAMEN_ORDER_CAP", "4")
    table = [list(row) for row in cyclic(6).table]
    table[-1] = [0] * 6
    path = tmp_path / "broken6.json"
    path.write_text(json.dumps({"name": "broken", "order": 6,
                                "labels": [str(i) for i in range(6)],
                                "table": table}), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("table validated")
    monkeypatch.setattr(finite_group, "from_table", refuse)
    rc, out, err = run(capsys, [command, "--group", str(path),
                                "--prime", "2"])
    assert rc == 1 and out == ""
    assert err == ("error: %s refused: group order 6 exceeds the cap 4 "
                   "(override via PADICAMEN_ORDER_CAP)\n" % stage)
    # under the cap the same file is refused for its table
    monkeypatch.undo()
    monkeypatch.setenv("PADICAMEN_ORDER_CAP", "6")
    rc, out, err = run(capsys, [command, "--group", str(path),
                                "--prime", "2"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the cap" not in err


def test_order_cap_env_lowers_limit(capsys, monkeypatch):
    monkeypatch.setenv("PADICAMEN_ORDER_CAP", "4")
    rc, _, err = run(capsys, ["check", "--group", "cyclic:6",
                              "--prime", "2"])
    assert rc == 1
    assert "exceeds the cap 4" in err
    monkeypatch.setenv("PADICAMEN_ORDER_CAP", "30")
    rc, _, err = run(capsys, ["check", "--group", "cyclic:30",
                              "--prime", "2"])
    assert rc == 0


@pytest.mark.parametrize("command", ["check", "verify", "derivations"])
def test_group_spec_is_parsed_once(capsys, monkeypatch, command):
    # the order the cap reads and the group built come from one parse
    parsed = []
    factors = finite_group._factors
    monkeypatch.setattr(finite_group, "_factors",
                        lambda spec: parsed.append(spec) or factors(spec))
    rc, _, _ = run(capsys, [command, "--group", " cyclic:6", "--prime", "2"])
    assert rc == 0 and parsed == ["cyclic:6"]


@pytest.mark.parametrize("argv", [
    ["check", "--group", "cyclic:2", "--prime", "2"],
    ["sweep", "--max-order", "2", "--primes", "2"],
    ["verify", "--group", "cyclic:2", "--prime", "2"],
    ["derivations", "--group", "cyclic:2", "--prime", "2"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_exits_1(capsys, tmp_path, argv, target):
    out = tmp_path / "absent" / "x.json" if target == "missing-directory" \
        else tmp_path
    rc, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert rc == 1
    assert stdout == ""
    assert err.startswith("error: cannot write %s: " % out)
    assert err.count("\n") == 1
    assert not (tmp_path / "absent").exists()


def test_internal_failure_exits_2(capsys, monkeypatch):
    def boom(group, prime):
        raise InternalCheckError("forced failure")
    monkeypatch.setattr(cli, "certify", boom)
    rc, out, err = run(capsys, ["check", "--group", "cyclic:2",
                                "--prime", "2"])
    assert rc == 2
    assert "internal check failed: forced failure" in err


def test_derivations_builds_only_the_requested_bimodule(capsys, monkeypatch):
    import padicamen.amenability as amenability

    def refuse(group):
        raise AssertionError("outer_tensor bimodule built")
    monkeypatch.setattr(amenability, "outer_tensor_bimodule", refuse)
    rc, out, err = run(capsys, ["derivations", "--group", "dihedral:3",
                                "--prime", "2", "--bimodule", "regular"])
    assert rc == 0 and err == ""
    assert "bimodule regular: module_dim 6, derivation_dim 3, inner_dim 3, " \
           "all_inner true" in out
    assert "outer_tensor" not in out


def test_boolean_table_entry_file_exits_1(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "name": "bool-table", "order": 2, "labels": ["a", "b"],
        "table": [[0, True], [True, 0]],
    }), encoding="utf-8")
    rc, out, err = run(capsys, ["check", "--group", str(path),
                                "--prime", "2"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _group_file(table):
    return json.dumps({"name": "hostile", "order": 2, "labels": ["a", "b"],
                       "table": table}).encode("utf-8")


@pytest.mark.parametrize("content", [
    _group_file([[0, 1], [1, 0]])[:-7],            # truncated JSON
    b"[1, 2, 3]",                                  # top level not an object
    _group_file([[0, 1], [1]]),                    # ragged rows
    _group_file([5, 6]),                           # a row that is no list
    _group_file([[0, "b"], [1, 0]]),               # a string entry
    b'{"name": "\xff\xfe"}',                     # not valid UTF-8
    b"[" * 100000 + b"]" * 100000,                 # nested too deep
], ids=["truncated", "non-object", "ragged", "row-not-list", "string-entry",
        "bad-utf8", "deep-nesting"])
def test_hostile_group_file_exits_1(capsys, tmp_path, content):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    rc, out, err = run(capsys, ["check", "--group", str(path),
                                "--prime", "2"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["name", "labels"])
def test_unprintable_name_or_label_exits_1_in_one_line(capsys, tmp_path,
                                                       field):
    # a newline would let the message quoting it spoof a second line
    doc = json.loads(_group_file([[0, 1], [1, 0]]))
    spoof = "evil\nTraceback (most recent call last):"
    doc[field] = spoof if field == "name" else ["a", spoof]
    path = tmp_path / "spoof.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run(capsys, ["check", "--group", str(path),
                                "--prime", "2"])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be printable" in err


def test_table_file_round_trip(capsys, tmp_path):
    from padicamen.finite_group import dihedral
    grp = dihedral(3)
    path = tmp_path / "d3.json"
    path.write_text(json.dumps({
        "name": "d3-from-file",
        "order": grp.order,
        "labels": list(grp.labels),
        "table": [list(row) for row in grp.table],
    }), encoding="utf-8")
    rc, out, _ = run(capsys, ["check", "--group", str(path),
                              "--prime", "3", "--format", "structured"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["group"]["name"] == "d3-from-file"
    assert doc["schikhof"]["amenable"] is False


def test_built_in_spec_wins_over_a_file_of_its_name(capsys, monkeypatch,
                                                   tmp_path):
    # a table file named like a built-in spec, in the working directory
    impostor = json.dumps({"name": "impostor", "order": 2,
                           "labels": ["a", "b"], "table": [[0, 1], [1, 0]]})
    for name in ("cyclic:3", "mygroup"):
        (tmp_path / name).write_text(impostor, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for spec, name, order in [("cyclic:3", "cyclic:3", 3),
                              ("./cyclic:3", "impostor", 2),
                              ("mygroup", "impostor", 2)]:
        rc, out, err = run(capsys, ["check", "--group", spec, "--prime", "3"])
        assert rc == 0 and err == "", spec
        lines = out.splitlines()
        assert lines[0] == "certificate: %s at p=3" % name, spec
        assert "order: %d" % order in lines, spec


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command pays its imports at start-up, and dataclasses brings
    # in inspect, ast, dis and tokenize; only the modules the import adds
    # count, so whatever site or a .pth file loads first is no failure
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, %r); "
            "import padicamen.cli; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_closed_stdout_gives_one_error_line():
    # the reader is gone before the document is written, as `| head -c 1`
    # can leave it: exit 1 and one line of error, never a traceback
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "padicamen", "check", "--group",
             "symmetric:4", "--prime", "2", "--format", "structured"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")
    assert len(done.stderr.splitlines()) == 1
