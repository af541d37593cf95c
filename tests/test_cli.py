"""CLI behaviour: documents, text renderings, exit codes."""

import itertools
import json
import random
import time

import pytest
from oracles import relabel

import padicamen.cli as cli
from padicamen.errors import InternalCheckError
from padicamen.finite_group import cyclic


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
])
def test_usage_errors_exit_1(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert err.startswith("error: ")


def test_over_cap_group_exits_1(capsys, monkeypatch, tmp_path):
    # validation reads O(n^2 log n) entries, so even order 400 is read and
    # refused by the cap, also with the identity off index 0, and before
    # the bimodules, whose validation is cubic, are built
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
    # table of either group would take minutes
    def refuse(spec):
        raise AssertionError("group built")
    monkeypatch.setattr(cli, "from_spec", refuse)
    start = time.monotonic()
    rc, out, err = run(capsys, [command, "--group", group, "--prime", "2"])
    assert time.monotonic() - start < 0.5
    assert rc == 1 and out == ""
    order = 10 ** 5 if group == "cyclic:100000" else 10 ** 6
    assert err == ("error: %s refused: group order %d exceeds the cap 24 "
                   "(override via PADICAMEN_ORDER_CAP)\n" % (stage, order))


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
    rc, _, err = run(capsys, argv + ["--out", str(out)])
    assert rc == 1
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
