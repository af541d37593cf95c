"""The document set: every catalog(24) group's certificates at p = 2, 3, 5
and 7, its `verify --prime 3` document and its `derivations --prime 2`
document, 180 in all, byte for byte against digests recorded from an
earlier version of the package in `document_digests.json`.  The golden
set under perfbench/ covers catalog(12) and a few CLI runs; this one
reaches every catalog group up to the default order cap.  A digest shows
that a document did not change, not that it is right, so every section
is also read back by a reader of tests/oracles.py that trusts none of
the package's writers: read_johnson_and_diagonal and read_schikhof for
the certificate, read_verify and read_derivations for the other two.
Each reader is shown to reject a corrupted section of each kind it
reads."""

import hashlib
import json
from pathlib import Path

import pytest
from oracles import (read_derivations, read_johnson_and_diagonal,
                     read_schikhof, read_verify, relabelled_catalog,
                     subgroup_member_sets, uncatalogued_groups)

import padicamen.cli as cli
from padicamen.amenability import certify, render_json
from padicamen.finite_group import (ORDER_CAP_ENV, catalog, dihedral,
                                    symmetric)

DIGESTS = Path(__file__).resolve().parent / "document_digests.json"

PRIMES = (2, 3, 5, 7)


def documents(capsys):
    """(key, text) for each document of the set, in catalog order."""
    for grp in catalog(24):
        for p in PRIMES:
            text = render_json(certify(grp, p))
            yield "certify %s p%d" % (grp.name, p), text
        for command, p in (("verify", 3), ("derivations", 2)):
            argv = [command, "--group", grp.name, "--prime", str(p),
                    "--format", "structured"]
            assert cli.main(argv) == 0, argv
            yield " ".join(argv), capsys.readouterr().out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_documents_match_recorded_digests(capsys):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    docs = list(documents(capsys))
    assert [key for key, _ in docs] == list(recorded["documents"])
    for key, text in docs:
        assert _sha256(text) == recorded["documents"][key], \
            "first document that differs: %s" % key
    assert _sha256("".join(text for _, text in docs)) == \
        recorded["concatenation"]


def _misread(groups):
    """(group name, prime, failure) for each certificate the reader
    rejects."""
    return [(grp.name, p, failure) for grp in groups for p in PRIMES
            for failure in [read_johnson_and_diagonal(
                certify(grp, p), grp.labels, grp.table)] if failure]


def test_reader_accepts_the_mean_and_the_diagonal(monkeypatch):
    assert _misread(catalog(24)) == []
    assert _misread(relabelled_catalog(24, 0)) == []
    monkeypatch.setenv(ORDER_CAP_ENV, "72")
    assert _misread(uncatalogued_groups()) == []


def _repoint_second_leg(doc, grp):
    # delta_g (x) delta_{g^-1} becomes delta_g (x) delta_e at g != e
    g = grp.labels[grp.generators[0]]
    (_, c), = doc["diagonal"]["tensor"][g].items()
    doc["diagonal"]["tensor"][g] = {grp.labels[grp.identity]: c}


def _flip_mean_exponent(doc, grp):
    doc["johnson"]["mean_norm_exponent"] *= -1


def _flip_diagonal_exponent(doc, grp):
    doc["diagonal"]["norm_exponent"] *= -1


def _pi0_off_the_identity(doc, grp):
    doc["diagonal"]["pi0"] = {grp.labels[grp.generators[0]]: "1/1"}


def _change_a_mean_coefficient(doc, grp):
    doc["johnson"]["mean"][grp.labels[grp.generators[0]]] = "1/%d" % (
        grp.order + 1)


# each corruption and the failure the reader names; swapping the legs of
# the diagonal is no corruption, as sum_g delta_g (x) delta_{g^-1} is the
# same tensor with its legs swapped
CORRUPTIONS = {
    _repoint_second_leg: "diagonal: not balanced",
    _flip_mean_exponent: "johnson: mean_norm_exponent",
    _flip_diagonal_exponent: "diagonal: norm_exponent",
    _pi0_off_the_identity: "diagonal: pi0",
    _change_a_mean_coefficient: "johnson: the mean",
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS,
                         ids=[c.__name__[1:] for c in CORRUPTIONS])
def test_reader_rejects_a_corrupted_section(corrupt):
    # at p = 3 both exponents are v_3(6) = 1, so a sign flip shows
    grp = symmetric(3)
    doc = certify(grp, 3)
    assert read_johnson_and_diagonal(doc, grp.labels, grp.table) is None
    corrupt(doc, grp)
    failure = read_johnson_and_diagonal(doc, grp.labels, grp.table)
    assert failure is not None and failure.startswith(CORRUPTIONS[corrupt])


def _misread_schikhof(groups):
    return [(grp.name, p, failure) for grp in groups for p in PRIMES
            for failure in [read_schikhof(certify(grp, p), grp.labels,
                                          grp.table)] if failure]


def test_reader_accepts_the_schikhof_section(monkeypatch):
    assert _misread_schikhof(catalog(24)) == []
    assert _misread_schikhof(relabelled_catalog(24, 0)) == []
    monkeypatch.setenv(ORDER_CAP_ENV, "72")
    assert _misread_schikhof(uncatalogued_groups()) == []


def _drop_a_label_from_s2(section, grp):
    # the identity's label: what is left is no subgroup
    section["method_lattice"]["witness"]["s2"].remove(
        grp.labels[grp.identity])


def _change_the_index(section, grp):
    section["method_lattice"]["witness"]["index"] *= 2


def _put_in_a_later_pair(section, grp):
    subgroups = subgroup_member_sets(grp.table)
    pairs = [(s1, s2) for s1 in subgroups for s2 in subgroups
             if set(s1) <= set(s2) and len(s2) // len(s1) % 2 == 0]
    s1, s2 = pairs[1]
    section["method_lattice"]["witness"].update(
        s1=[grp.labels[x] for x in s1], s2=[grp.labels[x] for x in s2],
        index=len(s2) // len(s1))


def _change_the_witness_prime(section, grp):
    section["method_lattice"]["witness"]["prime"] = 3


def _name_an_unknown_label(section, grp):
    section["method_lattice"]["witness"]["s1"] = ["x"]


def _drop_the_witness(section, grp):
    del section["method_lattice"]["witness"]


def _flip_pass(section, grp):
    section["method_lattice"]["pass"] = True


def _one_pair_fewer(section, grp):
    section["method_lattice"]["pairs_checked"] -= 1


def _one_subgroup_more(section, grp):
    section["method_lattice"]["subgroup_count"] += 1


def _raise_the_exponent(section, grp):
    section["method_norm"]["mean_norm_exponent"] += 1


# each corruption of the Schikhof section of symmetric:4 at p = 2, which
# has a witness, and the failure the reader names
SCHIKHOF_CORRUPTIONS = {
    _drop_a_label_from_s2: "schikhof: the witness is not subgroups",
    _change_the_index: "schikhof: the witness index is not |s2|/|s1|",
    _put_in_a_later_pair: "schikhof: the witness is not the first",
    _change_the_witness_prime: "schikhof: the witness index is not "
                               "divisible by the prime",
    _name_an_unknown_label: "schikhof: the witness has labels",
    _drop_the_witness: "schikhof: a witness does not appear",
    _flip_pass: "schikhof: a verdict",
    _one_pair_fewer: "schikhof: pairs_checked",
    _one_subgroup_more: "schikhof: subgroup_count",
    _raise_the_exponent: "schikhof: mean_norm_exponent",
}


@pytest.mark.parametrize("corrupt", SCHIKHOF_CORRUPTIONS,
                         ids=[c.__name__[1:] for c in SCHIKHOF_CORRUPTIONS])
def test_schikhof_reader_rejects_a_corrupted_section(corrupt):
    grp = symmetric(4)
    doc = certify(grp, 2)
    assert read_schikhof(doc, grp.labels, grp.table) is None
    corrupt(doc["schikhof"], grp)
    failure = read_schikhof(doc, grp.labels, grp.table)
    assert failure is not None and \
        failure.startswith(SCHIKHOF_CORRUPTIONS[corrupt]), failure


def _cli_document(capsys, tmp_path, command, grp, p):
    """The document command writes for grp at p, which it reads from a
    table file, as it reads any group the catalog lacks."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"name": grp.name, "order": grp.order,
                                "labels": list(grp.labels),
                                "table": [list(row) for row in grp.table]}),
                    encoding="utf-8")
    argv = [command, "--group", str(path), "--prime", str(p),
            "--format", "structured"]
    assert cli.main(argv) == 0, argv
    return json.loads(capsys.readouterr().out)


def _misread_cli(capsys, tmp_path, groups):
    """(group name, failure) for each verify or derivations document a
    reader rejects."""
    failures = []
    for grp in groups:
        failures.append((grp.name, read_verify(_cli_document(
            capsys, tmp_path, "verify", grp, 3), grp.labels)))
        failures.append((grp.name, read_derivations(_cli_document(
            capsys, tmp_path, "derivations", grp, 2), grp.labels, grp.table)))
    return [(name, failure) for name, failure in failures if failure]


def test_readers_accept_the_verify_and_derivations_documents(
        capsys, monkeypatch, tmp_path):
    assert _misread_cli(capsys, tmp_path, catalog(24)) == []
    assert _misread_cli(capsys, tmp_path, relabelled_catalog(24, 0)) == []
    monkeypatch.setenv(ORDER_CAP_ENV, "72")
    assert _misread_cli(capsys, tmp_path, uncatalogued_groups()) == []


def _set(*path_and_value):
    """The corruption that sets the entry at path to value."""
    *path, key, value = path_and_value

    def corrupt(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value(doc[key]) if callable(value) else value
    return corrupt


def _rename_a_label(doc):
    per_c = doc["dual_action_identity"]["per_c"]
    per_c["x" + min(per_c)] = per_c.pop(min(per_c))


def _drop_an_axiom(doc):
    del doc["hopf"]["axioms"]["e_homomorphism"]


# one corruption of the verify document of symmetric:3 for each kind of
# check, by id: the corruption and the failure the reader names
VERIFY_CORRUPTIONS = {
    "group_order": (_set("group", "order", 5), "group:"),
    "section_prime": (_set("hopf", "prime", 5), "hopf: group, order or prime"),
    "per_c_keys": (_rename_a_label, "dual_action_identity: per_c"),
    "per_c_value": (_set("dual_action_identity", "per_c", "012", False),
                    "dual_action_identity: fails"),
    "dual_checked": (_set("dual_action_identity", "checked", "all 6"),
                     "dual_action_identity: not checked"),
    "axiom_names": (_drop_an_axiom, "hopf: not the ten axioms"),
    "axiom_pass": (_set("hopf", "axioms", "counit_left", "pass", False),
                   "hopf: counit_left fails"),
    "axiom_checked": (_set("hopf", "axioms", "counit_left", "checked",
                           "all 36 basis pairs"),
                      "hopf: counit_left is not checked"),
    "hopf_all_pass": (_set("hopf", "all_pass", False), "hopf: all_pass"),
    "antipode": (_set("hopf", "antipode_corrupted", True),
                 "hopf: the antipode"),
    "quotient_dim": (_set("quotient_isomorphism", "quotient_dim", 7),
                     "quotient_isomorphism: the dimensions"),
    "quotient_flag": (_set("quotient_isomorphism", "bijective", False),
                      "quotient_isomorphism: a check fails"),
}


@pytest.mark.parametrize("case", VERIFY_CORRUPTIONS)
def test_verify_reader_rejects_a_corrupted_section(capsys, tmp_path, case):
    grp = symmetric(3)
    doc = _cli_document(capsys, tmp_path, "verify", grp, 3)
    assert read_verify(doc, grp.labels) is None
    corrupt, expected = VERIFY_CORRUPTIONS[case]
    corrupt(doc)
    failure = read_verify(doc, grp.labels)
    assert failure is not None and failure.startswith(expected), failure


def _plus_one(value):
    return value + 1


def _raise_inner_dim(doc):
    for key in ("inner_dim", "derivation_dim"):
        doc["bimodules"]["regular"][key] += 1


# one corruption of the derivations document for each kind of check, by
# id: the group, the corruption and the failure the reader names; at
# order 12 no elimination runs, so only the class count sees the last
DERIVATIONS_CORRUPTIONS = {
    "all_inner": (symmetric(3), _set("all_inner", False), "all_inner"),
    "bimodule_name": (symmetric(3), _set("bimodules", "trivial", "bimodule",
                                         "regular"),
                      "trivial: not a stock bimodule"),
    "module_dim": (symmetric(3), _set("bimodules", "regular", "module_dim",
                                      _plus_one),
                   "regular: module_dim"),
    "unknowns": (symmetric(3), _set("bimodules", "outer_tensor", "unknowns",
                                    _plus_one),
                 "outer_tensor: unknowns"),
    "derivation_dim": (symmetric(3), _set("bimodules", "regular",
                                          "derivation_dim", _plus_one),
                       "regular: a derivation is not inner"),
    "elimination": (symmetric(3), _raise_inner_dim,
                    "regular: inner_dim is not dim Der by elimination"),
    "class_count": (dihedral(6), _raise_inner_dim,
                    "regular: inner_dim is not 6"),
}


@pytest.mark.parametrize("case", DERIVATIONS_CORRUPTIONS)
def test_derivations_reader_rejects_a_corrupted_section(capsys, tmp_path,
                                                         case):
    grp, corrupt, expected = DERIVATIONS_CORRUPTIONS[case]
    doc = _cli_document(capsys, tmp_path, "derivations", grp, 2)
    assert read_derivations(doc, grp.labels, grp.table) is None
    corrupt(doc)
    failure = read_derivations(doc, grp.labels, grp.table)
    assert failure is not None and failure.startswith(expected), failure
