"""The document set: every catalog(24) group's certificates at p = 2, 3, 5
and 7, its `verify --prime 3` document and its `derivations --prime 2`
document, 180 in all, byte for byte against digests recorded from an
earlier version of the package in `document_digests.json`.  The golden
set under perfbench/ covers catalog(12) and a few CLI runs; this one
reaches every catalog group up to the default order cap.  A digest shows
that a document did not change, not that it is right, so the mean and
the diagonal are also read back by oracles.read_johnson_and_diagonal,
which trusts none of the package's writers."""

import hashlib
import json
from pathlib import Path

import pytest
from oracles import (read_johnson_and_diagonal, relabelled_catalog,
                     uncatalogued_groups)

import padicamen.cli as cli
from padicamen.amenability import certify, render_json
from padicamen.finite_group import ORDER_CAP_ENV, catalog, symmetric

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
