"""The document set: every catalog(24) group's certificates at p = 2, 3, 5
and 7, its `verify --prime 3` document and its `derivations --prime 2`
document, 180 in all, byte for byte against digests recorded from an
earlier version of the package in `document_digests.json`.  The golden
set under perfbench/ covers catalog(12) and a few CLI runs; this one
reaches every catalog group up to the default order cap."""

import hashlib
import json
from pathlib import Path

import padicamen.cli as cli
from padicamen.amenability import certify, render_json
from padicamen.finite_group import catalog

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
