"""Mutants of src/, each with the tests that must fail on it, of three
kinds: one for each `raise InternalCheckError` check, disabling that
check; one for each loop that reads only the generating set S of a group
where a proof says S suffices, replacing S with S[:-1]; and one for the
subgroup enumeration, extending a subgroup only by the elements that
normalize it, which is complete for solvable groups only.

Run from the repository root:

    python tests/mutants.py

Each mutant is applied alone to a temporary copy of src/, tests/,
pyproject.toml, README.md and perfbench/golden.json, which the golden
tests read, and its tests run there under pytest, two mutants at a time.
A mutant is killed when every test it lists (a file or a node id) has a
failing case.  The exit status is 1 if any mutant survives or any anchor
(its old text) is missing or not unique, else 0.

tests/test_mutants.py keeps the anchors in step with src/ in tier-1: each
old text occurs exactly once in its file, and there is one check mutant
per check.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md",
          "perfbench/golden.json")
WORKERS = 2
TIMEOUT_S = 300

AMEN = "src/padicamen/amenability.py"
ALGEBRA = "src/padicamen/group_algebra.py"
GROUP = "src/padicamen/finite_group.py"
HOPF = "src/padicamen/hopf.py"
TESTS = "tests/test_amenability.py"
CONTROL = TESTS + "::test_named_check_fails_on_corrupted_input[%s]"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]


def _off(file: str, condition: str, *tests: str) -> Mutant:
    """The mutant that makes `if <condition>:` never taken."""
    old = "if %s:" % condition
    return Mutant(file, old, "if False and (%s):" % condition, tests)


CHECK_MUTANTS = (
    # johnson_check
    _off(AMEN, "len(basis) != 1",
         CONTROL % "invariant_space_dimension_one"),
    _off(AMEN, "total == 0",
         TESTS + "::test_zero_total_invariant_functional_exits_2"),
    _off(AMEN, "mean != AlgebraElement(alg, dict.fromkeys(range(n), 1), n)",
         CONTROL % "mean_normalized_and_invariant"),
    # schikhof_check
    _off(AMEN, "norm_pass != lattice_pass",
         CONTROL % "schikhof_methods_agree"),
    # virtual_diagonal_construct
    _off(AMEN, "e_map(alg.delta(a)) * d != d",
         TESTS + "::test_virtual_diagonal_construct_rejects_each_corruption"),
    _off(AMEN, "d != closed",
         CONTROL % "virtual_diagonal_closed_form",
         TESTS + "::test_virtual_diagonal_construct_rejects_each_corruption"),
    _off(AMEN, "basis_tensor(env, a, e) * d != basis_tensor(env, e, a) * d",
         CONTROL % "virtual_diagonal_identities"),
    # stock_bimodules: a part (a) failure escapes as a plain ValueError
    Mutant(AMEN, "except ValueError as exc:\n            raise Internal",
           "except ArithmeticError as exc:\n            raise Internal",
           (TESTS + "::test_derivation_certificate_rejects_a_non_action",)),
    # diagonal_ideal_identity
    _off(AMEN, "not pi0(u).is_zero()",
         CONTROL % "multiplication_kernel_right_identity",
         TESTS + "::test_diagonal_ideal_identity_rejects_corrupted_diagonals"),
    _off(AMEN, "not (d * u).is_zero()",
         TESTS + "::test_diagonal_ideal_identity_rejects_corrupted_diagonals"),
    _off(AMEN, "g is not None",
         TESTS + "::test_diagonal_ideal_identity_rejects_corrupted_diagonals"),
    # certify
    _off(AMEN, "not all(r.passed for r in verify_hopf_axioms(group).values())",
         CONTROL % "hopf_axioms"),
    _off(AMEN, "not all(eq1_check(group).values())",
         CONTROL % "dual_action_identity"),
    _off(AMEN, "not l2.all_pass", CONTROL % "quotient_isomorphism",
         "tests/test_hopf.py::test_quotient_check_pins_the_lift_of_delta_e"),
    _off(AMEN, "m2 != mean",
         CONTROL % "mean_diagonal_round_trip",
         TESTS + "::test_round_trip_rejects_tampered_diagonal"),
    # i0_identity
    _off(ALGEBRA, "augmentation(e0) != 0",
         "tests/test_group_algebra.py"
         "::test_i0_identity_rejects_a_wrong_constant"),
    _off(ALGEBRA, "convolve(f, e0) != f",
         CONTROL % "augmentation_ideal_identity"),
)


def _short(file: str, old: str, *tests: str,
           reads: str = "generators") -> Mutant:
    """The mutant that reads reads[:-1] where old first reads reads, a
    sequence over S = group.generators, so S loses its last element."""
    return Mutant(file, old, old.replace(reads, reads + "[:-1]", 1), tests)


REDUCTION_MUTANTS = (
    # verify_hopf_axioms: the pair checks on the rows S
    _short(HOPF, "scan(group.generators or (group.identity,))",
           "tests/test_hopf.py"
           "::test_generating_set_decides_what_every_element_decides"),
    # i0_identity: (delta_s - delta_e).e_0 = delta_s - delta_e on S
    _short(ALGEBRA, "for s in algebra.group.generators:",
           CONTROL % "augmentation_ideal_identity"),
    # virtual_diagonal_construct: the balance identity on S
    _short(AMEN, "for a in group.generators:\n        if basis_tensor(",
           CONTROL % "virtual_diagonal_identities"),
    # Bimodule: the bimodule laws on S
    _short(AMEN, "itertools.product(group.generators, group.elements())",
           TESTS + "::test_bimodule_axioms_imply_the_johnson_identities"
           "[cyclic:2@0]",
           TESTS + "::test_bimodule_axioms_on_generators_match_every_pair"),
    # derivation_spaces: ad_xi = 0 on S, the classes of dim Inn
    _short(AMEN, "zip(bimodule.right, bimodule.left)",
           TESTS + "::test_derivation_dims_match_character_theory",
           TESTS + "::test_derivation_certificate_matches_elimination_oracle",
           reads="bimodule.right"),
    # invariant_functional_space: the classes of (sh, h) for s in S
    _short(AMEN, "(group.table[s][h], h) for s in group.generators",
           TESTS + "::test_invariant_space_is_one_dimensional_and_uniform",
           TESTS + "::test_generating_set_decides_what_every_element_decides"),
    # virtual_diagonal_construct: the quotient relations die on S
    _short(AMEN, "for a in group.generators:\n        if e_map(",
           TESTS + "::test_generating_set_decides_what_every_element_decides"),
    # _kernel_generator_failure: the kernel generators x_s for s in S
    _short(AMEN, "for g in alg.group.generators:",
           TESTS + "::test_kernel_generators_agree_with_the_kernel_basis_scan",
           TESTS + "::test_generating_set_decides_what_every_element_decides"),
    # lemma2_data: the relations of a in S
    _short(HOPF, "table[group.inverses[a]]) for a in group.generators]",
           "tests/test_hopf.py::test_lemma2_classes_match_echelon_oracle",
           "tests/test_hopf.py::test_lemma2_iso_check_on_catalog_groups"),
)

# enumerate_subgroups: cyclic extension by the normalizing elements alone
# misses A5 itself among A5's 59 subgroups
NORMALIZER_MUTANT = Mutant(
    GROUP, "if x in base:",
    "if x in base or {g.table[g.table[g.inverses[x]][k]][x] "
    "for k in base} != base:",
    ("tests/test_finite_group.py"
     "::test_subgroup_lattice_matches_closure_oracle",
     "tests/test_finite_group.py"
     "::test_symmetric_group_on_five_letters_has_156_subgroups"))

MUTANTS = CHECK_MUTANTS + REDUCTION_MUTANTS + (NORMALIZER_MUTANT,)


def anchor_count(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file."""
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def _failed(nodeids, test: str) -> bool:
    """Whether a failing node id is test, or a case or test of it."""
    return any(nid == test or nid.startswith((test + "::", test + "["))
               for nid in nodeids)


def run_mutant(mutant: Mutant) -> Tuple[str, str]:
    """(verdict, detail): verdict is "killed", "survived" or "error"."""
    if anchor_count(mutant) != 1:
        return "error", "old text is not in the file exactly once"
    with tempfile.TemporaryDirectory(prefix="padicamen-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                (work / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, work / name)
        target = work / mutant.file
        text = target.read_text(encoding="utf-8")
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=work, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", "tests ran over %d s" % TIMEOUT_S
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    if proc.returncode not in (0, 1):
        return "error", "pytest exited %d:\n%s" % (
            proc.returncode, proc.stdout[-2000:] + proc.stderr[-2000:])
    missed = [t for t in mutant.tests if not _failed(failed, t)]
    if missed:
        return "survived", "passed: " + ", ".join(missed)
    return "killed", ""


def main() -> int:
    start = time.perf_counter()
    bad = 0

    def timed(mutant):
        t0 = time.perf_counter()
        return run_mutant(mutant), time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for mutant, ((verdict, detail), secs) in zip(
                MUTANTS, pool.map(timed, MUTANTS)):
            bad += verdict != "killed"
            where = "%s: %s" % (Path(mutant.file).name,
                                mutant.old.splitlines()[0])
            print("%-8s %5.1f s  %s" % (verdict, secs, where), flush=True)
            if detail:
                print("    " + detail.replace("\n", "\n    "), flush=True)
    print("%d of %d mutants killed in %.1f s"
          % (len(MUTANTS) - bad, len(MUTANTS), time.perf_counter() - start))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
