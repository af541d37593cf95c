#!/usr/bin/env python3
"""Benchmark of padicamen on three workloads of real traffic.

Run from the repository root:

  python3 perfbench/run.py --workload cli-large --seed 0 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all       # every workload, every metric
  python3 perfbench/run.py --self-test          # quick check of the benchmark
  python3 perfbench/run.py --write-golden       # re-record perfbench/golden.json
                                                # from the reference code

Each workload is a closed loop with one client: one operation at a time,
and at most one child interpreter alive, so a run fits on two cores.
Every operation runs in a fresh interpreter, so no module-level cache of
the package (lemma2_data's lru_cache, the derivation cache) carries over
between operations.  CLI operations run `python -m padicamen` and are timed
from process start to exit; the catalog loop is timed inside its process.

Workloads (why each one is here):

  cli-large       check symmetric:4 p=3, check cyclic:30 p=7 (order cap 30),
                  verify symmetric:4 p=3.  Hopf diagrams and the virtual
                  diagonal / kernel identity at orders 24 and 30, where the
                  O(n^4) loops dominate; one prime per process, so reuse
                  across primes has nothing to reuse here.
  catalog-primes  certify(g, p) for the 23 groups of catalog(12) at p in
                  {2,3,5,7} in one process, then `sweep --max-order 24`.
                  Many small groups at four primes: reuse across primes,
                  the subgroup lattice and per-call overhead.
  derivations     derivations dihedral:6, dihedral:8, and symmetric:4
                  --bimodule regular.  Bimodule construction and sparse
                  kernel elimination, with no Hopf work at all.

A pass runs every operation of the workload once.  A run makes passes
until the next one would end after --seconds (at least one) and reports
medians over its passes.

On a shared host the speed of the machine swings: a fixed loop of
pure Python here took anywhere from 28 to 62 ms, in spells of a second
or more, and the mix of spells over a run moves every wall time by a
quarter and more from run to run.  So the gated pass time is normalised.
While the operations run, a thread of this (otherwise idle) parent
process times a small fixed piece of pure Python (reference_loop, which
runs no padicamen code) every SAMPLE_PERIOD seconds, on the core the
operation leaves free; the host's slow and fast spells hit both cores
alike.  Each operation's time is divided by the mean reference time
sampled while it ran and multiplied by REF_S, the reference time at the
speed the benchmark was tuned at; pass_norm_s, the sum over a pass, is
the pass time in seconds at that fixed speed: a faster program lowers
it and a slower spell of the machine does not raise it.  setup_s is
normalised the same way.  The raw wall times and the reference time
are reported beside them.

Seed 0 runs the canonical group specs; any other seed relabels every
group at random and passes the Cayley table as a JSON file (`--group
FILE`, or from_spec(FILE) in the catalog loop), so no result can depend on
a catalog spec name.  Relabelling renames the group and its elements and
shuffles every element but the identity to new indices; the derivations
workload keeps the element order (see WORKLOADS).  Every
document is checked: at seed 0 its sha256 must match perfbench/golden.json
(recorded from the code the benchmark was written against); at every seed
the benchmark checks invariants it computes itself, and the fields that
relabelling must not change must equal their seed-0 values.

With --trace 1 the run makes one untraced pass and one pass under the
outside-in tracer (perfbench/tracer.py), checks that the traced documents
are byte-identical to the untraced ones, and reports per-layer metrics and
the tracing overhead.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

PRIMES = (2, 3, 5, 7)
ORDER_CAP_ENV = "PADICAMEN_ORDER_CAP"
# setup_s is a fraction of a second, so it is the median of several fresh
# interpreters, after one untimed start that writes the bytecode caches
SETUP_REPEATS = 7
# the speed sampler times one reference_loop() (5 to 10 ms) this often,
# so it keeps about a seventh of the second core busy
SAMPLE_PERIOD = 0.05
# the typical reference_loop() time on the 2-core 2.1 GHz Xeon VM the
# benchmark was tuned on: normalised times are seconds at this speed
REF_S = 0.008


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    kind "cli" runs the CLI with argv ("{group}" stands for the group
    argument); kind "api" runs the in-process certify loop over
    catalog(catalog).  metric is the command metric the operation's time
    adds to.  permute=False relabels by renaming only (see _relabel).
    """

    kind: str
    metric: str
    argv: Tuple[str, ...] = ()
    group: str = ""
    cap: Optional[int] = None
    catalog: int = 0
    permute: bool = True

    def ident(self) -> str:
        return " ".join(self.argv).format(group=self.group)


def _cli(metric, group, *argv, cap=None, catalog=0, permute=True):
    return Op("cli", metric, tuple(argv), group, cap, catalog, permute)


WORKLOADS: Dict[str, List[Op]] = {
    "cli-large": [
        _cli("check_s", "symmetric:4",
             "check", "--group", "{group}", "--prime", "3"),
        _cli("check_s", "cyclic:30",
             "check", "--group", "{group}", "--prime", "7", cap=30),
        _cli("verify_s", "symmetric:4",
             "verify", "--group", "{group}", "--prime", "3"),
    ],
    "catalog-primes": [
        Op("api", "catalog_certify_s", catalog=12),
        _cli("sweep_s", "", "sweep", "--max-order", "24", catalog=24),
    ],
    # the derivation solve's cost depends on the element order (dihedral:8
    # took 8.3 to 15.1 s over seven orders on a 2-core 2.1 GHz VM), so these
    # seeds rename the elements and the group but keep the order of the table
    "derivations": [
        _cli("derivations_s", "dihedral:6",
             "derivations", "--group", "{group}", "--prime", "2",
             permute=False),
        _cli("derivations_s", "dihedral:8",
             "derivations", "--group", "{group}", "--prime", "2",
             permute=False),
        _cli("derivations_s", "symmetric:4",
             "derivations", "--group", "{group}", "--prime", "2",
             "--bimodule", "regular", permute=False),
    ],
}

# the smallest operation of each workload, for --self-test
QUICK: Dict[str, List[Op]] = {
    "cli-large": [WORKLOADS["cli-large"][2]],
    "catalog-primes": [
        Op("api", "catalog_certify_s", catalog=4),
        _cli("sweep_s", "", "sweep", "--max-order", "4", catalog=4),
    ],
    "derivations": [WORKLOADS["derivations"][0]],
}

COMMAND_METRICS = ("check_s", "verify_s", "derivations_s",
                   "catalog_certify_s", "sweep_s")

# per-layer metrics: spans whose self time is reported, spans whose call
# count is reported (names as in tracer.TARGETS)
SELF_TIMES = (
    "hopf.HopfStructure", "hopf.verify_hopf_axioms", "hopf.eq1_check",
    "hopf.env_left_mult_matrix", "hopf.lemma2_data", "hopf.lemma2_iso_check",
    "hopf.TensorElement.mul",
    "amenability.virtual_diagonal_construct",
    "amenability.diagonal_ideal_identity", "amenability.mean_from_diagonal",
    "amenability.johnson_check", "amenability.schikhof_check",
    "amenability.stock_bimodules", "amenability.derivation_spaces",
    "exact_linalg.Echelon.add_row", "exact_linalg.kernel_basis_sparse",
    "exact_linalg.solve_augmented", "exact_linalg.spans_equal",
    "finite_group.from_spec", "finite_group.enumerate_subgroups",
    "group_algebra.convolve", "group_algebra.i0_identity",
    "cli.render_json",
)
CALL_COUNTS = (
    "hopf.env_left_mult_matrix", "hopf.SparseLinearMap.compose",
    "hopf.TensorElement.mul", "amenability.certify",
    "amenability.johnson_check", "exact_linalg.Echelon.add_row",
    "finite_group.enumerate_subgroups", "group_algebra.convolve",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or golden data)."""


# ---------------------------------------------------------------- inputs

def _import_package():
    if not (SRC / "padicamen" / "__init__.py").is_file():
        raise BenchError("no padicamen sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from padicamen import finite_group
    return finite_group


class Inputs:
    """The groups of one run: canonical specs at seed 0, relabelled
    Cayley-table files otherwise.  The same seed gives the same files."""

    def __init__(self, seed: int, workdir: Path, finite_group):
        self.seed = seed
        self.workdir = workdir
        self.fg = finite_group
        self._args: Dict[Tuple[str, bool], str] = {}

    def catalog_specs(self, max_order: int) -> List[str]:
        return [g.name for g in self.fg.catalog(max_order)]

    def group_arg(self, spec: str, permute: bool = True) -> str:
        if self.seed == 0 or not spec:
            return spec
        key = (spec, permute)
        if key not in self._args:
            self._args[key] = self._relabel(spec, permute)
        return self._args[key]

    def _relabel(self, spec: str, permute: bool) -> str:
        group = self.fg.from_spec(spec)
        n = group.order
        rng = random.Random("%d:%s:%d" % (self.seed, spec, permute))
        # the identity keeps index 0, as in every built-in spec
        perm = list(range(1, n))
        if permute:
            rng.shuffle(perm)
        perm.insert(group.identity, 0)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[group.table[a][b]]
        labels = ["x%d" % i for i in range(n)]
        rng.shuffle(labels)
        body = json.dumps({"order": n, "labels": labels, "table": table})
        name = "table-%d-%s" % (n, digest(body)[:12])
        path = self.workdir / (name + ".json")
        path.write_text(json.dumps({
            "name": name, "order": n, "labels": labels, "table": table}))
        return str(path)

    def setup_args(self, ops: List[Op]) -> List[str]:
        """Arguments of `child.py setup` building every group of ops."""
        specs: List[Tuple[str, bool]] = []
        catalog = 0
        for op in ops:
            if op.kind == "api":
                specs += [(s, True) for s in self.catalog_specs(op.catalog)]
            elif op.group:
                specs.append((op.group, op.permute))
            else:
                catalog = max(catalog, op.catalog)
        args = [self.group_arg(*s) for s in dict.fromkeys(specs)]
        return (["--catalog", str(catalog)] if catalog else []) + args


# ------------------------------------------------------- correctness gate

def _vp(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _certificate(doc, bad: List[str]) -> dict:
    n, p = doc["group"]["order"], doc["prime"]
    j, s = doc["johnson"], doc["schikhof"]
    lat = s["method_lattice"]
    if s["amenable"] != (n % p != 0):
        bad.append("schikhof verdict is not (|G| % p != 0)")
    if j["mean_norm_exponent"] != _vp(n, p):
        bad.append("mean_norm_exponent is not v_p(|G|)")
    if not (j["amenable"] and s["method_norm"]["pass"] == lat["pass"]
            == s["amenable"]):
        bad.append("the two Schikhof methods disagree")
    if len(doc["checks"]) != 11 or set(doc["checks"].values()) != {"pass"}:
        bad.append("not 11/11 checks passed")
    return {
        "order": n, "prime": p,
        "johnson_amenable": j["amenable"],
        "invariant_space_dim": j["invariant_space_dim"],
        "mean_norm_exponent": j["mean_norm_exponent"],
        "schikhof_amenable": s["amenable"],
        "norm_pass": s["method_norm"]["pass"],
        "lattice_pass": lat["pass"],
        "subgroup_count": lat["subgroup_count"],
        "pairs_checked": lat["pairs_checked"],
        "witness_index": lat.get("witness", {}).get("index"),
        "diagonal_norm_exponent": doc["diagonal"]["norm_exponent"],
        "checks": sorted(doc["checks"]),
    }


def _verify(doc, bad: List[str]) -> dict:
    if not doc["all_pass"]:
        bad.append("verify reports a failed check")
    q = doc["quotient_isomorphism"]
    per_c = doc["dual_action_identity"]["per_c"]
    return {
        "order": doc["group"]["order"], "prime": doc["prime"],
        "axioms": {k: v["pass"] for k, v in doc["hopf"]["axioms"].items()},
        "dual_action": [sum(per_c.values()), len(per_c)],
        "quotient": [q["quotient_dim"], q["expected_dim"], q["well_defined"],
                     q["bijective"], q["action_commutes"]],
        "all_pass": doc["all_pass"],
    }


def _derivations(doc, bad: List[str]) -> dict:
    fields = {}
    for name, b in doc["bimodules"].items():
        if not b["all_inner"] or b["derivation_dim"] != b["inner_dim"]:
            bad.append("bimodule %s has outer derivations" % name)
        fields[name] = [b["module_dim"], b["unknowns"], b["derivation_dim"],
                        b["inner_dim"], b["all_inner"]]
    if not doc["all_inner"]:
        bad.append("all_inner is false")
    return {"order": doc["group"]["order"], "prime": doc["prime"],
            "bimodules": fields, "all_inner": doc["all_inner"]}


def _sweep(doc, bad: List[str]) -> dict:
    for r in doc["rows"]:
        n, p = r["order"], r["prime"]
        if not (r["johnson_amenable"]
                and r["schikhof_amenable"] == (n % p != 0)
                and r["p_divides_order"] == (n % p == 0)
                and r["mean_norm_exponent"] == _vp(n, p)):
            bad.append("sweep row %s p=%d breaks the verdict rule"
                       % (r["group"], p))
    return {"rows": len(doc["rows"]),
            "verdicts": sorted([r["order"], r["prime"], r["schikhof_amenable"]]
                               for r in doc["rows"])}


FIELDS = {"padicamen.certificate/1": _certificate,
          "padicamen.verify/1": _verify,
          "padicamen.derivations/1": _derivations,
          "padicamen.sweep/1": _sweep}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gate(op_id: str, text: str, seed: int, golden: dict) -> List[str]:
    """Problems with one document; empty when it passes."""
    bad: List[str] = []
    try:
        doc = json.loads(text)
        fields = FIELDS[doc["schema"]](doc, bad)
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable document: %r" % (exc,)]
    # the sweep reads the built-in catalog, so its bytes never depend on
    # the seed
    if (seed == 0 or doc["schema"] == "padicamen.sweep/1") and \
            digest(text) != golden["sha256"].get(op_id):
        bad.append("sha256 differs from the golden document")
    if fields != golden["invariants"].get(op_id):
        bad.append("relabelling-invariant fields differ from seed 0")
    return bad


# -------------------------------------------------------------- execution

@dataclass
class OpRun:
    op: Op
    seconds: float          # the op's contribution to its command metric
    wall: float             # child process wall time
    rss_kib: int
    cpu: float              # child process CPU time
    docs: List[Tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    trace: Optional[dict] = None
    ref: float = 0.0        # mean reference_loop time while the op ran


def reference_loop() -> int:
    """Fixed pure-Python work of the kind padicamen does (exact rational
    arithmetic, tuple-keyed dicts, sorting), 5 to 10 ms on a 2.1 GHz
    Xeon.  It uses no padicamen code, so no change to the package can
    change its time: it measures the speed of the machine only."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 97, i % 13 + 1)
        table[(i, i % 7)] = acc.numerator % 1009
    return sum(v * k[1] for k, v in table.items()) + len(
        sorted(table.values()))


class SpeedSampler:
    """A thread that times reference_loop() every SAMPLE_PERIOD seconds
    until stopped; mean(t0, t1) is the mean time of the samples started
    in [t0, t1].  The main thread waits in os.wait4 meanwhile, which
    releases the GIL; a short switch interval lets it take the GIL back
    within a millisecond when a child exits."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append((t0, time.perf_counter() - t0))
            self._stop.wait(SAMPLE_PERIOD)

    def __enter__(self) -> "SpeedSampler":
        self._interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)

    def mean(self, t0: float, t1: float) -> float:
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:      # an op shorter than one period
            inside = [d for _, d in self.samples[-2:]]
        return statistics.mean(inside)


def _env(cap: Optional[int]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop(ORDER_CAP_ENV, None)
    if cap is not None:
        env[ORDER_CAP_ENV] = str(cap)
    return env


def spawn(cmd: List[str], env: dict, log: Path
          ) -> Tuple[float, float, int, int, float]:
    """Run one child to completion: (start, end, exit code, peak RSS KiB,
    CPU seconds), start and end by time.perf_counter().

    os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would keep
    a running maximum over every child ever reaped.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (t0, t1, proc.returncode, usage.ru_maxrss,
            usage.ru_utime + usage.ru_stime)


class Runner:
    def __init__(self, inputs: Inputs, golden: dict, sampler: SpeedSampler):
        self.inputs = inputs
        self.golden = golden
        self.work = inputs.workdir
        self.sampler = sampler

    def _child(self, *args: str) -> List[str]:
        return [sys.executable, str(BENCH_DIR / "child.py"), *args]

    def _fail_log(self, label: str, log: Path) -> None:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        print("FAILED %s: %s" % (label, " | ".join(tail)))

    def _check(self, run: OpRun, op_id: str, text: Optional[str]) -> None:
        run.attempted += 1
        if text is None:
            problems = ["no document"]
        elif self.golden is None:   # recording the golden set
            problems = []
        else:
            problems = gate(op_id, text, self.inputs.seed, self.golden)
        if problems:
            run.failed += 1
            print("FAILED %s: %s" % (op_id, "; ".join(problems)))
        run.docs.append((op_id, text or ""))

    def run_cli(self, op: Op, trace: bool) -> OpRun:
        out, log, tfile = (self.work / "doc.json", self.work / "stderr.txt",
                           self.work / "trace.json")
        argv = [a.format(group=self.inputs.group_arg(op.group, op.permute))
                for a in op.argv] + ["--out", str(out)]
        cmd = self._child("cli", "--trace", str(tfile), "--", *argv) \
            if trace else [sys.executable, "-m", "padicamen", *argv]
        out.unlink(missing_ok=True)
        t0, t1, code, rss, cpu = spawn(cmd, _env(op.cap), log)
        run = OpRun(op, t1 - t0, t1 - t0, rss, cpu,
                    ref=self.sampler.mean(t0, t1))
        text = None
        if code == 0:
            text = out.read_text("utf-8")
            if trace:
                run.trace = json.loads(tfile.read_text())
        else:
            self._fail_log(op.ident(), log)
        self._check(run, op.ident(), text)
        return run

    def run_api(self, op: Op, trace: bool) -> OpRun:
        out, log = self.work / "catalog.json", self.work / "stderr.txt"
        specs = self.inputs.catalog_specs(op.catalog)
        cmd = self._child(
            "catalog", "--out", str(out), "--primes",
            ",".join(map(str, PRIMES)), *(["--trace"] if trace else []),
            *[self.inputs.group_arg(s) for s in specs])
        out.unlink(missing_ok=True)
        t0, t1, code, rss, cpu = spawn(cmd, _env(op.cap), log)
        run = OpRun(op, t1 - t0, t1 - t0, rss, cpu,
                    ref=self.sampler.mean(t0, t1))
        ids = ["certify %s p%d" % (s, p) for s in specs for p in PRIMES]
        docs: List[Optional[str]] = [None] * len(ids)
        if code == 0:
            data = json.loads(out.read_text("utf-8"))
            run.seconds = data["loop_s"]
            docs = data["docs"]
            run.trace = data["trace"]
        else:
            self._fail_log("catalog(%d)" % op.catalog, log)
        for op_id, text in zip(ids, docs):
            self._check(run, op_id, text)
        return run

    def run_pass(self, ops: List[Op], trace: bool) -> List[OpRun]:
        return [(self.run_api if op.kind == "api" else self.run_cli)(op, trace)
                for op in ops]

    def setup_s(self, ops: List[Op]) -> Tuple[float, float]:
        """(median wall seconds, mean reference time) of the set-up."""
        args = self._child("setup", *self.inputs.setup_args(ops))
        log = self.work / "stderr.txt"
        times = []
        for i in range(SETUP_REPEATS + 1):
            t0, t1, code, _, _ = spawn(args, _env(None), log)
            if code != 0:
                self._fail_log("setup", log)
                raise BenchError("setup failed")
            if i == 0:
                start = t1
            else:
                times.append(t1 - t0)
        return statistics.median(times), self.sampler.mean(start, t1)


# ---------------------------------------------------------------- metrics

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def command_times(runs: List[OpRun]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for r in runs:
        out[r.op.metric] = out.get(r.op.metric, 0.0) + r.seconds
    return out


def pass_norm_s(runs: List[OpRun]) -> float:
    """A pass's time in seconds at the speed REF_S stands for."""
    return sum(r.seconds * REF_S / r.ref for r in runs)


def end_to_end(passes: List[List[OpRun]], setup: Tuple[float, float]
               ) -> Dict[str, dict]:
    wall, ref = setup
    return {
        "pass_norm_s": _metric(statistics.median(map(pass_norm_s, passes)),
                               "s"),
        "setup_s": _metric(wall * REF_S / ref, "s"),
        "peak_rss_mib": _metric(
            max(r.rss_kib for p in passes for r in p) / 1024.0, "MiB"),
    }


def per_layer(untraced: List[OpRun], traced: List[OpRun]) -> Dict[str, dict]:
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    hits = misses = 0
    for t in (r.trace for r in traced if r.trace):
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
        hits += t["cache"]["hits"]
        misses += t["cache"]["misses"]
    m = {}
    for key in SELF_TIMES:
        m[key + ".self_s"] = _metric(self_s.get(key, 0.0), "s")
    for key in CALL_COUNTS:
        m[key + ".calls"] = _metric(calls.get(key, 0), "count")
    rows = calls.get("exact_linalg.Echelon.add_row", 0)
    m.update({
        "hopf.lemma2_data.hits": _metric(hits, "count"),
        "hopf.lemma2_data.misses": _metric(misses, "count"),
        "hopf.relations": _metric(counters.get("relations", 0), "count"),
        "amenability.bimodules_built":
            _metric(calls.get("amenability.Bimodule", 0), "count"),
        "amenability.bimodules_solved":
            _metric(calls.get("amenability.derivation_spaces", 0), "count"),
        "amenability.derivation_unknowns":
            _metric(counters.get("unknowns", 0), "count"),
        "exact_linalg.add_row_useful_ratio": _metric(
            counters.get("useful_rows", 0) / rows if rows else 0.0, "ratio"),
        "finite_group.subgroups":
            _metric(counters.get("subgroups", 0), "count"),
        "cli.document_bytes":
            _metric(counters.get("document_bytes", 0), "bytes"),
    })
    times = command_times(untraced)
    for name in COMMAND_METRICS:
        m[name] = _metric(times.get(name, 0.0), "s")
    m["pass_wall_s"] = _metric(sum(r.seconds for r in untraced), "s")
    m["ref_s"] = _metric(statistics.median(r.ref for r in untraced), "s")
    m["trace_overhead_s"] = _metric(
        sum(r.wall for r in traced) - sum(r.wall for r in untraced), "s")
    return m


def trace_lines(untraced: List[OpRun], traced: List[OpRun]) -> List[str]:
    """The telling per-layer counts and the overhead of each operation."""
    keys = ("amenability.certify.calls", "amenability.johnson_check.calls",
            "amenability.bimodules_built", "amenability.bimodules_solved",
            "hopf.relations", "exact_linalg.Echelon.add_row.calls",
            "exact_linalg.add_row_useful_ratio", "trace_overhead_s")
    lines = []
    for u, t in zip(untraced, traced):
        m = per_layer([u], [t])
        missing = t.trace["missing"] if t.trace else []
        lines.append("trace %s: %s%s" % (
            u.op.ident() or "catalog(%d)" % u.op.catalog,
            " ".join("%s=%.4g" % (k, m[k]["value"]) for k in keys),
            " missing=%s" % missing if missing else ""))
    return lines


# ----------------------------------------------------------- environment

def git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(ops: List[Op]) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        ORDER_CAP_ENV: os.environ.get(ORDER_CAP_ENV),
        "op_order_caps": {op.ident(): op.cap for op in ops if op.cap},
    }


# -------------------------------------------------------------- run modes

def load_golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (GOLDEN, exc)) from exc


def count(runs) -> Tuple[int, int]:
    return (sum(r.attempted for r in runs), sum(r.failed for r in runs))


def run_workload(runner: Runner, ops: List[Op], seconds: float,
                 trace: bool) -> Tuple[dict, dict, List[OpRun]]:
    """One run: the result object for the last line, the detailed record,
    and the first untraced pass."""
    if trace:
        untraced = runner.run_pass(ops, trace=False)
        traced = runner.run_pass(ops, trace=True)
        attempted, failed = count(untraced + traced)
        for u, t in zip(untraced, traced):
            for (op_id, a), (_, b) in zip(u.docs, t.docs):
                if a != b:
                    failed += 1
                    print("FAILED %s: traced document differs" % op_id)
        for line in trace_lines(untraced, traced):
            print(line)
        metrics = per_layer(untraced, traced)
        detail = {"passes": 1,
                  "trace": [r.trace for r in traced]}
        first = untraced
    else:
        setup = runner.setup_s(ops)
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(runner.run_pass(ops, trace=False))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > seconds:
                break
        attempted, failed = count(r for p in passes for r in p)
        metrics = end_to_end(passes, setup)
        detail = {"passes": len(passes),
                  "commands": [command_times(p) for p in passes],
                  "pass_s": [sum(r.seconds for r in p) for p in passes],
                  "setup_wall_s": setup[0], "setup_ref_s": setup[1],
                  "ops": [[[r.op.ident() or "catalog(%d)" % r.op.catalog,
                            r.seconds, r.wall, r.cpu, r.ref] for r in p]
                        for p in passes]}
        first = passes[0]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, environment=environment(ops),
                  failed_ratio=failed / attempted, **detail)
    return result, record, first


def with_workdir(seed: int, golden: Optional[dict], fn):
    finite_group = _import_package()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / ("run-%d-%d" % (os.getpid(), seed))
    work.mkdir()
    try:
        with SpeedSampler() as sampler:
            return fn(Runner(Inputs(seed, work, finite_group), golden,
                             sampler))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def main_workload(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}

    def go(runner):
        for name in names:
            result, record, _ = run_workload(runner, WORKLOADS[name],
                                             args.seconds, bool(args.trace))
            record.update(workload=name, seed=args.seed,
                          seconds=args.seconds, trace=args.trace)
            print("record: " + json.dumps(record, sort_keys=True))
            if args.record:
                with open(args.record, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            results[name] = (result, record)

    with_workdir(args.seed, load_golden(), go)
    if args.workload != "all":
        print(json.dumps(results[args.workload][0]))
        return 0
    # the report: every end-to-end metric by name and unit, per workload
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (result, record) in results.items():
        rows = dict(result["metrics"])
        for cmd in record.get("commands", [{}])[0]:
            rows[cmd] = _metric(statistics.median(
                c[cmd] for c in record["commands"]), "s")
        rows["failed_ratio"] = _metric(record["failed_ratio"], "ratio")
        for metric, v in rows.items():
            print("%-15s %-18s %14.6f %s" % (name, metric, v["value"],
                                             v["unit"]))
            summary["metrics"]["%s.%s" % (name, metric)] = v
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


def self_test(args) -> int:
    """Quick mode: the smallest operation of each workload, untraced and
    traced; every metric of BENCHMARK.json must be emitted with its unit,
    and a corrupted golden digest must be caught."""
    spec = json.loads(SPEC.read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def emitted(result) -> Dict[str, str]:
        return {k: v["unit"] for k, v in result["metrics"].items()}

    def go(runner):
        for name, ops in QUICK.items():
            plain, _, runs = run_workload(runner, ops, 0, trace=False)
            traced, _, _ = run_workload(runner, ops, 0, trace=True)
            for what, got, want in (("end-to-end", emitted(plain), want_e2e),
                                    ("per-layer", emitted(traced),
                                     want_layer)):
                if got != want:
                    raise AssertionError(
                        "%s %s metrics differ from BENCHMARK.json: %s"
                        % (name, what, sorted(set(got) ^ set(want))))
            if plain["failed"] or traced["failed"]:
                raise AssertionError("%s: operations failed" % name)
            # corrupt one golden digest: the same documents must now fail
            docs = [d for r in runs for d in r.docs]
            bad = json.loads(json.dumps(runner.golden))
            bad["sha256"][docs[0][0]] = "0" * 64
            failed = sum(bool(gate(i, text, 0, bad)) for i, text in docs)
            if not failed:
                raise AssertionError("%s: corrupted digest not caught" % name)
            print("self-test %s: ok (%d metrics, %d traced, corrupted "
                  "digest fails %d/%d)" % (
                      name, len(plain["metrics"]), len(traced["metrics"]),
                      failed, plain["attempted"]))

    with_workdir(0, load_golden(), go)
    print("self-test: ok")
    return 0


def write_golden(args) -> int:
    """Record the seed-0 documents of every operation as the golden set."""
    golden = {"sha256": {}, "invariants": {}}
    ops = [op for table in (WORKLOADS, QUICK) for ops in table.values()
           for op in ops]

    def go(runner):
        for op in dict.fromkeys(ops):
            run = runner.run_pass([op], trace=False)[0]
            for op_id, text in run.docs:
                bad: List[str] = []
                doc = json.loads(text)
                golden["invariants"][op_id] = FIELDS[doc["schema"]](doc, bad)
                golden["sha256"][op_id] = digest(text)
                if bad:
                    raise AssertionError("%s: %s" % (op_id, bad))

    with_workdir(0, None, go)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote %s (%d documents)" % (GOLDEN, len(golden["sha256"])))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append each run's record (environment, "
                             "metrics, per-operation times) to this file "
                             "as one JSON line: the BENCH_* trajectory")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test(args)
        if args.write_golden:
            return write_golden(args)
        return main_workload(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
