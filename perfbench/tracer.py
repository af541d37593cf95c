"""Outside-in tracer for the padicamen layers.

The tracer wraps public functions and methods of the package from the
benchmark's side, so it needs no hook inside the program.  A function
imported elsewhere with `from .x import y` lives in several module
namespaces; every padicamen namespace holding the original object is
patched, and methods are patched on their class.  `uninstall` puts every
original back and checks that it did.

Each wrapped call is a span.  A span's self time is its duration minus
the durations of the spans it directly contains, so the self times of
nested layers add up to the traced wall time without double counting.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, metric prefix, result hook name or None).
# The metric prefix names the layer the call belongs to; render_json is
# defined in amenability but is the document writer of the cli layer.
TARGETS: List[Tuple[str, str, str, Optional[str]]] = [
    ("padicamen.hopf", "HopfStructure.__init__", "hopf.HopfStructure", None),
    ("padicamen.hopf", "verify_hopf_axioms", "hopf.verify_hopf_axioms", None),
    ("padicamen.hopf", "eq1_check", "hopf.eq1_check", None),
    ("padicamen.hopf", "env_left_mult_matrix", "hopf.env_left_mult_matrix",
     None),
    ("padicamen.hopf", "SparseLinearMap.compose", "hopf.SparseLinearMap.compose",
     None),
    ("padicamen.hopf", "lemma2_data", "hopf.lemma2_data", "relations"),
    ("padicamen.hopf", "lemma2_iso_check", "hopf.lemma2_iso_check", None),
    ("padicamen.hopf", "TensorElement.__mul__", "hopf.TensorElement.mul", None),
    ("padicamen.amenability", "certify", "amenability.certify", None),
    ("padicamen.amenability", "johnson_check", "amenability.johnson_check",
     None),
    ("padicamen.amenability", "schikhof_check", "amenability.schikhof_check",
     None),
    ("padicamen.amenability", "virtual_diagonal_construct",
     "amenability.virtual_diagonal_construct", None),
    ("padicamen.amenability", "diagonal_ideal_identity",
     "amenability.diagonal_ideal_identity", None),
    ("padicamen.amenability", "mean_from_diagonal",
     "amenability.mean_from_diagonal", None),
    ("padicamen.amenability", "stock_bimodules", "amenability.stock_bimodules",
     None),
    ("padicamen.amenability", "Bimodule.__init__", "amenability.Bimodule",
     None),
    ("padicamen.amenability", "derivation_spaces",
     "amenability.derivation_spaces", "unknowns"),
    ("padicamen.amenability", "render_json", "cli.render_json",
     "document_bytes"),
    ("padicamen.exact_linalg", "Echelon.add_row", "exact_linalg.Echelon.add_row",
     "useful_rows"),
    ("padicamen.exact_linalg", "kernel_basis_sparse",
     "exact_linalg.kernel_basis_sparse", None),
    ("padicamen.exact_linalg", "solve_augmented",
     "exact_linalg.solve_augmented", None),
    ("padicamen.exact_linalg", "spans_equal", "exact_linalg.spans_equal", None),
    ("padicamen.finite_group", "from_spec", "finite_group.from_spec", None),
    ("padicamen.finite_group", "enumerate_subgroups",
     "finite_group.enumerate_subgroups", "subgroups"),
    ("padicamen.group_algebra", "convolve", "group_algebra.convolve", None),
    ("padicamen.group_algebra", "i0_identity", "group_algebra.i0_identity",
     None),
]

# functools.lru_cache exposes these on the cached function; the wrapper
# forwards them so callers (and the trace summary) can still reach them
_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


class Tracer:
    """Install wrappers around TARGETS, collect spans, restore on exit."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, int] = {
            "relations": 0, "unknowns": 0, "document_bytes": 0,
            "useful_rows": 0, "subgroups": 0,
        }
        self.missing: List[str] = []
        self._stack: List[float] = []
        self._seen_relations: List[object] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._cached: Optional[Callable] = None

    # -- result hooks: counts measured where the work happens ------------
    def _hook(self, name: Optional[str], result) -> None:
        if name is None:
            return
        c = self.counters
        if name == "relations":
            # a cached call hands back the same tuple; count each built
            # relation set once
            rels = result[0]
            if not any(rels is seen for seen in self._seen_relations):
                self._seen_relations.append(rels)
                c["relations"] += len(rels)
        elif name == "unknowns":
            c["unknowns"] += result.unknowns
        elif name == "document_bytes":
            c["document_bytes"] += len(result.encode("utf-8"))
        elif name == "useful_rows":
            c["useful_rows"] += bool(result)
        elif name == "subgroups":
            c["subgroups"] += len(result)

    def _wrap(self, key: str, fn: Callable, hook: Optional[str]) -> Callable:
        self.calls[key] = 0
        self.self_s[key] = 0.0
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - inner
            tracer._hook(hook, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == "padicamen" or name.startswith("padicamen."))]
        for mod_name, path, key, hook in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append("%s.%s" % (mod_name, path))
                continue
            orig = vars(owner)[attr]
            wrapper = self._wrap(key, orig, hook)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, wrapper)
            if key == "hopf.lemma2_data" and hasattr(orig, "cache_info"):
                self._cached = orig
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        for owner, attr, old in self._patches:
            if vars(owner)[attr] is not old:
                raise RuntimeError("tracer failed to restore %r.%s"
                                   % (owner, attr))
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Plain-data snapshot: per-span calls and self time, counters,
        and the lru_cache statistics of lemma2_data when it has them."""
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "counters": dict(self.counters), "missing": list(self.missing),
               "cache": {"hits": 0, "misses": 0}}
        if self._cached is not None:
            info = self._cached.cache_info()
            out["cache"] = {"hits": info.hits, "misses": info.misses}
        return out
