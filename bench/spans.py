"""In-process span tracer for the benchmark's traced runs.

``Tracer.install`` replaces each traced public function of su2ladders with a
wrapper, in every su2ladders namespace that binds it (``build_taus`` is bound
in ``su2ladders.casimir``, ``su2ladders.verify`` and ``su2ladders``), and
replaces traced methods on their class.  Each wrapped call records a span
(group, start, end, parent).  Spans stay in memory and are written out once,
after the workload has finished.

A group's self time is the summed duration of its spans minus the time their
directly nested wrapped calls cover.  All spans nest inside one root span
around the whole workload, so the self times of all groups plus the root's
(``trace.unwrapped_s``: benchmark glue and library code outside any traced
function) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

ROOT = "trace.unwrapped"


def _su2_generators(tracer, bound, ret):
    tracer.counts["schwinger.j2_nnz"] += ret.J2.nnz


def _j2_decomposition(tracer, bound, ret):
    # The decomposition is built lazily once per generator set; count each
    # distinct decomposition once, however often it is asked for.
    if any(seen is ret for seen in tracer.decompositions):
        return
    tracer.decompositions.append(ret)
    counts = tracer.counts
    counts["schwinger.sectors"] += len(ret.sectors)
    for _key, idx, _vals, _vecs in ret.sectors:
        counts["schwinger.max_sector_dim"] = max(
            counts["schwinger.max_sector_dim"], len(idx))


def _assemble_tau(tracer, bound, ret):
    tracer.counts["casimir.tau_nnz"] += ret.op.nnz


def _enumerate_sector(tracer, bound, ret):
    tracer.counts["fock.dim"] += len(ret)


def _enumerate_states(tracer, bound, ret):
    args = bound.arguments
    tracer.counts["bruteforce.states_scanned"] += (
        (args["n_max"] + 1) ** (2 * args["spin"] + 1))
    tracer.counts["bruteforce.states_returned"] += len(ret)


def _run_suite(tracer, bound, ret):
    tracer.counts["verify.checks"] += len(ret.checks)
    tracer.counts["verify.checks_failed"] += ret.failed_count


#: group -> (module, attribute path of each traced callable, count hook)
GROUPS = {
    "schwinger.function_of_j": ("schwinger", (
        "Su2Generators.function_of_j", "Su2Generators.function_of_nj",
        "Su2Generators.j_hat"), None),
    "schwinger.j2_decomposition": (
        "schwinger", ("Su2Generators.j2_decomposition",), _j2_decomposition),
    "schwinger.jz_kernel": ("schwinger", ("jz_kernel",), None),
    "schwinger.su2_generators": (
        "schwinger", ("su2_generators",), _su2_generators),
    "operators.residual": ("operators", (
        "residual", "commutator_residual", "zero_residual"), None),
    "operators.matmul": ("operators", ("SparseOperator.__matmul__",), None),
    "casimir.build_families": ("casimir", ("build_families",), None),
    "casimir.build_taus": ("casimir", ("build_taus",), None),
    "casimir.assemble_tau": ("casimir", ("assemble_tau",), _assemble_tau),
    "casimir.certify_alpha": ("casimir", (
        "certify_alpha", "build_alpha_certified", "alpha_entry_deviation"),
        None),
    "casimir.resolvent_commutator_check": (
        "casimir", ("resolvent_commutator_check",), None),
    "casimir.lattice_report": ("casimir", ("lattice_report",), None),
    "casimir.complete_set_check": ("casimir", ("complete_set_check",), None),
    "bruteforce.enumerate_states": (
        "bruteforce", ("enumerate_states",), _enumerate_states),
    "bruteforce.j_multiplicities": ("bruteforce", ("j_multiplicities",), None),
    "jpoly.poly_matrix_det": ("jpoly", ("poly_matrix_det",), None),
    "ladder.right_functions": ("ladder", ("right_functions",), None),
    "ladder.solve_sigma": ("ladder", ("solve_sigma",), None),
    "ladder.checks": ("ladder", (
        "check_rlo", "check_llo", "check_power_identity",
        "check_rlo_compose"), None),
    "fock.enumerate_sector": (
        "fock", ("enumerate_sector",), _enumerate_sector),
    "verify.run_suite": ("verify", ("run_suite",), _run_suite),
}

COUNTERS = ("schwinger.sectors", "schwinger.max_sector_dim",
            "schwinger.j2_nnz", "casimir.tau_nnz", "fock.dim",
            "bruteforce.states_scanned", "bruteforce.states_returned",
            "verify.checks", "verify.checks_failed")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent index]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.decompositions: list = []
        self._stack: list[int] = []
        self._root: list = []

    def install(self) -> None:
        """Wrap every traced callable wherever su2ladders binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "su2ladders" or name.startswith("su2ladders.")]
        for group, (module, paths, hook) in GROUPS.items():
            gi = self._name_index(group)
            for path in paths:
                owner = sys.modules[f"su2ladders.{module}"]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(gi, original, hook)
                if cls_path:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, gi, fn, hook):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [gi, perf_counter(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                ret = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound, ret)
            return ret
        return wrapper

    def run(self, fn):
        """Call fn() inside the root span; return its result."""
        self._root = root = [self._name_index(ROOT), perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            return fn()
        finally:
            root[2] = perf_counter()
            self._stack.pop()

    @property
    def wall_s(self) -> float:
        return self._root[2] - self._root[1]

    def per_layer(self) -> dict[str, float]:
        """Self time and call count per group, plus the counters."""
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for gi, start, end, parent in self.spans:
            self_s[gi] += end - start
            calls[gi] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out: dict[str, float] = {}
        for gi, name in enumerate(self.names):
            if name == ROOT:
                out["trace.unwrapped_s"] = self_s[gi]
            else:
                out[f"{name}.self_s"] = self_s[gi]
                out[f"{name}.calls"] = calls[gi]
        out.update(self.counts)
        scanned = self.counts["bruteforce.states_scanned"]
        out["bruteforce.yield"] = (
            self.counts["bruteforce.states_returned"] / scanned if scanned else 0.0)
        return out

    def dump(self, path: str, workload: str, seed: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [[self.names[gi], start, end, parent]
                                 for gi, start, end, parent in self.spans]},
                      fh, separators=(",", ":"))
