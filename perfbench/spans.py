"""Outside-in span recorder for slqkit's layers.

:class:`Tracer` rebinds slqkit's public functions, in the benchmark's own
process only, to wrappers that record one span per call: its name, start,
end, parent span and the workload round it belongs to.  Heavy spans also
take CPU time and, in memory rounds only, the ``tracemalloc`` peak;
fine-grained spans (coefficient evaluation, the pseudoinverse predicates)
take only time, because they run hundreds of thousands of times per round.
``tracemalloc`` slows every allocation while it traces, so times come from
rounds without it and allocation peaks from rounds with it.  Spans stay in memory; the
per-layer metrics, self time included, are computed from them at the end.
Nothing under ``src/`` is edited, and untraced runs never construct a
:class:`Tracer`.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import statistics
import sys
import time
import tracemalloc
from array import array
from functools import wraps

# (span name, module that defines it, attribute, heavy)
TARGETS = [
    ("grid.sample_brownian", "slqkit.grid", "sample_brownian", True),
    ("problem.coeff", "slqkit.problem", "CoefficientModel.coeff", False),
    ("problem.terminal", "slqkit.problem", "CoefficientModel.terminal", False),
    ("problem.example1_y", "slqkit.problem", "example1_y", False),
    ("problem.counterexample_paths", "slqkit.problem", "counterexample_paths", True),
    ("riccati.solve_deterministic", "slqkit.riccati", "solve_deterministic", False),
    ("riccati.discrete_recursion_oracle", "slqkit.riccati", "discrete_recursion_oracle", False),
    ("riccati.solve_bsre_regression", "slqkit.riccati", "solve_bsre_regression", True),
    ("riccati.closed_form_example1", "slqkit.riccati", "closed_form_example1", False),
    ("pinv.pinv", "slqkit.pinv", "pinv", False),
    ("pinv.psd_check", "slqkit.pinv", "psd_check", False),
    ("pinv.range_inclusion", "slqkit.pinv", "range_inclusion", False),
    ("feedback.synthesize", "slqkit.feedback", "synthesize", True),
    ("feedback.regularity_diagnostics", "slqkit.feedback", "regularity_diagnostics", False),
    ("feedback.stationarity_residual", "slqkit.feedback", "stationarity_residual", False),
    ("evaluate.simulate_closed_loop", "slqkit.evaluate", "simulate_closed_loop", False),
    ("evaluate.simulate_open_loop", "slqkit.evaluate", "simulate_open_loop", False),
    ("evaluate.cost", "slqkit.evaluate", "cost", False),
    ("evaluate.value_identity_check", "slqkit.evaluate", "value_identity_check", False),
    ("evaluate.completion_of_squares_check", "slqkit.evaluate", "completion_of_squares_check", False),
    ("evaluate.optimality_sweep", "slqkit.evaluate", "optimality_sweep", True),
    ("evaluate.counterexample_divergence_probe", "slqkit.evaluate",
     "counterexample_divergence_probe", True),
    ("cli.run", "slqkit.cli", "run", False),
]

# Per-layer metrics reported by a traced run, with their units.  A metric of
# a layer that does not run on a workload reads 0.
LAYER_METRICS = [
    ("grid.sample_brownian.self_s", "s"),
    ("grid.sample_brownian.cpu_s", "s"),
    ("grid.sample_brownian.alloc_peak_mb", "MB"),
    ("grid.sample_brownian.path_steps", "count"),
    ("problem.coeff.calls", "count"),
    ("problem.coeff.self_s", "s"),
    ("problem.terminal.calls", "count"),
    ("problem.terminal.self_s", "s"),
    ("problem.terminal.evals_per_batch", "ratio"),
    ("problem.example1_y.calls", "count"),
    ("problem.example1_y.self_s", "s"),
    ("problem.counterexample_paths.self_s", "s"),
    ("problem.counterexample_paths.alloc_peak_mb", "MB"),
    ("riccati.solve_deterministic.calls", "count"),
    ("riccati.solve_deterministic.self_s", "s"),
    ("riccati.discrete_recursion_oracle.calls", "count"),
    ("riccati.discrete_recursion_oracle.self_s", "s"),
    ("riccati.solve_bsre_regression.self_s", "s"),
    ("riccati.solve_bsre_regression.alloc_peak_mb", "MB"),
    ("riccati.closed_form_example1.self_s", "s"),
    ("pinv.pinv.calls", "count"),
    ("pinv.pinv.self_s", "s"),
    ("pinv.psd_check.calls", "count"),
    ("pinv.psd_check.self_s", "s"),
    ("pinv.range_inclusion.calls", "count"),
    ("pinv.range_inclusion.self_s", "s"),
    ("pinv.decomps_per_matrix", "ratio"),
    ("feedback.synthesize.self_s", "s"),
    ("feedback.synthesize.alloc_peak_mb", "MB"),
    ("feedback.regularity_diagnostics.self_s", "s"),
    ("feedback.stationarity_residual.self_s", "s"),
    ("evaluate.simulate_closed_loop.calls", "count"),
    ("evaluate.simulate_closed_loop.self_s", "s"),
    ("evaluate.simulate_open_loop.calls", "count"),
    ("evaluate.simulate_open_loop.self_s", "s"),
    ("evaluate.euler_path_steps", "count"),
    ("evaluate.cost.calls", "count"),
    ("evaluate.cost.self_s", "s"),
    ("evaluate.value_identity_check.self_s", "s"),
    ("evaluate.completion_of_squares_check.self_s", "s"),
    ("evaluate.optimality_sweep.self_s", "s"),
    ("evaluate.optimality_sweep.alloc_peak_mb", "MB"),
    ("evaluate.counterexample_divergence_probe.self_s", "s"),
    ("evaluate.counterexample_divergence_probe.cpu_s", "s"),
    ("evaluate.counterexample_divergence_probe.alloc_peak_mb", "MB"),
    ("cli.run.self_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

ROUND_SPAN = "round"


def _euler_path_steps(tracer, a):
    batch = a["batch"]
    tracer.count("evaluate.euler_path_steps",
                 (batch.grid.N - a["init"].start_index) * batch.n_paths)


# Counters taken from a call's bound arguments.  Solvability-checked
# matrices: solve_deterministic checks K at every RK4 stage (4 substeps x 4
# stages per grid step), the recursion checks H once per step, and
# synthesize checks K at every (time, path) sample.
HOOKS = {
    "riccati.solve_deterministic":
        lambda tracer, a: tracer.count("checked_matrices", 16 * a["grid"].N),
    "riccati.discrete_recursion_oracle":
        lambda tracer, a: tracer.count("checked_matrices", a["grid"].N),
    "feedback.synthesize":
        lambda tracer, a: tracer.count("checked_matrices",
                                       math.prod(a["sol"].K.values.shape[:2])),
    "grid.sample_brownian":
        lambda tracer, a: tracer.count("grid.sample_brownian.path_steps",
                                       int(a["n_paths"]) * a["grid"].N),
    "evaluate.simulate_closed_loop": _euler_path_steps,
    "evaluate.simulate_open_loop": _euler_path_steps,
    "problem.terminal": lambda tracer, a: tracer.see_batch(a["W_full"]),
}


class Tracer:
    """Records spans around slqkit's public functions once installed.

    ``install()`` rebinds every target in its defining module and wherever
    another slqkit module imported it by name; ``uninstall()`` restores the
    originals.  ``begin_round``/``end_round`` bracket one workload round in
    a root span so that spans carry the round they belong to.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_round = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cpu: dict[int, float] = {}
        self.alloc: dict[int, int] = {}
        self.counters: list[dict] = []
        self.memory_rounds: list[bool] = []
        self.memory = False
        self._batches: dict[int, object] = {}
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self._round = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr, heavy in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._rebind(owner, meth, self._wrap(name, orig, heavy))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, heavy)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "slqkit" or mod_name.startswith("slqkit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_round.append(self._round)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        for entry in self._mem_stack:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([cur, cur])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, running = self._mem_stack.pop()
        top = max(running, peak)
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], top)
        else:
            tracemalloc.stop()
        return top - base

    def _wrap(self, name: str, fn, heavy: bool):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs).arguments)
            memory = heavy and self.memory
            if memory:
                self._mem_enter()
            cpu0 = time.process_time() if heavy else 0.0
            sid = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                if heavy:
                    self.cpu[sid] = time.process_time() - cpu0
                if memory:
                    self.alloc[sid] = self._mem_exit()
        return wrapper

    def see_batch(self, W) -> None:
        """Note a path array passed to the terminal weight; it is held until
        the round ends so that distinct arrays keep distinct ids."""
        self._batches[id(W)] = W

    def count(self, key: str, value: int) -> None:
        """Add ``value`` to counter ``key`` of the current round."""
        counters = self.counters[-1]
        counters[key] = counters.get(key, 0) + value

    def begin_round(self, memory: bool = False) -> None:
        """Open round spans; with ``memory`` heavy spans take their
        ``tracemalloc`` peak."""
        self.memory = memory
        self.memory_rounds.append(memory)
        self._round += 1
        self.counters.append({})
        self._open(self._name_id(ROUND_SPAN))

    def end_round(self) -> None:
        self._close(self._stack[-1])
        self.counters[-1]["distinct_batches"] = len(self._batches)
        self._batches = {}

    # -- results ----------------------------------------------------------

    def round_metrics(self) -> list[dict]:
        """Per-layer metrics of each traced round, computed from the spans."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += dur[sid]
        aggs: list[dict] = [{} for _ in self.counters]
        for sid in range(n):
            a = aggs[self.span_round[sid]].setdefault(
                self.names[self.span_name[sid]],
                {"calls": 0, "self_s": 0.0, "cpu_s": 0.0, "alloc": 0})
            a["calls"] += 1
            a["self_s"] += dur[sid] - child[sid]
            a["cpu_s"] += self.cpu.get(sid, 0.0)
            a["alloc"] = max(a["alloc"], self.alloc.get(sid, 0))
        return [_layer_values(agg, counters) for agg, counters in zip(aggs, self.counters)]

    def layer_metrics(self) -> dict:
        """Median over rounds of each per-layer metric: allocation peaks from
        memory rounds, everything else from the other rounds.  A count that
        repeats exactly in every round is reported as that count."""
        rounds = self.round_metrics()
        out = {}
        for key in rounds[0]:
            memory = key.endswith(".alloc_peak_mb")
            values = ([r[key] for r, mem in zip(rounds, self.memory_rounds) if mem == memory]
                      or [r[key] for r in rounds])
            out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span, the round counters and ``meta`` as one gzipped
        JSON file."""
        payload = {
            "meta": meta,
            "names": self.names,
            "counters": self.counters,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "round": self.span_round.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "cpu_s": {str(k): v for k, v in self.cpu.items()},
                "alloc_peak_bytes": {str(k): v for k, v in self.alloc.items()},
            },
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _layer_values(agg: dict, counters: dict) -> dict:
    def get(span, field):
        return agg.get(span, {}).get(field, 0)

    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = get(span, "calls")
        elif field in ("self_s", "cpu_s"):
            out[metric] = get(span, field)
        elif field == "alloc_peak_mb":
            out[metric] = get(span, "alloc") / 1e6
    out["grid.sample_brownian.path_steps"] = counters.get("grid.sample_brownian.path_steps", 0)
    out["evaluate.euler_path_steps"] = counters.get("evaluate.euler_path_steps", 0)
    batches = counters.get("distinct_batches", 0)
    out["problem.terminal.evals_per_batch"] = (
        get("problem.terminal", "calls") / batches if batches else 0.0)
    checked = counters.get("checked_matrices", 0)
    decomps = get("pinv.pinv", "calls") + get("pinv.psd_check", "calls")
    out["pinv.decomps_per_matrix"] = decomps / checked if checked else 0.0
    out["cli.artifact_bytes"] = counters.get("cli.artifact_bytes", 0)
    return out

