"""One workload in a fresh interpreter; started by ``run.py``, not by hand.

    python3 perfbench/worker.py '<json: workload, seed, seconds, trace, size, out>'

The process imports slqkit, sets the workload up and reports the monotonic
clock at that moment, so the parent can time set-up from its own spawn.
With ``seconds == 0`` it stops there.  Otherwise it runs whole rounds until
``seconds`` have passed (at least one) and prints one JSON object as its
last line: round times, operations, outputs and its own peak RSS.

A traced worker runs untraced rounds for half the time, then installs the
tracer and runs traced rounds for the other half and one memory round (see
``spans.py``); the difference of the untraced and traced medians is the
tracing overhead.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads  # imports numpy and slqkit: part of set-up


def _run_rounds(round_fn, seconds: float):
    times, ops, outputs = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        round_ops, out = round_fn()
        times.append(time.perf_counter() - t0)
        ops.extend(round_ops)
        outputs.append(out)
        if time.perf_counter() - start >= seconds:
            return times, ops, outputs


def main(spec: dict) -> dict:
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(spec["workload"], spec["seed"], spec["size"],
                              out / spec["workload"])
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if spec["seconds"] == 0:
        return result
    if not spec["trace"]:
        times, ops, outputs = _run_rounds(workload.round, spec["seconds"])
    else:
        from spans import Tracer

        times, ops, outputs = _run_rounds(workload.round, spec["seconds"] / 2.0)
        tracer = Tracer()
        tracer.install()

        def traced_round(memory=False):
            tracer.begin_round(memory)
            try:
                round_ops, round_out = workload.round()
            finally:
                tracer.end_round()
            tracer.count("cli.artifact_bytes", round_out.get("artifact_bytes", 0))
            return round_ops, round_out

        t_times, t_ops, t_outputs = _run_rounds(traced_round, spec["seconds"] / 2.0)
        m_ops, m_out = traced_round(memory=True)
        tracer.uninstall()
        t_ops += m_ops
        t_outputs.append(m_out)
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = statistics.median(t_times) - statistics.median(times)
        tracer.dump(out / f"{spec['workload']}-seed{spec['seed']}-spans.json.gz",
                    {"workload": spec["workload"], "seed": spec["seed"],
                     "untraced_round_s": times, "traced_round_s": t_times})
        result["layers"] = layers
        result["traced_round_s"] = t_times
        result["traced_outputs"] = t_outputs
        ops += t_ops
    result.update({
        "known_faults": sorted(workloads.KNOWN_FAULTS.get(spec["workload"], ())),
        "round_s": times,
        "ops": ops,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    })
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
