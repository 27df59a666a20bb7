"""slqkit's benchmark: four verification workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; slqkit is imported from ``src/``.
Each workload runs in fresh interpreters started one after another, never in
parallel, with BLAS and OpenMP pinned to one thread:

* set-up is timed in ``SETUP_SAMPLES`` set-up-only interpreters, half
  before and half after the measuring one, and in the measuring one, from
  spawn until the inputs are ready; ``setup_s`` is the median;
* the measuring interpreter runs whole rounds for ``--seconds``;
  ``wall_s`` is the median round, ``peak_rss_mb`` its peak resident set.

With ``--trace 1`` the per-layer metrics of a traced interpreter are
reported instead (see ``spans.py``).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine and versions.  With
``--workload all`` every workload runs in turn and the last line maps each
workload to its result.  Run files and CLI artifacts go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("example1-cli", "counterexample-probe", "deterministic-oracle", "regression-fit")
SETUP_SAMPLES = 4
# Each workload must end well inside three minutes, whatever happens in a
# worker.
DEADLINE_S = 170.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("OUTPUT_DIR", None)  # the CLI would write there instead
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(spec: dict, timeout: float) -> tuple[float, dict]:
    """Run one worker; return its spawn time (monotonic) and its result."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {spec['workload']} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return t0, json.loads(proc.stdout.splitlines()[-1])


def _environment() -> dict:
    import numpy as np  # only for its version; the parent runs no numerical work

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
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


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 deadline: float) -> dict:
    spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size, "out": str(OUT)}
    setups = []

    def sample_setup():
        t0, ready = _spawn({**spec, "seconds": 0}, deadline - time.monotonic())
        setups.append(ready["ready_monotonic"] - t0)

    # Half the set-up samples are taken before the measuring interpreter and
    # half after it, so that they span the same stretch of machine load.
    for _ in range(0 if trace else SETUP_SAMPLES // 2):
        sample_setup()
    t0, res = _spawn(spec, deadline - time.monotonic())
    setups.append(res["ready_monotonic"] - t0)
    for _ in range(0 if trace else SETUP_SAMPLES - SETUP_SAMPLES // 2):
        sample_setup()

    failed = [op for op, ok in res["ops"] if not ok]
    correct = set(failed) <= set(res["known_faults"])
    if trace:
        from spans import LAYER_METRICS

        metrics = {k: {"value": res["layers"][k], "unit": unit} for k, unit in LAYER_METRICS}
        outputs = res["outputs"] + res["traced_outputs"]
        # Tracing must not change any output of the program.
        correct &= all(o == outputs[0] for o in outputs)
    else:
        values = {"wall_s": statistics.median(res["round_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    result = {"correct": bool(correct), "attempted": len(res["ops"]),
              "failed": len(failed), "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "environment": _environment(), "setup_samples_s": setups,
              "round_s": res["round_s"], "traced_round_s": res.get("traced_round_s"),
              "failed_ops": sorted(set(failed)), "outputs": res["outputs"][0],
              "result": result}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "slqkit" / "__init__.py").is_file():
        print(f"error: no slqkit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.size, time.monotonic() + DEADLINE_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = next(iter(records.values()))["environment"]
    print("environment: " + json.dumps(env))
    for name, rec in records.items():
        res = rec["result"]
        shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()
                          if k in dict(END_TO_END) or k == "trace.overhead_s")
        print(f"{name}: {shown}  attempted={res['attempted']} failed={res['failed']}"
              f" correct={res['correct']}")
    if args.workload == "all":
        print(json.dumps({name: rec["result"] for name, rec in records.items()}))
    else:
        print(json.dumps(records[args.workload]["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
