"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench -q

They check that tracing leaves every output unchanged, that each
independent recomputation in ``checks.py`` agrees with slqkit, and that the
metric names the benchmark prints are exactly those ``BENCHMARK.json``
declares.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import slqkit  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402

SEED = 7


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output(name, tmp_path):
    workload = workloads.make(name, SEED, "tiny", tmp_path / name)
    originals = (slqkit.riccati.pinv, slqkit.CoefficientModel.coeff, slqkit.cli.run)
    plain_ops, plain = workload.round()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        traced_ops, traced = workload.round()
        tracer.end_round()
        tracer.begin_round(memory=True)
        memory_ops, memory = workload.round()
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert traced == plain and memory == plain
    assert traced_ops == plain_ops == memory_ops
    layers = tracer.layer_metrics()
    assert set(layers) == {k for k, _ in LAYER_METRICS} - {"trace.overhead_s"}
    expected = {
        "example1-cli": ("cli.run.self_s", "evaluate.optimality_sweep.alloc_peak_mb",
                         "problem.example1_y.calls"),
        "counterexample-probe": ("evaluate.counterexample_divergence_probe.cpu_s",
                                 "problem.counterexample_paths.alloc_peak_mb"),
        "deterministic-oracle": ("pinv.pinv.calls", "riccati.discrete_recursion_oracle.calls",
                                 "evaluate.simulate_closed_loop.calls"),
        "regression-fit": ("riccati.solve_bsre_regression.alloc_peak_mb",
                           "grid.sample_brownian.path_steps"),
    }[name]
    assert all(layers[k] > 0 for k in expected)
    assert (slqkit.riccati.pinv, slqkit.CoefficientModel.coeff, slqkit.cli.run) == originals


def test_decomps_per_matrix_counts_the_trio():
    workload = workloads.make("deterministic-oracle", SEED, "tiny", None)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        workload.round()
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["pinv.decomps_per_matrix"] == 3.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_only_known_faults_fail(name, tmp_path):
    ops, _ = workloads.make(name, SEED, "tiny", tmp_path / name).round()
    failed = {op for op, ok in ops if not ok}
    assert failed <= workloads.KNOWN_FAULTS.get(name, set())


def test_brownian_paths_match_sample_brownian():
    grid = slqkit.make_grid(1.0, 48)
    batch = slqkit.sample_brownian(grid, 37, seed=SEED)
    assert np.array_equal(checks.brownian_paths(1.0, 48, 37, SEED), batch.W)


def test_example1_gain_norm_matches_synthesized_law():
    grid = slqkit.make_grid(1.0, 64)
    batch = slqkit.sample_brownian(grid, 200, seed=SEED)
    sol = slqkit.closed_form_example1(grid, batch)
    law = slqkit.synthesize(sol, slqkit.scenario_example1(1.0))
    got = slqkit.regularity_diagnostics(law, grid).pathwise_sqnorm
    want = checks.example1_theta_sqnorm(1.0, batch.W)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert abs(sol.P.values[0, 0, 0, 0] - checks.EX1_P0) <= 1e-12


def test_counterexample_stats_match_probe_and_paths():
    N, P = 128, 300
    probe = slqkit.counterexample_divergence_probe(1.0, [N], [P], SEED)
    ref = checks.counterexample_stats(1.0, checks.brownian_paths(1.0, N, P, SEED))
    for key, value in ref.items():
        assert checks.rel_close(getattr(probe.rows[0], key), value, 1e-12), key
    grid = slqkit.make_grid(1.0, N)
    aux = slqkit.counterexample_paths(grid, slqkit.sample_brownian(grid, P, SEED))
    assert ref["min_Y"] == float(aux.Y.min()) and ref["max_Y"] == float(aux.Y.max())


def test_harmonic_number_is_the_singular_sum():
    for N in (16, 256, 4096):
        grid = slqkit.make_grid(1.0, N)
        assert math.isclose(grid.h * np.sum(1.0 / (1.0 - grid.points[:N])),
                            checks.harmonic(N), rel_tol=1e-12)


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert set(results) == set(workloads.WORKLOADS)
    declared = _declared()[trace]
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regression-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
