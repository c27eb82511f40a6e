"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

They use the 12-node tiny preset so they finish in seconds; the
workloads themselves are exercised by running ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.scenarios.io import scenario_canonical_json  # noqa: E402
from repro.scenarios.presets import tiny_scenario  # noqa: E402


def tiny(seed: int = 1):
    return [tiny_scenario(seed=seed).but(duration=15.0)]


def traced_tiny(seed: int = 1):
    trace = layers.LayerTrace()
    iteration = workloads.run_simulations(tiny(seed), trace)
    return trace, iteration


@pytest.mark.parametrize("workload", sorted(workloads.SIM_WORKLOADS))
def test_generated_workloads_are_identical_for_a_seed(workload):
    first = [scenario_canonical_json(c) for c in workloads.workload_configs(workload, 7)]
    again = [scenario_canonical_json(c) for c in workloads.workload_configs(workload, 7)]
    other = [scenario_canonical_json(c) for c in workloads.workload_configs(workload, 8)]
    assert first == again
    assert first != other


def test_quick_sweep_passes_overlap_by_half():
    assert workloads.quick_sweep_seeds(5) == workloads.quick_sweep_seeds(5)
    first, second = workloads.quick_sweep_seeds(5)
    assert len(set(first) & set(second)) == len(first) // 2


def test_every_pool_scenario_has_a_golden():
    goldens = run.load_goldens()
    for workload, pool in workloads.SCENARIO_POOLS.items():
        assert sorted(int(key) for key in goldens[workload]) == sorted(pool)


def test_corrupted_golden_makes_a_run_count_as_failed():
    iteration = workloads.run_simulations(tiny())
    good = iteration.digest
    assert run.check_iterations(workloads, "t", 1, [iteration], good)[:3] == (1, 0, [])
    corrupted = ("0" if good[0] != "0" else "1") + good[1:]
    attempted, failed, problems, _ = run.check_iterations(
        workloads, "t", 1, [iteration], corrupted
    )
    assert (attempted, failed) == (1, 1)
    assert "golden" in problems[0]


def test_record_golden_replaces_a_corrupted_golden(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.SIM_WORKLOADS, "static_load", tiny)
    monkeypatch.setattr(run, "GOLDENS", tmp_path / "goldens.json")
    good = workloads.run_simulations(tiny(workloads.scenario_seed("static_load", 1))).digest
    corrupted = ("0" if good[0] != "0" else "1") + good[1:]
    run.record_golden("static_load", workloads.golden_key("static_load", 1), corrupted)
    argv = ["--workload", "static_load", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    assert run.main(argv) == 1
    assert run.main(argv + ["--record-golden"]) == 0
    assert run.golden_for(workloads, run.parse_args(argv)) == good
    assert run.main(argv) == 0


def test_tail_percentile_leaves_ten_samples_beyond_it():
    assert layers.tail_percentile(72) == 75
    assert layers.tail_percentile(1000) == 99
    assert layers.tail_percentile(5) == 50
    for count in (72, 200, 1000):
        q = layers.tail_percentile(count)
        values = list(range(count))
        assert sum(v > layers._percentile(values, q) for v in values) >= 10


def test_broken_invariant_fails_the_check():
    result = workloads.run_simulations(tiny()).results[0]
    broken = type(result)(**{**result.__dict__, "data_received": result.data_sent + 1})
    assert any("data_received" in e for e in workloads.invariant_errors(broken))
    assert workloads.invariant_errors(result) == []


def test_tracing_does_not_perturb_the_simulation():
    plain = workloads.run_simulations(tiny())
    _, traced = traced_tiny()
    assert traced.digest == plain.digest


def test_two_traced_runs_give_identical_counts():
    first, _ = traced_tiny()
    second, _ = traced_tiny()
    assert first.calls == second.calls
    assert first.extra == second.extra
    assert first.calls["phy.Channel.transmit"] > 0
    assert first.extra["sim.events"] > 0


def test_tracing_is_removed_afterwards():
    from repro.phy.radio import Radio
    from repro.scenarios import builder

    before = (Radio.energy_start, builder.build_simulation)
    traced_tiny()
    assert (Radio.energy_start, builder.build_simulation) == before


def test_layer_self_times_sum_to_the_traced_wall():
    plain = workloads.run_simulations(tiny())
    trace, traced = traced_tiny()
    overhead = traced.wall_s - (plain.wall_s + plain.build_s)
    accounted = sum(trace.self_s.values())
    assert abs(traced.wall_s - accounted) <= max(overhead, 0.0) + 0.01
    assert accounted <= traced.wall_s


def test_analysis_metrics_are_zero_outside_the_sweep():
    trace, traced = traced_tiny()
    values = layers.layer_metrics(trace.snapshot(), traced.wall_s, traced.wall_s, [], 2)
    assert set(values) == set(layers.PER_LAYER)
    assert all(v == 0 for name, v in values.items() if name.startswith("analysis."))
    assert values["phy.visits_per_tx"] > 0


def test_sweep_check_finds_a_pass_that_recomputes():
    def stats(executed, hits, keys):
        return {
            "executed": executed,
            "cache_hits": hits,
            "deduped": 0,
            "tasks": [{"key": k, "wall_s": 0.1} for k in keys],
        }

    good = [stats(4, 0, "abcd"), stats(2, 2, "ef")]
    assert workloads.sweep_errors(good, 6) == []
    recomputed = [stats(4, 0, "abcd"), stats(2, 2, "af")]
    assert workloads.sweep_errors(recomputed, 6)
    missed_cache = [stats(4, 0, "abcd"), stats(4, 0, "efgh")]
    assert workloads.sweep_errors(missed_cache, 8)


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in run.WORKLOAD_NAMES if name in gated]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_no_process_outlives_a_run():
    # A spawn-context pool, as quick_sweep's engine starts, leaves
    # multiprocessing's resource tracker behind it.
    script = (
        "import multiprocessing, run\n"
        "with multiprocessing.get_context('spawn').Pool(1) as pool:\n"
        "    pool.map(abs, [-1])\n"
        "left = run.child_pids()\n"
        "run.stop_children()\n"
        "print(len(left), len(run.child_pids()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=BENCH,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stdout.split() == ["1", "0"], done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static_load",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
