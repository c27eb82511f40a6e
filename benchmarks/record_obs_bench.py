"""Record observability overhead into BENCH_obs.json.

Usage::

    PYTHONPATH=src python benchmarks/record_obs_bench.py [--repeats N]
    PYTHONPATH=src python benchmarks/record_obs_bench.py --mode fleet

``--mode sim`` (the default) runs the scaled pause-0 scenario (the
repo's standard full-run workload) under increasing levels of
observation and records the wall time of each mode, best of N:

* **plain** — no observability objects at all (the baseline);
* **obs_off** — an `Observability()` facade attached with nothing
  enabled: must cost nothing, pinning the zero-cost-when-off claim;
* **metrics_on** — `IntervalMetrics` at a 5 s cadence;
* **profile_on** — the engine profiler (per-callback wall-clock timing);
* **full_trace** — a wildcard jsonl `TraceFileWriter`, the most
  expensive mode (every guarded emit fires and is serialized).

Two gates make this a regression test, not just a stopwatch:

1. every mode's `SimulationResult` must be **bit-identical** to the
   plain baseline (observation never changes simulation metrics);
2. the `obs_off` overhead versus `plain` must stay **under 2 %** —
   attaching the facade without enabling anything may not tax the
   hot path (TRC001 guarded emits stay one dict lookup).

The enabled modes' overheads are recorded for tracking but not gated:
they do real extra work by design and their cost is hardware-dependent.

``--mode fleet`` measures the *fleet tracing* layer instead: a
coordination-dominated service job (many trivial tasks, so the service
machinery is the whole wall) run three ways — no tracer at all, a
disabled :class:`~repro.obs.fleet.FleetTracer`, and tracing on.  Gates:
job results identical across the three, and the **disabled** tracer's
overhead versus no-tracer stays under 2 %.  The fleet section merges
into the same BENCH_obs.json next to the sim report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import Observability  # noqa: E402
from repro.scenarios.builder import build_simulation  # noqa: E402
from repro.scenarios.presets import scaled_scenario  # noqa: E402
from repro.sim.tracefile import TraceFileWriter  # noqa: E402

DISABLED_BUDGET_PCT = 2.0


def _config():
    return scaled_scenario(pause_time=0.0, seed=1)


def _run_plain():
    return build_simulation(_config()).run()


def _run_obs_off():
    handle = build_simulation(_config())
    obs = Observability().attach(handle)
    return obs.run(handle)


def _run_metrics_on():
    handle = build_simulation(_config())
    obs = Observability(metrics_interval=5.0).attach(handle)
    return obs.run(handle)


def _run_profile_on():
    handle = build_simulation(_config())
    obs = Observability(profile=True).attach(handle)
    return obs.run(handle)


def _make_full_trace(trace_dir: Path):
    def run():
        handle = build_simulation(_config())
        with TraceFileWriter(handle.tracer, trace_dir / "run.jsonl", fmt="jsonl"):
            return handle.run()

    return run


def _best_of(fn, repeats: int):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    return best, result


# -- fleet tracing mode ------------------------------------------------------

FLEET_SCENARIOS = 1000
# A host's CPU-time noise floor is a few percent per run and drifts
# slowly; many short, tightly paired iterations let the trimmed-mean
# estimator resolve a 2% gate that a best-of-a-few cannot.
FLEET_MIN_REPEATS = 36


def _fleet_task(payload):
    """A trivial deterministic task: the service machinery IS the wall."""
    from repro.metrics.collector import SimulationResult

    seed = int(payload["seed"])
    return SimulationResult(
        duration=float(payload["duration"]),
        data_sent=100 + seed,
        data_received=90 + seed,
        duplicate_deliveries=0,
        delay_sum=0.5 * seed,
        mac_control_tx=10,
        routing_tx=20 + seed,
        data_tx=200,
        mac_failures=0,
        ifq_drops=0,
        rreq_sent=5,
        replies_received=4,
        good_replies=4,
        cache_replies_received=1,
        replies_sent_from_cache=1,
        replies_sent_from_target=3,
        cache_hits=2,
        invalid_cache_hits=0,
        link_breaks=1,
        salvages=0,
        throughput_kbps=8.0 + seed,
    )


def _fleet_payloads():
    from repro.scenarios.config import ScenarioConfig
    from repro.scenarios.io import scenario_to_dict

    return [
        scenario_to_dict(
            ScenarioConfig(
                num_nodes=10,
                field_width=500.0,
                field_height=300.0,
                duration=12.0,
                num_sessions=3,
                pause_time=0.0,
                seed=seed,
            )
        )
        for seed in range(1, FLEET_SCENARIOS + 1)
    ]


def _run_fleet_once(tracer_factory, payloads):
    """One service job over trivial tasks; returns (cpu_s, wall_s, results).

    Serial worker, no result cache: the job is the queue/dispatch/trace
    machinery and nothing else, and ``time.process_time`` (CPU across
    all threads) stays steady where wall clock jitters on a busy host.
    GC is fenced out of the timed region — its pauses land on whichever
    mode happens to trip the threshold.
    """
    import gc

    from repro.service.core import SimulationService

    service = SimulationService(
        workers=1, task_fn=_fleet_task, tracer=tracer_factory()
    )
    service.start()
    gc.collect()
    gc.disable()
    try:
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        job = service.submit([dict(payload) for payload in payloads])
        service.wait(job.id, timeout=300.0)
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - wall_start
        results = service.job_results(job.id)
    finally:
        gc.enable()
        service.drain(grace_s=10.0)
    return cpu, wall, results


def _fleet_report(repeats: int):
    from repro.obs.fleet import FleetTracer

    modes = [
        ("untraced", lambda: None),
        ("trace_off", lambda: FleetTracer(proc="bench", enabled=False)),
        ("trace_on", lambda: FleetTracer(proc="bench")),
    ]
    payloads = _fleet_payloads()
    cpus = {}
    walls = {}
    results = {}
    ratios = {name: [] for name, _ in modes if name != "untraced"}
    _run_fleet_once(lambda: None, payloads)  # warmup: imports, allocator
    # Pair each traced run with the untraced run from the same iteration
    # (paired CPU ratios cancel host drift a best-of-N cannot), and
    # rotate the in-iteration order so the systematic back-to-back-run
    # slowdown lands on every mode equally.  A multiple of len(modes)
    # iterations keeps the rotation balanced; the trimmed mean then
    # cancels the positional bias to first order.
    iterations = -(-max(repeats, FLEET_MIN_REPEATS) // len(modes)) * len(modes)
    for index in range(iterations):
        iteration = {}
        order = modes[index % len(modes):] + modes[: index % len(modes)]
        for name, factory in order:
            cpu, wall, res = _run_fleet_once(factory, payloads)
            iteration[name] = cpu
            cpus[name] = min(cpus.get(name, cpu), cpu)
            walls[name] = min(walls.get(name, wall), wall)
            results[name] = res
        for name in ratios:
            ratios[name].append(iteration[name] / iteration["untraced"])
    for name, _factory in modes:
        print(f"{name:<12} cpu {cpus[name]:.3f} s   wall {walls[name]:.3f} s")

    baseline = results["untraced"]
    for name, result in results.items():
        if result != baseline:
            raise SystemExit(
                f"fleet mode {name!r} changed job results — tracing must "
                "never touch simulation output"
            )
    def _trimmed_mean(values):
        trim = len(values) // 6  # drop the noisiest ~17% from each tail
        middle = sorted(values)[trim:-trim] if trim else sorted(values)
        return statistics.fmean(middle)

    overheads = {
        name: round(100.0 * (_trimmed_mean(values) - 1.0), 2)
        for name, values in ratios.items()
    }
    if overheads["trace_off"] >= DISABLED_BUDGET_PCT:
        raise SystemExit(
            f"disabled-tracer overhead {overheads['trace_off']:.2f}% "
            f"exceeds the {DISABLED_BUDGET_PCT}% budget"
        )
    return {
        "benchmark": (
            f"fleet tracing overhead ({FLEET_SCENARIOS} trivial tasks, "
            "serial dispatch, no cache)"
        ),
        "repeats": iterations,
        "cpu_s": {name: round(cpu, 3) for name, cpu in cpus.items()},
        "wall_s": {name: round(wall, 3) for name, wall in walls.items()},
        "overhead_pct_vs_untraced": overheads,
        "disabled_budget_pct": DISABLED_BUDGET_PCT,
        "results_identical_across_modes": True,
        "note": (
            "overheads are the trimmed mean of per-iteration paired CPU "
            "ratios under a rotated mode order: trace_off is gated (<2%) — "
            "a constructed-but-disabled FleetTracer may not tax the "
            "dispatch path; trace_on does real span bookkeeping and is "
            "tracked, not gated."
        ),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N walls")
    parser.add_argument(
        "--mode",
        choices=("sim", "fleet"),
        default="sim",
        help="sim: per-run observability overhead (default); "
        "fleet: service tracing overhead",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_obs.json",
    )
    args = parser.parse_args()

    if args.mode == "fleet":
        report = _fleet_report(args.repeats)
        doc = {}
        if args.output.exists():
            doc = json.loads(args.output.read_text())
        doc["fleet"] = report
        args.output.write_text(json.dumps(doc, indent=2) + "\n")
        print(json.dumps(report["overhead_pct_vs_untraced"], indent=2))
        print(f"wrote {args.output}")
        return

    import tempfile

    with tempfile.TemporaryDirectory(prefix="obs-bench-trace-") as trace_dir:
        modes = [
            ("plain", _run_plain),
            ("obs_off", _run_obs_off),
            ("metrics_on", _run_metrics_on),
            ("profile_on", _run_profile_on),
            ("full_trace", _make_full_trace(Path(trace_dir))),
        ]
        walls = {}
        results = {}
        for name, fn in modes:
            walls[name], results[name] = _best_of(fn, args.repeats)
            print(f"{name:<12} {walls[name]:.3f} s")

    baseline = results["plain"]
    for name, result in results.items():
        if result != baseline:
            raise SystemExit(
                f"mode {name!r} changed simulation metrics — the "
                "observability layer must be bit-identical"
            )

    overheads = {
        name: round(100.0 * (walls[name] / walls["plain"] - 1.0), 2)
        for name in walls
        if name != "plain"
    }
    if overheads["obs_off"] >= DISABLED_BUDGET_PCT:
        raise SystemExit(
            f"disabled-observability overhead {overheads['obs_off']:.2f}% "
            f"exceeds the {DISABLED_BUDGET_PCT}% budget"
        )

    config = _config()
    report = {
        "benchmark": "observability overhead (scaled pause-0 full run)",
        "scenario": {
            "num_nodes": config.num_nodes,
            "duration_s": config.duration,
            "pause_time_s": config.pause_time,
            "seed": config.seed,
        },
        "repeats": args.repeats,
        "wall_s": {name: round(wall, 3) for name, wall in walls.items()},
        "overhead_pct_vs_plain": overheads,
        "disabled_budget_pct": DISABLED_BUDGET_PCT,
        "metrics_identical_across_modes": True,
        "note": (
            "obs_off is gated (<2%): an attached-but-idle facade may not tax "
            "the hot path. metrics_on/profile_on/full_trace do real extra "
            "work and are tracked, not gated."
        ),
    }
    if args.output.exists():
        previous = json.loads(args.output.read_text())
        if "fleet" in previous:
            report["fleet"] = previous["fleet"]
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(overheads, indent=2))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
