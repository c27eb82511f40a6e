"""The benchmark's workloads, their output checks and their digests.

Every workload is generated from the workload seed alone, and drives the
program only through its public API: ``build_simulation`` and
``SimulationHandle.run`` for the single-run workloads, and
``repro.paper.reproduce`` on a ``SweepEngine`` for ``quick_sweep``.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro.core.config import DsrConfig
from repro.metrics.collector import SimulationResult
from repro.scenarios import builder
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import (
    SCALED_DURATION,
    paper_scenario,
    scaled_scenario,
    tiny_scenario,
)

#: Simulated seconds of the paper-scale slice.
PAPER_SLICE_S = 15.0
#: Per-session CBR rate of ``static_load`` (the heavy end of figure 4).
STATIC_LOAD_RATE = 8.0
#: Worker processes of the ``quick_sweep`` engine: at most two, never more
#: than the host has.
SWEEP_PROCESSES = max(1, min(2, os.cpu_count() or 1))


#: Scenario seeds the single-run workloads draw from: for each, the eight
#: of seeds 1-48 whose event count lies nearest the median, so that a
#: run's cost does not swing with the seed's random topology.
#: ``pools.json`` keeps every candidate's count; see "Seeds" in README.md.
SCENARIO_POOLS: Dict[str, Tuple[int, ...]] = {
    name: tuple(pool["seeds"])
    for name, pool in json.loads((Path(__file__).parent / "pools.json").read_text()).items()
}


def scenario_seed(workload: str, seed: int) -> int:
    """The scenario seed a single-run workload runs for workload ``seed``."""
    pool = SCENARIO_POOLS[workload]
    return pool[seed % len(pool)]


def golden_key(workload: str, seed: int) -> int:
    """What a golden digest is filed under: the scenario seed, or for
    ``quick_sweep`` the workload seed itself."""
    if workload == "quick_sweep":
        return seed
    return scenario_seed(workload, seed)


def workload_configs(workload: str, seed: int) -> List[ScenarioConfig]:
    """The scenarios a single-run workload simulates for workload ``seed``."""
    return SIM_WORKLOADS[workload](scenario_seed(workload, seed))


def scaled_mobile(seed: int) -> List[ScenarioConfig]:
    return [
        scaled_scenario(pause_time=0.0, dsr=DsrConfig.base(), seed=seed),
        scaled_scenario(pause_time=0.0, dsr=DsrConfig.all_techniques(), seed=seed),
    ]


def static_load(seed: int) -> List[ScenarioConfig]:
    return [
        scaled_scenario(
            pause_time=SCALED_DURATION, packet_rate=STATIC_LOAD_RATE, seed=seed
        )
    ]


def paper_slice(seed: int) -> List[ScenarioConfig]:
    return [paper_scenario(pause_time=0.0, seed=seed).but(duration=PAPER_SLICE_S)]


def quick_sweep_seeds(seed: int) -> List[List[int]]:
    """Seeds of the cold pass and of the second pass, which overlap by half."""
    return [[seed, seed + 1], [seed + 1, seed + 2]]


#: Single-simulation workloads: name -> configs for a seed.
SIM_WORKLOADS: Dict[str, Callable[[int], List[ScenarioConfig]]] = {
    "scaled_mobile": scaled_mobile,
    "static_load": static_load,
    "paper_slice": paper_slice,
}


# -- output checks ------------------------------------------------------------


def result_digest(result: SimulationResult) -> str:
    """sha256 over every field of a result, floats at full precision."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combined_digest(results: List[SimulationResult]) -> str:
    """One digest for a list of results, independent of their order."""
    parts = sorted(result_digest(result) for result in results)
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def invariant_errors(result: SimulationResult) -> List[str]:
    """Violations of the invariants every simulation must satisfy."""
    errors = []
    for item in dataclasses.fields(result):
        value = getattr(result, item.name)
        if item.name == "drop_reasons":
            for reason, count in value.items():
                if count < 0:
                    errors.append(f"drop_reasons[{reason}] = {count} < 0")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if not math.isfinite(value) or value < 0:
                errors.append(f"{item.name} = {value} is negative or not finite")
    if result.data_received > result.data_sent:
        errors.append(
            f"data_received {result.data_received} > data_sent {result.data_sent}"
        )
    return errors


# -- one iteration -----------------------------------------------------------


@dataclass
class Iteration:
    """One timed execution of a workload and what its check found."""

    wall_s: float
    cpu_s: float
    results: List[SimulationResult]
    errors: List[str] = field(default_factory=list)
    #: 1-minute load average before and after the iteration.
    load: List[float] = field(default_factory=list)
    #: Per-pass sweep accounting (``quick_sweep`` only).
    sweep: List[dict] = field(default_factory=list)
    #: Untimed ``build_simulation`` seconds before an untraced run.
    build_s: float = 0.0

    @property
    def digest(self) -> str:
        return combined_digest(self.results)


def _cpu_s() -> float:
    """CPU seconds of this process plus every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_simulations(
    configs: List[ScenarioConfig], trace: Optional[ContextManager] = None
) -> Iteration:
    """Build every config, then run them.

    The runs are timed.  With ``trace`` (a :class:`layers.LayerTrace`), the
    builds are timed too and both happen inside the trace.
    """
    load = [os.getloadavg()[0]]
    build_s = 0.0
    with trace or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        handles = [builder.build_simulation(config) for config in configs]
        if trace is None:
            build_s = time.perf_counter() - wall0
            wall0, cpu0 = time.perf_counter(), _cpu_s()
        results = [handle.run() for handle in handles]
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    load.append(os.getloadavg()[0])
    errors = [
        f"simulation {index}: {error}"
        for index, result in enumerate(results)
        for error in invariant_errors(result)
    ]
    return Iteration(
        wall_s=wall, cpu_s=cpu, results=results, errors=errors, load=load, build_s=build_s
    )


def run_quick_sweep(
    seed: int, work_dir: Path, trace: Optional[ContextManager] = None
) -> Iteration:
    """``reproduce(scale="quick")`` twice on a fresh result cache: a cold
    pass, then a pass whose seeds overlap the first by half.

    With ``trace``, the passes run inside it and the engines execute
    :func:`layers.traced_task`, which leaves each simulation's layer
    counters under ``work_dir / "tasks"``.
    """
    from repro.analysis.cache import ResultCache
    from repro.analysis.runner import SweepEngine
    from repro.paper import reproduce

    cache_dir = work_dir / "cache"
    task_dir = work_dir / "tasks"
    for stale in (cache_dir, task_dir):
        shutil.rmtree(stale, ignore_errors=True)
    cache = ResultCache(cache_dir)
    task_fn = None
    if trace is not None:
        from layers import traced_task

        task_dir.mkdir(parents=True)
        task_fn = functools.partial(traced_task, str(task_dir))
    passes = quick_sweep_seeds(seed)
    manifests = [work_dir / f"pass{index}.jsonl" for index in range(len(passes))]
    for manifest in manifests:
        manifest.unlink(missing_ok=True)
    engines = [
        SweepEngine(
            processes=SWEEP_PROCESSES,
            cache=cache,
            task_fn=task_fn,
            manifest_path=manifest,
        )
        for manifest in manifests
    ]

    load = [os.getloadavg()[0]]
    with trace or contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        reports = [
            reproduce(scale="quick", seeds=seeds, engine=engine)
            for seeds, engine in zip(passes, engines)
        ]
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    load.append(os.getloadavg()[0])

    sweep = []
    for report, manifest in zip(reports, manifests):
        tasks = [
            task
            for line in manifest.read_text().splitlines()
            for task in json.loads(line)["tasks"]
        ]
        sweep.append({**report.sweep_stats, "tasks": tasks})
    results = []
    errors = []
    for path in sorted(cache_dir.glob("*/*.json")):
        result = cache.get(path.stem)
        if result is None:
            errors.append(f"cache entry {path.stem[:12]} is unreadable")
            continue
        results.append(result)
        errors.extend(f"{path.stem[:12]}: {e}" for e in invariant_errors(result))
    errors.extend(sweep_errors(sweep, len(results)))
    return Iteration(
        wall_s=wall, cpu_s=cpu, results=results, errors=errors, load=load, sweep=sweep
    )


def sweep_errors(sweep: List[dict], cached_results: int) -> List[str]:
    """Check the two passes against each other.

    The passes share half their seeds and every seed has the same grid, so
    the second pass must serve from the cache exactly the points the first
    pass executed for the shared seed, execute only the new seed's points,
    and never execute a point twice.
    """
    first, second = sweep
    executed = [{task["key"] for task in stats["tasks"]} for stats in sweep]
    errors = []
    if first["cache_hits"] != 0:
        errors.append(f"cold pass served {first['cache_hits']} points from the cache")
    if 2 * second["cache_hits"] != first["executed"]:
        errors.append(
            f"second pass served {second['cache_hits']} points from the cache, "
            f"expected half of the {first['executed']} the first pass executed"
        )
    if 2 * second["executed"] != first["executed"]:
        errors.append(
            f"second pass executed {second['executed']} points, "
            f"expected {first['executed'] // 2}"
        )
    if executed[0] & executed[1]:
        errors.append(f"{len(executed[0] & executed[1])} points executed in both passes")
    if [len(keys) for keys in executed] != [first["executed"], second["executed"]]:
        errors.append("manifest task lists disagree with the sweep accounting")
    if cached_results != first["executed"] + second["executed"]:
        errors.append(
            f"{cached_results} results cached, expected "
            f"{first['executed'] + second['executed']}"
        )
    return errors


def run_iteration(
    workload: str, seed: int, work_dir: Path, trace: Optional[ContextManager] = None
) -> Iteration:
    """One timed execution of ``workload``, traced when ``trace`` is given."""
    # The previous iteration's simulations are reference cycles: free them
    # now, not inside this iteration's timed section or on top of its peak.
    gc.collect()
    if workload == "quick_sweep":
        return run_quick_sweep(seed, work_dir, trace)
    return run_simulations(workload_configs(workload, seed), trace)


def setup(workload: str, seed: int, work_dir: Path) -> None:
    """What a user pays before the first simulated event, beyond imports:
    config generation and ``build_simulation`` (and, for ``quick_sweep``,
    the engine with its result cache plus the first point's build)."""
    if workload == "quick_sweep":
        import repro.paper  # noqa: F401  (what reproduce() imports)
        from repro.analysis.runner import SweepEngine

        SweepEngine.create(processes=SWEEP_PROCESSES, cache_dir=work_dir / "setup-cache")
        # The first point reproduce() builds: the quick scale's pause-0 base DSR.
        configs = [tiny_scenario(seed=seed).but(packet_rate=3.0, duration=30.0)]
    else:
        configs = workload_configs(workload, seed)
    for config in configs:
        builder.build_simulation(config)
