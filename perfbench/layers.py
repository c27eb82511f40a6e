"""Per-layer tracing for the benchmark: timing and counting wrappers.

:class:`LayerTrace` patches each layer's entry points (the public methods
listed in :data:`ENTRY_POINTS`) with wrappers that count calls and keep a
stack of open frames, so every layer gets an exclusive ("self") time: the
time inside its calls minus the time spent in nested calls into other
layers.  Calls into a layer that the program makes through a callback —
an event handed to ``Simulator.schedule_at``, a ``Timer`` callback, a
trace subscriber — are charged to the layer whose module defines the
callback, because the patched registration points wrap the callback in a
frame for that layer.  Time in builtins and numpy stays with the calling
frame.

Nothing under ``src/`` knows about this module: it is installed from
outside, before ``build_simulation`` binds the methods, and removed
afterwards.  ``Simulator.enable_profiling`` is deliberately not used — it
reports inclusive time per callback.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``src/repro`` packages that the per-layer metrics are split across.
LAYERS = (
    "sim",
    "mobility",
    "phy",
    "mac",
    "core",
    "net",
    "traffic",
    "metrics",
    "scenarios",
    "analysis",
)

#: (layer, module, class, methods) — the wrapped entry points.  The call
#: counter of each is keyed ``"<layer>.<Class>.<method>"``.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run", "schedule_at", "cancel")),
    ("mobility", "repro.mobility.base", "MobilityModel", ("positions",)),
    ("phy", "repro.phy.channel", "Channel", ("transmit",)),
    ("phy", "repro.phy.radio", "Radio", ("energy_start", "energy_end")),
    (
        "phy",
        "repro.phy.neighbors",
        "NeighborCache",
        ("tick", "rx_neighbors", "cs_neighbors", "route_valid"),
    ),
    (
        "mac",
        "repro.mac.dcf",
        "DcfMac",
        ("enqueue", "on_frame", "on_medium_change", "on_tx_complete"),
    ),
    (
        "core",
        "repro.core.agent",
        "DsrAgent",
        ("originate", "handle_packet", "handle_promiscuous", "handle_unicast_failure"),
    ),
    ("core", "repro.core.cache", "PathCache", ("add", "find_with_age", "remove_link")),
    ("core", "repro.core.negative_cache", "NegativeCache", ("contains",)),
    ("net", "repro.net.node", "Node", ("send_data", "deliver_to_app")),
    ("net", "repro.net.sendbuffer", "SendBuffer", ("add", "take_for", "expire")),
    ("analysis", "repro.analysis.runner", "SweepEngine", ("run",)),
    ("analysis", "repro.analysis.cache", "ResultCache", ("get", "put")),
)

_LAYER_MARK = "__perfbench_layer__"
_layer_of_module: Dict[str, Optional[str]] = {}


def module_layer(module: Optional[str]) -> Optional[str]:
    """The layer a ``repro.<layer>...`` module belongs to, else None."""
    if module is None:
        return None
    found = _layer_of_module.get(module, "")
    if found == "":
        parts = module.split(".")
        in_repro = len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS
        found = parts[1] if in_repro else None
        _layer_of_module[module] = found
    return found


class LayerTrace:
    """Counts and exclusive times per layer while installed.

    Use as a context manager around the code to trace; the program must
    build its simulations inside the ``with`` block so the bound methods
    it stores are the wrapped ones.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.time_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Counts fed by return values (see the ``_after_*`` hooks).
        self.extra: Counter = Counter()
        self._stack: List[List[Any]] = []  # [nested seconds, layer]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._sim_seen: "weakref.WeakKeyDictionary[Any, int]" = weakref.WeakKeyDictionary()

    # -- frames ------------------------------------------------------------

    def _framed(
        self,
        layer: str,
        fn: Callable[..., Any],
        key: Optional[str] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a frame of ``layer``; counted under ``key``."""
        stack = self._stack
        self_s = self.self_s
        time_s = self.time_s
        calls = self.calls
        clock = time.perf_counter

        def framed(*args: Any, **kwargs: Any) -> Any:
            if key is not None:
                calls[key] += 1
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if key is not None:
                    time_s[key] = time_s.get(key, 0.0) + elapsed
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(framed, fn)
        setattr(framed, _LAYER_MARK, layer)
        return framed

    def _callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Frame a callback by the layer of the module that defines it.

        Callbacks that are already framed, belong to ``sim`` or come from
        outside ``repro`` are returned unchanged: their time stays with
        whoever invokes them.
        """
        if getattr(fn, _LAYER_MARK, None) is not None:
            return fn
        layer = module_layer(getattr(fn, "__module__", None))
        if layer is None or layer == "sim":
            return fn
        return self._framed(layer, fn)

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def _wrap_method(
        self,
        layer: str,
        cls: type,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        key = f"{layer}.{cls.__name__}.{name}"
        self._patch(cls, name, self._framed(layer, getattr(cls, name), key, after))

    def __enter__(self) -> "LayerTrace":
        self._install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _install(self) -> None:
        if self._patches:
            raise RuntimeError("LayerTrace is already installed")
        afters = {
            ("Simulator", "run"): self._after_sim_run,
            ("PathCache", "add"): self._after_cache_add,
        }
        classes: Dict[str, type] = {}
        for layer, module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            classes[cls_name] = cls
            for name in methods:
                if (cls_name, name) == ("Simulator", "schedule_at"):
                    continue  # patched below: it also frames the callback
                self._wrap_method(layer, cls, name, afters.get((cls_name, name)))

        # Subclasses that override an entry point bypass the base wrapper.
        for sub in _all_subclasses(classes["MobilityModel"]):
            if "positions" in sub.__dict__:
                self._wrap_method("mobility", sub, "positions")

        # Event and timer callbacks run in the layer that defines them.
        callback = self._callback
        engine = classes["Simulator"]
        schedule_at = engine.schedule_at

        def schedule_framed(sim: Any, when: float, fn: Callable[..., Any], *args: Any) -> Any:
            return schedule_at(sim, when, callback(fn), *args)

        functools.update_wrapper(schedule_framed, schedule_at)
        self._patch(
            engine,
            "schedule_at",
            self._framed("sim", schedule_framed, "sim.Simulator.schedule_at"),
        )
        timers = importlib.import_module("repro.sim.timers")
        timer_init = timers.Timer.__init__
        periodic_init = timers.PeriodicTimer.__init__

        def framed_timer_init(timer: Any, sim: Any, fn: Callable[..., Any]) -> None:
            timer_init(timer, sim, callback(fn))

        def framed_periodic_init(
            timer: Any, sim: Any, period: float, fn: Callable[..., Any]
        ) -> None:
            periodic_init(timer, sim, period, callback(fn))

        self._patch(timers.Timer, "__init__", framed_timer_init)
        self._patch(timers.PeriodicTimer, "__init__", framed_periodic_init)

        # Metrics are trace subscribers, bound when the collector is built.
        collector = importlib.import_module("repro.metrics.collector").MetricsCollector
        for name in sorted(vars(collector)):
            if name.startswith("_on_") or name == "finalize":
                self._wrap_method("metrics", collector, name)

        builder = importlib.import_module("repro.scenarios.builder")
        self._patch(
            builder,
            "build_simulation",
            self._framed("scenarios", builder.build_simulation, "scenarios.build_simulation"),
        )

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- counters fed by return values ------------------------------------

    def _after_sim_run(self, args: tuple, executed: int) -> None:
        sim = args[0]
        stats = sim.stats()
        self.extra["sim.events"] += executed
        skipped_before = self._sim_seen.get(sim, 0)
        self.extra["sim.skipped"] += stats.skipped - skipped_before
        self._sim_seen[sim] = stats.skipped

    def _after_cache_add(self, args: tuple, stored: bool) -> None:
        if stored:
            self.extra["core.cache_adds_stored"] += 1

    # -- results -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-JSON copy of every counter and timer."""
        return {
            "calls": dict(self.calls),
            "time_s": dict(self.time_s),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
        }


#: Per-layer metrics of a traced run: name -> (unit, better).  Counts are
#: exact and repeat for a seed; times are host seconds under tracing.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.schedules": ("count", "lower"),
    "sim.skipped_ratio": ("ratio", "lower"),
    "sim.self_s": ("s", "lower"),
    "mobility.position_queries": ("count", "lower"),
    "mobility.self_s": ("s", "lower"),
    "phy.transmissions": ("count", "lower"),
    "phy.listener_visits": ("count", "lower"),
    "phy.visits_per_tx": ("ratio", "lower"),
    "phy.neighbor_refreshes": ("count", "lower"),
    "phy.self_s": ("s", "lower"),
    "mac.enqueues": ("count", "lower"),
    "mac.frame_callbacks": ("count", "lower"),
    "mac.medium_callbacks": ("count", "lower"),
    "mac.callbacks_per_tx": ("ratio", "lower"),
    "mac.self_s": ("s", "lower"),
    "core.originated": ("count", "lower"),
    "core.packets_handled": ("count", "lower"),
    "core.snoops": ("count", "lower"),
    "core.unicast_failures": ("count", "lower"),
    "core.cache_adds": ("count", "lower"),
    "core.cache_add_yield": ("ratio", "higher"),
    "core.cache_lookups": ("count", "lower"),
    "core.cache_link_removals": ("count", "lower"),
    "core.negcache_checks": ("count", "lower"),
    "core.self_s": ("s", "lower"),
    "net.self_s": ("s", "lower"),
    "traffic.self_s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "scenarios.build_s": ("s", "lower"),
    "analysis.batches": ("count", "lower"),
    "analysis.executed": ("count", "lower"),
    "analysis.cache_hits": ("count", "higher"),
    "analysis.deduped": ("count", "higher"),
    "analysis.task_s": ("s", "lower"),
    "analysis.task_p50_s": ("s", "lower"),
    "analysis.task_tail_s": ("s", "lower"),
    "analysis.dispatch_s": ("s", "lower"),
    "analysis.cache_get_s": ("s", "lower"),
    "analysis.cache_put_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _rank(count: int, q: int) -> int:
    """1-based nearest rank of percentile ``q`` (0-100) among ``count``."""
    return max(1, -(-count * q // 100))


def _percentile(values: List[float], q: int) -> float:
    """Nearest-rank percentile ``q`` of ``values``; 0 when empty."""
    if not values:
        return 0.0
    return sorted(values)[_rank(len(values), q) - 1]


#: Percentiles ``analysis.task_tail_s`` is chosen from, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def tail_percentile(count: int) -> int:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten of
    ``count`` samples beyond it, or the median when none has."""
    for q in TAIL_PERCENTILES:
        if count - _rank(count, q) >= 10:
            return q
    return 50


def layer_metrics(
    snap: Dict[str, Dict[str, float]],
    traced_wall_s: float,
    untraced_wall_s: float,
    sweep: List[dict],
    processes: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a merged snapshot.

    ``sweep`` is the per-pass accounting of a ``quick_sweep`` run (empty
    for the single-run workloads, whose ``analysis.*`` metrics are zero).
    ``analysis.task_tail_s`` is the task wall at
    :func:`tail_percentile` of the task count: p75 for the 72 tasks of
    ``quick_sweep``.
    """
    calls = snap["calls"]
    time_s = snap["time_s"]
    self_s = snap["self_s"]
    extra = snap["extra"]
    tx = calls.get("phy.Channel.transmit", 0)
    mac_callbacks = sum(
        calls.get(f"mac.DcfMac.{name}", 0)
        for name in ("on_frame", "on_medium_change", "on_tx_complete")
    )
    positions = sum(
        count for name, count in calls.items() if name.endswith(".positions")
    )
    adds = calls.get("core.PathCache.add", 0)
    tasks = [task["wall_s"] for stats in sweep for task in stats["tasks"]]
    task_s = sum(tasks)
    out = {
        "sim.events": extra.get("sim.events", 0),
        "sim.schedules": calls.get("sim.Simulator.schedule_at", 0),
        "sim.skipped_ratio": _ratio(extra.get("sim.skipped", 0), extra.get("sim.events", 0)),
        "mobility.position_queries": positions,
        "phy.transmissions": tx,
        "phy.listener_visits": calls.get("phy.Radio.energy_start", 0),
        # The neighbour cache's refresh is the only caller of positions().
        "phy.neighbor_refreshes": positions,
        "mac.enqueues": calls.get("mac.DcfMac.enqueue", 0),
        "mac.frame_callbacks": calls.get("mac.DcfMac.on_frame", 0),
        "mac.medium_callbacks": calls.get("mac.DcfMac.on_medium_change", 0),
        "mac.callbacks_per_tx": _ratio(mac_callbacks, tx),
        "core.originated": calls.get("core.DsrAgent.originate", 0),
        "core.packets_handled": calls.get("core.DsrAgent.handle_packet", 0),
        "core.snoops": calls.get("core.DsrAgent.handle_promiscuous", 0),
        "core.unicast_failures": calls.get("core.DsrAgent.handle_unicast_failure", 0),
        "core.cache_adds": adds,
        "core.cache_add_yield": _ratio(extra.get("core.cache_adds_stored", 0), adds),
        "core.cache_lookups": calls.get("core.PathCache.find_with_age", 0),
        "core.cache_link_removals": calls.get("core.PathCache.remove_link", 0),
        "core.negcache_checks": calls.get("core.NegativeCache.contains", 0),
        "scenarios.build_s": time_s.get("scenarios.build_simulation", 0.0),
        "analysis.batches": calls.get("analysis.SweepEngine.run", 0),
        "analysis.executed": sum(stats["executed"] for stats in sweep),
        "analysis.cache_hits": sum(stats["cache_hits"] for stats in sweep),
        "analysis.deduped": sum(stats["deduped"] for stats in sweep),
        "analysis.task_s": task_s,
        "analysis.task_p50_s": _percentile(tasks, 50),
        "analysis.task_tail_s": _percentile(tasks, tail_percentile(len(tasks))),
        "analysis.dispatch_s": traced_wall_s - task_s / processes if sweep else 0.0,
        "analysis.cache_get_s": time_s.get("analysis.ResultCache.get", 0.0),
        "analysis.cache_put_s": time_s.get("analysis.ResultCache.put", 0.0),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }
    out["phy.visits_per_tx"] = _ratio(out["phy.listener_visits"], tx)
    for layer in LAYERS:
        if f"{layer}.self_s" in PER_LAYER:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return {name: out[name] for name in PER_LAYER}


def merge_snapshots(snapshots: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum snapshots taken in several processes."""
    merged: Dict[str, Dict[str, float]] = {"calls": {}, "time_s": {}, "self_s": {}, "extra": {}}
    for snap in snapshots:
        for part, values in snap.items():
            target = merged[part]
            for name, value in values.items():
                target[name] = target.get(name, 0) + value
    return merged


def _all_subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def traced_task(out_dir: str, payload: dict) -> Any:
    """Sweep task for a traced ``SweepEngine``: simulate one payload under a
    :class:`LayerTrace` and leave the counters in ``out_dir`` for the
    parent to merge.  Module-level so worker processes can unpickle it."""
    from repro.analysis.cache import scenario_hash
    from repro.scenarios import builder
    from repro.scenarios.io import scenario_from_dict

    with LayerTrace() as trace:
        result = builder.run_scenario(scenario_from_dict(payload))
    path = Path(out_dir) / f"{scenario_hash(payload)}.json"
    path.write_text(json.dumps(trace.snapshot()))
    return result
