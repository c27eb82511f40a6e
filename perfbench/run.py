"""The simulator's benchmark: one workload, one seed, one line of JSON.

Run from the repository root::

    python3 perfbench/run.py --workload scaled_mobile --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload untraced for about ``--seconds``
seconds and reports the end-to-end metrics (medians over the
repetitions); ``--trace 1`` runs it once untraced and once under
:class:`layers.LayerTrace` and reports the per-layer metrics.  Every
simulation's output is checked (see ``perfbench/README.md``); the command
exits non-zero if any check fails.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
WORKLOAD_NAMES = ("scaled_mobile", "static_load", "paper_slice", "quick_sweep")
#: Fresh-interpreter set-ups after each iteration, and at least per run;
#: ``setup_s`` is their median.
PROBES_PER_ITERATION = 3
SETUP_PROBES = 9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this run's result digest as the golden for the seed",
    )
    return parser.parse_args(argv)


def host_record(seed: int) -> dict:
    """What a result must be read against: the host and the code."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": seed,
    }


def load_goldens() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}


def golden_for(workloads, args: argparse.Namespace) -> Optional[str]:
    key = str(workloads.golden_key(args.workload, args.seed))
    return load_goldens().get(args.workload, {}).get(key)


def record_golden(workload: str, key: int, digest: str) -> None:
    goldens = load_goldens()
    goldens.setdefault(workload, {})[str(key)] = digest
    ordered = {
        name: dict(sorted(goldens[name].items(), key=lambda item: int(item[0])))
        for name in sorted(goldens)
    }
    GOLDENS.write_text(json.dumps(ordered, indent=2) + "\n")


def attempt(workloads, workload: str, seed: int, work_dir: Path, trace=None):
    """One iteration, or ``None`` with the traceback on stderr if it raised."""
    try:
        return workloads.run_iteration(workload, seed, work_dir, trace)
    except Exception:  # counted as a failed run, reported below
        traceback.print_exc()
        return None


def expected_simulations(workloads, workload: str, seed: int) -> int:
    if workload == "quick_sweep":
        return 1
    return len(workloads.workload_configs(workload, seed))


def check_iterations(
    workloads, workload: str, seed: int, iterations: list, golden: Optional[str]
) -> Tuple[int, int, List[str], Optional[str]]:
    """(attempted, failed, problems, digest) over a run's iterations.

    An iteration fails as a whole if it raised, broke an invariant, or its
    digest differs from the first iteration's or from ``golden``.
    """
    attempted = failed = 0
    problems: List[str] = []
    digest = None
    for index, it in enumerate(iterations):
        if it is None:
            count = expected_simulations(workloads, workload, seed)
            attempted += count
            failed += count
            problems.append(f"iteration {index}: raised")
            continue
        attempted += len(it.results)
        errors = list(it.errors)
        if digest is None:
            digest = it.digest
        elif it.digest != digest:
            errors.append(f"digest {it.digest[:16]} differs from the first iteration's")
        if golden is not None and it.digest != golden:
            errors.append(f"digest {it.digest[:16]} differs from the golden {golden[:16]}")
        if errors:
            failed += len(it.results)
            problems.extend(f"iteration {index}: {error}" for error in errors)
    return attempted, failed, problems, digest


def measure_setup(workload: str, seed: int, work_dir: Path, probes: int) -> List[float]:
    """Seconds of ``probes`` fresh-interpreter set-ups, one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "probe_setup.py"),
                workload,
                str(seed),
                str(work_dir / "probe"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_untraced(args, workloads, work_dir: Path, host: dict) -> Tuple[dict, int, int, List[str]]:
    """Iterations until ``--seconds`` would be overrun, with set-up probes
    after each one, so that both sample the host over the whole run."""
    iterations = []
    setup_samples: List[float] = []
    worker_peak_kb = None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        iterations.append(attempt(workloads, args.workload, args.seed, work_dir))
        if worker_peak_kb is None:
            # Read before any probe runs: probes are children too.
            worker_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup_samples += measure_setup(args.workload, args.seed, work_dir, PROBES_PER_ITERATION)
        last = time.perf_counter() - began
        if iterations[-1] is None or time.perf_counter() - start + last > args.seconds:
            break
    missing = SETUP_PROBES - len(setup_samples)
    if missing > 0:
        setup_samples += measure_setup(args.workload, args.seed, work_dir, missing)
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # A run that re-records the golden is checked against everything but
    # the golden it replaces.
    golden = None if args.record_golden else golden_for(workloads, args)
    attempted, failed, problems, digest = check_iterations(
        workloads, args.workload, args.seed, iterations, golden
    )
    done = [it for it in iterations if it is not None]
    host["iterations"] = [
        {"wall_s": it.wall_s, "cpu_s": it.cpu_s, "load_1m": it.load} for it in done
    ]
    host["setup_samples_s"] = setup_samples
    metrics = {
        "wall_s": statistics.median(it.wall_s for it in done) if done else 0.0,
        "cpu_s": statistics.median(it.cpu_s for it in done) if done else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(own_peak_kb, worker_peak_kb) / 1024.0,
    }
    units = END_TO_END_UNITS
    print(f"perfbench {args.workload} seed {args.seed}: {len(iterations)} iteration(s)")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {units[name]}")
    failed_frac = failed / max(attempted, 1)
    print(f"  {'failed_frac':<12} {failed_frac:12.4f} ratio ({failed}/{attempted})")
    if digest is not None:
        print(f"  digest       {digest}")
    if args.record_golden and digest is not None and not problems:
        record_golden(args.workload, workloads.golden_key(args.workload, args.seed), digest)
    reported = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    return reported, attempted, failed, problems


def run_traced(args, workloads, work_dir: Path, host: dict) -> Tuple[dict, int, int, List[str]]:
    import layers

    plain = attempt(workloads, args.workload, args.seed, work_dir)
    trace = layers.LayerTrace()
    traced = attempt(workloads, args.workload, args.seed, work_dir, trace)
    attempted, failed, problems, _ = check_iterations(
        workloads, args.workload, args.seed, [plain, traced], golden_for(workloads, args)
    )
    if plain is None or traced is None:
        return {}, attempted, failed, problems
    snapshots = [trace.snapshot()]
    for path in sorted((work_dir / "tasks").glob("*.json")):
        snapshots.append(json.loads(path.read_text()))
    values = layers.layer_metrics(
        layers.merge_snapshots(snapshots),
        traced_wall_s=traced.wall_s,
        untraced_wall_s=plain.wall_s + plain.build_s,
        sweep=traced.sweep,
        processes=workloads.SWEEP_PROCESSES,
    )
    host["iterations"] = [
        {"traced": False, "wall_s": plain.wall_s + plain.build_s, "load_1m": plain.load},
        {"traced": True, "wall_s": traced.wall_s, "load_1m": traced.load},
    ]
    task_count = sum(len(stats["tasks"]) for stats in traced.sweep)
    if task_count:
        host["task_tail_percentile"] = layers.tail_percentile(task_count)
    print(f"perfbench {args.workload} seed {args.seed}: traced per-layer metrics")
    for name, value in values.items():
        print(f"  {name:<28} {value:16.6f} {layers.PER_LAYER[name][0]}")
    if task_count:
        tail = host["task_tail_percentile"]
        print(f"  analysis.task_tail_s is p{tail} of {task_count} tasks")
    metrics = {
        name: {"value": value, "unit": layers.PER_LAYER[name][0]}
        for name, value in values.items()
    }
    return metrics, attempted, failed, problems


def child_pids() -> List[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # Fields after the parenthesised command: state, then parent pid.
            if int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1]) == me:
                pids.append(int(entry.name))
        except (OSError, IndexError, ValueError):
            pass  # ended while being read
    return pids


def reaped(pid: int) -> bool:
    """Whether child ``pid`` has ended, reaping it if it just did."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    A spawn-context pool starts multiprocessing's resource tracker, which
    outlives its parent by design; it is stopped here and reaped, and so
    is any other child still there.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    pids = child_pids()
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_s
    for pid in pids:
        while not reaped(pid):
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                break
            time.sleep(0.05)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    host = host_record(args.seed)
    host["load_1m_before"] = os.getloadavg()[0]
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, attempted, failed, problems = runner(args, workloads, work_dir, host)
    finally:
        stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    host["load_1m_after"] = os.getloadavg()[0]
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("host " + json.dumps(host, sort_keys=True))
    correct = not problems and failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
