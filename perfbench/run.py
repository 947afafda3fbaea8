"""Pinned benchmark for the DMI reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload office-table3 --seed 11 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up runs several times (median reported), then whole passes over the
workload's input run while they fit in ``--seconds`` (at least one).  The
times are scaled to a reference host speed (``workloads.HostSpeed``); the
raw values are printed as well.
``--trace 1`` runs an uncounted warm-up (``Workload.warm_up``), one
untraced set-up + pass, then the same again with the layer wrappers of
``layers.py`` installed, and reports per-layer counts, total and self times
plus the tracing overhead.  Either way every pass is checked against the
reference afterwards; a mismatch counts as a failed operation.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
``--workload all`` runs each workload in its own fresh process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("office-table3", "rip-scale", "synthetic-broker")
#: Set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) while
#: the set-ups so far took less than SETUP_BUDGET_S, so a cheap set-up's
#: median rests on more samples.  Two, not more, for the long set-ups
#: (office-table3 rips three apps, synthetic-broker runs a 1,200-trial
#: reference grid): every run must stay well under a minute.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 9, 3.0


def declared_metrics(kind: str):
    """``{name: unit}`` of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[
        round(fraction * 100) - 1]


def timed(fn, speed):
    """Wall time of ``fn()`` minus the host-speed samples it took, raw and
    at the reference speed of those samples."""
    gc.collect()
    first = len(speed.samples)
    started = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - started - sum(speed.samples[first:])
    return elapsed, elapsed / speed.factor(first)


def measure(workload, seconds: float):
    """End-to-end run: repeated set-up, then whole passes within ``seconds``.

    Each set-up is scaled by the host-speed samples taken during it, the
    pass figures by those taken during the passes (see
    ``workloads.HostSpeed``)."""
    from workloads import HostSpeed

    raw_setups, setups, models = [], [], []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and sum(raw_setups) < SETUP_BUDGET_S):
        raw_setup, setup = timed(workload.setup, workload.speed)
        raw_setups.append(raw_setup)
        setups.append(setup)
        models.append(workload.model_s)
    setup_speed, workload.speed = workload.speed, HostSpeed()
    passes = []
    gc.collect()
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - started
        mean_pass = elapsed / len(passes)
        if elapsed + mean_pass > seconds:
            break
    peak_rss = peak_rss_mb()  # before verify(), which may run a reference grid
    failed = workload.verify(passes)
    latencies = [value for stats in passes for value in stats.latencies_s]
    raw = {
        "setup_s": statistics.median(raw_setups),
        "trials_per_s": statistics.median(len(stats.latencies_s) / stats.wall_s
                                          for stats in passes),
        "trial_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "trial_p98_ms": percentile(latencies, 0.98) * 1000.0,
    }
    pass_factor = workload.speed.factor()
    metrics = {name: value * pass_factor if name == "trials_per_s"
               else value / pass_factor for name, value in raw.items()}
    metrics["setup_s"] = statistics.median(setups)
    # Set-up's cold models are already at the reference speed; a rip-scale
    # pass is itself the cold modelling.
    metrics["model_s"] = statistics.median(
        [stats.wall_s / pass_factor for stats in passes]
        if workload.models_in_pass else models)
    metrics["peak_rss_mb"] = peak_rss
    notes = [f"{len(setups)} set-ups, {len(passes)} pass(es), "
             f"{len(latencies)} trial latencies",
             f"host speed: slowness factor {setup_speed.factor():.4f} over "
             f"{len(setup_speed.samples)} set-up samples, "
             f"{workload.speed.factor():.4f} over {len(workload.speed.samples)} "
             f"pass samples (1 = none; reference sample "
             f"{HostSpeed.REFERENCE_S * 1000:.0f} ms)",
             "raw " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())]
    return metrics, declared_metrics("end_to_end"), passes, failed, notes


def trace(workload):
    """Warm-up, then one untraced and one traced set-up + pass; per-layer
    figures and the tracing overhead (traced minus untraced wall time)."""
    from layers import LayerTracer
    from workloads import NoHostSpeed

    workload.speed = NoHostSpeed()
    workload.warm_up()
    gc.collect()
    started = time.perf_counter()
    workload.setup()
    passes = [workload.run_pass()]
    untraced = time.perf_counter() - started
    gc.collect()
    tracer = LayerTracer()
    started = time.perf_counter()
    with tracer:
        workload.setup()
        passes.append(workload.run_pass(tracer))
    traced = time.perf_counter() - started
    failed = workload.verify(passes)
    if passes[0].digests != passes[1].digests:
        failed += passes[1].attempted
    metrics = tracer.metrics()
    metrics["agent.trials"] = tracer.span("agent.run_task").calls
    metrics.update(workload.layer_metrics())
    metrics.update({
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_ms": (traced - untraced) * 1000.0,
        "trace.overhead_pct": (traced - untraced) / untraced * 100.0,
    })
    units = declared_metrics("per_layer")
    notes = ["traced digests equal untraced: "
             f"{passes[0].digests == passes[1].digests}"]
    # A layer the workload never calls reports zero.
    return ({name: metrics.get(name, 0) for name in units}, units, passes,
            failed, notes)


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work_dir:
        workload = WORKLOADS[args.workload](args.seed, Path(work_dir))
        if args.trace:
            metrics, units, passes, failed, notes = trace(workload)
        else:
            metrics, units, passes, failed, notes = measure(workload, args.seconds)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it
    attempted = sum(stats.attempted for stats in passes)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          + "\n# ".join(notes))
    print(f"# reference: {workload.reference_source}")
    for name, value in workload.simulated.items():
        print(f"# simulated {name} = {value} ({workload.name} last pass, "
              f"setting dmi-gpt5-medium; not a timing)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with "
                  f"{completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{metric}": value for metric, value
                                    in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
