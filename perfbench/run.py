"""The served-path benchmark: one command, four workloads, three of them
gated by ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-approx --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same loop untraced and then traced (``repro.obs``
tracer and metrics switched on through ``ServiceConfig``), checks that both
return identical estimates, probes each layer and reports the per-layer
metrics.  Every run checks every output it receives; a failed check makes
``correct`` false and the exit code 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
reported figure by name and unit, and ``perfbench/results/`` receives the
run's full record (machine, workload inputs, every figure) and, for a traced
run, its span trees as JSON lines.

The program is imported from ``src/`` of the same checkout and nowhere
else; without it the command exits with code 2 before running anything.

So that runs of the same code agree on a shared host, every run restarts
itself under a fixed ``PYTHONHASHSEED``, pins itself (and so the program's
server thread and pool workers) to one CPU, and reports every end-to-end
time scaled to a reference speed of that CPU (``harness.SpeedProbe``); the
raw times are printed beside them as ``raw.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The end-to-end metrics of the final line of an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("within_eps_share", "share"),
)

#: The workloads of ``BENCHMARK.json``, each with the one-line reason it
#: exists, and those that run only on request: ``serve-exact`` spreads too
#: far between runs of the same code to be gated (see README.md).
WORKLOADS = {
    workload["name"]: workload["why"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
}
UNGATED_WORKLOADS = {
    "serve-exact": "small database planned exact/indexed, 2 HTTP clients, misses, "
    "cache hits and process-pool batches: the wire, admission, planning, caching "
    "and executor handoff dominate",
}
ALL_WORKLOADS = {**WORKLOADS, **UNGATED_WORKLOADS}


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # Process-pool workers import the program too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


#: The string-hash seed every run uses.  Hash randomisation reorders the
#: program's sets and dicts from one process to the next, which moved its
#: times by up to a tenth between runs of the same code.
HASH_SEED = "0"


def _fix_hash_seed() -> None:
    """Restart this process under ``HASH_SEED`` unless it already runs
    under it (the same process, so nothing is left to wait for)."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _pin_to_one_cpu() -> None:
    """Run the benchmark, the program's server thread and its pool workers
    on one CPU.  The CPUs of a shared host run at different speeds from
    moment to moment, so the speed probe must time the CPU the program runs
    on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _stop_processes() -> None:
    """Reap every process this run started.  The program's process pools
    join their workers when a batch ends, so this only waits for any that
    outlived a failed run."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def _run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    import live_updates
    import serving

    if name == "live-updates":
        spec = live_updates.LIVE_UPDATES
        return live_updates.run(spec.shrunk() if smoke else spec, seed, seconds, trace)
    spec = serving.SPECS[name]
    return serving.run(spec.shrunk() if smoke else spec, seed, seconds, trace)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(ALL_WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the smoke test"
    )
    args = parser.parse_args()

    _fix_hash_seed()
    _pin_to_one_cpu()
    _load_program()
    try:
        import layers
        from harness import machine_record

        outcome = _run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        declared = layers.LAYER_METRICS if args.trace else END_TO_END
        for name, unit in declared:
            reported = outcome.metrics.get(name)
            outcome.check(
                reported is not None and reported[1] == unit and math.isfinite(reported[0]),
                f"metric {name} [{unit}] not reported (got {reported})",
            )
        machine = machine_record(args.seed)
    finally:
        _stop_processes()

    figures = dict(outcome.metrics)
    figures.update(outcome.report)
    for name, (value, unit) in sorted(figures.items()):
        print(f"[perfbench] {args.workload} {name} = {value:.6g} {unit}")
    for line in outcome.warnings:
        print(f"[perfbench] WARNING: {line}")
    for line in outcome.mismatches[:20]:
        print(f"[perfbench] CHECK FAILED: {line}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine,
        "why": ALL_WORKLOADS[args.workload],
        "inputs": outcome.inputs,
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in sorted(figures.items())},
        "warnings": outcome.warnings,
        "mismatches": outcome.mismatches,
        "samples": outcome.samples,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, default=str) + "\n")
    if outcome.tracer is not None:
        (results / f"{stem}.trace.jsonl").write_text(outcome.tracer.to_jsonl() + "\n")

    correct = not outcome.mismatches
    metrics = {
        name: {"value": outcome.metrics[name][0], "unit": unit}
        for name, unit in declared
        if name in outcome.metrics and math.isfinite(outcome.metrics[name][0])
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
