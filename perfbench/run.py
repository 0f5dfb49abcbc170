#!/usr/bin/env python3
"""Benchmark for evenrev: one workload per process, metrics as a JSON last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli_files --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes with spans around evenrev's public functions and prints per-layer self
times and work counts instead (values are for one set-up plus one pass), and
writes every span to ``perfbench/results/``.  evenrev is imported from
``src/`` next to this directory; without it the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os

# One caller, no threads: BLAS worker threads that spin between calls only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

#: Set-up is repeated and its median reported, as is the import in a fresh
#: process; the imports are spread over the run, one before each pass.  Each
#: is scaled to reference seconds by speed probes on either side of it.
SETUP_REPEATS = 3
IMPORT_REPEATS = 9
#: A run makes passes until ``--seconds`` have gone by, and at least this many.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "decompose_msps": "MS/s",
    "reconstruct_msps": "MS/s",
    "peak_rss_mb": "MB",
}

_SPANS_TIMED = [
    "laurent.subdivide", "laurent.circular_convolve", "laurent.symbol", "masks.build",
    "inverse.even_inverse_spectral", "inverse.decay_certificate", "inverse.check_even_reversible",
    "transform.decimate_exact", "transform.decimate_kernel", "transform.decompose",
    "transform.reconstruct", "transform.threshold_details",
    "analysis.decay_report", "analysis.stability", "analysis.compression_experiment",
    "analysis.estimate_subdivision_sup_norm",
    "serialize.dump_json", "serialize.load_json", "serialize.pyramid_to_obj",
    "serialize.pyramid_from_obj", "serialize.signal_csv", "serialize.write_text_atomic",
    "cli.mask", "cli.invert", "cli.decompose", "cli.compress", "cli.reconstruct",
] + [f"selftest.criterion_{cid}" for cid in [*map(str, range(1, 11)), "11a", "11b"]]

#: Per-layer metrics: ``<span>.self_s``, ``<span>.calls`` or a work count.
PER_LAYER_UNITS = {f"{span}.self_s": "s" for span in _SPANS_TIMED}
PER_LAYER_UNITS.update({
    "laurent.subdivide.calls": "count",
    "laurent.subdivide.samples_out": "count",
    "laurent.circular_convolve.calls": "count",
    "laurent.symbol.points": "count",
    "laurent.as_signal.calls": "count",
    "laurent.as_signal.bytes": "bytes",
    "inverse.even_inverse_spectral.calls": "count",
    "serialize.bytes_written": "bytes",
    "serialize.bytes_read": "bytes",
})


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_files", "small_signals", "paper_study", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_evenrev():
    """evenrev from ``src/`` beside the benchmark, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "evenrev", "__init__.py")):
        sys.exit(f"error: no evenrev sources under {SRC}")
    sys.path.insert(0, SRC)
    import evenrev
    import evenrev.cli
    import evenrev.selftest
    import evenrev.serialize

    if os.path.dirname(os.path.dirname(os.path.abspath(evenrev.__file__))) != SRC:
        sys.exit(f"error: evenrev imported from {evenrev.__file__}, not {SRC}")
    return evenrev


def import_evenrev_cli() -> None:
    """Start a fresh interpreter that imports evenrev and its CLI, and wait for it."""
    subprocess.run([sys.executable, "-c", "import evenrev.cli"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)


def scaled_seconds(fn, *args) -> float:
    """Wall time of ``fn(*args)`` in reference seconds, scaled by a speed probe
    on either side of it (see ``speed.py``)."""
    before = speed.probe()
    start = time.perf_counter()
    fn(*args)
    seconds = time.perf_counter() - start
    return seconds * speed.factor([before, speed.probe()])


def _layer_value(name: str, snap: dict) -> float:
    if name.endswith(".self_s"):
        return snap["self_s"].get(name[: -len(".self_s")], 0.0)
    if name.endswith(".calls"):
        return snap["calls"].get(name[: -len(".calls")], 0)
    return snap["counts"].get(name, 0)


def run_workload(args) -> dict:
    er = _import_evenrev()
    import tracer as tr
    from workloads import WORKLOADS, Context, make_workdir, remove_workdir

    tracer = tr.Tracer()
    if args.trace:
        tr.install(tracer, er)
    workload = WORKLOADS[args.workload]()
    workdir = make_workdir(WORK, args.workload)
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            tracer.active = bool(args.trace) and rep == SETUP_REPEATS - 1
            setup_times.append(scaled_seconds(workload.setup, er, args.seed, workdir))
            tracer.active = False
        setup_phase = tracer.snapshot()

        ctx = Context(er, tracer, workdir)
        import_times = []
        start = time.perf_counter()
        while len(ctx.passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            if len(import_times) < IMPORT_REPEATS:
                import_times.append(scaled_seconds(import_evenrev_cli))
            tracer.active = bool(args.trace)
            ctx.run_pass(workload)
            tracer.active = False
        while len(import_times) < IMPORT_REPEATS:
            import_times.append(scaled_seconds(import_evenrev_cli))
    finally:
        remove_workdir(workdir)

    passes = len(ctx.passes)
    for msg in ctx.ledger.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    summary = ctx.summary()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "import_s": import_times,
                      "setup_runs_s": setup_times, "passes": ctx.passes,
                      "failed_ops": ctx.ledger.failed_ops, **summary}), file=sys.stderr)
    if args.trace:
        total = tracer.snapshot()
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            once = _layer_value(name, setup_phase)
            value = once + (_layer_value(name, total) - once) / passes
            if unit != "s" and float(value).is_integer():
                value = int(value)
            metrics[name] = {"value": value, "unit": unit}
        stem = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}")
        tracer.write(stem + ".npz")
        with open(stem + ".json", "w") as fh:
            json.dump({"passes": passes, "traced_pass_s": summary["pass_s"], "metrics": metrics},
                      fh, indent=1)
    else:
        metrics = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            **summary,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    ledger = ctx.ledger
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process; one summary line each, then all results."""
    results = {}
    for name in ("cli_files", "small_signals", "paper_study"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: correct={res['correct']} failed {res['failed']} of {res['attempted']}; {shown}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
