#!/usr/bin/env python3
"""catcavity benchmark: one workload per run, in one process, closed loop.

    python3 benchmarks/run.py --workload figures|oracle|sweep --seed N \
        --seconds S --trace 0|1

A single caller runs passes of the workload back to back, each pass on fresh
inputs drawn from the seed, until S seconds have gone by, and checks every
pass's outputs outside the timed region.  The package is imported from the
`src` tree of the checkout that holds this file; without it the run exits
with code 2 and prints no result.

A pass runs in steps (one figure command, one oracle call, ten sweep
configs).  Each step's time is scaled by the host's speed at that moment,
measured with the workload's reference kernel (reference.py) just before
and just after the step; a pass's time is the sum of its scaled steps, and
pass and item times are summarised by their median over the run.  The
unscaled times are in the report.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json.
With --trace 1 the first half of the time runs untraced passes and the
second half traced ones: every public catcavity function is wrapped in a
span (see tracing.py), and the result carries the per-layer metrics of
BENCHMARK.json, per traced pass, plus the tracing overhead.  The raw spans
go to .bench_trace/<workload>-seed<seed>.json.

Standard output ends with two JSON lines: a report (environment, input
sizes, every metric, span summary) and the result
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: BLAS/OpenMP threads of the run process (at most nproc).  The kernels are
#: N <= 200 matrix-vector products and sparse products, which threads do
#: not speed up but make noisier.
BLAS_THREADS = 1
SETUP_SAMPLES = 8
#: Passes whose inputs are drawn up front; a longer run reuses them in turn.
INPUT_PASSES = 256
PASS_SPAN = "bench.pass"
#: peak_rss_mb is read after this many passes (or at the end of a shorter
#: run): the heap grows slowly from pass to pass through allocator
#: fragmentation, so a fixed amount of work keeps runs, and commits that run
#: more passes in the same time, comparable.
RSS_PASSES = 10

#: Counts summed over traced passes, reported per pass.
SUM_COUNTS = ("damping.f_star.kernel_elems", "oracle.integrate_trajectory.nfev",
              "cli.csv_bytes")
#: Counts reported as their largest value in the run.
PEAK_COUNTS = ("oracle.liouvillian.dim", "oracle.liouvillian.nnz")
ETA_DEFINED = "observables.eta_correlation.defined"


def _configure_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_workloads():
    """Import the workloads module against the checkout's own src tree."""
    if not (SRC / "catcavity" / "__init__.py").is_file():
        raise RuntimeError(f"no catcavity sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import warnings

    import catcavity
    import workloads
    if Path(catcavity.__file__).resolve().parent != SRC / "catcavity":
        raise RuntimeError(f"imported catcavity from {catcavity.__file__}")
    warnings.simplefilter("ignore", catcavity.ValidityWarning)
    return workloads


def _measure_setup(args):
    """Seconds from spawning a fresh interpreter until its inputs are ready
    and it has exited, raw and scaled by the start-up reference."""
    from reference import StartUp, StepTimer
    timer = StepTimer(StartUp())
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        timer.step(lambda: subprocess.run(cmd, capture_output=True,
                                          timeout=120, check=True))
        raw.append(timer.last / timer.last_scale)
        scaled.append(timer.last)
    return raw, scaled


# --------------------------------------------------------------------------
# tracing hooks: span name -> hook(tracer, args, kwargs, result)
# --------------------------------------------------------------------------

def _f_star_elems(tracer, args, kwargs, result):
    tracer.sums["damping.f_star.kernel_elems"] += float(result.size) ** 2


def _liouvillian_size(tracer, args, kwargs, result):
    for name, value in (("dim", result.shape[0]), ("nnz", result.nnz)):
        key = f"oracle.liouvillian.{name}"
        tracer.peaks[key] = max(tracer.peaks[key], float(value))


def _eta_defined(tracer, args, kwargs, result):
    tracer.sums[ETA_DEFINED] += result is not None


def _csv_bytes(tracer, args, kwargs, result):
    tracer.sums["cli.csv_bytes"] += sum(os.path.getsize(p) for p in result)


def _nfev(tracer, args, kwargs, result):
    tracer.sums["oracle.integrate_trajectory.nfev"] += result.nfev


HOOKS = {"damping.f_star": _f_star_elems,
         "oracle.liouvillian": _liouvillian_size,
         "observables.eta_correlation": _eta_defined,
         "cli.run_figure": _csv_bytes}
COUNTERS = {("catcavity.oracle", "solve_ivp"): _nfev}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def _run_passes(workload, inputs, seconds, trace, tracer):
    """Closed loop: one pass after another until each phase's time is up."""
    phases = [(False, seconds / 2.0), (True, seconds)] if trace else [
        (False, seconds)]
    from reference import StepTimer
    timer = StepTimer(workload.reference())
    passes = []
    start = time.perf_counter()
    for traced, phase_end in phases:
        first = True
        while first or time.perf_counter() - start < phase_end:
            first = False
            inp = inputs[len(passes) % len(inputs)]
            items = workload.items()
            failed = None
            raw_before, scaled_before = timer.raw, timer.scaled
            try:
                if traced:
                    with tracer.root(PASS_SPAN):
                        out = workload.run(inp, timer)
                else:
                    out = workload.run(inp, timer)
            except Exception as exc:  # a pass that raises fails every item
                out = {"errors": {"pass": repr(exc)},
                       "latencies": [math.nan] * items}
                failed = items
            wall = timer.raw - raw_before
            scaled = timer.scaled - scaled_before
            if failed is None:
                try:
                    failed = min(items, workload.check(inp, out))
                except Exception:  # a check that raises fails the pass
                    failed = items
            passes.append({"traced": traced, "raw_wall_s": wall,
                           "scale": scaled / wall if wall else math.nan,
                           "wall_s": scaled,
                           "rss_mb": _peak_rss_mb(),
                           "items": items, "failed": failed,
                           "latencies": out["latencies"],
                           "errors": out["errors"],
                           "f_dev_nb0": out.get("f_dev_nb0", 0.0),
                           "p_plus_dev": out.get("p_plus_dev", 0.0)})
    return passes


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _wall(passes):
    return statistics.median(p["wall_s"] for p in passes)


def _end_to_end(passes, setup_s):
    wall = _wall(passes)
    latencies = [1e3 * lat for p in passes for lat in p["latencies"]
                 if not math.isnan(lat)]
    if len(latencies) < 2:  # every pass failed
        latencies = [math.nan, math.nan]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    p50, p99 = cuts[49], cuts[98]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": passes[0]["items"] / wall,
        "item_p50_ms": p50,
        "item_p99_ms": p99,
        "peak_rss_mb": passes[:RSS_PASSES][-1]["rss_mb"],
    }, len(latencies)


def _layers(tracer, passes):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per = len(traced)
    summary = tracer.summary()
    values = {}
    for label in tracer.labels:
        entry = summary.get(label, {"calls": 0, "self_s": 0.0})
        values[f"{label}.calls"] = entry["calls"] / per
        values[f"{label}.self_s"] = entry["self_s"] / per
    for name in SUM_COUNTS:
        values[name] = tracer.sums[name] / per
    for name in PEAK_COUNTS:
        values[name] = tracer.peaks[name]
    eta_calls = summary.get("observables.eta_correlation", {}).get("calls", 0)
    values["observables.eta_correlation.defined_ratio"] = (
        tracer.sums[ETA_DEFINED] / eta_calls if eta_calls else 0.0)
    # unscaled per-pass means, the basis of the self times above
    values["trace.wall_s"] = sum(p["raw_wall_s"] for p in traced) / per
    values["trace.self_sum_s"] = sum(
        entry["self_s"] for name, entry in summary.items()
        if name != PASS_SPAN) / per
    values["trace.self_share"] = (values["trace.self_sum_s"]
                                  / values["trace.wall_s"])
    # on the basis of the end-to-end wall_s
    values["trace.untraced_wall_s"] = _wall(untraced)
    values["trace.overhead_s"] = _wall(traced) - _wall(untraced)
    return values, summary


def _environment(args, workloads):
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "inputs": workloads.WORKLOADS[args.workload].sizes()}


def _select(spec, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def _dump_spans(tracer, args):
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans, "sums": tracer.sums,
                   "peaks": tracer.peaks}, fh)
    return path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "oracle", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = _parse(argv)
    _configure_threads()
    try:
        workloads = _import_workloads()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = workloads.WORKLOADS[args.workload].make_inputs(
        random.Random(args.seed), INPUT_PASSES)
    if args.setup_only:  # exits without tearing the modules down
        os._exit(0)

    from tracing import Tracer
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # set-up is an end-to-end metric; a traced run reports only layers
    setup_raw, setup_samples = ([], []) if args.trace else _measure_setup(args)
    tracer = Tracer()
    if args.trace:
        tracer.install("catcavity", HOOKS, COUNTERS)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        workload = workloads.WORKLOADS[args.workload](tmp)
        passes = _run_passes(workload, inputs, args.seconds, args.trace,
                             tracer)
    tracer.uninstall()

    untraced = [p for p in passes if not p["traced"]]
    e2e, n_latencies = _end_to_end(
        untraced, statistics.median(setup_samples) if setup_samples else None)
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = dict(e2e)
    values["oracle.f_dev_nb0"] = max(p["f_dev_nb0"] for p in passes)
    values["oracle.p_plus_dev"] = max(p["p_plus_dev"] for p in passes)
    report = {"workload": args.workload, "env": _environment(args, workloads),
              "setup_samples_s": setup_samples,
              "setup_raw_samples_s": setup_raw,
              "passes": len(passes),
              "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
              "pass_scale": [p["scale"] for p in passes],
              "raw_wall_s": statistics.median(
                  p["raw_wall_s"] for p in untraced),
              "item_latency_samples": n_latencies,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted,
              "errors": [p["errors"] for p in passes if p["errors"]],
              "end_to_end": e2e,
              "diagnostics": {k: values[k] for k in
                              ("oracle.f_dev_nb0", "oracle.p_plus_dev")}}
    if args.trace:
        layers, summary = _layers(tracer, passes)
        values.update(layers)
        report["layers"] = layers
        report["spans"] = summary
        report["span_dump"] = str(_dump_spans(tracer, args).relative_to(ROOT))
        metrics = _select(spec["per_layer"], values)
    else:
        metrics = _select(spec["end_to_end"], values)

    shown = dict(metrics)
    if not args.trace:  # reported, but not bounded in BENCHMARK.json
        shown["item_p99_ms"] = {"value": e2e["item_p99_ms"], "unit": "ms"}
        shown["item_latency_samples"] = {"value": n_latencies,
                                         "unit": "count"}
    shown["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    for name, metric in shown.items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
