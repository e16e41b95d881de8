"""adaptkan benchmark: one workload run, end-to-end or traced per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {regress_small,regress_wide,clf,ood}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

A run sets the workload up SETUP_REPS times in fresh interpreters (the
median is ``setup_s``), then runs closed-loop passes in this process for
about S seconds: one caller, each call waiting for the previous one.  The
first pass warms caches and is checked but not measured.  With ``--trace 1``
the passes alternate traced and untraced, and the per-layer self times come
from the traced ones.  The last line of stdout is the JSON result; the line
before it is the run record.  See perfbench/README.md for the metrics.
"""

import os

# The BLAS thread count is fixed before numpy is imported, here and in the
# set-up interpreters that inherit this environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

try:
    import workloads
except ImportError as exc:
    sys.exit(f"cannot import the program from this checkout: {exc}")

import numpy as np  # noqa: E402

from tracer import ROOT, SPAN_NAMES, Tracer, parent_counts, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = workloads.CHECKOUT / ".perfbench"
SETUP_REPS = 5
# Passes stop starting once a run is this old, whatever --seconds says.
MAX_RUN_S = 150.0
# Callers whose network.backward parameter gradients are handed on to
# Adam.step; every other caller (clf.lyapunov_value_and_grad) drops them.
GRADS_TO_ADAM = ("optim.train", "clf.clf_loss_and_grads")


class SetupError(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="adaptkan benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def setup_once(args, d: Path) -> float:
    """Set the workload up into ``d`` in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), args.workload, str(args.seed),
         args.size, str(d)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip())
    return float(proc.stdout.split()[-1])


def run_pass(workload: str, d: Path, tracer: Tracer | None = None) -> dict:
    """One closed-loop pass: the workload's calls in order, then its checks."""
    p = workloads.prepare(workload, d)
    durations = {}

    def timed():
        for op in p.ops:
            start = time.perf_counter()
            try:
                p.results[op.name] = op.fn()
            except Exception as exc:  # a failed call is counted; the run goes on
                traceback.print_exc(file=sys.stderr)
                p.results[op.name] = exc
            durations[op.name] = time.perf_counter() - start

    if tracer is not None:
        tracer.install()
        timed = tracer.wrap(ROOT, timed)
    # every pass starts from the same heap, not from the garbage of the last one
    gc.collect()
    start = time.perf_counter()
    try:
        timed()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()

    raised = {n: f"raised {r!r}" for n, r in p.results.items() if isinstance(r, Exception)}
    try:
        fails, outputs = p.check(p.results)
    except Exception as exc:  # checks read outputs a failed call may not have written
        fails, outputs = {op.name: f"check failed: {exc!r}" for op in p.ops}, {}
    fails.update(raised)

    def rates(phase):
        return [op.units / durations[op.name] for op in p.ops if op.phase == phase]

    return {"wall": wall, "fit_per_s": rates("fit"), "apply_per_s": rates("apply"),
            "ops": len(p.ops), "fails": fails, "outputs": outputs,
            "traced": tracer is not None}


def run(args, work: Path, tracer: Tracer):
    """Set-ups and passes for about --seconds; returns (set-up times, passes).

    The first set-up provides the inputs; the other SETUP_REPS - 1 run after
    the first passes, so their median samples more of the run than a burst
    would.  Pass 0 is a warm-up.  Passes stop when the next would overrun.
    """
    d = work / "inputs"
    setup_times = [setup_once(args, d)]
    start = time.perf_counter()
    passes = [run_pass(args.workload, d)]
    while True:
        # with tracing on, passes alternate traced / untraced, traced first
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.op = len(passes)
        passes.append(run_pass(args.workload, d, tracer if traced else None))
        if len(setup_times) < SETUP_REPS:
            setup_times.append(setup_once(args, work / f"setup{len(setup_times)}"))
        elapsed = time.perf_counter() - start
        enough = len(passes) - 1 >= (2 if args.trace else 1)
        next_pass = max(r["wall"] for r in passes[-2:])
        if enough and (elapsed + next_pass > args.seconds or elapsed > MAX_RUN_S):
            return setup_times, passes


def end_to_end(passes, setup_times) -> dict:
    measured = passes[1:]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r["wall"] for r in measured), "s"),
        # medians over every call of the phase, so a phase of many short
        # calls is not judged by a few samples
        "fit_per_s": (statistics.median(x for r in measured for x in r["fit_per_s"]), "1/s"),
        "apply_per_s": (statistics.median(x for r in measured for x in r["apply_per_s"]), "1/s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(passes, spans) -> dict:
    traced = [r for r in passes[1:] if r["traced"]]
    untraced = [r for r in passes[1:] if not r["traced"]]
    n = len(traced)
    totals = self_times(spans)
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    backward = parent_counts(spans, "network.backward")
    used = sum(backward.get(caller, 0) for caller in GRADS_TO_ADAM)
    metrics["network.backward.grads_used_ratio"] = (ratio(used, sum(backward.values())), "ratio")
    metrics["adapt.event_ratio"] = (ratio(metrics["adapt.apply_adapt.calls"][0],
                                          metrics["adapt.decide.calls"][0]), "ratio")
    traced_wall = [r["wall"] for r in traced]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_wall) / statistics.median(r["wall"] for r in untraced), "ratio")
    self_sum = sum(metrics[f"{name}.self_s"][0] for name in SPAN_NAMES)
    metrics["trace.self_sum_ratio"] = (self_sum / statistics.mean(traced_wall), "ratio")
    return metrics


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without the dicts mode
        return "unknown"


def git_commit() -> str:
    if not (workloads.CHECKOUT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(workloads.CHECKOUT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer()
    try:
        setup_times, passes = run(args, work, tracer)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(passes, tracer.spans) if args.trace else end_to_end(passes, setup_times)
    failures = [{"pass": i, "op": op, "note": note}
                for i, r in enumerate(passes) for op, note in r["fails"].items()]
    attempted = sum(r["ops"] for r in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "params": workloads.PARAMS[args.workload][args.size],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "setup_times_s": setup_times,
        "pass_walls_s": [r["wall"] for r in passes], "pass_traced": [r["traced"] for r in passes],
        "outputs": [r["outputs"] for r in passes],
        "error_rate": len(failures) / attempted, "failures": failures,
        "missing_spans": tracer.missing,
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write_csv(stem.with_suffix(".spans.csv"))
    for f in failures:
        print(f"check failed: pass {f['pass']} {f['op']}: {f['note']}", file=sys.stderr)

    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
