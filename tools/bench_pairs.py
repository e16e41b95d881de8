"""Alternating benchmark runs of two checkouts, summarised per metric.

    python tools/bench_pairs.py PARENT CHANGE [--workloads regress_small,clf]
        [--pairs 10] [--seeds 1]

PARENT and CHANGE are two checkouts, e.g. the parent commit and the change
each unpacked in its own directory.  For every workload and pair i the tool
runs ``perfbench/run.py --seed A+i --trace 0`` from each checkout's root for
the ``run_seconds`` of CHANGE's BENCHMARK.json, the parent first in even
pairs and the change first in odd ones, and reads the result line each run
prints last.  Both runs of a pair use the same seed.

It writes BENCH_pairs.json in the working directory, rewritten after each
workload so partial results survive.  The file holds the commits, the host and the seeds, and for each
workload its failed and attempted operations per side and, for each
end-to-end metric of BENCHMARK.json, both sides' values, medians and
quartiles, the parent's IQR over its median, the pairs the change wins
(direction from the metric's ``better``) and one verdict:

  claimed           at least 10 pairs, the change wins at least 9 in 10 of
                    them (ties count for neither side), its median beats the
                    parent's by more than the parent's IQR, and it failed no
                    larger share of operations than the parent
  worse than bound  the change's median is worse than the parent's by more
                    than the metric's relative ``bound``
  unresolved        either side's IQR exceeds ``bound`` times its median,
                    so the runs spread too widely to tell, and not every
                    run of the change reads better than every parent run
  within bound      none of the above

The verdicts are tried in that order.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

OUT = Path("BENCH_pairs.json")
MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """(q1, median, q3) of a non-empty sequence, inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent, change, better: str, bound: float, fails_more: bool = False) -> dict:
    """Summary and verdict of one metric's paired values (see module doc);
    ``fails_more``: the change failed a larger share of operations."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    spread = p_q3 - p_q1 > bound * abs(p_med) or c_q3 - c_q1 > bound * abs(c_med)
    if (len(parent) >= MIN_CLAIM_PAIRS and wins >= CLAIM_WIN_SHARE * len(parent)
            and gain > p_q3 - p_q1 and not fails_more):
        result = "claimed"
    elif -gain > bound * abs(p_med):
        result = "worse than bound"
    elif spread and not min(sign * c for c in change) > max(sign * p for p in parent):
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "pairs": len(parent), "change_wins": wins,
        "parent": {"values": list(parent), "q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"values": list(change), "q1": c_q1, "median": c_med, "q3": c_q3},
        "parent_iqr_rel": (p_q3 - p_q1) / abs(p_med) if p_med else None,
        "ratio": c_med / p_med if p_med else None,
        "verdict": result,
    }


def checkout_record(root: Path) -> dict:
    """The checkout's commit and whether it has uncommitted changes."""
    record = {"commit": None, "dirty": None}
    if (root / ".git").exists():
        git = ["git", "-C", str(root)]
        record["commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                          text=True).stdout.strip() or None
        record["dirty"] = bool(subprocess.run(git + ["status", "--porcelain"],
                                              capture_output=True, text=True).stdout.strip())
    return record


def host_record() -> dict:
    import numpy as np
    return {"node": platform.node(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpus": len(os.sched_getaffinity(0))}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run's result line, or None if the run printed none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_pairs(roots: dict, workload: str, seeds, seconds: float) -> list:
    """[(parent result, change result)] per seed, alternating which side runs first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            results[side] = run_once(roots[side], workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: "
                  f"{'no result' if results[side] is None else 'ok'}", file=sys.stderr)
        pairs.append((results["parent"], results["change"]))
    return pairs


def summarise(pairs, metrics) -> dict:
    """The workload entry of the output file from its paired results."""
    whole = [(p, c) for p, c in pairs if p is not None and c is not None]
    out = {side: {"runs_without_result": sum(r[k] is None for r in pairs),
                  "attempted": sum(r[k]["attempted"] for r in pairs if r[k] is not None),
                  "failed": sum(r[k]["failed"] for r in pairs if r[k] is not None)}
           for k, side in enumerate(("parent", "change"))}
    fails_more = (out["change"]["failed"] * max(out["parent"]["attempted"], 1)
                  > out["parent"]["failed"] * max(out["change"]["attempted"], 1))
    out["metrics"] = {}
    for m in metrics:
        name = m["name"]
        if not whole:
            continue
        entry = verdict([p["metrics"][name]["value"] for p, _ in whole],
                        [c["metrics"][name]["value"] for _, c in whole], m["better"], m["bound"],
                        fails_more)
        out["metrics"][name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                **entry}
    return out


def parse_seeds(text: str, pairs: int) -> list:
    """``A`` gives A .. A+pairs-1; ``A-B`` must hold exactly ``pairs`` seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi) + 1)) if hi else list(range(int(lo), int(lo) + pairs))
    if len(seeds) != pairs:
        raise ValueError(f"seeds {text} give {len(seeds)} seeds for {pairs} pairs")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: all of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1", help="first seed A, or a range A-B")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = set(workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    try:
        seeds = parse_seeds(args.seeds, args.pairs)
    except ValueError as exc:
        parser.error(str(exc))
    report = {"parent": checkout_record(roots["parent"]),
              "change": checkout_record(roots["change"]),
              "host": host_record(), "seeds": seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in workloads:
        pairs = run_pairs(roots, workload, seeds, spec["run_seconds"])
        report["workloads"][workload] = summarise(pairs, spec["end_to_end"])
        OUT.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:14s} {name:12s} {m['parent']['median']:12.4g} "
                  f"{m['change']['median']:12.4g} wins {m['change_wins']}/{m['pairs']} "
                  f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
