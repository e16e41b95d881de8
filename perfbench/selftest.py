"""Self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload at ``--size tiny`` untraced and traced, and asserts that
each run exits 0, passes its output checks, and prints exactly the metrics
BENCHMARK.json names, with their units; that the traced run sees the calls
each workload is known to make (so the tracer patched every place a function
is looked up) and that self times add up to the traced wall time; that the
tracer restores the program when uninstalled; and that the benchmark refuses
to run in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys

import tracer
import workloads

CHECKOUT = workloads.CHECKOUT
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
# |1 - sum of self_s / traced wall_s| must stay below this.
SELF_SUM_TOLERANCE = 0.02

TRAIN_SPANS = ["network.forward", "network.backward", "network.refine_all",
               "histogram.update", "histogram.refit", "adapt.decide",
               "spline.refit_least_squares", "spline.refine_grid",
               "optim.Adam.step", "optim.train"]
EXPECTED_SPANS = {
    "regress_small": TRAIN_SPANS + ["adapt.apply_adapt"],
    "regress_wide": TRAIN_SPANS,
    "clf": ["network.forward", "network.backward", "network.forward_jvp",
            "network.backward_jvp", "histogram.update", "adapt.decide", "optim.Adam.step",
            "clf.train_clf", "clf.clf_loss_and_grads", "clf.lyapunov_value_and_grad",
            "clf.simulate", "model_io.save_model", "model_io.load_model", "cli.main",
            "cli.cmd_clf_train", "cli.cmd_clf_simulate", "cli.cmd_clf_conformal"],
    "ood": ["ood.OodScorer.fit", "ood.OodScorer.score_hist", "ood.auroc", "cli.main",
            "cli.cmd_ood_fit", "cli.cmd_ood_score", "cli.cmd_ood_auroc"],
}


def run(workload, trace, cwd=CHECKOUT):
    return subprocess.run(SPEC["command"] + ["--workload", workload, "--seed", "0",
                                             "--seconds", "1", "--trace", str(trace),
                                             "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{workload} trace={trace}: checks failed\n{proc.stderr}"
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, \
        f"{workload}: metric names differ: {set(metrics) ^ {m['name'] for m in spec}}"
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}"
        assert math.isfinite(got["value"]), f"{m['name']}: {got['value']}"
        if not trace:
            assert got["value"] > 0, f"{workload} {m['name']} is {got['value']}"
    if trace:
        for name in EXPECTED_SPANS[workload]:
            assert metrics[f"{name}.calls"]["value"] > 0, f"{workload}: no {name} span"
        ratio = metrics["trace.self_sum_ratio"]["value"]
        assert abs(1.0 - ratio) < SELF_SUM_TOLERANCE, f"{workload}: self times sum to {ratio}"
    return result


def check_install():
    """Names imported into other modules are wrapped too, and restored after."""
    mods = [m for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("adaptkan")]
    before = {m.__name__: dict(vars(m)) for m in mods}
    t = tracer.Tracer()
    t.install()
    try:
        assert not t.missing, f"targets not found: {t.missing}"
        for user, name, home in (("adaptkan.network", "decide", "adaptkan.adapt"),
                                 ("adaptkan.cli", "simulate", "adaptkan.clf"),
                                 ("adaptkan.adapt", "refit_least_squares", "adaptkan.spline")):
            wrapped = vars(sys.modules[user])[name]
            assert getattr(wrapped, "__wrapped__", None) is before[home][name], \
                f"{user}.{name} is not traced"
    finally:
        t.uninstall()
    for m in mods:
        for key, value in before[m.__name__].items():
            assert vars(m)[key] is value, f"{m.__name__}.{key} not restored"


def check_bare_directory():
    """The benchmark must fail, printing no result, without the program's sources."""
    bare = CHECKOUT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(CHECKOUT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("regress_small", 0, cwd=bare)
        assert proc.returncode != 0, "benchmark ran without the program's sources"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_install()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace)
            print(f"ok {workload} trace={trace}")
    check_bare_directory()
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
