"""What the benchmark's tracer (perfbench/tracer.py) needs from the program.

The tracer finds each traced function by module and attribute name and
rebinds every module global that refers to it, so a rename, a name no
longer imported where it is called, or a reference captured before the
tracer installs makes its per-layer metrics read 0.  This checks those
conditions in well under a second, without running the benchmark.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import adaptkan
from adaptkan import adapt, cli, network, spline
from adaptkan.tasks import write_table

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(script: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{script}",
                                                  _PERFBENCH / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_wraps_every_target(tmp_path):
    assert adaptkan.__version__  # every adaptkan module is loaded
    tracer = _load("tracer")
    features = tmp_path / "f.csv"
    write_table(features, ["f0", "f1"], np.random.default_rng(0).normal(size=(50, 2)))
    argv = ["ood", "fit", "--features", str(features), "--out", str(tmp_path / "s.json")]
    decide, refit = adapt.decide, spline.refit_least_squares
    # a first call before installing, as the benchmark's untraced passes make
    assert cli.main(argv) == 0

    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert network.decide is not decide and network.decide.__wrapped__ is decide
        assert adapt.refit_least_squares is not refit
        assert adapt.refit_least_squares.__wrapped__ is refit
        assert cli.main(argv) == 0
        names = [span[0] for span in t.spans]
        assert "cli.main" in names and "cli.cmd_ood_fit" in names
        assert "ood.OodScorer.fit" in names
    finally:
        t.uninstall()
    assert network.decide is decide and adapt.refit_least_squares is refit


def test_training_spans_are_traced_once_per_layer():
    # the call sites the benchmark's training spans need: one histogram
    # update and one decision per layer per step, the refits of an
    # adaptation event and of a grid refinement, and one Adam step per step
    from adaptkan.optim import TrainPlan, train

    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, (64, 2))
    X[:, 0] *= 1.6  # a share of feature 0 beyond [-1, 1]: the first step stretches
    y = X[:, 0] + X[:, 1]
    net = adaptkan.init_network([2, 3, 1], seed=0)
    plan = TrainPlan(rounds=[{"lr": 1e-2, "steps": 15, "omega": 3},
                             {"lr": 1e-2, "steps": 15, "omega": 5}], batch_size=32, seed=0)
    tracer = _load("tracer")
    t = tracer.Tracer()
    t.install()
    try:
        train(net, (X, y, X, y), plan)
    finally:
        t.uninstall()
    calls = {name: n for name, (n, _) in tracer.self_times(t.spans).items()}
    assert net.adapt_events > 0
    for name in ("histogram.refit", "adapt.apply_adapt", "spline.refit_least_squares",
                 "spline.refine_grid"):
        assert calls.get(name, 0) > 0, name
    steps = 30
    assert calls["histogram.update"] == calls["adapt.decide"] == len(net.layers) * steps
    # one refit per adaptation event and per layer of the one refinement
    assert calls["spline.refine_grid"] == len(net.layers)
    assert calls["spline.refit_least_squares"] == (calls["adapt.apply_adapt"]
                                                   + calls["spline.refine_grid"])
    assert calls["optim.Adam.step"] == steps
    # the value passes open their own spans only: no tangent pass runs
    # inside them, so each per-layer network metric counts what it names
    assert calls["network.backward"] == steps
    assert calls["network.forward"] == steps + 2 * len(plan.rounds)  # + train/test RMSE
    assert "network.forward_jvp" not in calls and "network.backward_jvp" not in calls


def test_clf_training_spans_are_traced_once_per_step():
    # the CLF trainer draws from the same minibatch stream: one histogram
    # update and decision per layer per step, one loss and one Adam step
    from adaptkan import clf

    X = np.random.default_rng(0).uniform(-3.0, 3.0, (100, 2))
    net = adaptkan.init_network([2, 4, 2], mode="linear", noise=0.1, seed=0,
                                domain=(-3.0, 3.0))
    tracer = _load("tracer")
    t = tracer.Tracer()
    t.install()
    try:
        clf.train_clf(net, X, clf.ClfLossConfig(), epochs=3, lr=1e-2, batch_size=32, seed=0,
                      X_val=X, eval_every=1)
    finally:
        t.uninstall()
    calls = {name: n for name, (n, _) in tracer.self_times(t.spans).items()}
    steps = 3 * (100 // 32)
    assert calls["clf.train_clf"] == 1
    assert calls["histogram.update"] == calls["adapt.decide"] == len(net.layers) * steps
    assert calls["optim.Adam.step"] == calls["clf.clf_loss_and_grads"] == steps
    assert calls["network.forward_jvp"] == calls["network.backward_jvp"] == steps


def test_crosscheck_script_runs(monkeypatch):
    # perfbench/crosscheck.py times a training step and a network-controlled
    # simulation through the public API; one step of each keeps its calls
    # working.  It imports perfbench/workloads.py and pins the BLAS threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # restored when the test ends
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    try:
        crosscheck = _load("crosscheck")
        assert crosscheck.step_ms([2, 5, 1], steps=1) > 0.0
        assert crosscheck.simulate_s(trajectories=4, steps=1) > 0.0
    finally:
        sys.modules.pop("workloads", None)


def test_benchmark_selftest_passes():
    # every workload at its tiny size, traced and untraced, plus the refusal
    # to run in a bare directory: a change that breaks a benchmark run fails
    # here.  It writes its results under the gitignored .perfbench/.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=_PERFBENCH.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
