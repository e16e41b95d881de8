"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload has a ``setup`` that writes every input and config file the
program receives into a directory, and a ``prepare`` that loads them and
returns a :class:`Pass`: the operations of one closed-loop pass (each waits
for the previous one) and a check of their outputs.  Sizes come in two
kinds: "full" for measurement and "tiny" for the self-test.

The program is imported from the ``src`` directory of this checkout, never
from an installed copy, so a checkout without the sources fails to run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import numpy as np  # noqa: E402

import adaptkan  # noqa: E402
from adaptkan import cli, network, optim, tasks  # noqa: E402

if not Path(adaptkan.__file__).resolve().is_relative_to(CHECKOUT / "src"):
    raise ImportError(f"adaptkan was imported from {adaptkan.__file__}, not from {CHECKOUT / 'src'}")

# Criterion 05: the [2,5,1] recipe must reach this test RMSE on II.38.3 in
# its best round.
RMSE_TARGET = 1e-2
# Criterion 07: histogram scoring must separate N(0,1) from N(3,1) this well.
AUROC_TARGET = 0.95

FEYNMAN_LRS = (0.01, 0.005, 0.001, 0.0005, 0.0001)
FEYNMAN_OMEGAS = (3, 5, 10, 20, 50)

# The demo config demos/configs/clf_train.json, with fewer epochs.
CLF_CONFIG = {
    "shape": [2, 10], "lr": 0.1, "batch_size": 500, "train_n": 8000, "test_n": 2000,
    "output_mode": "squared_norm", "lam_origin": 10.0, "lam_f": 1.0, "lam_g": 1.0,
    "lam_bowl": 1.0, "tau": 0.1, "bounds": [-3.0, 3.0],
    "init": {"mode": "linear", "noise": 0.1, "omega": 3, "domain": [-3.0, 3.0]},
    "adapt": {"alpha": 0.01, "stretch_mode": "max"},
}


def _feynman_rounds(steps):
    return [{"lr": lr, "steps": steps, "omega": w} for lr, w in zip(FEYNMAN_LRS, FEYNMAN_OMEGAS)]


PARAMS = {
    "regress_small": {
        "full": {"shape": [2, 5, 1], "batch_size": 128, "rounds": _feynman_rounds(300),
                 "adapt": {}, "predict_reps": 50, "rmse_target": RMSE_TARGET},
        "tiny": {"shape": [2, 5, 1], "batch_size": 128, "rounds": _feynman_rounds(200),
                 "adapt": {}, "predict_reps": 2, "rmse_target": RMSE_TARGET},
    },
    "regress_wide": {
        "full": {"shape": [2, 32, 32, 1], "batch_size": 1024,
                 "rounds": [{"lr": 0.01, "steps": 10, "omega": 10},
                            {"lr": 0.005, "steps": 10, "omega": 50}],
                 "adapt": {}, "predict_reps": 6, "rmse_target": None},
        "tiny": {"shape": [2, 32, 32, 1], "batch_size": 256,
                 "rounds": [{"lr": 0.01, "steps": 2, "omega": 10},
                            {"lr": 0.005, "steps": 2, "omega": 50}],
                 "adapt": {}, "predict_reps": 1, "rmse_target": None},
    },
    "clf": {
        "full": {"epochs": 20, "train_n": 8000, "trajectories": 1000, "horizon": 1.0,
                 "dt": 0.01, "C": 0.5},
        "tiny": {"epochs": 2, "train_n": 2000, "trajectories": 100, "horizon": 0.2,
                 "dt": 0.01, "C": 0.5},
    },
    "ood": {
        "full": {"fit_rows": 10000, "id_rows": 5000, "shifted_rows": 5000,
                 "features": 8, "shift": 3.0},
        "tiny": {"fit_rows": 2000, "id_rows": 1000, "shifted_rows": 1000,
                 "features": 8, "shift": 3.0},
    },
}


@dataclass
class Op:
    """One call of a pass.  ``phase`` is "fit", "apply" or None; ``units``
    is the work it does in that phase (steps, rows, trajectory-steps)."""

    name: str
    fn: object
    phase: str | None = None
    units: float = 0.0


@dataclass
class Pass:
    ops: list
    # check(results) -> ({op name: failure note}, recorded outputs)
    check: object
    results: dict = field(default_factory=dict)


def _write_matrix(path, X) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(X.shape[1])])
        writer.writerows([repr(float(v)) for v in row] for row in X)


def _count_rows(path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in fh) - 1


def _cli(argv):
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# ----------------------------------------------------------------------
# regress_small / regress_wide: the library trainer
# ----------------------------------------------------------------------

def setup_regress(d: Path, seed: int, p: dict) -> None:
    (X_tr, y_tr), (X_te, y_te) = tasks.generate(tasks.get_task("II.38.3"), seed=seed)
    np.savez(d / "data.npz", X_tr=X_tr, y_tr=y_tr, X_te=X_te, y_te=y_te)
    (d / "config.json").write_text(json.dumps({**p, "seed": seed}))


def prepare_regress(d: Path) -> Pass:
    cfg = json.loads((d / "config.json").read_text())
    with np.load(d / "data.npz") as z:
        data = (z["X_tr"], z["y_tr"], z["X_te"], z["y_te"])
    X_te, y_te = data[2], data[3]
    net = network.init_network(cfg["shape"], mode="kan", noise=0.5, seed=cfg["seed"],
                               cfg=adaptkan.AdaptConfig(**cfg["adapt"]))
    plan = optim.TrainPlan(rounds=cfg["rounds"], batch_size=cfg["batch_size"],
                           seed=cfg["seed"])
    steps = sum(r["steps"] for r in cfg["rounds"])
    predicts = [f"predict{i}" for i in range(cfg["predict_reps"])]

    def predict():
        return net.forward(X_te, record=False)[0]

    def check(res):
        fails = {}
        history = res["train"]
        final = history[-1]["test_rmse"]
        # criterion 05 scores a run by its best round
        best = min(h["test_rmse"] for h in history)
        if any(h["fail"] for h in history):
            fails["train"] = "a round hit non-finite values (fail=1)"
        elif not all(math.isfinite(h["train_rmse"]) and math.isfinite(h["test_rmse"])
                     for h in history):
            fails["train"] = "non-finite RMSE"
        elif cfg["rmse_target"] is not None and not best <= cfg["rmse_target"]:
            fails["train"] = f"best test RMSE {best:.3e} > {cfg['rmse_target']}"
        for name in predicts:
            pred = res[name]
            if pred.shape != (len(X_te), 1) or not np.all(np.isfinite(pred)):
                fails[name] = f"bad prediction of shape {pred.shape}"
            elif not math.isclose(tasks.rmse(pred[:, 0], y_te), final, rel_tol=1e-9):
                fails[name] = "prediction RMSE differs from the trainer's test RMSE"
        return fails, {"test_rmse": final, "best_test_rmse": best,
                       "adapt_events": sum(h["adapt_events"] for h in history)}

    return Pass([Op("train", lambda: optim.train(net, data, plan), "fit", steps)]
                + [Op(name, predict, "apply", len(X_te)) for name in predicts], check)


# ----------------------------------------------------------------------
# clf: train, simulate and conformal through the CLI
# ----------------------------------------------------------------------

def setup_clf(d: Path, seed: int, p: dict) -> None:
    cfg = {**CLF_CONFIG, "epochs": p["epochs"], "train_n": p["train_n"], "seed": seed}
    (d / "clf_train.json").write_text(json.dumps(cfg, indent=1))
    (d / "params.json").write_text(json.dumps({**p, "seed": seed}))


def prepare_clf(d: Path) -> Pass:
    p = json.loads((d / "params.json").read_text())
    cfg = json.loads((d / "clf_train.json").read_text())
    seed = str(p["seed"])
    out = d / "out"
    model, report = out / "model.json", out / "report.csv"
    steps_per_epoch = cfg["train_n"] // cfg["batch_size"]
    sim_steps = int(round(p["horizon"] / p["dt"]))
    train = ["clf", "train", "--config", str(d / "clf_train.json"), "--seed", seed,
             "--out-dir", str(out)]
    simulate = ["clf", "simulate", "--model", str(model), "--trajectories",
                str(p["trajectories"]), "--horizon", repr(p["horizon"]), "--dt", repr(p["dt"]),
                "--seed", seed, "--out", str(report)]
    conformal = ["clf", "conformal", "--report", str(report), "--C", repr(p["C"])]

    def check(res):
        fails = {}
        for name in ("train", "simulate", "conformal"):
            if res[name][0] != 0:
                fails[name] = f"exit code {res[name][0]}"
        outputs = {}
        if "train" not in fails:
            with open(out / "clf_metrics.csv", newline="") as fh:
                losses = [float(row["loss"]) for row in csv.DictReader(fh)]
            outputs["final_loss"] = losses[-1]
            if len(losses) != cfg["epochs"] or not all(map(math.isfinite, losses)):
                fails["train"] = "missing or non-finite epoch loss"
        if "simulate" not in fails:
            rows = _count_rows(report)
            if rows != p["trajectories"]:
                fails["simulate"] = f"report has {rows} rows for {p['trajectories']} trajectories"
            outputs["diverged"] = sum(1 for line in report.read_text().split()[1:]
                                      if line == "inf")
        if "conformal" not in fails:
            value = float(res["conformal"][1])
            outputs["confidence"] = value
            if not 0.0 <= value <= 1.0:
                fails["conformal"] = f"confidence {value} outside [0, 1]"
        return fails, outputs

    return Pass([Op("train", lambda: _cli(train), "fit", cfg["epochs"] * steps_per_epoch),
                 Op("simulate", lambda: _cli(simulate), "apply", p["trajectories"] * sim_steps),
                 Op("conformal", lambda: _cli(conformal))], check)


# ----------------------------------------------------------------------
# ood: fit, score twice and AUROC through the CLI on CSV files
# ----------------------------------------------------------------------

def setup_ood(d: Path, seed: int, p: dict) -> None:
    rng = np.random.default_rng(seed)
    n = p["features"]
    _write_matrix(d / "fit.csv", rng.normal(0.0, 1.0, size=(p["fit_rows"], n)))
    _write_matrix(d / "id.csv", rng.normal(0.0, 1.0, size=(p["id_rows"], n)))
    _write_matrix(d / "shifted.csv", rng.normal(p["shift"], 1.0, size=(p["shifted_rows"], n)))
    (d / "params.json").write_text(json.dumps({**p, "seed": seed}))


def prepare_ood(d: Path) -> Pass:
    p = json.loads((d / "params.json").read_text())
    scorer, id_out, sh_out = d / "scorer.json", d / "id_scores.csv", d / "shifted_scores.csv"
    fit = ["ood", "fit", "--features", str(d / "fit.csv"), "--out", str(scorer)]
    score_id = ["ood", "score", "--scorer", str(scorer), "--features", str(d / "id.csv"),
                "--out", str(id_out)]
    score_sh = ["ood", "score", "--scorer", str(scorer), "--features", str(d / "shifted.csv"),
                "--out", str(sh_out)]
    auroc = ["ood", "auroc", "--id", str(id_out), "--ood", str(sh_out)]

    def check(res):
        fails = {}
        for name in ("fit", "score_id", "score_shifted", "auroc"):
            if res[name][0] != 0:
                fails[name] = f"exit code {res[name][0]}"
        for name, path, rows in (("score_id", id_out, p["id_rows"]),
                                 ("score_shifted", sh_out, p["shifted_rows"])):
            if name not in fails and _count_rows(path) != rows:
                fails[name] = f"{_count_rows(path)} scores for {rows} rows"
        outputs = {}
        if "auroc" not in fails:
            value = float(res["auroc"][1])
            outputs["auroc"] = value
            if not value >= AUROC_TARGET:
                fails["auroc"] = f"AUROC {value:.4f} < {AUROC_TARGET}"
        return fails, outputs

    return Pass([Op("fit", lambda: _cli(fit), "fit", p["fit_rows"]),
                 Op("score_id", lambda: _cli(score_id), "apply", p["id_rows"]),
                 Op("score_shifted", lambda: _cli(score_sh), "apply", p["shifted_rows"]),
                 Op("auroc", lambda: _cli(auroc))], check)


WORKLOADS = {
    "regress_small": (setup_regress, prepare_regress),
    "regress_wide": (setup_regress, prepare_regress),
    "clf": (setup_clf, prepare_clf),
    "ood": (setup_ood, prepare_ood),
}


def setup(workload: str, seed: int, size: str, d: Path) -> None:
    """Write every input and config of one workload run into ``d``."""
    d.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload][0](d, seed, PARAMS[workload][size])


def prepare(workload: str, d: Path) -> Pass:
    """Load the inputs in ``d`` and return a fresh pass over them."""
    return WORKLOADS[workload][1](d)
