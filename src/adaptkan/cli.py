"""Command-line front end.

Subcommands: train, eval, ood fit|score|auroc, clf train|simulate|conformal.
Configuration files and models are JSON; datasets, metrics and reports are
CSV with headers, written with full round-trip float precision.  Exit codes:
0 success, 1 numerical failure, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .adapt import AdaptConfig
from .clf import (
    ClfLossConfig,
    ConformalReport,
    analytical_clf,
    final_distances,
    make_network_clf,
    make_sontag_controller,
    simulate,
    train_clf,
)
from .model_io import load_model, save_model
from .network import NonFiniteError, init_network
from .ood import DEFAULT_BINS_HIST, OodScorer, auroc
from .optim import TrainPlan, train
from .tasks import generate, get_task, load_dataset, read_table, rmse, write_table

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key: {key}")
    return cfg[key]


def _write_csv(path, header, rows) -> None:
    """Write a small mixed table (ints, floats, empty cells); numeric tables
    go through :func:`write_table`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _build_net(cfg: dict, shape, seed: int):
    init = cfg.get("init", {})
    adapt = AdaptConfig(**cfg.get("adapt", {}))
    return init_network(
        shape,
        mode=init.get("mode", "kan"),
        noise=init.get("noise", 0.5),
        omega=init.get("omega", 3),
        domain=tuple(init.get("domain", (-1.0, 1.0))),
        seed=seed,
        cfg=adapt,
    )


# ----------------------------------------------------------------------
# train / eval
# ----------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    task = get_task(_require(cfg, "task"))
    if cfg.get("train_n") or cfg.get("test_n"):
        from dataclasses import replace
        task = replace(task, train_n=cfg.get("train_n", task.train_n),
                       test_n=cfg.get("test_n", task.test_n))
    shape = _require(cfg, "shape")
    if shape[0] != task.arity:
        raise ConfigError(f"shape input width {shape[0]} != task arity {task.arity}")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    plan = TrainPlan(
        rounds=_require(cfg, "rounds"),
        optimizer=cfg.get("optimizer", "adam"),
        weight_decay=cfg.get("weight_decay", 0.0),
        poly_decay=cfg.get("poly_decay", True),
        batch_size=cfg.get("batch_size", 128),
        seed=seed,
        sparsity_lambda=cfg.get("sparsity_lambda", 0.0),
    )
    (X_tr, y_tr), (X_te, y_te) = generate(task, seed=seed)
    net = _build_net(cfg, shape, seed)
    history = train(net, (X_tr, y_tr, X_te, y_te), plan)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    plan_meta = {"rounds": [{"lr": r.lr, "steps": r.steps, "omega": r.omega}
                            for r in plan.rounds],
                 "optimizer": plan.optimizer, "weight_decay": plan.weight_decay,
                 "poly_decay": plan.poly_decay, "batch_size": plan.batch_size,
                 "sparsity_lambda": plan.sparsity_lambda}
    save_model(net, f"{out}/model.json",
               meta={"task": task.name, "seed": seed, "plan": plan_meta})
    _write_csv(f"{out}/metrics.csv",
               ["round", "omega", "lr", "train_rmse", "test_rmse", "adapt_events", "fail"],
               [[h["round"], h["omega"], h["lr"], h["train_rmse"], h["test_rmse"],
                 h["adapt_events"], h["fail"]] for h in history])
    if any(h["fail"] for h in history):
        print("training hit non-finite values; see metrics.csv", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"final test RMSE: {history[-1]['test_rmse']:.6g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    net = load_model(args.model)
    X, y = load_dataset(args.data)
    pred, _ = net.forward(X, record=False)
    print(repr(rmse(pred[:, 0] if pred.shape[1] == 1 else pred, y)))
    return EXIT_OK


# ----------------------------------------------------------------------
# ood
# ----------------------------------------------------------------------

def cmd_ood_fit(args) -> int:
    X = read_table(args.features)
    scorer = OodScorer.fit(X, bins=args.bins)
    scorer.save(args.out)
    print(f"fitted {scorer.n_features} feature histograms with {scorer.n_bins} bins")
    return EXIT_OK


def cmd_ood_score(args) -> int:
    scorer = OodScorer.load(args.scorer)
    X = read_table(args.features)
    scores = scorer.score_hist(X)
    write_table(args.out, ["score"], scores)
    print(f"scored {len(scores)} rows")
    return EXIT_OK


def cmd_ood_auroc(args) -> int:
    id_scores = read_table(args.id_scores)[:, 0]
    ood_scores = read_table(args.ood_scores)[:, 0]
    print(repr(auroc(id_scores, ood_scores)))
    return EXIT_OK


# ----------------------------------------------------------------------
# clf
# ----------------------------------------------------------------------

def _clf_loss_config(cfg: dict) -> ClfLossConfig:
    keys = ("lam_origin", "lam_f", "lam_g", "lam_bowl", "lam_pos",
            "tau", "k1", "k2", "eps", "output_mode")
    return ClfLossConfig(**{k: cfg[k] for k in keys if k in cfg})


def cmd_clf_train(args) -> int:
    cfg = _load_config(args.config)
    shape = _require(cfg, "shape")
    epochs = _require(cfg, "epochs")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    loss_cfg = _clf_loss_config(cfg)
    bounds = cfg.get("bounds", (-3.0, 3.0))
    rng = np.random.default_rng(seed)
    X_tr = rng.uniform(bounds[0], bounds[1], size=(cfg.get("train_n", 8000), shape[0]))
    X_val = rng.uniform(bounds[0], bounds[1], size=(cfg.get("test_n", 2000), shape[0]))
    net = _build_net(cfg, shape, seed)
    history = train_clf(net, X_tr, loss_cfg, epochs,
                        lr=cfg.get("lr", 0.01),
                        batch_size=cfg.get("batch_size", 256),
                        seed=seed, X_val=X_val)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    save_model(net, f"{out}/model.json",
               meta={"seed": seed, "output_mode": loss_cfg.output_mode})
    _write_csv(f"{out}/clf_metrics.csv", ["epoch", "loss", "val_loss"],
               [[h["epoch"], h["loss"], h.get("val_loss", "")] for h in history])
    print(f"final training loss: {history[-1]['loss']:.6g}")
    return EXIT_OK


def cmd_clf_simulate(args) -> int:
    if args.analytical:
        provider = analytical_clf
    elif args.model:
        net = load_model(args.model)
        provider = make_network_clf(net, args.mode)
    else:
        raise ConfigError("missing config key: either --analytical or --model is required")
    controller = make_sontag_controller(provider)
    rng = np.random.default_rng(args.seed)
    x0 = rng.uniform(-3.0, 3.0, size=(args.trajectories, 2))
    if args.paths_out:
        finals, ok, path = simulate(x0, controller, horizon=args.horizon,
                                    dt=args.dt, return_path=True)
        steps, K = path.shape[:2]
        write_table(args.paths_out, ["time", "trajectory", "x1", "x2"],
                    np.column_stack([np.repeat(np.arange(steps) * args.dt, K),
                                     np.tile(np.arange(K), steps),
                                     path.reshape(-1, 2)]),
                    int_columns=(1,))
    else:
        finals, ok = simulate(x0, controller, horizon=args.horizon, dt=args.dt)
    dists = final_distances(finals, ok)
    write_table(args.out, ["final_distance"], np.sort(dists))
    print(f"simulated {len(dists)} trajectories, {int((~ok).sum())} failures")
    return EXIT_OK


def cmd_clf_conformal(args) -> int:
    dists = read_table(args.report)[:, 0]
    report = ConformalReport(dists)
    if args.C is not None:
        print(repr(report.confidence(args.C)))
    elif args.delta is not None:
        q = report.quantile(args.delta)
        print("inf" if math.isinf(q) else repr(q))
    else:
        raise ConfigError("missing config key: either --C or --delta is required")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptkan",
        description="Self-adapting spline networks: training, OOD scoring, Lyapunov control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a regression network from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    ood_p = sub.add_parser("ood", help="histogram OOD scoring")
    ood_sub = ood_p.add_subparsers(dest="ood_command", required=True)
    p = ood_sub.add_parser("fit", help="fit per-feature histograms")
    p.add_argument("--features", required=True)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS_HIST)
    p.add_argument("--out", default="scorer.json")
    p.set_defaults(fn=cmd_ood_fit)
    p = ood_sub.add_parser("score", help="score a features file")
    p.add_argument("--scorer", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default="scores.csv")
    p.set_defaults(fn=cmd_ood_score)
    p = ood_sub.add_parser("auroc", help="AUROC from two score files")
    p.add_argument("--id", dest="id_scores", required=True)
    p.add_argument("--ood", dest="ood_scores", required=True)
    p.set_defaults(fn=cmd_ood_auroc)

    clf_p = sub.add_parser("clf", help="control-Lyapunov pipeline")
    clf_sub = clf_p.add_subparsers(dest="clf_command", required=True)
    p = clf_sub.add_parser("train", help="train a Lyapunov candidate network")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn=cmd_clf_train)
    p = clf_sub.add_parser("simulate", help="closed-loop trajectories and final distances")
    p.add_argument("--analytical", action="store_true")
    p.add_argument("--model", default=None)
    p.add_argument("--mode", default="squared_norm", choices=("direct", "squared_norm"))
    p.add_argument("--trajectories", type=int, default=1000)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.csv")
    p.add_argument("--paths-out", default=None,
                   help="also write full trajectories (time, trajectory, x1, x2)")
    p.set_defaults(fn=cmd_clf_simulate)
    p = clf_sub.add_parser("conformal", help="confidence or distance bound from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(fn=cmd_clf_conformal)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
