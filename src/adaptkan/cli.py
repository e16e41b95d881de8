"""Command-line front end.

Subcommands: train, eval, ood fit|score|auroc, clf train|simulate|conformal.
Configuration files and models are JSON; datasets, metrics and reports are
CSV with headers, written with full round-trip float precision.  Exit codes:
0 success, 1 numerical failure, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .adapt import AdaptConfig, from_json, require_count, require_real
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
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    return cfg


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


def _shape_and_sizes(cfg: dict):
    """The config's ``shape``, a list of at least two layer widths, and its given
    ``train_n``/``test_n``; each width and size must be an integer >= 1."""
    shape = _require(cfg, "shape")
    if not isinstance(shape, list) or len(shape) < 2:
        raise ConfigError(f"shape must be a list of at least two layer widths, got {shape!r}")
    sizes = {k: cfg[k] for k in ("train_n", "test_n") if k in cfg}
    for name, count in [*(("each shape width", w) for w in shape), *sizes.items()]:
        require_count(name, count)
    return shape, sizes


def _seed(args, cfg: dict) -> int:
    """The run's seed: ``--seed``, else the config's ``seed``, else 0; an
    integer >= 0."""
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def _given_fields(cls, cfg: dict) -> dict:
    """The entries of ``cfg`` that name fields of the dataclass ``cls``."""
    return {f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}


def _build_net(cfg: dict, shape, seed: int):
    """The config's network; ``init`` holds :func:`init_network` keywords but seed and cfg."""
    adapt = from_json(AdaptConfig, cfg.get("adapt", {}), "adapt block")

    def build(**init):  # a partial would let an init "seed" override the run's seed
        return init_network(shape, seed=seed, cfg=adapt, **init)

    return from_json(build, cfg.get("init", {}), "init block")


# ----------------------------------------------------------------------
# train / eval
# ----------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    shape, sizes = _shape_and_sizes(cfg)
    task = replace(get_task(_require(cfg, "task")), **sizes)
    if shape[0] != task.arity:
        raise ConfigError(f"shape input width {shape[0]} != task arity {task.arity}")
    seed = _seed(args, cfg)
    _require(cfg, "rounds")
    plan = TrainPlan(**{**_given_fields(TrainPlan, cfg), "seed": seed})
    (X_tr, y_tr), (X_te, y_te) = generate(task, seed=seed)
    net = _build_net(cfg, shape, seed)
    history = train(net, (X_tr, y_tr, X_te, y_te), plan)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    plan_meta = {k: v for k, v in asdict(plan).items() if k != "seed"}
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
    print(f"fitted {scorer.hist.a.size} feature histograms with {scorer.hist.omega} bins")
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

def cmd_clf_train(args) -> int:
    cfg = _load_config(args.config)
    shape, sizes = _shape_and_sizes(cfg)
    sizes = {"train_n": 8000, "test_n": 2000, **sizes}
    epochs = _require(cfg, "epochs")
    seed = _seed(args, cfg)
    loss_cfg = ClfLossConfig(**_given_fields(ClfLossConfig, cfg))
    bounds = cfg.get("bounds", [-3.0, 3.0])
    if not (isinstance(bounds, list) and len(bounds) == 2):
        raise ConfigError(f"bounds must be two finite numbers lo < hi, got {bounds!r}")
    for v in bounds:
        require_real("each bound", v)
    if not bounds[0] < bounds[1]:
        raise ConfigError(f"bounds must be two finite numbers lo < hi, got {bounds!r}")
    rng = np.random.default_rng(seed)
    X_tr = rng.uniform(bounds[0], bounds[1], size=(sizes["train_n"], shape[0]))
    X_val = rng.uniform(bounds[0], bounds[1], size=(sizes["test_n"], shape[0]))
    net = _build_net(cfg, shape, seed)
    history = train_clf(net, X_tr, loss_cfg, epochs, seed=seed, X_val=X_val,
                        **{k: cfg[k] for k in ("lr", "batch_size") if k in cfg})
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    save_model(net, f"{out}/model.json",
               meta={"seed": seed, "output_mode": loss_cfg.output_mode})
    _write_csv(f"{out}/clf_metrics.csv", ["epoch", "loss", "val_loss"],
               [[h["epoch"], h["loss"], h.get("val_loss", "")] for h in history])
    if any(h["fail"] for h in history):
        print("training hit non-finite values; see clf_metrics.csv", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"final training loss: {history[-1]['loss']:.6g}")
    return EXIT_OK


def cmd_clf_simulate(args) -> int:
    require_count("trajectories", args.trajectories)
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Subcommands name their
    ``cmd_*`` handler, which :func:`main` looks up at each call, so a handler
    rebound after the first call (by a tracer, say) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="adaptkan",
        description="Self-adapting spline networks: training, OOD scoring, Lyapunov control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a regression network from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn="cmd_train")

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn="cmd_eval")

    ood_p = sub.add_parser("ood", help="histogram OOD scoring")
    ood_sub = ood_p.add_subparsers(dest="ood_command", required=True)
    p = ood_sub.add_parser("fit", help="fit per-feature histograms")
    p.add_argument("--features", required=True)
    p.add_argument("--bins", type=int, default=DEFAULT_BINS_HIST)
    p.add_argument("--out", default="scorer.json")
    p.set_defaults(fn="cmd_ood_fit")
    p = ood_sub.add_parser("score", help="score a features file")
    p.add_argument("--scorer", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", default="scores.csv")
    p.set_defaults(fn="cmd_ood_score")
    p = ood_sub.add_parser("auroc", help="AUROC from two score files")
    p.add_argument("--id", dest="id_scores", required=True)
    p.add_argument("--ood", dest="ood_scores", required=True)
    p.set_defaults(fn="cmd_ood_auroc")

    clf_p = sub.add_parser("clf", help="control-Lyapunov pipeline")
    clf_sub = clf_p.add_subparsers(dest="clf_command", required=True)
    p = clf_sub.add_parser("train", help="train a Lyapunov candidate network")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(fn="cmd_clf_train")
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
    p.set_defaults(fn="cmd_clf_simulate")
    p = clf_sub.add_parser("conformal", help="confidence or distance bound from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(fn="cmd_clf_conformal")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)
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
