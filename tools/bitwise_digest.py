"""Digests of the outputs a refactor must keep bit for bit.

    python tools/bitwise_digest.py SRC OUT [--parts regress,c05,...]
    python tools/bitwise_digest.py --diff A B

The first form imports ``adaptkan`` from ``SRC/src`` (this checkout, or an
unpacked copy of another commit), runs fixed recipes and CLI commands, and
writes OUT: one JSON object mapping a key to the sha256 of the bytes it
covers.  Run it on two checkouts, then ``--diff`` lists the keys whose
digests differ or that only one file holds, and exits 1 if there are any.

Parts (all by default):
  regress  the perfbench ``regress_small`` and ``regress_wide`` recipes in
           adapt modes auto, manual (a snap every epoch) and none
  c05      the criterion-05 recipe: II.38.3 and I.6.2, seeds 0-4
  c06      criterion 06: poisoned sin(2 pi x), seeds 0-2, auto and manual
  modes    a [2, 4, 1] network on a drifting stream under every stretch mode,
           shrink rule and refit mode, half the runs with prune_patience 2
           and outlier_count 3; each run must make an adaptation event
  clf      6 epochs of ``train_clf`` on the perfbench clf config
  cli      the files and stdout of ``train``, ``clf train`` and
           ``clf simulate``, and of a second ``train`` run whose config
           sets every ``adapt`` field to a non-default value and holds an
           ``init`` block, with ``eval``'s stdout on that run's model
  ood      ``ood fit`` and ``ood score`` files at 1, 7 and 200 bins on a
           Gaussian, a constant-column and a many-ties matrix, and
           ``score_hist_msp`` on each scorer
  passes   ``forward``, ``backward`` (plain, with the sparsity penalty's
           activation cotangents, and without weight gradients),
           ``forward_jvp`` and ``backward_jvp`` on fixed inputs, then a
           recording forward and a manual snap, for a [2, 5, 1] kan, a
           [2, 32, 32, 1] kan at omega 50 over several row blocks, a
           [2, 10] linear and a [2, 4, 1] linear network, each with 2
           tangent channels

A training run covers its history, flat parameters, each layer's histogram
``a``/``b``/``counts``/``extremes`` and the network's adaptation event count.
The c05 part takes about two minutes on one core, the others seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

# An adaptation refit can round differently under another BLAS thread
# count, so the script pins one thread to compare two checkouts alike.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pin)

FEYNMAN_LRS = (0.01, 0.005, 0.001, 0.0005, 0.0001)
FEYNMAN_OMEGAS = (3, 5, 10, 20, 50)
WIDE_ROUNDS = [{"lr": 0.01, "steps": 10, "omega": 10}, {"lr": 0.005, "steps": 10, "omega": 50}]
# perfbench's clf workload config (demos/configs/clf_train.json with fewer epochs)
CLF_CONFIG = {
    "shape": [2, 10], "lr": 0.1, "batch_size": 500, "train_n": 8000, "test_n": 2000,
    "output_mode": "squared_norm", "lam_origin": 10.0, "lam_f": 1.0, "lam_g": 1.0,
    "lam_bowl": 1.0, "tau": 0.1, "bounds": [-3.0, 3.0],
    "init": {"mode": "linear", "noise": 0.1, "omega": 3, "domain": [-3.0, 3.0]},
    "adapt": {"alpha": 0.01, "stretch_mode": "max"},
}
# a train config whose adapt and init blocks hold a valid non-default value each
ADAPT_TRAIN_CONFIG = {
    "task": "II.38.3", "shape": [2, 4, 1], "batch_size": 64, "train_n": 400, "test_n": 200,
    "rounds": [{"lr": 1e-2, "steps": 60, "omega": 4}, {"lr": 5e-3, "steps": 60, "omega": 8}],
    "adapt": {"alpha": 0.05, "prune_patience": 2, "stretch_mode": "edge",
              "shrink_rule": "relative", "refit_mode": "greville", "outlier_count": 3},
    "init": {"noise": 0.3, "omega": 4, "domain": [-2.0, 2.0]},
}
OOD_BINS = (1, 7, 200)


def feynman_rounds(steps: int) -> list:
    return [{"lr": lr, "steps": steps, "omega": w} for lr, w in zip(FEYNMAN_LRS, FEYNMAN_OMEGAS)]


def sha(data) -> str:
    """Digest of bytes, of a str, or of an array's dtype, shape and bytes."""
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        a = np.ascontiguousarray(data)
        data = f"{a.dtype.str}{a.shape}".encode() + a.tobytes()
    return hashlib.sha256(data).hexdigest()


def net_digests(prefix: str, net, history) -> dict:
    """Digests of a trained network: history, flat parameters, histograms, events."""
    out = {f"{prefix}/history": sha(json.dumps(history, sort_keys=True)),
           f"{prefix}/params": sha(net.parameters()),
           f"{prefix}/adapt_events": sha(str(net.adapt_events))}
    for li, layer in enumerate(net.layers):
        for name in ("a", "b", "counts", "extremes"):
            out[f"{prefix}/L{li}/{name}"] = sha(getattr(layer.hist, name))
    return out


def regression_digests(prefix: str, shape, rounds, batch_size: int, seed: int,
                       adapt_mode: str = "auto", task: str = "II.38.3") -> dict:
    """Train the regress recipe's network on ``task`` and digest it."""
    from adaptkan import TrainPlan, generate, get_task, init_network, train
    (X_tr, y_tr), (X_te, y_te) = generate(get_task(task), seed=seed)
    net = init_network(shape, mode="kan", noise=0.5, seed=seed)
    plan = TrainPlan(rounds=rounds, batch_size=batch_size, seed=seed)
    history = train(net, (X_tr, y_tr, X_te, y_te), plan, adapt_mode=adapt_mode,
                    manual_every=1 if adapt_mode == "manual" else None)
    return net_digests(prefix, net, history)


def part_regress(work: Path) -> dict:
    out = {}
    for mode in ("auto", "manual", "none"):
        out.update(regression_digests(f"regress_small/{mode}", [2, 5, 1], feynman_rounds(300),
                                      128, 1, mode))
        out.update(regression_digests(f"regress_wide/{mode}", [2, 32, 32, 1], WIDE_ROUNDS,
                                      1024, 1, mode))
    return out


def part_c05(work: Path) -> dict:
    out = {}
    for task in ("II.38.3", "I.6.2"):
        for seed in range(5):
            out.update(regression_digests(f"c05/{task}/{seed}", [2, 5, 1],
                                          feynman_rounds(2000), 128, seed, "auto", task))
    return out


def part_c06(work: Path) -> dict:
    from adaptkan import AdaptConfig, PoisonPlan, TrainPlan, init_network, poison_hook, train
    out = {}
    for mode in ("auto", "manual"):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.uniform(-1, 1, (256, 1))
            y = np.sin(2.0 * np.pi * X[:, 0])
            Xv = rng.uniform(-1, 1, (128, 1))
            yv = np.sin(2.0 * np.pi * Xv[:, 0])
            net = init_network([1, 5, 1], mode="kan", noise=0.5, seed=seed,
                               cfg=AdaptConfig(alpha=1e-3, stretch_mode="half_max"))
            plan = TrainPlan(rounds=[{"lr": 1e-2, "steps": 4000, "omega": 5}],
                             batch_size=64, seed=seed)
            history = train(net, (X, y, Xv, yv), plan, adapt_mode=mode,
                            manual_every=1 if mode == "manual" else None,
                            batch_hook=poison_hook(PoisonPlan(epochs=1000, seed=seed)))
            out.update(net_digests(f"c06/{mode}/{seed}", net, history))
    return out


def part_modes(work: Path) -> dict:
    """Each adaptation mode on a stream whose first input drifts right and
    whose second widens, so domains stretch and stale edges shrink."""
    from adaptkan import AdaptConfig, TrainPlan, init_network, train
    from adaptkan.adapt import REFIT_MODES, SHRINK_RULES, STRETCH_MODES
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, (512, 2))
    y = np.sin(np.pi * X[:, 0]) * X[:, 1]
    Xv = rng.uniform(-1.0, 1.0, (128, 2))
    yv = np.sin(np.pi * Xv[:, 0]) * Xv[:, 1]

    def drift(epoch, Xb, yb):
        return Xb * [1.0, 1.0 + 0.2 * epoch] + [0.1 * epoch, 0.0], yb

    out = {}
    modes = itertools.product(STRETCH_MODES, SHRINK_RULES, REFIT_MODES)
    for i, (stretch_mode, shrink_rule, refit_mode) in enumerate(modes):
        key = f"modes/{stretch_mode}/{shrink_rule}/{refit_mode}"
        cfg = AdaptConfig(alpha=0.05, stretch_mode=stretch_mode, shrink_rule=shrink_rule,
                          refit_mode=refit_mode, prune_patience=1 + i % 2,
                          outlier_count=1 + 2 * (i % 2))
        net = init_network([2, 4, 1], mode="kan", noise=0.5, seed=i, cfg=cfg)
        plan = TrainPlan(rounds=[{"lr": 1e-2, "steps": 80, "omega": 5},
                                 {"lr": 5e-3, "steps": 40, "omega": 10}],
                         batch_size=64, seed=i)
        history = train(net, (X, y, Xv, yv), plan, batch_hook=drift)
        if not net.adapt_events:
            raise RuntimeError(f"{key} made no adaptation event")
        out.update(net_digests(key, net, history))
    return out


def part_clf(work: Path) -> dict:
    """6 epochs of train_clf, set up as ``clf train`` sets up the config."""
    from adaptkan import AdaptConfig, ClfLossConfig, init_network, train_clf
    cfg, seed = CLF_CONFIG, 0
    rng = np.random.default_rng(seed)
    X_tr = rng.uniform(*cfg["bounds"], size=(cfg["train_n"], cfg["shape"][0]))
    X_val = rng.uniform(*cfg["bounds"], size=(cfg["test_n"], cfg["shape"][0]))
    net = init_network(cfg["shape"], seed=seed, cfg=AdaptConfig(**cfg["adapt"]), **cfg["init"])
    loss_cfg = ClfLossConfig(**{k: cfg[k] for k in ("output_mode", "lam_origin", "lam_f",
                                                    "lam_g", "lam_bowl", "tau")})
    history = train_clf(net, X_tr, loss_cfg, 6, lr=cfg["lr"], batch_size=cfg["batch_size"],
                        seed=seed, X_val=X_val)
    return net_digests("clf/train_clf", net, history)


def run_cli(key: str, argv, files) -> dict:
    """Run one command in-process; digests of its exit code, stdout and files."""
    from adaptkan.cli import main
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(a) for a in argv])
    out = {f"{key}/exit": sha(str(code)), f"{key}/stdout": sha(stdout.getvalue())}
    for path in files:
        out[f"{key}/{Path(path).name}"] = sha(Path(path).read_bytes())
    return out


def write_matrix(path: Path, X) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(X.shape[1])])
        writer.writerows([repr(float(v)) for v in row] for row in X)


def part_cli(work: Path) -> dict:
    from adaptkan import generate, get_task
    from adaptkan.tasks import save_dataset
    train_cfg = {"task": "II.38.3", "shape": [2, 5, 1], "batch_size": 64, "train_n": 400,
                 "test_n": 200, "rounds": [{"lr": 1e-2, "steps": 60, "omega": 3},
                                           {"lr": 5e-3, "steps": 60, "omega": 5}]}
    (work / "train.json").write_text(json.dumps(train_cfg))
    (work / "adapt.json").write_text(json.dumps(ADAPT_TRAIN_CONFIG))
    (work / "clf.json").write_text(json.dumps({**CLF_CONFIG, "epochs": 2, "train_n": 2000}))
    tr, ad, clf = work / "train", work / "adapt", work / "clf"
    out = run_cli("cli/train", ["train", "--config", work / "train.json", "--seed", 3,
                                "--out-dir", tr], [tr / "model.json", tr / "metrics.csv"])
    out.update(run_cli("cli/train_adapt",
                       ["train", "--config", work / "adapt.json", "--seed", 4, "--out-dir", ad],
                       [ad / "model.json", ad / "metrics.csv"]))
    save_dataset(work / "eval.csv", *generate(get_task("II.38.3"), seed=5)[1])
    out.update(run_cli("cli/eval_adapt", ["eval", "--model", ad / "model.json",
                                          "--data", work / "eval.csv"], []))
    out.update(run_cli("cli/clf_train", ["clf", "train", "--config", work / "clf.json",
                                         "--seed", 1, "--out-dir", clf],
                       [clf / "model.json", clf / "clf_metrics.csv"]))
    for name, flags in (("network", ["--model", clf / "model.json"]), ("analytical",
                                                                       ["--analytical"])):
        report, paths = work / f"report_{name}.csv", work / f"paths_{name}.csv"
        out.update(run_cli(f"cli/clf_simulate/{name}",
                           ["clf", "simulate", *flags, "--trajectories", 50, "--horizon", 0.5,
                            "--seed", 2, "--out", report, "--paths-out", paths],
                           [report, paths]))
    return out


def ood_matrices() -> dict:
    """The three fit matrices; 200 rows of each are scored as they are and
    shifted by 1.5."""
    rng = np.random.default_rng(0)
    flat = rng.normal(size=(500, 3))
    flat[:, 1] = 2.5
    return {"gauss": rng.normal(size=(10_000, 8)), "flat": flat,
            "ties": np.round(rng.uniform(-1.0, 1.0, size=(3000, 4)), 1)}


def part_ood(work: Path) -> dict:
    from adaptkan import OodScorer
    out = {}
    for name, X in ood_matrices().items():
        fit, query = work / f"{name}_fit.csv", work / f"{name}_query.csv"
        Q = np.concatenate([X[:200], X[:200] + 1.5])
        write_matrix(fit, X)
        write_matrix(query, Q)
        logits = np.random.default_rng(len(X)).normal(size=(400, 10))
        for bins in OOD_BINS:
            key = f"ood/{name}/{bins}"
            scorer, scores = work / f"{name}_{bins}.json", work / f"{name}_{bins}_scores.csv"
            out.update(run_cli(f"{key}/fit", ["ood", "fit", "--features", fit, "--bins", bins,
                                              "--out", scorer], [scorer]))
            out.update(run_cli(f"{key}/score", ["ood", "score", "--scorer", scorer,
                                                "--features", query, "--out", scores], [scores]))
            msp = OodScorer.fit(X, bins=bins).score_hist_msp(Q, logits)
            out[f"{key}/score_hist_msp"] = sha(msp)
    return out


def grad_digests(prefix: str, grads) -> dict:
    """Digests of per-layer gradient dicts."""
    return {f"{prefix}/L{li}/{name}": sha(g[name]) for li, g in enumerate(grads) for name in g}


def part_passes(work: Path) -> dict:
    """Each pass of four networks on fixed inputs, a share of them outside
    the domains: outputs, tangents, gradient dicts and input cotangents.
    Both kinds of layer contraction are covered with and without the base
    term: the one-output layers contract at their windows, the wider ones
    against the dense basis."""
    from adaptkan import init_network
    from adaptkan.network import sparsity_penalty
    out = {}
    for name, shape, mode, omega, B in (("kan_small", [2, 5, 1], "kan", 5, 64),
                                        ("kan_wide", [2, 32, 32, 1], "kan", 50, 200),
                                        ("linear", [2, 10], "linear", 3, 64),
                                        ("linear_one_out", [2, 4, 1], "linear", 3, 64)):
        rng = np.random.default_rng(len(shape) + omega)
        net = init_network(shape, mode=mode, noise=0.5, seed=1, omega=omega)
        X = rng.uniform(-1.3, 1.3, (B, shape[0]))
        tangents = rng.normal(size=(B, shape[0], 2))
        G = rng.normal(size=(B, shape[-1]))
        Gdot = rng.normal(size=(B, shape[-1], 2))
        key = f"passes/{name}"
        Y, caches = net.forward(X)
        out[f"{key}/forward"] = sha(Y)
        grads, gX = net.backward(caches, G)
        out.update(grad_digests(f"{key}/backward", grads))
        out[f"{key}/backward/gX"] = sha(gX)
        _, extras = sparsity_penalty(net, caches, 0.1)
        grads, gX = net.backward(caches, G, extras)
        out.update(grad_digests(f"{key}/backward_sparse", grads))
        out[f"{key}/backward_sparse/gX"] = sha(gX)
        out[f"{key}/backward_input/gX"] = sha(net.backward(caches, G, param_grads=False)[1])
        Y, Ydot, caches = net.forward_jvp(X, tangents)
        out[f"{key}/forward_jvp/Y"] = sha(Y)
        out[f"{key}/forward_jvp/Ydot"] = sha(Ydot)
        grads, gX, gXdot = net.backward_jvp(caches, G, Gdot)
        out.update(grad_digests(f"{key}/backward_jvp", grads))
        out[f"{key}/backward_jvp/gX"] = sha(gX)
        out[f"{key}/backward_jvp/gXdot"] = sha(gXdot)
        out[f"{key}/forward_record"] = sha(net.forward(X, record=True)[0])
        out[f"{key}/forward_jvp_record"] = sha(net.forward_jvp(X, tangents, record=True)[1])
        net.manual_adapt_all(X[:B // 2])
        out.update(net_digests(f"{key}/adapted", net, []))
    return out


PARTS = {"regress": part_regress, "c05": part_c05, "c06": part_c06, "modes": part_modes,
         "clf": part_clf, "cli": part_cli, "ood": part_ood, "passes": part_passes}


def collect(parts, work: Path) -> dict:
    """Digests of the named parts, with scratch files under ``work``."""
    out = {}
    for name in parts:
        sub = work / name
        sub.mkdir(parents=True, exist_ok=True)
        out.update(PARTS[name](sub))
    return out


def diff(a: dict, b: dict) -> list:
    """Keys whose digests differ, or that only one side holds."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs=2, metavar=("SRC_OR_A", "OUT_OR_B"))
    parser.add_argument("--diff", action="store_true",
                        help="compare two digest files instead of writing one")
    parser.add_argument("--parts", default=",".join(PARTS),
                        help=f"comma-separated subset of {','.join(PARTS)}")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.paths)
        keys = diff(a, b)
        for key in keys:
            print(key)
        print(f"{len(keys)} of {len(a.keys() | b.keys())} keys differ", file=sys.stderr)
        return 1 if keys else 0
    src = Path(args.paths[0]).resolve() / "src"
    sys.path.insert(0, str(src))
    import adaptkan
    if not Path(adaptkan.__file__).resolve().is_relative_to(src):
        raise ImportError(f"adaptkan was imported from {adaptkan.__file__}, not from {src}")
    parts = args.parts.split(",")
    unknown = set(parts) - PARTS.keys()
    if unknown:
        parser.error(f"unknown parts {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        digests = collect(parts, Path(tmp))
    Path(args.paths[1]).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {args.paths[1]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
