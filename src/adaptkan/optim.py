"""Adam/AdamW, polynomial learning-rate decay, the minibatch stream of both
trainers, and the round-based trainer.

Training proceeds in rounds; each round can first refine the grid to a
larger interval count, then runs a fixed number of optimiser steps at its
own (optionally decaying) learning rate.  Per-round train/test RMSE is
recorded; a round (like a CLF epoch) that goes non-finite is marked failed
with NaN metrics and training goes on, rather than crashing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .adapt import from_json, require_count, require_real
from .network import AdaptKanNet, NonFiniteError, sparsity_penalty
from .tasks import rmse


class Adam:
    """Bias-corrected Adam; ``decoupled=True`` gives AdamW-style weight decay.

    State is keyed by parameter position, so the caller must pass parameter
    and gradient lists in a stable order.  Updates happen in place.  A step
    whose moments go non-finite (a gradient, or its square, past the float
    range) raises NonFiniteError before any parameter moves and drops the
    moments, so the next step starts like a fresh optimiser's first.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0, decoupled: bool = False):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if not self.decoupled and self.weight_decay:
                g = g + self.weight_decay * p
            with np.errstate(over="ignore", invalid="ignore"):  # caught just below
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
            # v is non-finite whenever m is, as m averages the gradients v
            # squares; v >= 0, so its max is finite only if every entry is
            if not math.isfinite(v.max()):
                self.t, self.m, self.v = 0, None, None  # the next step starts afresh
                raise NonFiniteError(None, "optimiser moments")
            if self.decoupled and self.weight_decay:
                p -= lr * self.weight_decay * p
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def lr_at(lr0: float, step: int, steps: int, poly_decay: bool = True) -> float:
    """Learning rate at ``step`` within a round of ``steps`` total.

    With decay enabled the rate follows lr0 * (1 - 0.9 * (t / steps)^2),
    reaching lr0 / 10 at the end of the round; otherwise it stays at lr0.
    """
    if not poly_decay:
        return lr0
    frac = step / steps
    return lr0 * (1.0 - 0.9 * frac * frac)


@dataclass
class Round:
    lr: float
    steps: int
    omega: int

    def __post_init__(self):
        require_real("lr", self.lr)
        require_count("steps", self.steps)
        require_count("omega", self.omega)


@dataclass
class TrainPlan:
    """Full training recipe: per-round settings plus optimiser choices."""

    rounds: list
    optimizer: str = "adam"
    weight_decay: float = 0.0
    poly_decay: bool = True
    batch_size: int = 128
    seed: int = 0
    sparsity_lambda: float = 0.0

    def __post_init__(self):
        if not isinstance(self.rounds, (list, tuple)) or not self.rounds:
            raise ValueError(f"need a list of at least one round, got {self.rounds!r}")
        self.rounds = [r if isinstance(r, Round) else from_json(Round, r, "round")
                       for r in self.rounds]
        omegas = [r.omega for r in self.rounds]
        if any(b < a for a, b in zip(omegas, omegas[1:])):
            raise ValueError(f"round omegas must be non-decreasing, got {omegas}")
        if self.optimizer not in ("adam", "adamw"):
            raise ValueError(f"optimizer must be 'adam' or 'adamw', got {self.optimizer!r}")
        require_real("weight_decay", self.weight_decay)
        require_real("sparsity_lambda", self.sparsity_lambda)
        if not isinstance(self.poly_decay, (bool, np.bool_)):
            raise ValueError(f"poly_decay must be true or false, got {self.poly_decay!r}")


def minibatches(X, y, batch_size: int, seed: int, adapt_mode: str = "auto",
                manual_every: int | None = None, batch_hook=None):
    """Endless epochs of shuffled minibatches, the stream both trainers draw.

    Each epoch is a generator over a fresh permutation of the N rows, cut
    into N // min(batch_size, N) batches (the remainder is dropped) that
    yield (X_b, y_b, snap); y_b is None when ``y`` is.  ``batch_hook(epoch,
    X_b, y_b)`` may replace each batch.  ``snap`` marks the first batch of
    every ``manual_every``-th epoch in "manual" mode.  The settings are
    checked here, before any batch is drawn.
    """
    if adapt_mode not in ("auto", "manual", "none"):
        raise ValueError(f"unknown adapt_mode {adapt_mode!r}")
    if adapt_mode == "manual":
        require_count("manual_every", manual_every)
    require_count("batch_size", batch_size)
    N = len(X)
    bs = min(batch_size, N)
    rng = np.random.default_rng(seed)

    def epoch(e):
        order = rng.permutation(N)
        for start in range(0, N - bs + 1, bs):
            idx = order[start:start + bs]
            Xb, yb = X[idx], None if y is None else y[idx]
            if batch_hook is not None:
                Xb, yb = batch_hook(e, Xb, yb)
            yield Xb, yb, start == 0 and adapt_mode == "manual" and e % manual_every == 0

    return map(epoch, itertools.count())


def train(net: AdaptKanNet, data, plan: TrainPlan, adapt_mode: str = "auto",
          manual_every: int | None = None, batch_hook=None):
    """Run the plan on (X_train, y_train, X_test, y_test).

    ``adapt_mode`` selects the automatic per-step domain adaptation
    ("auto"), the forced single-batch baseline every ``manual_every`` epochs
    ("manual"), or no adaptation at all ("none").  ``batch_hook(epoch, X, y)``
    may replace each batch before it is used (e.g. to inject corruption).
    Each round trains at its omega, refining the network up to it; a first
    round below the network's omega raises ValueError before any step.
    Returns one history dict per round: round, omega, lr, train_rmse,
    test_rmse, adapt_events, fail.
    """
    X_tr, y_tr, X_te, y_te = (np.asarray(a, dtype=float) for a in data)
    y_tr = y_tr.reshape(len(X_tr), -1)
    y_te = y_te.reshape(len(X_te), -1)
    batches = itertools.chain.from_iterable(minibatches(
        X_tr, y_tr, plan.batch_size, plan.seed, adapt_mode, manual_every, batch_hook))
    history = []

    for ri, rd in enumerate(plan.rounds):
        if rd.omega != net.omega:  # refine_grid refuses a smaller omega
            net.refine_all(rd.omega)
        opt = Adam(lr=rd.lr, weight_decay=plan.weight_decay,
                   decoupled=plan.optimizer == "adamw")
        events_before = net.adapt_events
        try:
            for t, (Xb, yb, snap) in zip(range(rd.steps), batches):
                if snap:
                    net.manual_adapt_all(Xb)
                Y, caches = net.forward(Xb, record=adapt_mode == "auto")
                grad_out = 2.0 * (Y - yb) / yb.size
                _, extras = sparsity_penalty(net, caches, plan.sparsity_lambda)
                grads, _ = net.backward(caches, grad_out, extras)
                opt.step(net.parameters(), net.gradient_list(grads),
                         lr=lr_at(rd.lr, t, rd.steps, plan.poly_decay))
            rmses = [rmse(net.forward(X, record=False)[0], y)
                     for X, y in ((X_tr, y_tr), (X_te, y_te))]
            fail = 0
        except NonFiniteError:
            rmses, fail = [math.nan, math.nan], 1
        history.append({
            "round": ri,
            "omega": rd.omega,
            "lr": rd.lr,
            "train_rmse": rmses[0],
            "test_rmse": rmses[1],
            "adapt_events": net.adapt_events - events_before,
            "fail": fail,
        })
    return history
