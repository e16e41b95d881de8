"""Control-Lyapunov learning and evaluation for a 2-D polynomial system.

The plant is x1' = x2^3 + u, x2' = -x1^3 (drift f, constant input column
g = [1, 0]); without control it conserves x1^4 + x2^4.  A Lyapunov
candidate V gives Lie derivatives LfV = dV/dx . f and LgV = dV/dx . g, a
stabilising feedback through the universal (Sontag) formula, and a set of
training losses that push V towards a valid certificate.  Closed-loop
behaviour is scored by integrating trajectories with RK4 and summarising
the final distances to the origin with conformal (distribution-free)
quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .adapt import require_count, require_real
from .network import AdaptKanNet, NonFiniteError
from .optim import Adam, minibatches


def dynamics_f(X) -> np.ndarray:
    """Drift term (x2^3, -x1^3) for a batch of states, shape (K, 2).

    Cubes by multiplication: numpy's ``** 3`` goes through ``pow``, about
    ten times slower, and this runs once per RK4 stage.  The two roundings
    keep the result within 2 eps relative of ``pow``'s.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    cube = X * X
    cube *= X
    out = np.empty_like(cube)
    out[:, 0] = cube[:, 1]
    np.negative(cube[:, 0], out=out[:, 1])
    return out


DYNAMICS_G = np.array([1.0, 0.0])
# Largest run simulate accepts: RK4 steps, and rows (steps + 1) * K of a path
MAX_SIM_STEPS, MAX_PATH_ROWS = 10**6, 10**7


def analytical_clf(X):
    """Closed-form candidate V = (x1^2 + x2^2 + (x1 - x2)^2) / 2 and gradient."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    x1, x2 = X[:, 0], X[:, 1]
    V = 0.5 * (x1**2 + x2**2 + (x1 - x2) ** 2)
    grad = np.stack([2.0 * x1 - x2, 2.0 * x2 - x1], axis=1)
    return V, grad


def lie_derivatives(f, grad) -> tuple[np.ndarray, np.ndarray]:
    """LfV and LgV from the drift f = dynamics_f(X) and dV/dx at states X."""
    LfV = (grad * f).sum(axis=1)
    LgV = grad @ DYNAMICS_G
    return LfV, LgV


def sontag_control(LfV, LgV, eps: float = 1e-8):
    """Universal stabilising feedback; zero where LgV vanishes (|LgV| <= eps).

    Elsewhere u = -(LfV + sqrt(LfV^2 + LgV^4)) / LgV, with LgV^4 taken as
    (LgV^2)^2.  The whole batch runs through the formula, the inactive
    entries as LfV = 0, LgV = 1, so a discarded non-finite LfV or a
    vanishing LgV raises no floating-point warning.
    """
    LfV = np.asarray(LfV, dtype=float)
    LgV = np.asarray(LgV, dtype=float)
    active = np.abs(LgV) > eps
    f = np.where(active, LfV, 0.0)
    g = np.where(active, LgV, 1.0)
    g2 = g * g
    u = np.where(active, -(f + np.sqrt(f * f + g2 * g2)) / g, 0.0)
    return float(u) if u.ndim == 0 else u


def make_sontag_controller(v_and_grad, eps: float = 1e-8):
    """Wrap a (V, dV/dx) provider into a state-feedback function u(X, f),
    f being the drift dynamics_f(X) the caller already holds."""

    def u_fn(X, f):
        _, grad = v_and_grad(X)
        return sontag_control(*lie_derivatives(f, grad), eps)

    return u_fn


def simulate(x0, u_fn=None, horizon: float = 10.0, dt: float = 0.01,
             return_path: bool = False):
    """Integrate a batch of trajectories with classic RK4.

    The control ``u_fn(X, f)`` is recomputed at every stage evaluation from
    the current stage state X and its drift f, which each stage computes
    once.  Trajectories that go non-finite are frozen and flagged;
    their final distance is reported as infinity downstream.  ``horizon``
    and ``dt`` must be finite and > 0, with steps = round(horizon / dt) in [1,
    MAX_SIM_STEPS] and a path of at most MAX_PATH_ROWS rows.  Returns
    (final_states, ok_mask) or (final_states, ok_mask, path) where path has
    shape (steps + 1, K, 2).
    """
    for name, value in (("horizon", horizon), ("dt", dt)):
        require_real(name, value)
        if value <= 0.0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    steps = round(min(horizon / dt, MAX_SIM_STEPS + 1))  # the ratio may overflow to inf
    if not 1 <= steps <= MAX_SIM_STEPS:
        raise ValueError(f"horizon / dt = {horizon / dt!r} must round to 1..{MAX_SIM_STEPS} steps")
    X = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    K = X.shape[0]
    if return_path and (steps + 1) * K > MAX_PATH_ROWS:
        raise ValueError(f"a path of {steps + 1} x {K} trajectory rows exceeds {MAX_PATH_ROWS}")
    ok = np.ones(K, dtype=bool)

    def rhs(S):
        dS = dynamics_f(S)
        if u_fn is not None:
            u = u_fn(S, dS)  # before dS takes the control term
            dS += np.atleast_1d(u)[:, None] * DYNAMICS_G
        return dS

    path = np.empty((steps + 1, K, 2)) if return_path else None
    if return_path:
        path[0] = X
    # diverging trajectories are expected and handled via the ok mask
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            k1 = rhs(X)
            k2 = rhs(X + 0.5 * dt * k1)
            k3 = rhs(X + 0.5 * dt * k2)
            k4 = rhs(X + dt * k3)
            Xn = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bad = ~np.all(np.isfinite(Xn), axis=1)
            if bad.any():
                ok &= ~bad
                Xn[bad] = X[bad]
            X = Xn
            if return_path:
                path[t + 1] = X
    if return_path:
        return X, ok, path
    return X, ok


def final_distances(final_states, ok) -> np.ndarray:
    """Distance of each final state from the origin; failures become inf."""
    X = np.atleast_2d(final_states)
    r = np.hypot(X[:, 0], X[:, 1])  # overflow-safe for huge frozen states
    return np.where(ok, r, np.inf)


class ConformalReport:
    """Sorted final-distance samples with distribution-free accessors."""

    def __init__(self, samples):
        self.samples = np.sort(np.asarray(samples, dtype=float))

    def quantile(self, delta: float) -> float:
        """Bound C with P(new sample <= C) >= 1 - delta.

        Returns the ceil((K+1)(1-delta))-th order statistic, with the
        (K+1)-th taken as infinity; needs 0 < delta < 1.
        """
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        K = len(self.samples)
        p = math.ceil((K + 1) * (1.0 - delta))
        if p >= K + 1:
            return math.inf
        return float(self.samples[p - 1])

    def confidence(self, c: float) -> float:
        """Largest 1 - delta such that quantile(delta) <= c holds."""
        K = len(self.samples)
        return float(np.count_nonzero(self.samples <= c) / (K + 1))


@dataclass
class ClfLossConfig:
    """Weights and thresholds for the Lyapunov training losses.

    ``tau`` separates "small" from "large" LgV for the masked drift loss;
    ``k1``/``k2`` bound the candidate between two cones; ``eps`` stabilises
    the LgV magnitude loss and the Sontag division.  ``output_mode`` selects
    V = net output directly (scalar output) or V = ||net output||^2 / 2.
    """

    lam_origin: float = 10.0
    lam_f: float = 0.1
    lam_g: float = 1.0
    lam_bowl: float = 1.0
    lam_pos: float = 0.0
    tau: float = 0.1
    k1: float = 0.001
    k2: float = 10.0
    eps: float = 1e-8
    output_mode: str = "squared_norm"

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.name != "output_mode"):
            require_real(name, getattr(self, name))
        if self.output_mode not in ("direct", "squared_norm"):
            raise ValueError(f"output_mode must be 'direct' or 'squared_norm'")
        if self.k1 >= self.k2:
            raise ValueError(f"need k1 < k2, got {self.k1} >= {self.k2}")


def lyapunov_value_and_grad(net: AdaptKanNet, X, mode: str = "squared_norm"):
    """V and dV/dx from a network, batched.

    direct: V is the first network output, gradient via the reverse pass.
    squared_norm: V = ||y||^2 / 2, gradient J^T y via a seeded reverse pass.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y, caches = net.forward(X, record=False)
    if mode == "direct":
        V = Y[:, 0]
        seed = np.zeros_like(Y)
        seed[:, 0] = 1.0
    elif mode == "squared_norm":
        V = 0.5 * (Y**2).sum(axis=1)
        seed = Y
    else:
        raise ValueError(f"unknown mode {mode!r}")
    _, grad = net.backward(caches, seed, param_grads=False)
    return V, grad


def make_network_clf(net: AdaptKanNet, mode: str = "squared_norm"):
    """Provider closure over a trained network for simulation/scoring."""

    def provider(X):
        return lyapunov_value_and_grad(net, X, mode)

    return provider


def clf_losses(X, v_and_grad, cfg: ClfLossConfig):
    """Evaluate the five loss terms and their weighted total on a batch.

    ``v_and_grad`` maps states to (V, dV/dx); the origin term always
    evaluates the provider at the origin itself.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total fails below
        V, grad = v_and_grad(X)
        V0, _ = v_and_grad(np.zeros((1, X.shape[1])))
        LfV, LgV = lie_derivatives(dynamics_f(X), grad)
    return _loss_terms_from_values(X, V, float(V0[0]), LfV, LgV, cfg)[0]


def _hinge(r):
    """max(0, r) and its subgradient, 1 where r > 0 and 0 elsewhere."""
    return np.maximum(0.0, r), (r > 0).astype(float)


# values past the float range give a non-finite total, which fails the step
# as NonFiniteError rather than as a floating-point warning
@np.errstate(over="ignore", invalid="ignore")
def _loss_terms_from_values(X, V, V0, LfV, LgV, cfg: ClfLossConfig):
    """Loss terms, and the cotangents of the weighted total w.r.t. V0 and
    the per-sample V, LfV and LgV (subgradients at the hinge kinks)."""
    B = len(V)
    norms = np.linalg.norm(X, axis=1)
    mask = (LgV > cfg.tau).astype(float)
    shifted = LgV + cfg.eps
    below, d_below = _hinge(cfg.k1 * norms - V)
    above, d_above = _hinge(V - cfg.k2 * norms)
    negative, d_negative = _hinge(-V)
    decrease, d_decrease = _hinge(-LfV)
    increase, d_increase = _hinge(LfV)
    small, d_small = _hinge(cfg.tau - np.abs(shifted))
    try:
        origin = V0**2
    except OverflowError:  # the non-finite total fails the step below
        origin = math.inf
    bowl = np.mean(below + above)
    loss_f = np.mean(mask * decrease + (1.0 - mask) * increase)
    loss_g = np.mean((1.0 - mask) * small)
    pos = np.mean(negative)
    total = (cfg.lam_origin * origin + cfg.lam_f * loss_f + cfg.lam_g * loss_g
             + cfg.lam_bowl * bowl + cfg.lam_pos * pos)
    if not math.isfinite(total):
        raise NonFiniteError(None, "CLF loss")
    dV0 = cfg.lam_origin * 2.0 * V0
    dV = cfg.lam_bowl / B * (-d_below + d_above) + cfg.lam_pos / B * -d_negative
    dLf = cfg.lam_f / B * (mask * -d_decrease + (1.0 - mask) * d_increase)
    dLg = cfg.lam_g / B * ((1.0 - mask) * d_small) * -np.sign(shifted)
    return ({"origin": float(origin), "bowl": float(bowl), "f": float(loss_f),
             "g": float(loss_g), "pos": float(pos), "total": float(total)},
            (dV0, dV, dLf, dLg))


def clf_loss_and_grads(net: AdaptKanNet, X, cfg: ClfLossConfig, record: bool = False):
    """Loss terms plus exact parameter gradients for network candidates.

    The Lie derivatives are obtained as forward tangent channels along the
    drift and the input column, so the loss is an explicit function of the
    network outputs and their directional derivatives; the reverse pass over
    that computation yields exact gradients, including the curvature terms.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    B, n = X.shape
    tangents = np.empty((B, n, 2))
    tangents[:, :, 0] = dynamics_f(X)
    tangents[:, :, 1] = DYNAMICS_G
    Y, Ydot, caches = net.forward_jvp(X, tangents, record=record)
    Y0, caches0 = net.forward(np.zeros((1, n)), record=False)

    if cfg.output_mode == "direct":
        V = Y[:, 0]
        LfV = Ydot[:, 0, 0]
        LgV = Ydot[:, 0, 1]
        V0 = Y0[0, 0]
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total fails below
            V = 0.5 * (Y**2).sum(axis=1)
            LfV = (Y * Ydot[:, :, 0]).sum(axis=1)
            LgV = (Y * Ydot[:, :, 1]).sum(axis=1)
            V0 = 0.5 * (Y0[0] ** 2).sum()
    terms, (dV0, dV, dLf, dLg) = _loss_terms_from_values(X, V, float(V0), LfV, LgV, cfg)

    if cfg.output_mode == "direct":
        gY = np.zeros_like(Y)
        gY[:, 0] = dV
        gYdot = np.zeros_like(Ydot)
        gYdot[:, 0, 0] = dLf
        gYdot[:, 0, 1] = dLg
    else:
        gY = dV[:, None] * Y + dLf[:, None] * Ydot[:, :, 0] + dLg[:, None] * Ydot[:, :, 1]
        gYdot = np.empty_like(Ydot)
        gYdot[:, :, 0] = dLf[:, None] * Y
        gYdot[:, :, 1] = dLg[:, None] * Y
    grads, _, _ = net.backward_jvp(caches, gY, gYdot)

    # origin term: d(lam * V0^2)/dtheta through a plain reverse pass
    seed0 = np.zeros_like(Y0)
    if cfg.output_mode == "direct":
        seed0[0, 0] = dV0
    else:
        seed0[0] = dV0 * Y0[0]
    grads0, _ = net.backward(caches0, seed0)
    for g, g0 in zip(grads, grads0):
        for key in g:
            g[key] += g0[key]
    return terms, grads


def train_clf(net: AdaptKanNet, X_train, cfg: ClfLossConfig, epochs: int,
              lr: float = 0.01, batch_size: int = 256, seed: int = 0,
              adapt_mode: str = "auto", manual_every: int | None = None,
              batch_hook=None, X_val=None, eval_every: int = 50):
    """Minimise the Lyapunov losses with Adam over shuffled minibatches.

    Returns a history of dicts {epoch, loss, val_loss, fail}; validation uses
    the full loss on ``X_val`` when given.  Batches, ``batch_hook(epoch, X,
    None)`` and the failure rule are the regression trainer's.
    """
    require_count("epochs", epochs)
    require_real("lr", lr)
    stream = minibatches(np.asarray(X_train, dtype=float), None, batch_size, seed,
                         adapt_mode, manual_every, batch_hook)
    opt = Adam(lr=lr)
    history = []
    for epoch, batches in zip(range(epochs), stream):
        validate = X_val is not None and (epoch % eval_every == 0 or epoch == epochs - 1)
        epoch_loss = 0.0
        try:
            for nb, (Xb, _, snap) in enumerate(batches, 1):
                if snap:
                    net.manual_adapt_all(Xb)
                terms, grads = clf_loss_and_grads(net, Xb, cfg, record=adapt_mode == "auto")
                opt.step(net.parameters(), net.gradient_list(grads))
                epoch_loss += terms["total"]
            loss = epoch_loss / nb
            if validate:
                val_loss = clf_losses(X_val, make_network_clf(net, cfg.output_mode), cfg)["total"]
            fail = 0
        except NonFiniteError:
            loss = val_loss = math.nan
            fail = 1
        entry = {"epoch": epoch, "loss": loss}
        if validate:
            entry["val_loss"] = val_loss
        history.append({**entry, "fail": fail})
    return history
