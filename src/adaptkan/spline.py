"""Uniform cubic B-spline activations in closed (non-recursive) matrix form.

Each activation is a uniform cubic B-spline over a grid domain [a, b] split
into ``omega`` equal intervals, with P = omega + 3 weights.  An input z is
mapped to a bin index p and a local coordinate theta in [0, 1]; the value is
then

    phi(z) = [w_p, ..., w_{p+3}] @ M_CUBIC @ [theta^3, theta^2, theta, 1]^T

with a fixed 4x4 coefficient matrix.  The same window/matrix form
is used across the whole domain (no special edge segments), which makes
indexing into histogram bins and weight vectors trivial.  Outside [a, b]
the local coordinate is clamped, so the function extends as a constant.

:func:`basis` computes the windows for many features at once and
:func:`dense_basis` scatters them into a dense (samples, n * P) basis that
contracts with weights as one matrix product; the single-activation API
below is the n = 1 case, and the network layers use the same two routines.
The refits (:func:`refit_least_squares`, :func:`refit_greville`,
:func:`refine_grid`) move the weight rows of a layer's features to new
domains in one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Coefficient matrix for uniform cubic segments, basis ordered so that row s
# multiplies weight w_{p+s} and columns multiply descending powers of theta.
M_CUBIC = np.array(
    [
        [-2.0, 6.0, -6.0, 2.0],
        [6.0, -12.0, 0.0, 8.0],
        [-6.0, 6.0, 6.0, 2.0],
        [2.0, 0.0, 0.0, 0.0],
    ]
) / 12.0


@dataclass(frozen=True)
class GridDomain:
    """Interval [a, b] with ``omega`` uniform sub-intervals for a cubic spline."""

    a: float
    b: float
    omega: int

    def __post_init__(self):
        if not np.isfinite(self.a) or not np.isfinite(self.b):
            raise ValueError("domain bounds must be finite")
        if self.a >= self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if self.omega < 1:
            raise ValueError(f"need omega >= 1, got {self.omega}")

    @property
    def d(self) -> float:
        """Width of one grid interval."""
        return (self.b - self.a) / self.omega

    @property
    def n_coef(self) -> int:
        """Number of weights per activation on this domain."""
        return self.omega + 3


def _d_theta(mat: np.ndarray) -> np.ndarray:
    """Map a window matrix over [theta^3, theta^2, theta, 1] to its theta-derivative.

    Differentiating moves the weight of theta^q onto theta^(q-1) times q.
    Elementwise on purpose: a matrix product here would start BLAS at import.
    """
    return np.vstack([np.zeros(4), mat[:3] * np.array([[3.0], [2.0], [1.0]])])


# Window matrices of the value and its first two theta-derivatives: the
# powers row [theta^3, theta^2, theta, 1] times _WINDOW_MATS[o] is the
# order-o window.
_WINDOW_MATS = (M_CUBIC.T, _d_theta(M_CUBIC.T), _d_theta(_d_theta(M_CUBIC.T)))


def basis(z, a, d, omega: int, order: int = 0):
    """Cubic window basis of the value and its first ``order`` z-derivatives.

    ``z`` (..., n) holds samples of n features whose domains start at ``a``
    and have interval width ``d`` (scalars or (n,) arrays), each split into
    ``omega`` intervals.  Returns ``(bins, Cs)``: ``bins`` (..., n) is the
    interval index, clamped to [0, omega-1], and ``Cs[o]`` (..., n, 4) the
    order-o window, whose entry s multiplies weight w_{bins+s}.  The local
    coordinate is clipped to [0, 1], extending the spline as a constant
    outside [a, b], and derivative windows are zero there.
    """
    bins, window = _locate(z, a, d, omega)
    return bins, [window(o) for o in range(order + 1)]


def _locate(z, a, d, omega: int):
    """The part of :func:`basis` that every window order shares.

    Returns ``(bins, window)``: ``bins`` as :func:`basis` returns them, and
    ``window(o)`` the order-o window of :func:`basis`.  ``window`` keeps the
    theta powers, u = (z - a) / d and d of this call, so a caller can build
    a further order later, bitwise equal to building it now.
    """
    # Runs per layer per training step, where np.clip's Python wrapper and
    # np.stack cost more than the arithmetic, hence the in-place ufunc
    # clamps and one preallocated powers array.  The windows must stay
    # bitwise equal to the clip/stack form (signed zeros aside): training
    # follows the exact trajectory, so the same products and sums are kept.
    u = (np.asarray(z, dtype=float) - a) / d
    bins = np.floor(u)
    np.maximum(bins, 0.0, out=bins)
    np.minimum(bins, omega - 1, out=bins)
    theta = u - bins
    np.maximum(theta, 0.0, out=theta)
    np.minimum(theta, 1.0, out=theta)
    shape = u.shape + (4,)
    pows = np.empty(shape)
    t2 = np.multiply(theta, theta, out=pows[..., 1])
    np.multiply(t2, theta, out=pows[..., 0])
    pows[..., 2] = theta
    pows[..., 3] = 1.0
    pows = pows.reshape(-1, 4)

    def window(order: int) -> np.ndarray:
        C = (pows @ _WINDOW_MATS[order]).reshape(shape)
        if order:
            C = C / np.asarray(d, dtype=float)[..., None] ** order
            C[~((u >= 0.0) & (u <= omega))] = 0.0
        return C

    return bins.astype(np.int64), window


def window_columns(bins: np.ndarray, n_coef: int) -> np.ndarray:
    """Dense-basis column of every window entry: (..., n, 4) from bins (..., n).

    Feature j owns columns j * n_coef .. (j + 1) * n_coef - 1 of the dense
    basis, and its window starts at column j * n_coef + bins[..., j].
    """
    return (bins + n_coef * np.arange(bins.shape[-1]))[..., None] + np.arange(4)


def dense_basis(cols: np.ndarray, C: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write windows C (R, n, 4) at columns ``cols`` into zeroed rows ``out``.

    ``out`` is a C-contiguous (R, width) array, overwritten and returned.
    With ``cols`` from :func:`window_columns` and weights laid out in the
    same column order, a contraction over every feature's window becomes one
    matrix product against the result.
    """
    R, width = out.shape
    out.fill(0.0)
    out.reshape(-1)[(cols + width * np.arange(R)[:, None, None]).ravel()] = C.ravel()
    return out


def _design_matrix(z, a, d, omega: int, order: int = 0) -> np.ndarray:
    """Dense (..., S, omega+3) basis of the order-th z derivative at samples
    z (..., S) on domains starting at ``a`` with interval width ``d``, both
    broadcast against z."""
    z = np.asarray(z, dtype=float)
    bins, Cs = basis(z, a, d, omega, order)
    P = omega + 3
    D = dense_basis(window_columns(bins.reshape(-1, 1), P), Cs[order].reshape(-1, 1, 4),
                    np.empty((z.size, P)))
    return D.reshape(z.shape + (P,))


def _contract(z, w_row, dom: GridDomain, order: int):
    """Order-th z derivative of the spline(s) with weights w_row (P,) or (m, P)."""
    w_row = np.asarray(w_row, dtype=float)
    if w_row.shape[-1] != dom.n_coef:
        raise ValueError(f"expected {dom.n_coef} weights, got {w_row.shape[-1]}")
    out = _design_matrix(np.atleast_1d(z), dom.a, dom.d, dom.omega, order) @ w_row.T
    if np.ndim(z) != 0:
        return out
    return float(out[0]) if out.ndim == 1 else out[0]


def eval_activation(z, w_row, dom: GridDomain):
    """Evaluate the spline with weights ``w_row`` at z (scalar or array).

    ``w_row`` may also hold m weight rows (m, P), giving (len(z), m) values.
    Outside [a, b] the function extends as a constant.
    """
    return _contract(z, w_row, dom, 0)


def activation_dz(z, w_row, dom: GridDomain):
    """Derivative of the spline w.r.t. z (right-limit at knots, 0 outside)."""
    return _contract(z, w_row, dom, 1)


def greville_abscissae(a, b, omega: int) -> np.ndarray:
    """Knot-average points where spline weights act like function samples.

    Knots extend uniformly beyond [a, b]; point i is the mean of the three
    interior knots t_{i+1}..t_{i+3}, which for uniform spacing d = (b - a) /
    omega collapses to a + (i - 1) * d.  Scalar bounds give the omega + 3
    points (omega+3,); bounds (J,) give one row per domain, (J, omega+3).
    """
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    return a + (np.arange(omega + 3) - 1.0) * ((b - a) / omega)


# Samples per grid interval when fitting a spline to another curve.  With
# S = 10 omega samples, at least 9 fall in every interval, so the design
# matrix always has full column rank omega + 3.
LSQ_SAMPLES_PER_INTERVAL = 10


@functools.lru_cache(maxsize=16)
def _lsq_factor(omega: int):
    """(design matrix, pseudo-inverse) of the refit problem, read-only.

    :func:`refit_least_squares` samples linspace(a, b, S) with S = 10 omega;
    in the normalised coordinate u = (z - a) / d these are linspace(0, omega,
    S) whatever the domain.  As gcd(omega, S - 1) = 1 no interior sample
    lands on a knot, so rounding in u never moves a sample to another bin and
    the design matrix depends on omega alone.
    """
    S = LSQ_SAMPLES_PER_INTERVAL * omega
    A = _design_matrix(np.linspace(0.0, float(omega), S), 0.0, 1.0, omega)
    pinv = np.linalg.pinv(A)
    A.flags.writeable = False
    pinv.flags.writeable = False
    return A, pinv


def refit_least_squares(coef, a, b, new_a, new_b, omega: int, new_omega: int):
    """Refit the weight rows of J features onto new domains by least squares.

    ``coef`` (J, m, omega+3) holds the rows of J features whose domains
    [a, b] (J,) are split into ``omega`` intervals; each feature's old
    splines are sampled at S = 10 new_omega points spanning [new_a, new_b]
    (J,) and the new rows solve the least-squares problem on ``new_omega``
    intervals, one stacked product against the cached pseudo-inverse.

    The target is the old spline f as the forward pass computes it inside
    [a, b], continued linearly with its edge slope outside:
    f(clip(z)) + f'(clip(z)) * (z - clip(z)).  So a linear spline stays
    linear across a stretch, and the newly covered inputs get neither the
    forward pass's flat extension nor the edge cubics' growth.  Returns the
    new rows (J, m, new_omega+3) and each feature's largest residual on the
    samples (J,).
    """
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[:, None]
    d = (b - a) / omega
    coef = np.asarray(coef, dtype=float)
    z = np.linspace(new_a, new_b, LSQ_SAMPLES_PER_INTERVAL * new_omega, axis=-1)
    y = _design_matrix(z, a, d, omega) @ coef.transpose(0, 2, 1)
    # Edge slopes (J, m) from the weights: the first segment at theta = 0 and
    # the last at theta = 1.  basis(b, order=1) cannot give the latter, as
    # (b - a) / d may round above omega and read as outside the domain.
    lo = coef[..., :4] @ _WINDOW_MATS[1][3] / d
    hi = coef[..., -4:] @ _WINDOW_MATS[1].sum(axis=0) / d
    y += np.minimum(z - a, 0.0)[..., None] * lo[:, None]
    y += np.maximum(z - b, 0.0)[..., None] * hi[:, None]
    A, pinv = _lsq_factor(new_omega)
    sol = pinv @ y
    return sol.transpose(0, 2, 1), np.abs(A @ sol - y).max(axis=(1, 2))


def refit_greville(coef, a, b, new_a, new_b, omega: int, new_omega: int):
    """Approximate refit: linearly interpolate weights over Greville points.

    Takes the arguments of :func:`refit_least_squares` and returns the new
    rows.  Old weights are treated as samples at the old Greville abscissae
    and re-read at the new ones; queries past the old range clamp to the
    nearest old weight.  Cheaper than the exact least-squares route on
    small layers; it makes one ``np.interp`` call per weight row.
    """
    g_old, g_new = greville_abscissae(a, b, omega), greville_abscissae(new_a, new_b, new_omega)
    # np.interp takes one row at a time
    return np.array([[np.interp(gn, go, row) for row in rows]
                     for gn, go, rows in zip(g_new, g_old, coef)])


def refine_grid(coef, a, b, omega: int, new_omega: int):
    """Re-express the rows (J, m, omega+3) of J features on the same bounds
    [a, b] (J,) with more grid intervals; returns what
    :func:`refit_least_squares` returns."""
    if new_omega <= omega:
        raise ValueError(f"refinement needs new_omega > {omega}, got {new_omega}")
    return refit_least_squares(coef, a, b, a, b, omega, new_omega)
