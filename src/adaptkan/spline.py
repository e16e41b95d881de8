"""Uniform cubic B-spline activations in closed (non-recursive) matrix form.

Each activation is a degree-k uniform B-spline over a grid domain [a, b]
split into ``omega`` equal intervals.  An input z is mapped to a bin index
and a local coordinate theta in [0, 1]; the value is then

    phi(z) = [w_p, ..., w_{p+k}] @ M @ [theta^k, ..., theta, 1]^T

with a fixed (k+1)x(k+1) coefficient matrix M.  The same window/matrix form
is used across the whole domain (no special edge segments), which makes
indexing into histogram bins and weight vectors trivial.  Outside [a, b]
the local coordinate is clamped, so the function extends as a constant.

:func:`basis` computes the windows for many features at once and
:func:`dense_basis` scatters them into a dense (samples, n * P) basis that
contracts with weights as one matrix product; the single-activation API
below is the n = 1 case, and the network layers use the same two routines.

Only k=3 is supported; the matrix for other degrees is not provided.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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


def basis_matrix(k: int) -> np.ndarray:
    """Return the segment coefficient matrix for degree k (k=3 only)."""
    if k != 3:
        raise NotImplementedError(f"only cubic splines (k=3) are supported, got k={k}")
    return M_CUBIC


@dataclass(frozen=True)
class GridDomain:
    """Interval [a, b] with ``omega`` uniform sub-intervals for a degree-k spline."""

    a: float
    b: float
    omega: int
    k: int = 3

    def __post_init__(self):
        if not np.isfinite(self.a) or not np.isfinite(self.b):
            raise ValueError("domain bounds must be finite")
        if self.a >= self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if self.omega < 1:
            raise ValueError(f"need omega >= 1, got {self.omega}")
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")

    @property
    def d(self) -> float:
        """Width of one grid interval."""
        return (self.b - self.a) / self.omega

    @property
    def n_coef(self) -> int:
        """Number of weights per activation on this domain."""
        return self.omega + self.k

    def edges(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.omega + 1)

    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.omega) + 0.5) * self.d


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


def basis(z, a, d, omega: int, order: int = 0, clamp_theta: bool = True):
    """Cubic window basis of the value and its first ``order`` z-derivatives.

    ``z`` (..., n) holds samples of n features whose domains start at ``a``
    and have interval width ``d`` (scalars or (n,) arrays), each split into
    ``omega`` intervals.  Returns ``(bins, Cs)``: ``bins`` (..., n) is the
    interval index, clamped to [0, omega-1], and ``Cs[o]`` (..., n, 4) the
    order-o window, whose entry s multiplies weight w_{bins+s}.  With
    ``clamp_theta`` the local coordinate is clipped to [0, 1], extending the
    spline as a constant outside [a, b]; without it the edge segments
    extrapolate.  Derivative windows are zero outside [a, b].
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
    if clamp_theta:
        np.maximum(theta, 0.0, out=theta)
        np.minimum(theta, 1.0, out=theta)
    shape = u.shape + (4,)
    pows = np.empty(shape)
    t2 = np.multiply(theta, theta, out=pows[..., 1])
    np.multiply(t2, theta, out=pows[..., 0])
    pows[..., 2] = theta
    pows[..., 3] = 1.0
    pows = pows.reshape(-1, 4)
    Cs = [(pows @ _WINDOW_MATS[0]).reshape(shape)]
    if order:
        outside = ~((u >= 0.0) & (u <= omega))
        d = np.asarray(d, dtype=float)[..., None]
        for o in range(1, order + 1):
            Co = (pows @ _WINDOW_MATS[o]).reshape(shape) / d**o
            Co[outside] = 0.0
            Cs.append(Co)
    return bins.astype(np.int64), Cs


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


def _design_matrix(z, dom: GridDomain, order: int = 0, clamp_theta: bool = True) -> np.ndarray:
    """Dense (S, n_coef) basis of the order-th z derivative at samples z."""
    basis_matrix(dom.k)  # raises for the degrees basis() does not cover
    z = np.atleast_1d(np.asarray(z, dtype=float))
    bins, Cs = basis(z[:, None], dom.a, dom.d, dom.omega, order, clamp_theta)
    return dense_basis(window_columns(bins, dom.n_coef), Cs[order], np.empty((len(z), dom.n_coef)))


def _contract(z, w_row, dom: GridDomain, order: int, clamp_theta: bool = True):
    """Order-th z derivative of the spline(s) with weights w_row (P,) or (m, P)."""
    w_row = np.asarray(w_row, dtype=float)
    if w_row.shape[-1] != dom.n_coef:
        raise ValueError(f"expected {dom.n_coef} weights, got {w_row.shape[-1]}")
    out = _design_matrix(z, dom, order, clamp_theta) @ w_row.T
    if np.ndim(z) != 0:
        return out
    return float(out[0]) if out.ndim == 1 else out[0]


def eval_activation(z, w_row, dom: GridDomain, clamp_theta: bool = True):
    """Evaluate the spline with weights ``w_row`` at z (scalar or array).

    ``w_row`` may also hold m weight rows (m, P), giving (len(z), m) values.
    Outside [a, b] the function extends as a constant; pass
    ``clamp_theta=False`` to extrapolate the edge segments instead (used
    when sampling a spline for refits).
    """
    return _contract(z, w_row, dom, 0, clamp_theta)


def activation_dz(z, w_row, dom: GridDomain):
    """Derivative of the spline w.r.t. z (right-limit at knots, 0 outside)."""
    return _contract(z, w_row, dom, 1)


def greville_abscissae(dom: GridDomain) -> np.ndarray:
    """Knot-average points where spline weights act like function samples.

    Knots extend uniformly beyond [a, b]; point i is the mean of the k
    interior knots t_{i+1}..t_{i+k}, which for uniform spacing collapses to
    a + (i - (k-1)/2) * d.  There are omega + k points, spaced by d.
    """
    i = np.arange(dom.n_coef)
    return dom.a + (i - (dom.k - 1) / 2.0) * dom.d


class RefitInfo(NamedTuple):
    """Diagnostics from a least-squares refit."""

    max_err: float
    rank: int
    rank_deficient: bool


# Samples per grid interval when fitting a spline to another curve; at least
# k+1 per interval keeps the normal equations well posed.
LSQ_SAMPLES_PER_INTERVAL = 10


@functools.lru_cache(maxsize=16)
def _lsq_factor(omega: int, k: int):
    """(design matrix, pseudo-inverse, rank) of the refit problem, read-only.

    :func:`refit_least_squares` samples linspace(a, b, S) with S = 10 omega;
    in the normalised coordinate u = (z - a) / d these are linspace(0, omega,
    S) whatever the domain.  As gcd(omega, S - 1) = 1 no interior sample
    lands on a knot, so rounding in u never moves a sample to another bin and
    the design matrix depends on (omega, k) alone.
    """
    S = LSQ_SAMPLES_PER_INTERVAL * omega
    A = _design_matrix(np.linspace(0.0, float(omega), S), GridDomain(0.0, float(omega), omega, k))
    pinv = np.linalg.pinv(A)
    rank = int(np.linalg.matrix_rank(A))
    A.flags.writeable = False
    pinv.flags.writeable = False
    return A, pinv, rank


def refit_least_squares(old_weights, old_dom: GridDomain, new_dom: GridDomain):
    """Refit weights so the spline on new_dom reproduces the old spline.

    The old spline is sampled densely over the new domain and the new
    weights solve the resulting linear least-squares problem.  Outside the
    old bounds the old spline is evaluated by the same clamped-window
    formula, i.e. its edge segments extrapolate, so e.g. a linear spline
    stays linear across a stretch.  ``old_weights`` may be (P,) or (m, P)
    rows sharing the domain.  A singular system gets the minimum-norm
    solution, flagged via ``rank_deficient``.
    """
    z = np.linspace(new_dom.a, new_dom.b, LSQ_SAMPLES_PER_INTERVAL * new_dom.omega)
    y = eval_activation(z, old_weights, old_dom, clamp_theta=False)
    A, pinv, rank = _lsq_factor(new_dom.omega, new_dom.k)
    sol = pinv @ y
    max_err = float(np.abs(A @ sol - y).max()) if y.size else 0.0
    info = RefitInfo(max_err=max_err, rank=rank, rank_deficient=rank < new_dom.n_coef)
    return sol.T, info


def refit_greville(old_weights, old_dom: GridDomain, new_dom: GridDomain):
    """Approximate refit: linearly interpolate weights over Greville points.

    Old weights are treated as samples at the old Greville abscissae and
    re-read at the new ones; queries past the old range clamp to the nearest
    old weight.  Much cheaper than the exact least-squares route.
    """
    g_old = greville_abscissae(old_dom)
    g_new = greville_abscissae(new_dom)
    old_weights = np.asarray(old_weights, dtype=float)
    if old_weights.ndim == 1:
        return np.interp(g_new, g_old, old_weights)
    return np.stack([np.interp(g_new, g_old, row) for row in old_weights])


def refine_grid(old_weights, old_dom: GridDomain, new_omega: int):
    """Re-express the spline on the same [a, b] with more grid intervals."""
    if new_omega <= old_dom.omega:
        raise ValueError(f"refinement needs new_omega > {old_dom.omega}, got {new_omega}")
    new_dom = GridDomain(old_dom.a, old_dom.b, new_omega, old_dom.k)
    new_w, info = refit_least_squares(old_weights, old_dom, new_dom)
    return new_w, new_dom, info
