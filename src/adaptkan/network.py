"""Layer stacks of spline activations with analytic gradients.

A layer maps n inputs to m outputs; output i is the sum over input features
j of a learned univariate spline activation applied to x_j.  Under the "kan"
initialisation each activation also carries a scaled SiLU base term:

    phi_{i,j}(z) = w_s[i,j] * spline_{i,j}(z) + w_b[i,j] * silu(z)

Every input feature of every layer owns a grid domain and an EMA histogram.
A layer keeps them as one :class:`~adaptkan.histogram.FeatureHistogram` of
its n features: bounds a, b (n,), counts (n, omega+2) with the below-a and
above-b tallies as first and last columns, and extremes (n, 2).  With
``record=True`` the forward pass runs, per layer and before evaluating it,
one update of the histogram with the whole batch at the network's EMA rate
``AdaptConfig.alpha``, one ``decide`` of all its features' bounds and, when
some bound differs, one ``apply_adapt`` that refits the weight rows of the
features that move and the histogram, so layers adapt to the data they are
about to see.

The trainable arrays of all layers (coef, and w_s, w_b under the base term)
are views into one flat buffer, so :meth:`AdaptKanNet.parameters` is a
single array and :meth:`AdaptKanNet.gradient_list` turns the gradients of a
backward pass into one new flat array laid out the same way: the optimiser
makes one fused update per step.

A layer contracts in one of two forms, chosen by its width m alone.  With
m > 1 it is evaluated as matrix products against a dense cubic basis
D (B, n*P), P = omega + 3, the basis-matrix form of efficient-kan applied
to KAN: row b holds, in feature j's block of P columns, the four nonzero
B-spline values of x_bj.  With w_s folded into the weights, Wf = coef * w_s
laid out as (n*P, m), the layer output is D @ Wf + silu(Z) @ w_b, so the
(B, n, m) activation tensor is never formed.  D is built in row blocks of at
most BLOCK_ELEMS elements, bounding memory on whole-dataset passes.  With
m = 1 the dense basis would hold 4 nonzeros in each block of P, so the layer
contracts at the windows instead: it gathers the weights w = Wf[:, 0] at
the window columns, sums their products with the window values, and scatters
coefficient gradients back with a bincount over the window columns.

Gradients are computed in closed form.  The network walks its layers in two
places: ``_forward`` carries T >= 0 forward tangent channels (directional
derivatives of the outputs w.r.t. the inputs) beside the values, and
``_reverse`` runs back over it, giving exact parameter gradients also for
losses built on input-gradients, e.g. Lie-derivative terms.  ``forward``,
``forward_jvp`` and the manual snap are ``_forward``; ``backward`` and
``backward_jvp`` are ``_reverse``; the value passes are the T = 0 case,
in which no tangent or curvature term runs.  Coefficient gradients are
D.T @ G and input gradients G @ Wf.T read at each window against the
derivative basis; a tangent contracts like a value, with the derivative
window scaled by the tangent in place of the value window.  Each window is
built in the pass that reads it: ``_forward`` builds the value window, and
the first-derivative window only when it carries tangents; ``_reverse``
builds the one further order it needs from what the forward located.  So a
value pass builds no derivative window.  Per-activation values are formed
only for the L1 sparsity penalty and its cotangent.
"""

from __future__ import annotations

import math

import numpy as np

from .adapt import AdaptConfig, apply_adapt, decide, manual_adapt, require_count, require_real
from .histogram import FeatureHistogram
from .spline import _locate, dense_basis, greville_abscissae, refine_grid, window_columns


class NonFiniteError(FloatingPointError):
    """Raised when a layer produces or receives non-finite values, or a loss
    or optimiser moment built on them is non-finite (``layer`` None)."""

    def __init__(self, layer: int | None, where: str = "activations"):
        super().__init__(f"non-finite {where}" + ("" if layer is None else f" in layer {layer}"))
        self.layer = layer


# Upper bound on the elements of one row block of a layer's dense basis.
# A whole-dataset pass (RMSE, prediction) would otherwise hold a (B, n*P)
# matrix per layer at once; a 512 KiB block also stays in cache between the
# scatter that builds it and the matrix product that reads it.  Blocks of
# 2^15 to 2^17 elements run at the same speed here; 2^17 raised the peak
# RSS of small-network runs by about 1 MB, 2^18 and more ran slower.
BLOCK_ELEMS = 1 << 16


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def silu(z, s=None):
    """z * sigmoid(z); ``s`` is sigmoid(z) when the caller already has it."""
    z = np.asarray(z, dtype=float)
    return z * (_sigmoid(z) if s is None else s)


def silu_d1(z, s=None):
    z = np.asarray(z, dtype=float)
    s = _sigmoid(z) if s is None else s
    return s * (1.0 + z * (1.0 - s))


def silu_d2(z, s=None):
    z = np.asarray(z, dtype=float)
    s = _sigmoid(z) if s is None else s
    return s * (1.0 - s) * (2.0 + z * (1.0 - 2.0 * s))


def _row_blocks(rows: int, width: int):
    """Yield (row slice, (rows in it, width) buffer) for blocks of at most
    BLOCK_ELEMS elements.  Every buffer is a view of the same array, so one
    is only valid until the next block is requested."""
    step = max(1, BLOCK_ELEMS // width)
    buf = np.empty(min(step, rows) * width)
    for r in range(0, rows, step):
        block = slice(r, min(r + step, rows))
        yield block, buf[:(block.stop - r) * width].reshape(-1, width)


class AdaptKanLayer:
    """One spline layer: n input features, m outputs.

    ``coef`` has shape (n, m, P) with P = omega + 3: coef[j][i] are the
    spline weights of activation (i, j).  ``w_s``/``w_b`` (n, m) scale the
    spline and SiLU base terms and are only active when ``use_base`` is set.
    ``hist`` holds the grid domains and histograms of the n input features.
    Inside a network the trainable arrays are views into its flat parameter
    buffer: write into them, do not rebind them.

    With m > 1 the layer is evaluated against a dense basis: row b of
    D (B, n*P) holds, in feature j's block of P columns, the four nonzero
    cubic basis values of x_bj at columns bins_bj .. bins_bj + 3.  With
    ``w_s`` folded into the weights, Wf = (coef * w_s) laid out as (n*P, m),
    every contraction is one matrix product: outputs D @ Wf (+ silu(Z) @ w_b),
    coefficient gradients D.T @ G, and input gradients (G @ Wf.T) read back
    at each window.  D is never held whole: it is built BLOCK_ELEMS elements'
    worth of rows at a time, so memory stays bounded on full-dataset passes.
    With m = 1 each contraction reads the windows directly: outputs sum
    Wf[cols] times the window values, input gradients are Wf[cols] * G, and
    coefficient gradients are one bincount of window values times G over
    ``cols``.
    """

    def __init__(self, n: int, m: int, hist: FeatureHistogram, coef, w_s, w_b, use_base: bool):
        self.n = n
        self.m = m
        self.hist = hist
        self.coef = np.asarray(coef, dtype=float)
        self.w_s = np.asarray(w_s, dtype=float)
        self.w_b = np.asarray(w_b, dtype=float)
        self.use_base = use_base
        if hist.a.shape != (n,):
            raise ValueError(f"layer {n}->{m}: histogram of shape {hist.a.shape} for {n} features")
        P = hist.omega + 3
        for name, arr, shape in (("coef", self.coef, (n, m, P)),
                                 ("w_s", self.w_s, (n, m)), ("w_b", self.w_b, (n, m))):
            if arr.shape != shape:
                raise ValueError(f"layer {n}->{m}: {name} has shape {arr.shape}, need {shape}")

    @property
    def omega(self) -> int:
        return self.hist.omega

    def trainable(self) -> tuple:
        """Names of the arrays the optimiser updates, in buffer order."""
        return ("coef", "w_s", "w_b") if self.use_base else ("coef",)

    def pass_weights(self) -> dict:
        """The weights one pass reads: ``Wf``, the (n*P, m) weights of the
        dense basis with w_s folded in, and under the base term copies of
        coef, w_s and w_b for the base path and the weight gradients.

        None of them is a view of the trainable buffer, so a pass's cache keeps
        the weights that pass used across later optimiser steps and refits.
        """
        Wf = np.empty((self.n, self.coef.shape[2], self.m))
        if not self.use_base:
            Wf[...] = self.coef.transpose(0, 2, 1)
            return {"Wf": Wf.reshape(-1, self.m)}
        W = {name: getattr(self, name).copy() for name in self.trainable()}
        np.multiply(W["coef"].transpose(0, 2, 1), W["w_s"][:, None, :], out=Wf)
        W["Wf"] = Wf.reshape(-1, self.m)
        return W

    def dense_blocks(self, cols: np.ndarray, V: np.ndarray):
        """Yield (rows, dense basis of those rows) for window values V (R, n, 4).

        ``cols`` (R, n, 4) are the windows' dense columns.  Every block is
        written into the same buffer, so a block is only valid until the next
        one is requested.
        """
        for r, buf in _row_blocks(len(V), self.n * self.coef.shape[2]):
            yield r, dense_basis(cols[r], V[r], buf)

    def basis_product(self, cols, V, Wf) -> np.ndarray:
        """dense(V) @ Wf: (R, m)."""
        if self.m == 1:
            return np.einsum("rns,rns->r", Wf[:, 0][cols], V)[:, None]
        out = np.empty((len(V), self.m))
        for r, D in self.dense_blocks(cols, V):
            out[r] = D @ Wf
        return out

    def basis_cotangent(self, cols, V, E) -> np.ndarray:
        """dense(V).T @ E as (n, P, m); E is (R, m), or (R, n, m) per feature."""
        P = self.coef.shape[2]
        if self.m == 1:
            out = np.bincount(cols.ravel(), weights=(V * E.reshape(len(E), -1, 1)).ravel(),
                              minlength=self.n * P)
            return out.reshape(self.n, P, 1)
        out = np.zeros((self.n, P, self.m))
        for r, D in self.dense_blocks(cols, V):
            if E.ndim == 2:
                out += (D.T @ E[r]).reshape(out.shape)
            else:
                out += D.reshape(-1, self.n, P).transpose(1, 2, 0) @ E[r].transpose(1, 0, 2)
        return out

    def window_cotangent(self, cols, E, Wf) -> np.ndarray:
        """E @ Wf.T read at the window columns ``cols``: (R, n, 4).

        E is (R, m), or (R, n, m) with a separate cotangent per feature.
        """
        if self.m == 1:  # each entry is one product, so this equals the gather below
            return Wf[:, 0][cols] * E.reshape(len(E), -1, 1)
        P = self.coef.shape[2]
        width = self.n * P
        out = np.empty(cols.shape)
        for r, H in _row_blocks(len(cols), width):
            rows = len(H)
            if E.ndim == 2:
                np.matmul(E[r], Wf.T, out=H)
            else:
                np.matmul(E[r].transpose(1, 0, 2), Wf.reshape(self.n, P, self.m).transpose(0, 2, 1),
                          out=H.reshape(rows, self.n, P).transpose(1, 0, 2))
            out[r] = H.reshape(-1)[cols[r] + width * np.arange(rows)[:, None, None]]
        return out

    def activations(self, cache) -> np.ndarray:
        """Per-activation values phi_ij(x_bj) of a cached evaluation: (B, n, m)."""
        Wf, cols, C = cache["Wf"], cache["cols"], cache["Cs"][0]
        if self.m == 1:
            out = np.einsum("bns,bns->bn", Wf[:, 0][cols], C)[:, :, None]
        else:
            P = self.coef.shape[2]
            out = np.empty(C.shape[:2] + (self.m,))
            Wf3 = Wf.reshape(self.n, P, self.m)
            for r, D in self.dense_blocks(cols, C):
                out[r] = (D.reshape(-1, self.n, P).transpose(1, 0, 2) @ Wf3).transpose(1, 0, 2)
        if self.use_base:
            out += cache["w_b"] * silu(cache["Z"], cache["sig"])[:, :, None]
        return out

    def param_grads(self, GD, GB, W) -> dict:
        """Gradient dict from the basis cotangent GD (n, P, m) and base GB (n, m)
        at the weights W of :meth:`pass_weights`."""
        GD = GD.transpose(0, 2, 1)
        if not self.use_base:
            return {"coef": GD, "w_s": np.zeros_like(self.w_s), "w_b": np.zeros_like(self.w_b)}
        return {"coef": W["w_s"][:, :, None] * GD, "w_s": (W["coef"] * GD).sum(axis=2),
                "w_b": GB}


class AdaptKanNet:
    """Stack of layers plus the adaptation configuration.

    The layers' trainable arrays are repacked into one flat buffer when the
    network is built and whenever :meth:`refine_all` reshapes them.
    """

    def __init__(self, layers, cfg: AdaptConfig | None = None):
        self.layers = list(layers)
        self.cfg = cfg if cfg is not None else AdaptConfig()
        self.adapt_events = 0
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.m != b.n:
                raise ValueError(f"layer widths do not chain: {a.m} -> {b.n}")
        self._pack()

    def _pack(self) -> None:
        """Copy every trainable array into one new flat buffer, in the order
        of :meth:`gradient_list`, and rebind the layers to views of it."""
        self._flat = np.concatenate([getattr(layer, name).ravel() for layer in self.layers
                                     for name in layer.trainable()])
        start = 0
        for layer in self.layers:
            for name in layer.trainable():
                shape = getattr(layer, name).shape
                size = math.prod(shape)
                setattr(layer, name, self._flat[start:start + size].reshape(shape))
                start += size

    @property
    def shape(self):
        return [self.layers[0].n] + [ly.m for ly in self.layers]

    @property
    def omega(self) -> int:
        return self.layers[0].omega

    # ------------------------------------------------------------------
    # histogram recording and adaptation
    # ------------------------------------------------------------------

    def _observe(self, li: int, Z: np.ndarray) -> None:
        """Update layer li's histogram with its inputs, then move the
        features whose decided bounds differ from their own."""
        layer = self.layers[li]
        try:
            layer.hist.update(Z, self.cfg.alpha)
        except ValueError:  # the update's own check: a non-finite batch
            raise NonFiniteError(li, "inputs") from None
        a, b = decide(layer.hist, self.cfg)
        if (a != layer.hist.a).any() or (b != layer.hist.b).any():
            layer.coef[...], layer.hist, events = apply_adapt(layer.hist, layer.coef, a, b,
                                                              self.cfg)
            self.adapt_events += events

    def _snap(self, li: int, Z: np.ndarray) -> None:
        """Snap layer li's domains to the min/max of its inputs Z."""
        layer = self.layers[li]
        layer.coef[...], layer.hist = manual_adapt(layer.hist, layer.coef, Z, self.cfg)

    def manual_adapt_all(self, X: np.ndarray) -> None:
        """Snap every domain to the min/max of this batch (naive baseline)."""
        Z = np.asarray(X, dtype=float)
        if not np.isfinite(Z).all():  # every later layer's inputs are checked outputs
            raise NonFiniteError(0, "inputs")
        self._forward(Z, np.empty(Z.shape + (0,)), self._snap)

    def refine_all(self, new_omega: int) -> float:
        """Increase every layer's grid interval count on fixed bounds.

        Weights are refit by least squares and histograms transferred to the
        new bin count.  The parameter buffer is rebuilt, so optimiser state
        tied to the old one becomes invalid after this call.  Returns the
        worst refit residual (max absolute deviation on the fitting grid)
        across all features.
        """
        worst = 0.0
        for layer in self.layers:
            hist = layer.hist
            layer.coef, err = refine_grid(layer.coef, hist.a, hist.b, hist.omega, new_omega)
            worst = max(worst, float(err.max()))
            layer.hist = hist.refit(hist.a, hist.b, new_omega)
        self._pack()
        return worst

    # ------------------------------------------------------------------
    # forward / reverse
    # ------------------------------------------------------------------

    def _inputs(self, X) -> np.ndarray:
        """X as a float (B, n) array.  NaN is refused; ±inf passes, since the
        splines are constant outside their domains (``clf simulate`` feeds it)."""
        Z = np.asarray(X, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.layers[0].n:
            raise ValueError(f"expected input of width {self.layers[0].n}, got shape {Z.shape}")
        if np.isnan(Z).any():
            raise NonFiniteError(0, "inputs")
        return Z

    def _forward(self, Z, Zdot, observe=None):
        """Run the stack on inputs Z (B, n) with T >= 0 tangents Zdot (B, n, T);
        ``observe(li, Z)``, when given, runs before layer li evaluates Z.

        Returns (outputs, output tangents, caches).  A cache keeps Z, Zdot,
        the dense columns of the windows, the windows this pass built
        (``Cs``: the value window, and the first-derivative one when T > 0),
        the ``window`` builder that makes the next order from this pass's
        located inputs, the sigmoid of Z (base term only) and the weights of
        :meth:`AdaptKanLayer.pass_weights`.  A reverse pass over the cache
        reads nothing of the layer's later weights or domains.
        """
        T = Zdot.shape[2]
        caches = []
        for li, layer in enumerate(self.layers):
            if observe is not None:
                observe(li, Z)
            bins, window = _locate(Z, layer.hist.a, layer.hist.d, layer.omega)
            Cs = [window(o) for o in range(2 if T else 1)]
            cols = window_columns(bins, layer.coef.shape[2])
            W = layer.pass_weights()
            Wf = W["Wf"]
            Y = layer.basis_product(cols, Cs[0], Wf)
            sig = None
            if layer.use_base:
                sig = _sigmoid(Z)
                Y += silu(Z, sig) @ W["w_b"]
            if not np.all(np.isfinite(Y)):
                raise NonFiniteError(li)
            Ydot = np.empty(Y.shape + (T,))
            for t in range(T):
                Ydot[:, :, t] = layer.basis_product(cols, Cs[1] * Zdot[:, :, t, None], Wf)
            if layer.use_base and T:
                Ydot += np.einsum("bn,bnt,nm->bmt", silu_d1(Z, sig), Zdot, W["w_b"])
            caches.append({"Z": Z, "Zdot": Zdot, "cols": cols, "Cs": Cs, "window": window,
                           "sig": sig, **W})
            Z, Zdot = Y, Ydot
        return Z, Zdot, caches

    def _reverse(self, caches, G, Gdot, activation_grads=None, param_grads: bool = True):
        """Reverse pass over :meth:`_forward` from the output cotangent G (B, m)
        and the T >= 0 tangent cotangents Gdot (B, m, T).

        ``activation_grads`` adds per-activation cotangents (list over layers
        of (B, n, m)) to G.  Returns (per-layer gradient dicts, or None
        without ``param_grads``, input cotangent, input tangent cotangent).
        With T = 0 no tangent or curvature term runs.
        """
        T = Gdot.shape[2]
        grads = [None] * len(self.layers) if param_grads else None
        for li in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[li]
            c = caches[li]
            Z, Zdot, cols, sig, Wf = c["Z"], c["Zdot"], c["cols"], c["sig"], c["Wf"]
            Cs = c["Cs"] + [c["window"](len(c["Cs"]))]
            E = G if activation_grads is None else G[:, None, :] + activation_grads[li]
            gZ = (layer.window_cotangent(cols, E, Wf) * Cs[1]).sum(axis=2)
            gZdot = np.empty(Z.shape + (T,))
            for t in range(T):
                H = layer.window_cotangent(cols, Gdot[:, :, t], Wf)
                gZdot[:, :, t] = (H * Cs[1]).sum(axis=2)
                gZ += Zdot[:, :, t] * (H * Cs[2]).sum(axis=2)
            if layer.use_base:  # E is (B, m), or (B, n, m) per feature
                sd1 = silu_d1(Z, sig)
                w_b = c["w_b"]
                base = sd1 * (E @ w_b.T if E.ndim == 2 else (E * w_b).sum(axis=2))
                if T:
                    Hb = np.einsum("bit,ji->bjt", Gdot, w_b)
                    base += silu_d2(Z, sig) * (Zdot * Hb).sum(axis=2)
                    gZdot += sd1[:, :, None] * Hb
                gZ += base
            if param_grads:
                GD = layer.basis_cotangent(cols, Cs[0], E)
                for t in range(T):
                    GD += layer.basis_cotangent(cols, Cs[1] * Zdot[:, :, t, None], Gdot[:, :, t])
                GB = None
                if layer.use_base:
                    sv = silu(Z, sig)
                    GB = sv.T @ E if E.ndim == 2 else np.einsum("rj,rjm->jm", sv, E)
                    if T:
                        GB += np.einsum("bj,bjt,bit->ji", sd1, Zdot, Gdot)
                grads[li] = layer.param_grads(GD, GB, c)
            G, Gdot = gZ, gZdot
        return grads, G, Gdot

    def forward(self, X, record: bool = False):
        """Run the stack; with ``record`` update histograms and adapt first.

        Returns (outputs, caches); pass the caches to :meth:`backward`.
        """
        Z = self._inputs(X)
        Y, _, caches = self._forward(Z, np.empty(Z.shape + (0,)),
                                     self._observe if record else None)
        return Y, caches

    def backward(self, caches, grad_out, activation_grads=None, param_grads: bool = True):
        """Reverse-mode gradients from an output cotangent.

        ``activation_grads`` optionally adds a per-activation cotangent
        (list over layers of (B, n, m) arrays), used by regularisers that
        act on individual activation values before they are summed.  With
        ``param_grads=False`` only the input gradient is computed and the
        gradient dicts come back as None.
        Returns (per-layer gradient dicts, gradient w.r.t. the inputs).
        """
        G = np.asarray(grad_out, dtype=float)
        grads, gX, _ = self._reverse(caches, G, np.empty(G.shape + (0,)), activation_grads,
                                     param_grads)
        return grads, gX

    def forward_jvp(self, X, tangents, record: bool = False):
        """Forward pass carrying T >= 0 tangent channels per sample.

        ``tangents`` has shape (B, n, T); channel t propagates the
        directional derivative of every intermediate along tangents[:, :, t].
        Returns (Y, Ydot, caches) with Ydot of shape (B, m, T).
        """
        Z = self._inputs(X)
        Zdot = np.asarray(tangents, dtype=float)
        if Zdot.shape[:2] != Z.shape:
            raise ValueError(f"tangent shape {Zdot.shape} does not match input {Z.shape}")
        return self._forward(Z, Zdot, self._observe if record else None)

    def backward_jvp(self, caches, grad_out, grad_out_dot):
        """Reverse pass over :meth:`forward_jvp`'s computation.

        ``grad_out`` (B, m) is the cotangent of the outputs, ``grad_out_dot``
        (B, m, T) the cotangent of the tangent channels.  Returns per-layer
        parameter gradient dicts plus input/tangent cotangents; curvature
        (second-derivative) terms of the splines and SiLU enter here.
        """
        return self._reverse(caches, np.asarray(grad_out, dtype=float),
                             np.asarray(grad_out_dot, dtype=float))

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------

    def parameters(self):
        """The trainable arrays: one flat buffer that every layer's trainable
        arrays are views into."""
        return [self._flat]

    def gradient_list(self, grads):
        """Per-layer gradient dicts as one new flat array laid out like
        :meth:`parameters`, so gradients of two passes never share memory."""
        return [np.concatenate([g[name].ravel() for layer, g in zip(self.layers, grads)
                                for name in layer.trainable()])]


def init_network(shape, mode: str = "kan", noise: float = 0.5, seed: int = 0,
                 omega: int = 3, domain=(-1.0, 1.0),
                 cfg: AdaptConfig | None = None, slope: float | None = None) -> AdaptKanNet:
    """Build a network with fresh domains ([-1, 1] per feature by default).

    "kan" mode draws spline coefficients as noise * N(0, 1) and adds the
    scaled SiLU base term (scales start at 1).  "linear" mode sets the
    coefficients to samples of a line at the Greville points (random slope
    per activation unless ``slope`` is given) plus noise * N(0, 1), with no
    base term, so noise=0 yields an exactly linear network.  ``noise``, ``slope``
    and the ``domain`` bounds must be finite numbers, ``omega`` an integer >= 1.
    """
    if mode not in ("kan", "linear"):
        raise ValueError(f"unknown init mode {mode!r}")
    if len(shape) < 2:
        raise ValueError("shape needs at least input and output widths")
    lo, hi = domain
    for name, value in (("noise", noise), ("domain lo", lo), ("domain hi", hi)):
        require_real(name, value)
    if slope is not None:
        require_real("slope", slope)
    require_count("omega", omega)
    rng = np.random.default_rng(seed)
    use_base = mode == "kan"
    layers = []
    for n, m in zip(shape[:-1], shape[1:]):
        if use_base:
            coef = noise * rng.standard_normal((n, m, omega + 3))
        else:
            slopes = (np.full((n, m), float(slope)) if slope is not None
                      else rng.standard_normal((n, m)))
            coef = (slopes[:, :, None] * greville_abscissae(lo, hi, omega)
                    + noise * rng.standard_normal((n, m, omega + 3)))
        layers.append(AdaptKanLayer(n, m, FeatureHistogram(np.full(n, lo), np.full(n, hi), omega),
                                    coef, np.ones((n, m)), np.full((n, m), float(use_base)),
                                    use_base))
    return AdaptKanNet(layers, cfg)


def sparsity_penalty(net: AdaptKanNet, caches, lam: float):
    """L1 penalty on activation magnitudes, averaged over batch and activations.

    Returns (value, per-layer activation cotangents) so the penalty can be
    folded into a backward pass.  lam = 0 short-circuits to (0, None).
    """
    if lam == 0.0:
        return 0.0, None
    n_act = sum(ly.n * ly.m for ly in net.layers)
    total = 0.0
    extras = []
    for layer, cache in zip(net.layers, caches):
        B = cache["Z"].shape[0]
        act = layer.activations(cache)
        total += np.abs(act).sum() / B
        extras.append(lam * np.sign(act) / (B * n_act))
    return lam * total / n_act, extras
