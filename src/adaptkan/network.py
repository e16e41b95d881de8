"""Layer stacks of spline activations with analytic gradients.

A layer maps n inputs to m outputs; output i is the sum over input features
j of a learned univariate spline activation applied to x_j.  Under the "kan"
initialisation each activation also carries a scaled SiLU base term:

    phi_{i,j}(z) = w_s[i,j] * spline_{i,j}(z) + w_b[i,j] * silu(z)

Every input feature of every layer owns a grid domain and an EMA histogram;
with ``record=True`` the forward pass updates the histograms and runs the
domain adaptation before evaluating, so layers adapt to the data they are
about to see.

Each layer is evaluated as matrix products against a dense cubic basis
D (B, n*P), P = omega + 3, the basis-matrix form of efficient-kan applied
to KAN: row b holds, in feature j's block of P columns, the four nonzero
B-spline values of x_bj.  With w_s folded into the weights, Wf = coef * w_s
laid out as (n*P, m), the layer output is D @ Wf + silu(Z) @ w_b, so the
(B, n, m) activation tensor is never formed.  D is built in row blocks of at
most BLOCK_ELEMS elements, bounding memory on whole-dataset passes.

Gradients are computed in closed form: reverse mode for weights and inputs,
plus optional forward tangent channels (directional derivatives of the
outputs w.r.t. the inputs) whose reverse pass supplies exact parameter
gradients for losses built on input-gradients, e.g. Lie-derivative terms.
Coefficient gradients are D.T @ G and input gradients G @ Wf.T read at each
window against the derivative basis; a tangent contracts like a value, with
the derivative window scaled by the tangent in place of the value window.
Per-activation values are formed only for the L1 sparsity penalty and its
cotangent.
"""

from __future__ import annotations

import numpy as np

from .adapt import AdaptConfig, apply_adapt, decide, manual_adapt
from .histogram import FeatureHistogram
from .spline import GridDomain, basis, dense_basis, greville_abscissae, refine_grid, window_columns


class NonFiniteError(FloatingPointError):
    """Raised when a layer produces or receives non-finite values."""

    def __init__(self, layer: int, where: str = "activations"):
        super().__init__(f"non-finite {where} in layer {layer}")
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
    """Row slices whose (rows, width) blocks hold at most BLOCK_ELEMS elements."""
    step = max(1, BLOCK_ELEMS // width)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


class AdaptKanLayer:
    """One spline layer: n input features, m outputs.

    ``coef`` has shape (n, m, P) with P = omega + k: coef[j][i] are the
    spline weights of activation (i, j).  ``w_s``/``w_b`` (n, m) scale the
    spline and SiLU base terms and are only active when ``use_base`` is set.

    The layer is evaluated against a dense basis: row b of D (B, n*P) holds,
    in feature j's block of P columns, the four nonzero cubic basis values of
    x_bj at columns bins_bj .. bins_bj + 3.  With ``w_s`` folded into the
    weights, Wf = (coef * w_s) laid out as (n*P, m), every contraction is one
    matrix product: outputs D @ Wf (+ silu(Z) @ w_b), coefficient gradients
    D.T @ G, and input gradients (G @ Wf.T) read back at each window.  D is
    never held whole: it is built BLOCK_ELEMS elements' worth of rows at a
    time, so memory stays bounded on full-dataset passes.
    """

    def __init__(self, n: int, m: int, domains, hists, coef, w_s, w_b, use_base: bool):
        self.n = n
        self.m = m
        self.domains = list(domains)
        self.hists = list(hists)
        self.coef = np.asarray(coef, dtype=float)
        self.w_s = np.asarray(w_s, dtype=float)
        self.w_b = np.asarray(w_b, dtype=float)
        self.use_base = use_base
        if len(self.domains) != n or len(self.hists) != n:
            raise ValueError(f"layer {n}->{m}: {len(self.domains)} domains and "
                             f"{len(self.hists)} histograms for {n} features")
        if len({(dom.omega, dom.k) for dom in self.domains}) != 1:
            raise ValueError(f"layer {n}->{m}: features differ in omega or k")
        P = self.domains[0].n_coef
        for name, arr, shape in (("coef", self.coef, (n, m, P)),
                                 ("w_s", self.w_s, (n, m)), ("w_b", self.w_b, (n, m))):
            if arr.shape != shape:
                raise ValueError(f"layer {n}->{m}: {name} has shape {arr.shape}, need {shape}")

    @property
    def omega(self) -> int:
        return self.domains[0].omega

    def folded_weights(self) -> np.ndarray:
        """(n*P, m) weights of the dense basis, w_s folded in under the base term."""
        W = self.coef * self.w_s[:, :, None] if self.use_base else self.coef
        return W.transpose(0, 2, 1).reshape(-1, self.m)

    def dense_blocks(self, cols: np.ndarray, V: np.ndarray):
        """Yield (rows, dense basis of those rows) for window values V (R, n, 4).

        ``cols`` (R, n, 4) are the windows' dense columns.  Every block is
        written into the same buffer, so a block is only valid until the next
        one is requested.
        """
        width = self.n * self.coef.shape[2]
        blocks = _row_blocks(len(V), width)
        buf = np.empty(blocks[0].stop * width if blocks else 0)
        for r in blocks:
            yield r, dense_basis(cols[r], V[r], buf[:(r.stop - r.start) * width].reshape(-1, width))

    def basis_product(self, cols, V, Wf) -> np.ndarray:
        """dense(V) @ Wf: (R, m)."""
        out = np.empty((len(V), self.m))
        for r, D in self.dense_blocks(cols, V):
            out[r] = D @ Wf
        return out

    def basis_cotangent(self, cols, V, E) -> np.ndarray:
        """dense(V).T @ E as (n, P, m); E is (R, m), or (R, n, m) per feature."""
        P = self.coef.shape[2]
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
        P = self.coef.shape[2]
        width = self.n * P
        out = np.empty(cols.shape)
        blocks = _row_blocks(len(cols), width)
        buf = np.empty(blocks[0].stop * width if blocks else 0)
        for r in blocks:
            rows = r.stop - r.start
            H = buf[:rows * width].reshape(rows, width)
            if E.ndim == 2:
                np.matmul(E[r], Wf.T, out=H)
            else:
                np.matmul(E[r].transpose(1, 0, 2), Wf.reshape(self.n, P, self.m).transpose(0, 2, 1),
                          out=H.reshape(rows, self.n, P).transpose(1, 0, 2))
            out[r] = H.reshape(-1)[cols[r] + width * np.arange(rows)[:, None, None]]
        return out

    def activations(self, cache) -> np.ndarray:
        """Per-activation values phi_ij(x_bj) of a cached evaluation: (B, n, m)."""
        P = self.coef.shape[2]
        Wf3 = cache["Wf"].reshape(self.n, P, self.m)
        C = cache["Cs"][0]
        out = np.empty(C.shape[:2] + (self.m,))
        for r, D in self.dense_blocks(cache["cols"], C):
            out[r] = (D.reshape(-1, self.n, P).transpose(1, 0, 2) @ Wf3).transpose(1, 0, 2)
        if self.use_base:
            out += self.w_b * silu(cache["Z"], cache["sig"])[:, :, None]
        return out

    def param_grads(self, GD, GB) -> dict:
        """Gradient dict from the basis cotangent GD (n, P, m) and base GB (n, m)."""
        GD = GD.transpose(0, 2, 1)
        if not self.use_base:
            return {"coef": GD, "w_s": np.zeros_like(self.w_s), "w_b": np.zeros_like(self.w_b)}
        return {"coef": self.w_s[:, :, None] * GD, "w_s": (self.coef * GD).sum(axis=2),
                "w_b": GB}


def _base_cotangent(u, E):
    """u.T @ E for base values u (R, n) and E (R, m) or per-feature (R, n, m)."""
    return u.T @ E if E.ndim == 2 else np.einsum("rj,rjm->jm", u, E)


def _base_input(E, w_b):
    """Cotangent of the base values from E (R, m) or per-feature (R, n, m): (R, n)."""
    return E @ w_b.T if E.ndim == 2 else (E * w_b).sum(axis=2)


class AdaptKanNet:
    """Stack of layers plus the adaptation configuration."""

    def __init__(self, layers, cfg: AdaptConfig | None = None):
        self.layers = list(layers)
        self.cfg = cfg if cfg is not None else AdaptConfig()
        self.adapt_events = 0
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.m != b.n:
                raise ValueError(f"layer widths do not chain: {a.m} -> {b.n}")

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
        """Update histograms for layer li's inputs, then adapt stale domains."""
        layer = self.layers[li]
        if not np.all(np.isfinite(Z)):
            raise NonFiniteError(li, "inputs")
        for j in range(layer.n):
            layer.hists[j].update(Z[:, j])
            decision = decide(layer.hists[j], self.cfg)
            if decision.kind != "none":
                dom, coef, hist = apply_adapt(
                    layer.domains[j], layer.coef[j], layer.hists[j], decision, self.cfg)
                layer.domains[j] = dom
                layer.coef[j] = coef
                layer.hists[j] = hist
                self.adapt_events += 1

    def adapt_all(self) -> int:
        """Run the adaptation check on every layer feature; returns event count."""
        before = self.adapt_events
        for layer in self.layers:
            for j in range(layer.n):
                decision = decide(layer.hists[j], self.cfg)
                if decision.kind != "none":
                    dom, coef, hist = apply_adapt(
                        layer.domains[j], layer.coef[j], layer.hists[j], decision, self.cfg)
                    layer.domains[j] = dom
                    layer.coef[j] = coef
                    layer.hists[j] = hist
                    self.adapt_events += 1
        return self.adapt_events - before

    def manual_adapt_all(self, X: np.ndarray) -> None:
        """Snap every domain to the min/max of this batch (naive baseline)."""
        Z = np.asarray(X, dtype=float)
        for li, layer in enumerate(self.layers):
            for j in range(layer.n):
                dom, coef, hist = manual_adapt(
                    layer.domains[j], layer.coef[j], layer.hists[j], Z[:, j], self.cfg)
                layer.domains[j] = dom
                layer.coef[j] = coef
                layer.hists[j] = hist
            Z, _ = self._layer_eval(li, Z)

    def refine_all(self, new_omega: int) -> float:
        """Increase every layer's grid interval count on fixed bounds.

        Weights are refit by least squares and histograms transferred to the
        new bin count.  Optimiser state tied to the old coefficient shapes
        becomes invalid after this call.  Returns the worst refit residual
        (max absolute deviation on the fitting grid) across all features.
        """
        worst = 0.0
        for layer in self.layers:
            new_coef = np.empty((layer.n, layer.m, new_omega + layer.domains[0].k))
            for j in range(layer.n):
                w, dom, info = refine_grid(layer.coef[j], layer.domains[j], new_omega)
                new_coef[j] = w
                layer.domains[j] = dom
                layer.hists[j] = layer.hists[j].refit(dom)
                worst = max(worst, info.max_err)
            layer.coef = new_coef
        return worst

    # ------------------------------------------------------------------
    # forward / reverse
    # ------------------------------------------------------------------

    def _layer_eval(self, li: int, Z: np.ndarray, order: int = 1):
        """Evaluate layer li on inputs Z, caching what the reverse passes need.

        The cache keeps the window bases up to the order-th derivative with
        their dense columns, the sigmoid of Z (base term only) and the folded
        weights.
        """
        layer = self.layers[li]
        a = np.array([dom.a for dom in layer.domains])
        d = np.array([dom.d for dom in layer.domains])
        bins, Cs = basis(Z, a, d, layer.omega, order)
        cols = window_columns(bins, layer.coef.shape[2])
        Wf = layer.folded_weights()
        Y = layer.basis_product(cols, Cs[0], Wf)
        sig = None
        if layer.use_base:
            sig = _sigmoid(Z)
            Y += silu(Z, sig) @ layer.w_b
        if not np.all(np.isfinite(Y)):
            raise NonFiniteError(li)
        return Y, {"Z": Z, "cols": cols, "Cs": Cs, "sig": sig, "Wf": Wf}

    def forward(self, X, record: bool = False):
        """Run the stack; with ``record`` update histograms and adapt first.

        Returns (outputs, caches); pass the caches to :meth:`backward`.
        """
        Z = np.asarray(X, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.layers[0].n:
            raise ValueError(f"expected input of width {self.layers[0].n}, got shape {Z.shape}")
        caches = []
        for li in range(len(self.layers)):
            if record:
                self._observe(li, Z)
            Z, cache = self._layer_eval(li, Z)
            caches.append(cache)
        return Z, caches

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
        grads = [None] * len(self.layers) if param_grads else None
        for li in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[li]
            c = caches[li]
            Z, cols, (C, C1), sig, Wf = c["Z"], c["cols"], c["Cs"][:2], c["sig"], c["Wf"]
            E = G if activation_grads is None else G[:, None, :] + activation_grads[li]
            if param_grads:
                GB = _base_cotangent(silu(Z, sig), E) if layer.use_base else None
                grads[li] = layer.param_grads(layer.basis_cotangent(cols, C, E), GB)
            G = (layer.window_cotangent(cols, E, Wf) * C1).sum(axis=2)
            if layer.use_base:
                G += silu_d1(Z, sig) * _base_input(E, layer.w_b)
        return grads, G

    # ------------------------------------------------------------------
    # forward tangents (directional input derivatives) and their reverse
    # ------------------------------------------------------------------

    def forward_jvp(self, X, tangents, record: bool = False):
        """Forward pass carrying T tangent channels per sample.

        ``tangents`` has shape (B, n, T); channel t propagates the
        directional derivative of every intermediate along tangents[:, :, t].
        Returns (Y, Ydot, caches) with Ydot of shape (B, m, T).  A tangent
        contracts like a value, with the derivative basis C1 scaled by the
        tangent in place of C.
        """
        Z = np.asarray(X, dtype=float)
        Zdot = np.asarray(tangents, dtype=float)
        if Zdot.shape[:2] != Z.shape:
            raise ValueError(f"tangent shape {Zdot.shape} does not match input {Z.shape}")
        caches = []
        for li in range(len(self.layers)):
            if record:
                self._observe(li, Z)
            layer = self.layers[li]
            Y, cache = self._layer_eval(li, Z, order=2)
            cols, C1 = cache["cols"], cache["Cs"][1]
            Ydot = np.empty(Y.shape + Zdot.shape[2:])
            for t in range(Zdot.shape[2]):
                Ydot[:, :, t] = layer.basis_product(cols, C1 * Zdot[:, :, t, None], cache["Wf"])
            if layer.use_base:
                Ydot += np.einsum("bn,bnt,nm->bmt", silu_d1(Z, cache["sig"]), Zdot, layer.w_b)
            cache["Zdot"] = Zdot
            caches.append(cache)
            Z, Zdot = Y, Ydot
        return Z, Zdot, caches

    def backward_jvp(self, caches, grad_out, grad_out_dot):
        """Reverse pass over :meth:`forward_jvp`'s computation.

        ``grad_out`` (B, m) is the cotangent of the outputs, ``grad_out_dot``
        (B, m, T) the cotangent of the tangent channels.  Returns per-layer
        parameter gradient dicts plus input/tangent cotangents; curvature
        (second-derivative) terms of the splines and SiLU enter here.
        """
        G = np.asarray(grad_out, dtype=float)
        Gdot = np.asarray(grad_out_dot, dtype=float)
        grads = [None] * len(self.layers)
        for li in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[li]
            c = caches[li]
            Z, Zdot, cols, (C, C1, C2), Wf = c["Z"], c["Zdot"], c["cols"], c["Cs"], c["Wf"]
            T = Zdot.shape[2]
            GD = layer.basis_cotangent(cols, C, G)
            for t in range(T):
                GD += layer.basis_cotangent(cols, C1 * Zdot[:, :, t, None], Gdot[:, :, t])
            gZ = (layer.window_cotangent(cols, G, Wf) * C1).sum(axis=2)
            gZdot = np.empty(Zdot.shape)
            for t in range(T):
                H = layer.window_cotangent(cols, Gdot[:, :, t], Wf)
                gZdot[:, :, t] = (H * C1).sum(axis=2)
                gZ += Zdot[:, :, t] * (H * C2).sum(axis=2)
            GB = None
            if layer.use_base:
                sv = silu(Z, c["sig"])
                sd1 = silu_d1(Z, c["sig"])
                sd2 = silu_d2(Z, c["sig"])
                GB = sv.T @ G + np.einsum("bj,bjt,bit->ji", sd1, Zdot, Gdot)
                Hb = np.einsum("bit,ji->bjt", Gdot, layer.w_b)
                gZ += sd1 * (G @ layer.w_b.T) + sd2 * (Zdot * Hb).sum(axis=2)
                gZdot += sd1[:, :, None] * Hb
            grads[li] = layer.param_grads(GD, GB)
            G, Gdot = gZ, gZdot
        return grads, G, Gdot

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------

    def parameters(self):
        """Current trainable arrays, in a stable order."""
        params = []
        for layer in self.layers:
            params.append(layer.coef)
            if layer.use_base:
                params.append(layer.w_s)
                params.append(layer.w_b)
        return params

    def gradient_list(self, grads):
        """Flatten per-layer gradient dicts to match :meth:`parameters`."""
        out = []
        for layer, g in zip(self.layers, grads):
            out.append(g["coef"])
            if layer.use_base:
                out.append(g["w_s"])
                out.append(g["w_b"])
        return out


def init_network(shape, mode: str = "kan", noise: float = 0.5, seed: int = 0,
                 omega: int = 3, k: int = 3, domain=(-1.0, 1.0),
                 cfg: AdaptConfig | None = None, slope: float | None = None) -> AdaptKanNet:
    """Build a network with fresh domains ([-1, 1] per feature by default).

    "kan" mode draws spline coefficients as noise * N(0, 1) and adds the
    scaled SiLU base term (scales start at 1).  "linear" mode sets the
    coefficients to samples of a line at the Greville points (random slope
    per activation unless ``slope`` is given) plus noise * N(0, 1), with no
    base term, so noise=0 yields an exactly linear network.
    """
    if mode not in ("kan", "linear"):
        raise ValueError(f"unknown init mode {mode!r}")
    if len(shape) < 2:
        raise ValueError("shape needs at least input and output widths")
    cfg = cfg if cfg is not None else AdaptConfig()
    rng = np.random.default_rng(seed)
    layers = []
    for n, m in zip(shape[:-1], shape[1:]):
        domains = [GridDomain(domain[0], domain[1], omega, k) for _ in range(n)]
        hists = [FeatureHistogram(domains[j], cfg.alpha) for j in range(n)]
        P = omega + k
        if mode == "kan":
            coef = noise * rng.standard_normal((n, m, P))
            w_s = np.ones((n, m))
            w_b = np.ones((n, m))
            use_base = True
        else:
            g = greville_abscissae(domains[0])
            slopes = (np.full((n, m), float(slope)) if slope is not None
                      else rng.standard_normal((n, m)))
            coef = slopes[:, :, None] * g + noise * rng.standard_normal((n, m, P))
            w_s = np.ones((n, m))
            w_b = np.zeros((n, m))
            use_base = False
        layers.append(AdaptKanLayer(n, m, domains, hists, coef, w_s, w_b, use_base))
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
