"""The layer kernel against a window-gather reference kernel.

The kernel contracts a layer with several outputs against a dense basis
and a one-output layer at its windows; the shapes below cover both, with
and without the base term.  The reference evaluates every activation from
its gathered (B, n, 4, m) coefficient window and scatters coefficient
gradients back with a bincount over a (B, n, 4, m) flat index, written
independently of either form, and remains the reference for both.  All are
exact in real arithmetic and differ in float64 only in summation order, so
the tolerance is fixed from the dtype, not from observed errors: rtol
1e-10, plus an absolute floor of 1e-12 times the largest reference
magnitude (at least 1) for entries that cancel to ~0.

The window basis itself must not move at all (training follows its exact
trajectory), so ``spline.basis`` is compared with ``np.array_equal`` against
the np.clip / np.stack form it replaced.
"""

import numpy as np
import pytest

from adaptkan import network
from adaptkan.histogram import FeatureHistogram
from adaptkan.network import init_network, sparsity_penalty
from adaptkan.spline import _WINDOW_MATS, M_CUBIC, basis


def close(new, ref):
    ref = np.asarray(ref)
    atol = 1e-12 * max(1.0, float(np.abs(ref).max(initial=0.0)))
    np.testing.assert_allclose(new, ref, rtol=1e-10, atol=atol)


# ----------------------------------------------------------------------
# reference kernel
# ----------------------------------------------------------------------

def _sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def ref_silu(z, order=0):
    s = _sig(z)
    if order == 0:
        return z * s
    if order == 1:
        return s * (1.0 + z * (1.0 - s))
    return s * (1.0 - s) * (2.0 + z * (1.0 - 2.0 * s))


def ref_layer_eval(layer, Z):
    a = layer.hist.a
    d = (layer.hist.b - a) / layer.omega
    u = (Z - a) / d
    bins = np.clip(np.floor(u), 0.0, layer.omega - 1).astype(np.int64)
    t = np.clip(u - bins, 0.0, 1.0)
    inside = (u >= 0.0) & (u <= layer.omega)
    one, zero = np.ones_like(t), np.zeros_like(t)
    C = np.stack([t**3, t**2, t, one], axis=-1) @ M_CUBIC.T
    C1 = np.stack([3 * t**2, 2 * t, one, zero], axis=-1) @ M_CUBIC.T / d[:, None]
    C2 = np.stack([6 * t, 2 * one, zero, zero], axis=-1) @ M_CUBIC.T / d[:, None] ** 2
    C1[~inside] = 0.0
    C2[~inside] = 0.0
    idx = bins[:, :, None] + np.arange(4)
    W = layer.coef.transpose(0, 2, 1)[np.arange(layer.n)[None, :, None], idx]  # (B, n, 4, m)
    S, Sp, Spp = (np.einsum("bnsm,bns->bnm", W, Cx) for Cx in (C, C1, C2))
    if layer.use_base:
        phi = layer.w_s * S + layer.w_b * ref_silu(Z)[:, :, None]
        dphi = layer.w_s * Sp + layer.w_b * ref_silu(Z, 1)[:, :, None]
        ddphi = layer.w_s * Spp + layer.w_b * ref_silu(Z, 2)[:, :, None]
    else:
        phi, dphi, ddphi = S, Sp, Spp
    cache = {"Z": Z, "idx": idx, "C": C, "C1": C1, "S": S, "Sp": Sp,
             "phi": phi, "dphi": dphi, "ddphi": ddphi}
    return phi.sum(axis=1), cache


def ref_basis(z, a, d, omega, order=0, clamp_theta=True):
    """``spline.basis`` in its np.clip / np.stack form; windows must match bitwise."""
    u = (np.asarray(z, dtype=float) - a) / d
    bins = np.clip(np.floor(u), 0, omega - 1)
    theta = u - bins
    if clamp_theta:
        theta = np.clip(theta, 0.0, 1.0)
    t2 = theta * theta
    pows = np.stack([t2 * theta, t2, theta, np.ones_like(theta)], axis=-1).reshape(-1, 4)
    shape = theta.shape + (4,)
    Cs = [(pows @ _WINDOW_MATS[0]).reshape(shape)]
    if order:
        outside = ~((u >= 0.0) & (u <= omega))
        d = np.asarray(d, dtype=float)[..., None]
        for o in range(1, order + 1):
            Co = (pows @ _WINDOW_MATS[o]).reshape(shape) / d**o
            Co[outside] = 0.0
            Cs.append(Co)
    return bins.astype(np.int64), Cs


def ref_scatter(layer, idx, V):
    """Accumulate window-local values V (B, n, 4, m) into coef-shaped grads."""
    P, m = layer.coef.shape[2], layer.m
    flat = (np.arange(layer.n)[None, :, None] * P + idx)[..., None] * m + np.arange(m)
    acc = np.bincount(flat.ravel(), weights=V.ravel(), minlength=layer.n * P * m)
    return acc.reshape(layer.n, P, m).transpose(0, 2, 1)


def ref_weight_grads(layer, c, EG, EJ=None):
    """Gradients from value cotangent EG and, optionally, tangent cotangent EJ."""
    scale = layer.w_s if layer.use_base else 1.0
    V = (EG * scale)[:, :, None, :] * c["C"][..., None]
    dws = (EG * c["S"]).sum(axis=0)
    dwb = (EG * ref_silu(c["Z"])[:, :, None]).sum(axis=0)
    if EJ is not None:
        V = V + (EJ * scale)[:, :, None, :] * c["C1"][..., None]
        dws = dws + (EJ * c["Sp"]).sum(axis=0)
        dwb = dwb + (EJ * ref_silu(c["Z"], 1)[:, :, None]).sum(axis=0)
    if not layer.use_base:
        dws, dwb = np.zeros_like(layer.w_s), np.zeros_like(layer.w_b)
    return {"coef": ref_scatter(layer, c["idx"], V), "w_s": dws, "w_b": dwb}


def ref_forward(net, X):
    Z, caches = X, []
    for layer in net.layers:
        Z, cache = ref_layer_eval(layer, Z)
        caches.append(cache)
    return Z, caches


def ref_backward(net, caches, G, activation_grads=None):
    grads = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        layer, c = net.layers[li], caches[li]
        E = G[:, None, :] if activation_grads is None else G[:, None, :] + activation_grads[li]
        grads[li] = ref_weight_grads(layer, c, E)
        G = (E * c["dphi"]).sum(axis=2)
    return grads, G


def ref_forward_jvp(net, X, T):
    Z, Zdot, caches = X, T, []
    for layer in net.layers:
        Y, cache = ref_layer_eval(layer, Z)
        cache["Zdot"] = Zdot
        caches.append(cache)
        Z, Zdot = Y, np.einsum("bnm,bnt->bmt", cache["dphi"], Zdot)
    return Z, Zdot, caches


def ref_backward_jvp(net, caches, G, Gdot):
    grads = [None] * len(net.layers)
    for li in range(len(net.layers) - 1, -1, -1):
        layer, c = net.layers[li], caches[li]
        Ej = np.einsum("bit,bjt->bji", Gdot, c["Zdot"])
        grads[li] = ref_weight_grads(layer, c, G[:, None, :], Ej)
        gZ = (G[:, None, :] * c["dphi"]).sum(axis=2) + (Ej * c["ddphi"]).sum(axis=2)
        Gdot = np.einsum("bit,bji->bjt", Gdot, c["dphi"])
        G = gZ
    return grads, G, Gdot


def ref_sparsity(net, caches, lam):
    n_act = sum(ly.n * ly.m for ly in net.layers)
    B = caches[0]["Z"].shape[0]
    total = sum(np.abs(c["phi"]).sum() / B for c in caches)
    extras = [lam * np.sign(c["phi"]) / (B * n_act) for c in caches]
    return lam * total / n_act, extras


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------

def make_net(shape, omega, mode="kan", seed=0):
    """Network with per-feature domains and non-trivial w_s / w_b."""
    net = init_network(shape, mode=mode, noise=0.5, seed=seed, omega=omega)
    rng = np.random.default_rng(seed + 1)
    for layer in net.layers:
        a, b = [], []
        for j in range(layer.n):
            a.append(rng.uniform(-1.5, 0.0))
            b.append(a[-1] + rng.uniform(0.5, 2.5))
        layer.hist = FeatureHistogram(a, b, omega)
        if layer.use_base:
            layer.w_s[...] = rng.uniform(0.5, 1.5, layer.w_s.shape)
            layer.w_b[...] = rng.uniform(-1.0, 1.0, layer.w_b.shape)
    return net


def inputs(net, B, seed=0):
    """Inputs reaching well outside every first-layer domain on both sides."""
    return np.random.default_rng(seed + 2).uniform(-2.5, 2.5, (B, net.layers[0].n))


def close_grads(new, ref):
    assert len(new) == len(ref)
    for g, r in zip(new, ref):
        for key in ("coef", "w_s", "w_b"):
            close(g[key], r[key])


def check_against_reference(net, X, seed=0):
    rng = np.random.default_rng(seed + 3)
    B = len(X)
    m = net.layers[-1].m

    Y, caches = net.forward(X)
    Yr, caches_r = ref_forward(net, X)
    close(Y, Yr)

    G = rng.standard_normal((B, m))
    grads, gX = net.backward(caches, G)
    grads_r, gX_r = ref_backward(net, caches_r, G)
    close_grads(grads, grads_r)
    close(gX, gX_r)

    none, gX_only = net.backward(caches, G, param_grads=False)
    assert none is None
    close(gX_only, gX_r)

    A = [rng.standard_normal((B, ly.n, ly.m)) for ly in net.layers]
    grads, gX = net.backward(caches, G, A)
    grads_r, gX_r = ref_backward(net, caches_r, G, A)
    close_grads(grads, grads_r)
    close(gX, gX_r)

    pen, extras = sparsity_penalty(net, caches, 0.1)
    pen_r, extras_r = ref_sparsity(net, caches_r, 0.1)
    close(pen, pen_r)
    for e, er in zip(extras, extras_r):
        close(e, er)

    T = rng.standard_normal((B, net.layers[0].n, 2))
    Y, Ydot, caches = net.forward_jvp(X, T)
    Yr, Ydot_r, caches_r = ref_forward_jvp(net, X, T)
    close(Y, Yr)
    close(Ydot, Ydot_r)

    Gdot = rng.standard_normal((B, m, 2))
    grads, gZ, gZdot = net.backward_jvp(caches, G, Gdot)
    grads_r, gZ_r, gZdot_r = ref_backward_jvp(net, caches_r, G, Gdot)
    close_grads(grads, grads_r)
    close(gZ, gZ_r)
    close(gZdot, gZdot_r)


@pytest.mark.parametrize("omega", [3, 10, 50])
# [3, 1, 2]: a one-output hidden layer receives per-feature sparsity
# cotangents and the tangents of the T = 2 passes
@pytest.mark.parametrize("shape", [[2, 5, 1], [3, 4, 2], [2, 32, 32, 1], [3, 1, 2]])
def test_kernel_matches_reference(shape, omega):
    net = make_net(shape, omega, seed=omega)
    check_against_reference(net, inputs(net, 37, seed=omega), seed=omega)


# ids keep the [3, 4, 2] cases' earlier names
@pytest.mark.parametrize("shape, omega", [([3, 4, 2], 3), ([3, 4, 2], 10),
                                          ([3, 4, 1], 3), ([3, 4, 1], 10)],
                         ids=["3", "10", "one_out-3", "one_out-10"])
def test_kernel_matches_reference_without_base(shape, omega):
    net = make_net(shape, omega, mode="linear", seed=5)
    check_against_reference(net, inputs(net, 23, seed=5), seed=5)


def test_kernel_matches_reference_across_row_blocks():
    net = make_net([2, 32, 32, 1], 50, seed=7)
    B = 200
    assert B * 32 * (50 + 3) > 2 * network.BLOCK_ELEMS  # several blocks in the wide layers
    check_against_reference(net, inputs(net, B, seed=7), seed=7)


def test_kernel_matches_reference_one_row_per_block(monkeypatch):
    # every row its own block, and a block bound below one row's width
    monkeypatch.setattr(network, "BLOCK_ELEMS", 1)
    net = make_net([3, 4, 2], 10, seed=9)
    check_against_reference(net, inputs(net, 11, seed=9), seed=9)


def window_inputs(a, b, omega):
    """Knots, the domain ends, their neighbours just outside, +-1e6, -0.0, random."""
    knots = np.linspace(a, b, omega + 1)
    edges = [np.nextafter(a, -np.inf), np.nextafter(b, np.inf), -1e6, 1e6, -0.0]
    rng = np.random.default_rng(omega)
    return np.concatenate([knots, edges, rng.uniform(a - 1.0, b + 1.0, 40)])


def assert_same_windows(z, a, d, omega, order, clamp_theta):
    bins, Cs = basis(z, a, d, omega, order)
    bins_r, Cs_r = ref_basis(z, a, d, omega, order, clamp_theta)
    assert np.array_equal(bins, bins_r)
    assert len(Cs) == len(Cs_r) == order + 1
    for C, C_r in zip(Cs, Cs_r):
        assert np.array_equal(C, C_r)


# spline.basis has only the clamped form: constant past [a, b]
@pytest.mark.parametrize("clamp_theta", [True])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("omega", [1, 3, 10, 50])
def test_basis_windows_match_reference_bitwise(omega, order, clamp_theta):
    # scalar a and d; with a = 0 the input -0.0 lands on a
    for a, b in ((0.0, 1.0), (-1.3, 0.7)):
        z = window_inputs(a, b, omega)[:, None]
        assert_same_windows(z, a, (b - a) / omega, omega, order, clamp_theta)
    # per-feature a and d: each column holds its own feature's special points
    a = np.array([-1.3, 0.0, 2.5])
    b = np.array([0.7, 1.0, 9.0])
    z = np.stack([window_inputs(lo, hi, omega) for lo, hi in zip(a, b)], axis=1)
    assert_same_windows(z, a, (b - a) / omega, omega, order, clamp_theta)
