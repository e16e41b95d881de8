"""Domain adaptation decisions, applications, and the manual baseline."""

import itertools

import numpy as np
import pytest

from adaptkan import network
from adaptkan.adapt import (
    REFIT_MODES,
    SHRINK_RULES,
    STRETCH_MODES,
    AdaptConfig,
    apply_adapt,
    decide,
    manual_adapt,
    shrink_threshold,
)
from adaptkan.histogram import FeatureHistogram
from adaptkan.network import init_network
from adaptkan.spline import GridDomain, eval_activation
from adaptkan.tasks import PoisonPlan, poison_hook

DOM4 = GridDomain(0.0, 1.0, 4)


def make_hist(dom, hist=None, ood=(0.0, 0.0), ood_a=None, ood_b=None):
    """One-feature layer histogram on dom with the given counts and extremes."""
    counts = None if hist is None else [[ood[0], *hist, ood[1]]]
    return FeatureHistogram([dom.a], [dom.b], dom.omega, counts,
                            [[dom.a if ood_a is None else ood_a, dom.b if ood_b is None else ood_b]])


def kinds(h, a, b):
    """Each feature's move from h's bounds to a, b: a stretch moves a bound
    out, a shrink moves one in."""
    return np.where((a < h.a) | (b > h.b), "stretch",
                    np.where((a != h.a) | (b != h.b), "shrink", "none"))


def decide1(h, cfg):
    """Kind and decided bounds of the one feature of h."""
    a, b = decide(h, cfg)
    return kinds(h, a, b)[0], a[0], b[0]


def total(h):
    return h.hist.sum(axis=-1) + h.ood_hist.sum(axis=-1)


def test_shrink_threshold_values():
    assert shrink_threshold(AdaptConfig(alpha=1e-3, prune_patience=1)) == pytest.approx(0.000999, abs=1e-15)
    assert shrink_threshold(AdaptConfig(alpha=0.5, prune_patience=2)) == 0.125
    cfg = AdaptConfig(alpha=0.01, shrink_rule="relative")
    assert shrink_threshold(cfg, np.array([40.0, 7.0])) == pytest.approx(0.4)


def test_shrink_threshold_scales_with_outlier_count():
    one = shrink_threshold(AdaptConfig(alpha=0.5, prune_patience=2, outlier_count=1))
    three = shrink_threshold(AdaptConfig(alpha=0.5, prune_patience=2, outlier_count=3))
    assert three == 3 * one


def test_decide_shrink_example():
    # tau = max(hist) * alpha = 0.1 via the relative rule
    cfg = AdaptConfig(alpha=0.02, shrink_rule="relative")
    h = make_hist(DOM4, [0.0, 5.0, 5.0, 0.0])
    assert decide1(h, cfg) == ("shrink", 0.25, 0.75)


def test_decide_stretch_overrides():
    cfg = AdaptConfig(alpha=0.5, stretch_mode="max")
    h = make_hist(DOM4, [1.0, 1.0, 1.0, 1.0], ood=(5.0, 0.0), ood_a=-2.0)
    assert decide1(h, cfg) == ("stretch", -2.0, 1.0)


def test_decide_none_when_ood_below_max():
    cfg = AdaptConfig(alpha=0.5, stretch_mode="max")
    h = make_hist(DOM4, [1.0, 1.0, 1.0, 1.0], ood=(0.4, 0.0), ood_a=-2.0)
    assert decide1(h, cfg) == ("none", 0.0, 1.0)


def test_decide_keeps_bounds_when_no_bin_is_above_tau():
    # both edges are stale, but shrinking to the bins above tau would
    # collapse the domain: the feature keeps its bounds
    cfg = AdaptConfig(alpha=0.5)
    h = make_hist(DOM4, [0.0, 0.0, 0.0, 0.0])
    assert decide1(h, cfg) == ("none", 0.0, 1.0)


def test_decide_is_pure():
    cfg = AdaptConfig(alpha=0.02, shrink_rule="relative")
    h = make_hist(DOM4, [0.0, 5.0, 5.0, 0.0])
    counts = h.counts.copy()
    (a1, b1), (a2, b2) = decide(h, cfg), decide(h, cfg)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert np.array_equal(h.counts, counts) and (h.a[0], h.b[0]) == (0.0, 1.0)


@pytest.mark.parametrize("mode,hist,ood,expect", [
    ("half_max", [4.0, 4.0, 4.0, 4.0], (2.5, 0.0), "stretch"),   # 2.5 > 2
    ("half_max", [4.0, 4.0, 4.0, 4.0], (1.5, 0.0), "none"),
    ("mean", [1.0, 3.0, 1.0, 3.0], (2.5, 0.0), "stretch"),       # 2.5 > 2
    ("edge", [0.5, 9.0, 9.0, 9.0], (0.6, 0.0), "stretch"),       # 0.6 > 0.5
    ("edge", [0.5, 9.0, 9.0, 9.0], (0.4, 0.0), "none"),
])
def test_stretch_modes(mode, hist, ood, expect):
    cfg = AdaptConfig(alpha=0.5, stretch_mode=mode)
    h = make_hist(DOM4, hist, ood=ood, ood_a=-1.0, ood_b=2.0)
    assert decide1(h, cfg)[0] == expect


def test_tau_timing_semantics():
    # one outlier batch, then exactly p clean batches: the outlier bin decays
    # to (1-alpha)^p * alpha and the shrink must fire at step p, not before
    for alpha, p in [(1e-3, 10), (0.5, 2)]:
        cfg = AdaptConfig(alpha=alpha, prune_patience=p)
        h = make_hist(DOM4)
        clean = np.array([[0.1], [0.3], [0.6]])  # covers bins 0..2
        h.update(np.vstack([clean, [[0.9]]]), alpha)  # outlier lands in bin 3
        assert decide1(h, cfg)[0] == "none"
        for step in range(1, p + 1):
            h.update(clean, alpha)
            d = decide1(h, cfg)
            if step < p:
                assert d[0] == "none", f"fired early at step {step}"
            else:
                assert d == ("shrink", 0.0, 0.75)
        assert h.hist[0, 3] == shrink_threshold(cfg)  # bit-for-bit decay match


def test_shrink_threshold_uses_each_features_alpha():
    # every feature's bins decay at cfg.alpha, the rate the threshold is
    # built from, so the shrink fires after exactly p clean batches, not before
    cfg = AdaptConfig(alpha=0.01, prune_patience=2)
    h = make_hist(DOM4)
    clean = np.array([[0.1], [0.3], [0.6]])
    h.update(np.vstack([clean, [[0.9]]]), cfg.alpha)
    assert decide1(h, cfg) == ("none", 0.0, 1.0)
    h.update(clean, cfg.alpha)
    assert decide1(h, cfg) == ("none", 0.0, 1.0)
    h.update(clean, cfg.alpha)
    assert decide1(h, cfg) == ("shrink", 0.0, 0.75)
    assert h.hist[0, 3] == shrink_threshold(cfg)


def make_state(rng, dom=DOM4, m=3):
    coef = rng.standard_normal((1, m, dom.n_coef))
    hist = make_hist(dom, rng.uniform(1, 5, size=dom.omega))
    return dom, coef, hist


def test_apply_none_is_identity():
    rng = np.random.default_rng(0)
    dom, coef, hist = make_state(rng)
    coef2, hist2, events = apply_adapt(hist, coef, hist.a.copy(), hist.b.copy(), AdaptConfig())
    assert coef2 is coef and hist2 is hist and events == 0


def test_apply_stretch_keeps_constant_function():
    cfg = AdaptConfig(alpha=0.5)
    dom = DOM4
    coef = np.full((1, 2, dom.n_coef), 3.0)
    hist = make_hist(dom, [1.0, 1.0, 1.0, 1.0], ood=(5.0, 0.0), ood_a=-2.0)
    coef2, hist2, events = apply_adapt(hist, coef, np.array([-2.0]), np.array([1.0]), cfg)
    dom2 = GridDomain(hist2.a[0], hist2.b[0], hist2.omega)
    assert events == 1
    z = np.linspace(-2.0, 1.0, 300)
    for row in coef2[0]:
        np.testing.assert_allclose(eval_activation(z, row, dom2), 3.0, atol=1e-10)
    # extremes reset after a stretch
    assert tuple(hist2.extremes[0]) == (dom2.a, dom2.b)


def test_stretch_leaves_extremes_at_the_new_bounds():
    # the refit of a stretch widens the extremes to the new bounds, which
    # are the extremes themselves; a feature that stays keeps its own
    hist = FeatureHistogram([0.0, 0.0], [1.0, 1.0], 4, [[4.0, 1, 1, 1, 1, 0], [0, 1, 1, 1, 1, 0]],
                            [[-2.0, 1.0], [-0.5, 3.0]])
    a, b = decide(hist, AdaptConfig(stretch_mode="max"))
    assert list(kinds(hist, a, b)) == ["stretch", "none"]
    assert (a[0], b[0]) == (-2.0, 1.0)
    _, hist2, events = apply_adapt(hist, np.zeros((2, 1, 7)), a, b, AdaptConfig())
    assert events == 1
    np.testing.assert_array_equal(hist2.extremes, [[-2.0, 1.0], [-0.5, 3.0]])
    assert (hist2.a[0], hist2.b[0]) == (-2.0, 1.0)


def test_stretch_trigger_with_extremes_at_the_bounds_moves_nothing():
    # a positive below-a tally with the extremes at the bounds is a legal
    # state: its stretch goes nowhere, so it is no event and refits nothing
    net = init_network([1, 2], mode="kan", noise=0.5, seed=0, omega=4)
    layer = net.layers[0]
    layer.hist = FeatureHistogram([0.0], [1.0], 4, [[5, 1, 1, 1, 1, 0]])
    coef = layer.coef.copy()
    X = np.random.default_rng(0).uniform(0.0, 1.0, (32, 1))
    for _ in range(3):
        net.forward(X, record=True)
    assert net.adapt_events == 0
    assert np.array_equal(layer.coef, coef)
    assert (layer.hist.a[0], layer.hist.b[0]) == (0.0, 1.0)


def test_apply_shrink_matches_on_overlap():
    rng = np.random.default_rng(1)
    cfg = AdaptConfig(alpha=0.5, refit_mode="exact_lsq")
    dom, coef, hist = make_state(rng)
    coef2, hist2, _ = apply_adapt(hist, coef, np.array([0.25]), np.array([0.75]), cfg)
    dom2 = GridDomain(hist2.a[0], hist2.b[0], hist2.omega)
    z = np.linspace(0.25, 0.75, 400)
    for old, new in zip(coef[0], coef2[0]):
        err = np.abs(eval_activation(z, new, dom2) - eval_activation(z, old, dom)).max()
        assert err <= 1e-6


def test_apply_preserves_shapes():
    rng = np.random.default_rng(2)
    cfg = AdaptConfig(alpha=0.5, refit_mode="greville")
    dom, coef, hist = make_state(rng)
    coef2, hist2, _ = apply_adapt(hist, coef, np.array([-1.0]), np.array([2.0]), cfg)
    assert hist2.omega == dom.omega
    assert coef2.shape == coef.shape
    assert hist2.hist.shape == hist.hist.shape
    assert total(hist2) == pytest.approx(total(hist), rel=1e-9)


def test_manual_adapt_examples():
    rng = np.random.default_rng(3)
    cfg = AdaptConfig(alpha=0.5)
    dom, coef, hist = make_state(rng)
    _, hist2 = manual_adapt(hist, coef, [[0.0], [0.4], [1.0]], cfg)
    assert (hist2.a[0], hist2.b[0]) == (0.0, 1.0)
    np.testing.assert_array_equal(hist2.hist, [[1.0, 1.0, 0.0, 1.0]])

    hist3 = manual_adapt(hist, coef, [[2.0], [2.0], [2.0]], cfg)[1]
    assert hist3.a[0] == pytest.approx(2.0 - 1e-6)
    assert hist3.b[0] == pytest.approx(2.0 + 1e-6)


def test_manual_adapt_preserves_constant_spline():
    cfg = AdaptConfig(alpha=0.5)
    coef = np.full((1, 1, DOM4.n_coef), -0.7)
    hist = make_hist(DOM4, [1.0] * 4)
    coef2, hist2 = manual_adapt(hist, coef, [[-0.3], [0.9]], cfg)
    dom2 = GridDomain(hist2.a[0], hist2.b[0], hist2.omega)
    z = np.linspace(dom2.a, dom2.b, 200)
    np.testing.assert_allclose(eval_activation(z, coef2[0, 0], dom2), -0.7, atol=1e-10)


def test_decide_shrink_bounds_lie_on_bin_edges():
    rng = np.random.default_rng(7)
    cfg = AdaptConfig(alpha=0.05, prune_patience=2)
    for _ in range(50):
        omega = int(rng.integers(2, 12))
        dom = GridDomain(-1.0, 1.0, omega)
        h = make_hist(dom, rng.uniform(0, 0.01, size=omega) ** 2)
        kind, a, b = decide1(h, cfg)
        if kind == "shrink":
            edges = np.linspace(dom.a, dom.b, dom.omega + 1)
            assert a in edges and b in edges  # bitwise
            assert dom.a <= a < b <= dom.b


def test_config_validation():
    AdaptConfig(alpha=1.0)
    for alpha in (0.0, -0.5, 1.5, True):  # alpha out of (0, 1], or not a number
        with pytest.raises(ValueError):
            AdaptConfig(alpha=alpha)
    for patience in (0, 2.5):
        with pytest.raises(ValueError):
            AdaptConfig(prune_patience=patience)
    for count in (0, "x", True):
        with pytest.raises(ValueError):
            AdaptConfig(outlier_count=count)
    with pytest.raises(ValueError):
        AdaptConfig(stretch_mode="huge")
    with pytest.raises(ValueError):
        AdaptConfig(refit_mode="magic")


def _drifting_stream(rng, steps=60, B=32):
    # feature 0 drifts right, feature 1 left and wider, feature 2 narrows
    # inside its domain: stretches, shrinks and stale edges on every side
    for t in range(steps):
        yield np.column_stack([rng.normal(0.05 * t, 0.3, B),
                               rng.normal(-0.04 * t, 0.2 + 0.02 * t, B),
                               rng.uniform(-0.9 + 0.01 * t, 0.9 - 0.01 * t, B)])


def _poisoned_stream(rng, steps=60, B=32):
    hook = poison_hook(PoisonPlan(epochs=steps, n_up=4, n_down=4, seed=5))
    for t in range(steps):
        yield hook(t, rng.uniform(-1.0, 1.0, (B, 3)), None)[0]


def _one_feature_net(net, j):
    """A [1, m] network holding feature j of net's first layer: its
    histogram and its weight rows, copied."""
    layer = net.layers[0]
    h = layer.hist
    single = init_network([1, layer.m], mode="kan", omega=h.omega, cfg=net.cfg)
    s = single.layers[0]
    s.hist = FeatureHistogram(h.a[j:j + 1], h.b[j:j + 1], h.omega, h.counts[j:j + 1],
                              h.extremes[j:j + 1])
    for name in s.trainable():
        getattr(s, name)[...] = getattr(layer, name)[j:j + 1]
    return single


@pytest.mark.parametrize("stream", [_drifting_stream, _poisoned_stream])
def test_layer_arrays_match_one_feature_histograms(stream, monkeypatch):
    # an n-feature layer against n one-feature layers, bitwise, after every
    # step: a 3-feature layer and three [1, 2] networks, each holding one of
    # its features, all adapting inside forward(record=True)
    seen = []

    def spy(h, cfg):
        # each feature's decided bounds and its outcome; "collapse" marks a
        # stale feature that keeps its bounds because no bin is above tau
        a, b = decide(h, cfg)
        tau = np.asarray(shrink_threshold(cfg, h.hist))[..., None]
        stale = (h.ood_hist <= tau).any(axis=1) & ~(h.hist > tau).any(axis=1)
        kind = kinds(h, a, b)
        seen.append((a, b, np.where((kind == "none") & stale, "collapse", kind)))
        return a, b

    monkeypatch.setattr(network, "decide", spy)
    outcomes = set()
    # under the relative rule alpha = 1 puts tau at the largest bin, so a
    # stale edge finds the domain would collapse
    for alpha, stretch_mode, shrink_rule, refit_mode in itertools.product(
            (1.0, 0.1, 0.01), STRETCH_MODES, SHRINK_RULES, REFIT_MODES):
        cfg = AdaptConfig(alpha=alpha, prune_patience=2, stretch_mode=stretch_mode,
                          shrink_rule=shrink_rule, refit_mode=refit_mode)
        net = init_network([3, 2], mode="kan", noise=0.5, seed=3, omega=10, cfg=cfg)
        layer = net.layers[0]
        singles = [_one_feature_net(net, j) for j in range(3)]
        for X in stream(np.random.default_rng(11)):
            seen.clear()
            net.forward(X, record=True)
            for j, single in enumerate(singles):
                single.forward(X[:, j:j + 1], record=True)
            (a, b, kind), *single_decisions = seen
            for j, single in enumerate(singles):
                assert (a[j], b[j], kind[j]) == tuple(x[0] for x in single_decisions[j])
                outcomes.add(str(kind[j]))
                got = single.layers[0]
                for name in ("a", "b", "counts", "extremes"):
                    assert np.array_equal(getattr(layer.hist, name)[j],
                                          getattr(got.hist, name)[0]), name
                assert np.array_equal(layer.coef[j], got.coef[0])
    assert outcomes >= {"none", "shrink", "stretch", "collapse"}


@pytest.mark.parametrize("refit_mode", REFIT_MODES)
def test_refine_and_manual_snap_match_one_feature_networks(refit_mode):
    # a grid refinement and a manual snap refit a layer's features in one
    # call: each feature's rows and histogram come out bitwise as a
    # one-feature network gets them
    net = init_network([3, 2], mode="kan", noise=0.5, seed=4, omega=5,
                       cfg=AdaptConfig(refit_mode=refit_mode))
    net.layers[0].hist = FeatureHistogram([-1.0, -0.5, 0.2], [1.0, 2.0, 0.9], 5)
    net.forward(np.random.default_rng(6).normal(size=(32, 3)), record=True)
    singles = [_one_feature_net(net, j) for j in range(3)]
    X = np.random.default_rng(5).normal(size=(32, 3))
    for adapt in (lambda n, Z: n.refine_all(12), lambda n, Z: n.manual_adapt_all(Z)):
        adapt(net, X)
        layer = net.layers[0]
        for j, single in enumerate(singles):
            adapt(single, X[:, j:j + 1])
            got = single.layers[0]
            assert np.array_equal(layer.coef[j], got.coef[0])
            for name in ("a", "b", "counts", "extremes"):
                assert np.array_equal(getattr(layer.hist, name)[j], getattr(got.hist, name)[0])
