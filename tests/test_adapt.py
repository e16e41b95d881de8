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
    Decision,
    apply_adapt,
    decide,
    manual_adapt,
    shrink_threshold,
)
from adaptkan.histogram import FeatureHistogram
from adaptkan.network import init_network
from adaptkan.spline import GridDomain, eval_activation, greville_abscissae
from adaptkan.tasks import PoisonPlan, poison_hook

DOM4 = GridDomain(0.0, 1.0, 4, 3)


def make_hist(dom, hist, ood=(0.0, 0.0), ood_a=None, ood_b=None, alpha=0.5):
    return FeatureHistogram(dom, alpha, hist=hist, ood_hist=ood,
                            ood_a=ood_a, ood_b=ood_b)


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
    h = make_hist(DOM4, [0.0, 5.0, 5.0, 0.0], alpha=0.02)
    d = decide(h, cfg)
    assert d.kind == "shrink"
    assert (d.a, d.b) == (0.25, 0.75)


def test_decide_stretch_overrides():
    cfg = AdaptConfig(alpha=0.5, stretch_mode="max")
    h = make_hist(DOM4, [1.0, 1.0, 1.0, 1.0], ood=(5.0, 0.0), ood_a=-2.0)
    d = decide(h, cfg)
    assert d.kind == "stretch"
    assert (d.a, d.b) == (-2.0, 1.0)


def test_decide_none_when_ood_below_max():
    cfg = AdaptConfig(alpha=0.5, stretch_mode="max")
    h = make_hist(DOM4, [1.0, 1.0, 1.0, 1.0], ood=(0.4, 0.0), ood_a=-2.0)
    assert decide(h, cfg).kind == "none"


def test_decide_collapse_returns_none_with_note():
    cfg = AdaptConfig(alpha=0.5)
    h = make_hist(DOM4, [0.0, 0.0, 0.0, 0.0])
    d = decide(h, cfg)
    assert d.kind == "none"
    assert "collapse" in d.note


def test_decide_is_pure():
    cfg = AdaptConfig(alpha=0.02, shrink_rule="relative")
    h = make_hist(DOM4, [0.0, 5.0, 5.0, 0.0], alpha=0.02)
    assert decide(h, cfg) == decide(h, cfg)


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
    assert decide(h, cfg).kind == expect


def test_tau_timing_semantics():
    # one outlier batch, then exactly p clean batches: the outlier bin decays
    # to (1-alpha)^p * alpha and the shrink must fire at step p, not before
    for alpha, p in [(1e-3, 10), (0.5, 2)]:
        cfg = AdaptConfig(alpha=alpha, prune_patience=p)
        h = FeatureHistogram(DOM4, alpha)
        clean = np.array([0.1, 0.3, 0.6])      # covers bins 0..2
        h.update(np.append(clean, 0.9))        # outlier lands in bin 3
        assert decide(h, cfg).kind == "none"
        for step in range(1, p + 1):
            h.update(clean)
            d = decide(h, cfg)
            if step < p:
                assert d.kind == "none", f"fired early at step {step}"
            else:
                assert d.kind == "shrink"
                assert (d.a, d.b) == (0.0, 0.75)
        assert h.hist[3] == shrink_threshold(cfg)  # bit-for-bit decay match


def make_state(rng, dom=DOM4, m=3):
    coef = rng.standard_normal((m, dom.n_coef))
    hist = make_hist(dom, rng.uniform(1, 5, size=dom.omega))
    return dom, coef, hist


def test_apply_none_is_identity():
    rng = np.random.default_rng(0)
    dom, coef, hist = make_state(rng)
    from adaptkan.adapt import Decision
    dom2, coef2, hist2 = apply_adapt(dom, coef, hist, Decision("none"), AdaptConfig())
    assert dom2 is dom and coef2 is coef and hist2 is hist


def test_apply_stretch_keeps_constant_function():
    cfg = AdaptConfig(alpha=0.5)
    dom = DOM4
    coef = np.full((2, dom.n_coef), 3.0)
    hist = make_hist(dom, [1.0, 1.0, 1.0, 1.0], ood=(5.0, 0.0), ood_a=-2.0)
    from adaptkan.adapt import Decision
    dom2, coef2, hist2 = apply_adapt(dom, coef, hist, Decision("stretch", -2.0, 1.0), cfg)
    z = np.linspace(-2.0, 1.0, 300)
    for row in coef2:
        np.testing.assert_allclose(eval_activation(z, row, dom2), 3.0, atol=1e-10)
    # extremes reset after a stretch
    assert hist2.ood_a == dom2.a and hist2.ood_b == dom2.b


def test_apply_shrink_matches_on_overlap():
    rng = np.random.default_rng(1)
    cfg = AdaptConfig(alpha=0.5, refit_mode="exact_lsq")
    dom, coef, hist = make_state(rng)
    from adaptkan.adapt import Decision
    dom2, coef2, hist2 = apply_adapt(dom, coef, hist, Decision("shrink", 0.25, 0.75), cfg)
    z = np.linspace(0.25, 0.75, 400)
    for old, new in zip(coef, coef2):
        err = np.abs(eval_activation(z, new, dom2) - eval_activation(z, old, dom)).max()
        assert err <= 1e-6


def test_apply_preserves_shapes():
    rng = np.random.default_rng(2)
    cfg = AdaptConfig(alpha=0.5, refit_mode="greville")
    dom, coef, hist = make_state(rng)
    from adaptkan.adapt import Decision
    dom2, coef2, hist2 = apply_adapt(dom, coef, hist, Decision("stretch", -1.0, 2.0), cfg)
    assert dom2.omega == dom.omega
    assert coef2.shape == coef.shape
    assert len(hist2.hist) == len(hist.hist)
    assert hist2.total() == pytest.approx(hist.total(), rel=1e-9)


def test_manual_adapt_examples():
    rng = np.random.default_rng(3)
    cfg = AdaptConfig(alpha=0.5)
    dom, coef, hist = make_state(rng)
    _, hist2 = manual_adapt(hist, coef, [0.0, 0.4, 1.0], cfg)
    dom2 = hist2.dom
    assert (dom2.a, dom2.b) == (0.0, 1.0)
    np.testing.assert_array_equal(hist2.hist, [1.0, 1.0, 0.0, 1.0])

    dom3 = manual_adapt(hist, coef, [2.0, 2.0, 2.0], cfg)[1].dom
    assert dom3.a == pytest.approx(2.0 - 1e-6)
    assert dom3.b == pytest.approx(2.0 + 1e-6)


def test_manual_adapt_preserves_constant_spline():
    cfg = AdaptConfig(alpha=0.5)
    coef = np.full((1, DOM4.n_coef), -0.7)
    hist = make_hist(DOM4, [1.0] * 4)
    coef2, hist2 = manual_adapt(hist, coef, [-0.3, 0.9], cfg)
    dom2 = hist2.dom
    z = np.linspace(dom2.a, dom2.b, 200)
    np.testing.assert_allclose(eval_activation(z, coef2[0], dom2), -0.7, atol=1e-10)


def test_decide_shrink_bounds_lie_on_bin_edges():
    rng = np.random.default_rng(7)
    cfg = AdaptConfig(alpha=0.05, prune_patience=2)
    for _ in range(50):
        omega = int(rng.integers(2, 12))
        dom = GridDomain(-1.0, 1.0, omega, 3)
        h = make_hist(dom, rng.uniform(0, 0.01, size=omega) ** 2, alpha=0.05)
        d = decide(h, cfg)
        if d.kind == "shrink":
            edges = dom.edges()
            assert any(np.isclose(d.a, e) for e in edges)
            assert any(np.isclose(d.b, e) for e in edges)
            assert dom.a <= d.a < d.b <= dom.b


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AdaptConfig(prune_patience=0)
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


@pytest.mark.parametrize("stream", [_drifting_stream, _poisoned_stream])
def test_layer_arrays_match_one_feature_histograms(stream, monkeypatch):
    # the layer's arrays against the n = 1 API, bitwise, after every step:
    # a 3-feature layer adapting inside forward(record=True), and three
    # one-feature histograms driven through update / decide / apply_adapt
    seen = []

    def spy(h, cfg):
        seen.append(decide(h, cfg))
        return seen[-1]

    monkeypatch.setattr(network, "decide", spy)
    outcomes = set()
    for stretch_mode, shrink_rule, refit_mode in itertools.product(
            STRETCH_MODES, SHRINK_RULES, REFIT_MODES):
        cfg = AdaptConfig(alpha=0.1, prune_patience=2, stretch_mode=stretch_mode,
                          shrink_rule=shrink_rule, refit_mode=refit_mode)
        net = init_network([3, 2], mode="kan", noise=0.5, seed=3, omega=10, cfg=cfg)
        layer = net.layers[0]
        layer.hist.alpha[:] = [0.5, 0.1, 0.01]  # one alpha below cfg.alpha: empty-looking bins
        singles = [layer.hist[j] for j in range(3)]
        coefs = [layer.coef[j].copy() for j in range(3)]
        for X in stream(np.random.default_rng(11)):
            seen.clear()
            net.forward(X, record=True)
            (layer_decisions,) = seen
            for j in range(3):
                h = singles[j]
                h.update(X[:, j])
                d = decide(h, cfg)
                assert layer_decisions.get(j, Decision("none")) == d
                outcomes.add(d.note or d.kind)
                _, coefs[j], singles[j] = apply_adapt(h.dom, coefs[j], h, d, cfg)
                got = layer.hist[j]
                for name in ("a", "b", "alpha", "counts", "extremes"):
                    assert np.array_equal(getattr(got, name), getattr(singles[j], name)), name
                assert np.array_equal(layer.coef[j], coefs[j])
    assert outcomes >= {"none", "shrink", "stretch",
                        "no bin above shrink threshold; domain would collapse"}
