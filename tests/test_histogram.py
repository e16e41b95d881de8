"""EMA histogram updates, refits, and marginal probabilities.

Single features are n = 1 layers: ``one`` builds one from its bin and tally
counts, and ``marginal_prob`` reads it through ``FeatureHistogram.probs``.
"""

import warnings

import numpy as np
import pytest

from adaptkan.adapt import AdaptConfig, manual_adapt
from adaptkan.histogram import PROB_FLOOR, FeatureHistogram, histogram_bin
from adaptkan.ood import OodScorer

DOM2 = (0.0, 1.0, 2)
DOM4 = (0.0, 1.0, 4)


def one(dom, hist=None, ood=(0.0, 0.0), lo=None, hi=None):
    """One-feature histogram on dom = (a, b, omega) with the given counts and extremes."""
    a, b, omega = dom
    counts = None if hist is None else [[ood[0], *hist, ood[1]]]
    return FeatureHistogram([a], [b], omega, counts,
                            [[a if lo is None else lo, b if hi is None else hi]])


def bin_counts(samples, dom):
    """Counts of in-domain samples per bin of dom, binned by histogram_bin."""
    a, b, omega = dom
    idx = histogram_bin(np.asarray(samples, dtype=float), a, b, omega)
    return np.bincount(idx, minlength=omega).astype(float)


def batch_counts(samples, dom):
    """Raw counts [below a, bins..., above b] of a one-feature batch."""
    return one(dom).batch_counts(np.asarray(samples, dtype=float)[:, None])[0]


def total(h):
    """Total EMA count including the out-of-domain tallies, per feature."""
    return h.hist.sum(axis=-1) + h.ood_hist.sum(axis=-1)


def marginal_prob(h, x):
    """Normalised bin value of a one-feature histogram at x."""
    p = h.probs(np.asarray(x, dtype=float)[..., None])[..., 0]
    return float(p) if p.ndim == 0 else p


def test_create_histogram_examples():
    np.testing.assert_array_equal(batch_counts([0.1, 0.1, 0.9], DOM2), [0, 2, 1, 0])
    np.testing.assert_array_equal(batch_counts([], DOM2), [0, 0, 0, 0])
    np.testing.assert_array_equal(batch_counts([1.0], DOM4), [0, 0, 0, 0, 1, 0])
    np.testing.assert_array_equal(batch_counts([-0.1, 1.2, 1.5], DOM4), [1, 0, 0, 0, 0, 2])


def test_constructor_validates_state():
    FeatureHistogram([0.0, -1.0], [1.0, 1.0], 4, None, [[-0.5, 1.0], [-1.0, 3.0]])
    for args in [([], [], 4),                            # no feature
                 ([0.0], [0.0], 4),                      # a == b
                 ([0.0], [np.inf], 4),                   # infinite bound
                 ([0.0], [1.0, 2.0], 4),                 # bounds of two shapes
                 ([0.0], [1.0], 0),                      # no interval
                 ([0.0], [1.0], 4, np.zeros((1, 5))),    # counts not (n, omega + 2)
                 ([0.0], [1.0], 4, None, np.zeros((1, 3))),
                 ([0.0], [1.0], 4, [[0.0, 1.0, np.nan, 0.0, 0.0, 0.0]]),
                 ([0.0], [1.0], 4, None, [[np.nan, 1.0]]),
                 ([-1.0], [1.0], 4, None, [[0.5, 1.0]]),  # extremes inside the bounds
                 ([0.0, 0.0], [1.0, 1.0], 4, None, [[0.0, 1.0], [0.0, 0.9]])]:
        with pytest.raises(ValueError):
            FeatureHistogram(*args)


def test_update_blends_counts():
    h = one(DOM2, hist=[4.0, 0.0])
    h.update([[0.1], [0.2]], 0.5)
    np.testing.assert_array_equal(h.hist, [[3.0, 0.0]])


def test_update_out_of_domain_bookkeeping():
    h = one(DOM4)
    h.update([[-0.5], [0.2], [1.5], [0.7]], 0.5)
    np.testing.assert_array_equal(h.ood_hist, [[0.5, 0.5]])  # alpha * [1, 1]
    np.testing.assert_array_equal(h.extremes, [[-0.5, 1.5]])
    # extremes are running: a milder batch must not pull them back in
    h.update([[-0.1], [1.1]], 0.5)
    np.testing.assert_array_equal(h.extremes, [[-0.5, 1.5]])


def test_update_alpha_one_has_no_memory():
    h = one(DOM4, hist=[9.0, 9.0, 9.0, 9.0])
    batch = np.array([0.1, 0.3, 0.6, 0.9, 0.95])
    h.update(batch[:, None], 1.0)
    np.testing.assert_array_equal(h.hist[0], bin_counts(batch, DOM4))


def test_update_rejects_non_finite():
    h = one(DOM4)
    with pytest.raises(ValueError):
        h.update([[0.1], [np.nan]], 0.5)
    with pytest.raises(ValueError):
        h.update([[np.inf]], 0.5)


def test_geometric_convergence_identity():
    # repeated updates with one batch close the gap by exactly (1 - alpha)
    # per step; with alpha = 0.5 every operation is exact in binary floats
    h = one(DOM4, hist=[8.0, 0.0, 4.0, 0.0])
    batch = np.array([0.1, 0.3, 0.6, 0.9])
    target = bin_counts(batch, DOM4)
    diff0 = h.hist[0] - target
    for t in range(1, 51):
        h.update(batch[:, None], 0.5)
        np.testing.assert_array_equal(h.hist[0] - target, 0.5**t * diff0)


def test_geometric_convergence_small_alpha():
    alpha = 1e-3
    h = one(DOM4, hist=[5.0, 1.0, 0.0, 2.0])
    batch = np.array([0.05, 0.3, 0.55, 0.8])
    target = bin_counts(batch, DOM4)
    diff0 = np.linalg.norm(h.hist[0] - target)
    for t in range(1, 51):
        h.update(batch[:, None], alpha)
    expected = (1 - alpha) ** 50 * diff0
    assert np.linalg.norm(h.hist[0] - target) == pytest.approx(expected, rel=1e-12)


def test_refit_moves_only_the_features_whose_grid_changes(monkeypatch):
    from adaptkan import histogram

    moved = []
    transfer = histogram._transfer
    monkeypatch.setattr(histogram, "_transfer",
                        lambda a, *rest: moved.append(a) or transfer(a, *rest))
    rng = np.random.default_rng(4)
    h = FeatureHistogram([-1.0, 0.0, 2.0], [1.0, 1.0, 3.0], 5,
                         counts=rng.uniform(0.0, 2.0, (3, 7)))
    h2 = h.refit([-1.0, 0.25, 2.0], [1.0, 1.0, 3.0], 5)
    assert moved == [0.0]
    np.testing.assert_array_equal(h2.counts[[0, 2]], h.counts[[0, 2]])
    moved.clear()
    h.refit(h.a, h.b, 8)  # a new interval count moves every feature
    assert moved == [-1.0, 0.0, 2.0]


def test_refit_identity_is_noop():
    h = one(DOM4, hist=[1.0, 2.0, 3.0, 4.0], ood=[0.5, 0.25])
    h2 = h.refit(h.a, h.b, h.omega)
    np.testing.assert_allclose(h2.hist, h.hist, atol=1e-15)
    np.testing.assert_allclose(h2.ood_hist, h.ood_hist, atol=1e-15)
    assert total(h2) == pytest.approx(total(h), abs=1e-15)


def test_refit_stretch_deposits_ood_mass():
    h = one(DOM4, hist=[1.0, 1.0, 1.0, 1.0], ood=[5.0, 0.0], lo=-2.0)
    h2 = h.refit([-2.0], [1.0], 4)
    # pre-rescale: interpolating [1,1,1,1] at the new centers (-1.625,
    # -0.875, -0.125, 0.625) against old centers (0.125..0.875) leaves only
    # the last center inside, giving [0,0,0,1]; the tally of 5 lands in the
    # bin holding the extreme -2 (bin 0).  Rescaling 6 back to the old
    # total 9 multiplies by 1.5.
    assert h2.ood_hist[0, 0] == 0.0
    np.testing.assert_allclose(h2.hist[0], [7.5, 0.0, 0.0, 1.5], atol=1e-12)
    assert total(h2) == pytest.approx(total(h), rel=1e-9)


def test_refit_shrink_moves_mass_to_ood():
    h = one(DOM4, hist=[0.0, 3.0, 3.0, 0.5])
    h2 = h.refit([0.25], [0.75], 4)
    assert h2.ood_hist[0, 1] > 0.0  # the 0.5 in the last old bin went right
    assert total(h2) == pytest.approx(total(h), rel=1e-9)


def test_refit_conserves_total_mass():
    rng = np.random.default_rng(0)
    for _ in range(30):
        omega = int(rng.integers(2, 20))
        h = one((-1.0, 1.0, omega),
                hist=rng.uniform(0, 10, size=omega),
                ood=rng.uniform(0, 2, size=2),
                lo=-1.5, hi=2.0)
        lo = rng.uniform(-2.0, -0.2)
        hi = rng.uniform(0.2, 2.5)
        new_bins = int(rng.integers(2, 30))
        h2 = h.refit([lo], [hi], new_bins)
        assert total(h2) == pytest.approx(total(h), rel=1e-9)
        assert h2.hist.shape == (1, new_bins)


def test_refit_to_more_bins():
    h = one((0, 1, 3), hist=[3.0, 6.0, 3.0])
    h2 = h.refit(h.a, h.b, 12)
    assert h2.hist.shape == (1, 12)
    assert total(h2) == pytest.approx(total(h), rel=1e-12)


def test_marginal_prob_examples():
    h = one((0.0, 1.0, 10), hist=np.full(10, 7.0))
    assert marginal_prob(h, 0.55) == pytest.approx(0.1, abs=1e-15)
    assert marginal_prob(h, -0.1) == PROB_FLOOR
    h2 = one(DOM2, hist=[3.0, 1.0])
    assert marginal_prob(h2, 0.9) == pytest.approx(0.25, abs=1e-15)


def test_marginal_prob_sums_to_at_most_one():
    rng = np.random.default_rng(1)
    h = one((-2.0, 2.0, 25), hist=rng.uniform(0, 5, size=25))
    edges = np.linspace(-2.0, 2.0, 26)
    reps = (edges[:-1] + edges[1:]) / 2.0
    total_prob = sum(marginal_prob(h, x) for x in reps)
    assert total_prob <= 1.0 + 25 * PROB_FLOOR


def test_marginal_prob_empty_histogram_floors():
    h = one(DOM4)
    assert marginal_prob(h, 0.5) == PROB_FLOOR


def test_marginal_prob_reads_the_bin_a_count_landed_in():
    # (-1.36 + 2.5) * (50 / 3.8) rounds to just above 15, while
    # (-1.36 + 2.5) / 0.076 rounds to just below it: one bin rule for
    # counting and reading keeps the count where it is read
    h = one((-2.5, 1.3, 50))
    h.update([[-1.36]], 1.0)
    assert marginal_prob(h, -1.36) == 1.0


def test_marginal_prob_rejects_nan_and_floors_infinities():
    h = one(DOM4, hist=[1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(marginal_prob(h, [-np.inf, np.inf]), PROB_FLOOR)
    with pytest.raises(ValueError):
        marginal_prob(h, np.nan)


def test_create_histogram_counts_with_histogram_bin():
    # every knot of several grids, and one ulp either side of each, must
    # land in the same bin every way
    for dom in (DOM4, (-2.5, 1.3, 50), (0.1, 0.7, 7)):
        a, b, omega = dom
        edges = np.linspace(a, b, omega + 1)
        x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        inside = x[(x >= a) & (x <= b)]
        expected = np.bincount(histogram_bin(inside, a, b, omega), minlength=omega)
        np.testing.assert_array_equal(expected, batch_counts(inside, dom)[1:-1])
        h = one(dom)
        h.update(x[:, None], 1.0)
        np.testing.assert_array_equal(h.hist[0], expected)
        np.testing.assert_array_equal(h.ood_hist[0], [(x < a).sum(), (x > b).sum()])


def test_histogram_bin_clamps_far_values_without_warning():
    # clamped before the integer cast: values far outside [a, b] land in the
    # edge bins instead of wrapping around with an "invalid value" warning,
    # and in-domain values keep the bins batch_counts gives them one by one
    for dom in (DOM4, (-2.5, 1.3, 50), (0.1, 0.7, 7)):
        a, b, omega = dom
        knots = np.linspace(a, b, omega + 1)
        near = np.concatenate([knots, np.nextafter(knots, -np.inf),
                               np.nextafter(knots, np.inf)])
        near = near[(near >= a) & (near <= b)]
        far = np.array([-1e300, 1e300, -5e18, 5e18, -np.inf, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(histogram_bin(far, a, b, omega),
                                          [0, omega - 1] * 3)
            bins = histogram_bin(near, a, b, omega)
            assert histogram_bin(near[0], a, b, omega) == bins[0]  # a scalar query
        for x, j in zip(near, bins):
            assert np.flatnonzero(batch_counts([x], dom)).tolist() == [j + 1]


def test_update_alpha_one_idempotent_with_create():
    rng = np.random.default_rng(2)
    batch = rng.uniform(-0.5, 1.5, size=64)
    h = one(DOM4)
    h.update(batch[:, None], 1.0)
    inside = batch[(batch >= 0.0) & (batch <= 1.0)]
    np.testing.assert_array_equal(h.hist[0], bin_counts(inside, DOM4))


def test_invariants_after_updates():
    rng = np.random.default_rng(3)
    h = one(DOM4)
    for _ in range(40):
        h.update(rng.normal(0.4, 0.8, size=(32, 1)), 0.05)
    assert (h.hist >= 0).all() and (h.ood_hist >= 0).all()
    assert (h.extremes[:, 0] <= h.a).all()
    assert (h.extremes[:, 1] >= h.b).all()


def test_extremes_follow_the_masked_rule_on_a_drifting_stream():
    # each side's extreme is the running min (max) of the values ever seen
    # below a (above b), bit for bit: feature 0 only ever brings -0.0 to its
    # bound a = 0, which is not below it, and empty batches move nothing
    rng = np.random.default_rng(4)
    h = FeatureHistogram([0.0, -1.0, -0.5], [1.0, 1.0, 0.5], 8)
    lo, hi = h.extremes[:, 0].copy(), h.extremes[:, 1].copy()
    for step in range(60):
        Z = rng.normal(0.03 * step, 0.6, size=(0 if step % 7 == 3 else 16, 3))
        Z[:, 0] = np.abs(Z[:, 0])
        Z[:1, 0] = -0.0
        h.update(Z, 0.1)
        below, above = Z < h.a, Z > h.b
        if below.any():
            lo = np.minimum(lo, np.where(below, Z, np.inf).min(axis=0))
        if above.any():
            hi = np.maximum(hi, np.where(above, Z, -np.inf).max(axis=0))
        assert h.extremes.tobytes() == np.stack([lo, hi], axis=-1).tobytes()
    assert not np.signbit(h.extremes[0, 0]) and (h.extremes[1:, 0] < h.a[1:]).all()


def test_one_batch_histogram_is_one_rule_for_snaps_and_scorers():
    rng = np.random.default_rng(5)
    ties = np.round(rng.uniform(-2.0, 2.0, size=(500, 4)), 1)
    flat = rng.normal(size=(64, 3))
    flat[:, 1] = 0.75
    cfg = AdaptConfig()
    for Z in (rng.normal(size=(300, 2)), ties, flat):
        n = Z.shape[1]
        h = FeatureHistogram.from_batch(Z, 7)
        lo, hi = Z.min(axis=0), Z.max(axis=0)
        np.testing.assert_array_equal(h.a, np.where(lo == hi, lo - 1e-6, lo))
        np.testing.assert_array_equal(h.b, np.where(lo == hi, hi + 1e-6, hi))
        np.testing.assert_array_equal(h.hist.sum(axis=1), len(Z))
        np.testing.assert_array_equal(h.ood_hist, 0.0)
        snap = manual_adapt(FeatureHistogram(np.full(n, -1.0), np.ones(n), 7),
                            np.zeros((n, 1, 10)), Z, cfg)[1]
        for other in (snap, OodScorer.fit(Z, bins=7).hist):
            for name in ("a", "b", "counts", "extremes"):
                np.testing.assert_array_equal(getattr(other, name), getattr(h, name))
    big = np.full((5, 1), 3e10)
    with pytest.raises(ValueError, match="too large to widen"):
        manual_adapt(one(DOM4), np.zeros((1, 1, 7)), big, cfg)
    with pytest.raises(ValueError, match="too large to widen"):
        OodScorer.fit(big, bins=4)
