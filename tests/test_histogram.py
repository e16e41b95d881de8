"""EMA histogram updates, refits, and marginal probabilities."""

import numpy as np
import pytest

from adaptkan.histogram import PROB_FLOOR, FeatureHistogram, create_histogram, histogram_bin
from adaptkan.spline import GridDomain

DOM2 = GridDomain(0.0, 1.0, 2, 3)
DOM4 = GridDomain(0.0, 1.0, 4, 3)


def test_create_histogram_examples():
    np.testing.assert_array_equal(create_histogram([0.1, 0.1, 0.9], DOM2), [2, 1])
    np.testing.assert_array_equal(create_histogram([], DOM2), [0, 0])
    np.testing.assert_array_equal(create_histogram([1.0], DOM4), [0, 0, 0, 1])


def test_update_blends_counts():
    h = FeatureHistogram(DOM2, alpha=0.5, hist=[4.0, 0.0])
    h.update([0.1, 0.2])
    np.testing.assert_array_equal(h.hist, [3.0, 0.0])


def test_update_out_of_domain_bookkeeping():
    h = FeatureHistogram(DOM4, alpha=0.5)
    h.update([-0.5, 0.2, 1.5, 0.7])
    np.testing.assert_array_equal(h.ood_hist, [0.5, 0.5])  # alpha * [1, 1]
    assert h.ood_a == -0.5
    assert h.ood_b == 1.5
    # extremes are running: a milder batch must not pull them back in
    h.update([-0.1, 1.1])
    assert h.ood_a == -0.5
    assert h.ood_b == 1.5


def test_update_alpha_one_has_no_memory():
    h = FeatureHistogram(DOM4, alpha=1.0, hist=[9.0, 9.0, 9.0, 9.0])
    batch = np.array([0.1, 0.3, 0.6, 0.9, 0.95])
    h.update(batch)
    np.testing.assert_array_equal(h.hist, create_histogram(batch, DOM4))


def test_update_rejects_non_finite():
    h = FeatureHistogram(DOM4, alpha=0.5)
    with pytest.raises(ValueError):
        h.update([0.1, np.nan])
    with pytest.raises(ValueError):
        h.update([np.inf])


def test_geometric_convergence_identity():
    # repeated updates with one batch close the gap by exactly (1 - alpha)
    # per step; with alpha = 0.5 every operation is exact in binary floats
    h = FeatureHistogram(DOM4, alpha=0.5, hist=[8.0, 0.0, 4.0, 0.0])
    batch = np.array([0.1, 0.3, 0.6, 0.9])
    target = create_histogram(batch, DOM4)
    diff0 = h.hist - target
    for t in range(1, 51):
        h.update(batch)
        np.testing.assert_array_equal(h.hist - target, 0.5**t * diff0)


def test_geometric_convergence_small_alpha():
    alpha = 1e-3
    h = FeatureHistogram(DOM4, alpha=alpha, hist=[5.0, 1.0, 0.0, 2.0])
    batch = np.array([0.05, 0.3, 0.55, 0.8])
    target = create_histogram(batch, DOM4)
    diff0 = np.linalg.norm(h.hist - target)
    for t in range(1, 51):
        h.update(batch)
    expected = (1 - alpha) ** 50 * diff0
    assert np.linalg.norm(h.hist - target) == pytest.approx(expected, rel=1e-12)


def test_refit_identity_is_noop():
    h = FeatureHistogram(DOM4, alpha=0.1, hist=[1.0, 2.0, 3.0, 4.0], ood_hist=[0.5, 0.25])
    h2 = h.refit(DOM4.a, DOM4.b, DOM4.omega)
    np.testing.assert_allclose(h2.hist, h.hist, atol=1e-15)
    np.testing.assert_allclose(h2.ood_hist, h.ood_hist, atol=1e-15)
    assert h2.total() == pytest.approx(h.total(), abs=1e-15)


def test_refit_stretch_deposits_ood_mass():
    h = FeatureHistogram(DOM4, alpha=0.1, hist=[1.0, 1.0, 1.0, 1.0],
                         ood_hist=[5.0, 0.0], ood_a=-2.0)
    h2 = h.refit(-2.0, 1.0, 4)
    # pre-rescale: interpolating [1,1,1,1] at the new centers (-1.625,
    # -0.875, -0.125, 0.625) against old centers (0.125..0.875) leaves only
    # the last center inside, giving [0,0,0,1]; the tally of 5 lands in the
    # bin holding ood_a = -2 (bin 0).  Rescaling 6 back to the old total 9
    # multiplies by 1.5.
    assert h2.ood_hist[0] == 0.0
    np.testing.assert_allclose(h2.hist, [7.5, 0.0, 0.0, 1.5], atol=1e-12)
    assert h2.total() == pytest.approx(h.total(), rel=1e-9)


def test_refit_shrink_moves_mass_to_ood():
    h = FeatureHistogram(DOM4, alpha=0.1, hist=[0.0, 3.0, 3.0, 0.5])
    h2 = h.refit(0.25, 0.75, 4)
    assert h2.ood_hist[1] > 0.0  # the 0.5 in the last old bin went right
    assert h2.total() == pytest.approx(h.total(), rel=1e-9)


def test_refit_conserves_total_mass():
    rng = np.random.default_rng(0)
    for _ in range(30):
        omega = int(rng.integers(2, 20))
        dom = GridDomain(-1.0, 1.0, omega, 3)
        h = FeatureHistogram(dom, alpha=0.01,
                             hist=rng.uniform(0, 10, size=omega),
                             ood_hist=rng.uniform(0, 2, size=2),
                             ood_a=-1.5, ood_b=2.0)
        lo = rng.uniform(-2.0, -0.2)
        hi = rng.uniform(0.2, 2.5)
        new_bins = int(rng.integers(2, 30))
        h2 = h.refit(lo, hi, new_bins)
        assert h2.total() == pytest.approx(h.total(), rel=1e-9)
        assert len(h2.hist) == new_bins


def test_refit_to_more_bins():
    h = FeatureHistogram(GridDomain(0, 1, 3, 3), alpha=0.1, hist=[3.0, 6.0, 3.0])
    h2 = h.refit(0.0, 1.0, 12)
    assert len(h2.hist) == 12
    assert h2.total() == pytest.approx(h.total(), rel=1e-12)


def test_marginal_prob_examples():
    dom10 = GridDomain(0.0, 1.0, 10, 3)
    h = FeatureHistogram(dom10, alpha=1.0, hist=np.full(10, 7.0))
    assert h.marginal_prob(0.55) == pytest.approx(0.1, abs=1e-15)
    assert h.marginal_prob(-0.1) == PROB_FLOOR
    h2 = FeatureHistogram(DOM2, alpha=1.0, hist=[3.0, 1.0])
    assert h2.marginal_prob(0.9) == pytest.approx(0.25, abs=1e-15)


def test_marginal_prob_sums_to_at_most_one():
    rng = np.random.default_rng(1)
    dom = GridDomain(-2.0, 2.0, 25, 3)
    h = FeatureHistogram(dom, alpha=1.0, hist=rng.uniform(0, 5, size=25))
    reps = dom.centers()
    total = sum(h.marginal_prob(x) for x in reps)
    assert total <= 1.0 + 25 * PROB_FLOOR


def test_marginal_prob_empty_histogram_floors():
    h = FeatureHistogram(DOM4, alpha=0.5)
    assert h.marginal_prob(0.5) == PROB_FLOOR


def test_marginal_prob_reads_the_bin_a_count_landed_in():
    # (-1.36 + 2.5) * (50 / 3.8) rounds to just above 15, while
    # (-1.36 + 2.5) / 0.076 rounds to just below it: one bin rule for
    # counting and reading keeps the count where it is read
    h = FeatureHistogram(GridDomain(-2.5, 1.3, 50), alpha=1.0)
    h.update([-1.36])
    assert h.marginal_prob(-1.36) == 1.0


def test_marginal_prob_rejects_nan_and_floors_infinities():
    h = FeatureHistogram(DOM4, alpha=1.0, hist=[1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(h.marginal_prob([-np.inf, np.inf]), PROB_FLOOR)
    with pytest.raises(ValueError):
        h.marginal_prob(np.nan)


def test_create_histogram_counts_with_histogram_bin():
    # FeatureHistogram.update inlines the rule; every knot of several grids,
    # and one ulp either side of each, must land in the same bin every way
    for dom in (DOM4, GridDomain(-2.5, 1.3, 50), GridDomain(0.1, 0.7, 7)):
        edges = dom.edges()
        x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        inside = x[(x >= dom.a) & (x <= dom.b)]
        expected = np.bincount(histogram_bin(inside, dom.a, dom.b, dom.omega),
                               minlength=dom.omega)
        np.testing.assert_array_equal(expected, create_histogram(inside, dom))
        h = FeatureHistogram(dom, alpha=1.0)
        h.update(x)
        np.testing.assert_array_equal(h.hist, expected)
        np.testing.assert_array_equal(h.ood_hist, [(x < dom.a).sum(), (x > dom.b).sum()])


def test_update_alpha_one_idempotent_with_create():
    rng = np.random.default_rng(2)
    batch = rng.uniform(-0.5, 1.5, size=64)
    h = FeatureHistogram(DOM4, alpha=1.0)
    h.update(batch)
    inside = batch[(batch >= 0.0) & (batch <= 1.0)]
    np.testing.assert_array_equal(h.hist, create_histogram(inside, DOM4))


def test_invariants_after_updates():
    rng = np.random.default_rng(3)
    h = FeatureHistogram(DOM4, alpha=0.05)
    for _ in range(40):
        h.update(rng.normal(0.4, 0.8, size=32))
    assert (h.hist >= 0).all() and (h.ood_hist >= 0).all()
    assert h.ood_a <= h.dom.a
    assert h.ood_b >= h.dom.b
