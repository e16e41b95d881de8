"""Histogram OOD scoring, scorer files, and AUROC evaluation."""

import json

import numpy as np
import pytest

from adaptkan.histogram import PROB_FLOOR, FeatureHistogram, histogram_bin
from adaptkan.ood import DEFAULT_MSP_LAMBDA, OodScorer, auroc


def scorer_of(counts, lo=None, hi=None, msp_lambda=DEFAULT_MSP_LAMBDA):
    """Scorer over a FeatureHistogram whose in-domain counts are ``counts``
    (n, bins), on [lo, hi] (by default [0, 1] for every feature), with no
    out-of-domain tally."""
    counts = np.asarray(counts, dtype=float)
    n = len(counts)
    hist = FeatureHistogram(np.zeros(n) if lo is None else lo, np.ones(n) if hi is None else hi,
                            counts.shape[1], np.pad(counts, ((0, 0), (1, 1))))
    return OodScorer(hist, msp_lambda=msp_lambda)


def test_fit_two_point_feature():
    scorer = OodScorer.fit(np.array([[0.0], [1.0]]), bins=2)
    np.testing.assert_array_equal(scorer.hist.hist, [[1.0, 1.0]])
    probs = scorer.feature_probs(np.array([[0.2], [0.8]]))
    np.testing.assert_allclose(probs, 0.5)


def test_fit_point_on_a_bin_edge_reads_its_own_bin():
    # np.histogram's edge test would count 0.58 in bin 29 while the lookup
    # reads bin 28; one bin rule reads back the bin it counted in
    scorer = OodScorer.fit([[0.0], [0.58], [1.0]], bins=50)
    assert scorer.score_hist([[0.58]])[0] == pytest.approx(np.log(1.0 / 3.0), abs=1e-15)


def test_feature_probs_reject_nan_and_floor_infinities():
    scorer = scorer_of(np.full((2, 4), 1.0))
    probs = scorer.feature_probs(np.array([[-np.inf, np.inf], [0.5, 0.5]]))
    np.testing.assert_array_equal(probs, [[PROB_FLOOR, PROB_FLOOR], [0.25, 0.25]])
    with pytest.raises(ValueError):
        scorer.feature_probs(np.array([[0.5, np.nan]]))


def test_fit_degenerate_feature_widens_bounds():
    scorer = OodScorer.fit(np.full((5, 1), 2.0), bins=4)
    assert scorer.hist.a[0] == pytest.approx(2.0 - 1e-6)
    assert scorer.hist.b[0] == pytest.approx(2.0 + 1e-6)
    assert scorer.hist.hist.sum() == 5
    with pytest.raises(ValueError):  # too large to widen: lo == hi would remain
        OodScorer.fit(np.full((5, 1), 3e10), bins=4)


def test_fit_is_deterministic():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 3))
    a = OodScorer.fit(X, bins=20)
    b = OodScorer.fit(X, bins=20)
    np.testing.assert_array_equal(a.hist.hist, b.hist.hist)
    np.testing.assert_array_equal(a.hist.a, b.hist.a)


def test_score_uniform_histogram():
    # every feature lands in a uniform 10-bin histogram: score = log(0.1)
    rng = np.random.default_rng(1)
    scorer = scorer_of(np.full((3, 10), 4.0))
    x = rng.uniform(0.05, 0.95, size=(7, 3))
    np.testing.assert_allclose(scorer.score_hist(x), np.log(0.1), atol=1e-12)


def test_score_out_of_bounds_hits_floor():
    scorer = scorer_of(np.full((1, 10), 1.0))
    assert scorer.score_hist(np.array([-0.5])) == pytest.approx(np.log(PROB_FLOOR))


def test_score_two_feature_mean():
    counts = np.array([[2.0, 2.0], [1.0, 7.0]])  # P = 0.5 and 0.125
    scorer = scorer_of(counts)
    score = scorer.score_hist(np.array([0.2, 0.2]))
    assert score == pytest.approx((np.log(0.5) + np.log(0.125)) / 2, abs=1e-12)


def test_msp_fusion():
    scorer = scorer_of(np.full((1, 10), 1.0), msp_lambda=0.1)
    x = np.array([[0.5]])
    base = scorer.score_hist(x)
    # lambda = 0 reduces to the histogram score
    np.testing.assert_allclose(scorer.score_hist_msp(x, np.zeros((1, 10)), msp_lambda=0.0), base)
    # equal logits: the fused term is lambda * log(1/K)
    fused = scorer.score_hist_msp(x, np.zeros((1, 10)))
    np.testing.assert_allclose(fused, base + 0.1 * np.log(0.1), atol=1e-12)
    # a dominant logit saturates the softmax and the term vanishes
    logits = np.zeros((1, 10))
    logits[0, 3] = 500.0
    np.testing.assert_allclose(scorer.score_hist_msp(x, logits), base, atol=1e-12)


def test_auroc_hand_cases():
    assert auroc([-1.0, -1.0], [-5.0, -5.0]) == 1.0
    assert auroc([-1.0, -3.0], [-2.0, -4.0]) == 0.75  # 3 of 4 pairs ordered
    assert auroc([2.0, 1.0], [2.0, 1.0]) == 0.5


def test_auroc_complement_identity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=37)
    b = rng.normal(size=23)
    assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)


def test_auroc_rejects_empty():
    with pytest.raises(ValueError):
        auroc([], [1.0])


def test_score_monotone_rescaling_invariance():
    # positive-scale affine maps applied to fit data and queries alike keep
    # bin membership, hence scores, exactly
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 4))
    Q = rng.normal(size=(50, 4))
    scorer = OodScorer.fit(X, bins=32)
    base = scorer.score_hist(Q)
    scale = np.array([2.0, 0.5, 8.0, 1.25])
    shift = np.array([-3.0, 0.0, 10.0, 0.5])
    scorer2 = OodScorer.fit(X * scale + shift, bins=32)
    np.testing.assert_array_equal(scorer2.score_hist(Q * scale + shift), base)


def test_score_weakly_decreases_with_probability():
    high = scorer_of([[5.0, 5.0]]).score_hist(np.array([0.25]))
    low = scorer_of([[2.0, 8.0]]).score_hist(np.array([0.25]))
    assert low < high


def test_separated_gaussians_auroc():
    rng = np.random.default_rng(4)
    fit = rng.normal(0.0, 1.0, size=(10_000, 8))
    scorer = OodScorer.fit(fit, bins=200)
    id_scores = scorer.score_hist(rng.normal(0.0, 1.0, size=(1000, 8)))
    ood_scores = scorer.score_hist(rng.normal(3.0, 1.0, size=(1000, 8)))
    assert auroc(id_scores, ood_scores) >= 0.95


def test_save_load_roundtrip_keeps_the_file_format(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(300, 3))
    scorer = OodScorer.fit(X, bins=17, msp_lambda=0.25)
    path = tmp_path / "scorer.json"
    scorer.save(path)
    # the document the CLI has always written, less the unread "bounds_from_data",
    # from the rule it has always held: min/max bounds, counts by histogram_bin
    lo, hi = X.min(axis=0), X.max(axis=0)
    counts = np.bincount((histogram_bin(X, lo, hi, 17) + 17 * np.arange(3)).ravel())
    doc = {"bins": 17, "lo": lo.tolist(), "hi": hi.tolist(),
           "counts": counts.reshape(3, 17).astype(float).tolist(), "msp_lambda": 0.25}
    assert path.read_text() == json.dumps(doc, indent=1)
    Q = rng.normal(size=(40, 3))
    # files that still hold the key load and score as before
    for extra in ({}, {"bounds_from_data": True}):
        path.write_text(json.dumps({**doc, **extra}, indent=1))
        loaded = OodScorer.load(path)
        for name in ("a", "b", "hist"):
            np.testing.assert_array_equal(getattr(loaded.hist, name), getattr(scorer.hist, name))
        assert loaded.msp_lambda == 0.25
        np.testing.assert_array_equal(loaded.score_hist(Q), scorer.score_hist(Q))
    del doc["msp_lambda"]
    path.write_text(json.dumps(doc))
    assert OodScorer.load(path).msp_lambda == 0.1


def test_scorer_rejects_mismatched_widths():
    with pytest.raises(ValueError):
        scorer_of([[1.0, 1.0], [1.0, 1.0]], lo=[0.0], hi=[1.0, 1.0])
    scorer = OodScorer.fit(np.random.default_rng(9).normal(size=(50, 3)), bins=4)
    with pytest.raises(ValueError):
        scorer.score_hist(np.zeros((5, 1)))
