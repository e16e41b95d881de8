"""Histogram OOD scoring, scorer files, and AUROC evaluation."""

import json

import numpy as np
import pytest

from adaptkan.histogram import PROB_FLOOR
from adaptkan.ood import OodScorer, auroc


def test_fit_two_point_feature():
    scorer = OodScorer.fit(np.array([[0.0], [1.0]]), bins=2)
    np.testing.assert_array_equal(scorer.counts, [[1.0, 1.0]])
    probs = scorer.feature_probs(np.array([[0.2], [0.8]]))
    np.testing.assert_allclose(probs, 0.5)


def test_fit_degenerate_feature_widens_bounds():
    scorer = OodScorer.fit(np.full((5, 1), 2.0), bins=4)
    assert scorer.lo[0] == pytest.approx(2.0 - 1e-6)
    assert scorer.hi[0] == pytest.approx(2.0 + 1e-6)
    assert scorer.counts.sum() == 5
    assert scorer.bounds_from_data


def test_fit_is_deterministic():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 3))
    a = OodScorer.fit(X, bins=20)
    b = OodScorer.fit(X, bins=20)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.lo, b.lo)


def test_score_uniform_histogram():
    # every feature lands in a uniform 10-bin histogram: score = log(0.1)
    rng = np.random.default_rng(1)
    scorer = OodScorer(lo=np.zeros(3), hi=np.ones(3), counts=np.full((3, 10), 4.0))
    x = rng.uniform(0.05, 0.95, size=(7, 3))
    np.testing.assert_allclose(scorer.score_hist(x), np.log(0.1), atol=1e-12)


def test_score_out_of_bounds_hits_floor():
    scorer = OodScorer(lo=np.zeros(1), hi=np.ones(1), counts=np.full((1, 10), 1.0))
    assert scorer.score_hist(np.array([-0.5])) == pytest.approx(np.log(PROB_FLOOR))


def test_score_two_feature_mean():
    counts = np.array([[2.0, 2.0], [1.0, 7.0]])  # P = 0.5 and 0.125
    scorer = OodScorer(lo=np.zeros(2), hi=np.ones(2), counts=counts)
    score = scorer.score_hist(np.array([0.2, 0.2]))
    assert score == pytest.approx((np.log(0.5) + np.log(0.125)) / 2, abs=1e-12)


def test_msp_fusion():
    scorer = OodScorer(lo=np.zeros(1), hi=np.ones(1), counts=np.full((1, 10), 1.0),
                       msp_lambda=0.1)
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
    counts = np.array([[5.0, 5.0]])
    lo, hi = np.zeros(1), np.ones(1)
    high = OodScorer(lo, hi, counts).score_hist(np.array([0.25]))
    low = OodScorer(lo, hi, np.array([[2.0, 8.0]])).score_hist(np.array([0.25]))
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
    scorer = OodScorer.fit(rng.normal(size=(300, 3)), bins=17, msp_lambda=0.25)
    path = tmp_path / "scorer.json"
    scorer.save(path)
    # the document the CLI has always written
    doc = {"bins": 17, "lo": scorer.lo.tolist(), "hi": scorer.hi.tolist(),
           "counts": scorer.counts.tolist(), "msp_lambda": 0.25, "bounds_from_data": True}
    assert path.read_text() == json.dumps(doc, indent=1)
    loaded = OodScorer.load(path)
    for name in ("lo", "hi", "counts"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(scorer, name))
    assert (loaded.msp_lambda, loaded.bounds_from_data) == (0.25, True)
    Q = rng.normal(size=(40, 3))
    np.testing.assert_array_equal(loaded.score_hist(Q), scorer.score_hist(Q))
    del doc["msp_lambda"], doc["bounds_from_data"]
    path.write_text(json.dumps(doc))
    loaded = OodScorer.load(path)
    assert (loaded.msp_lambda, loaded.bounds_from_data) == (0.1, False)


def test_scorer_rejects_mismatched_widths():
    with pytest.raises(ValueError):
        OodScorer([0.0], [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    scorer = OodScorer.fit(np.random.default_rng(9).normal(size=(50, 3)), bins=4)
    with pytest.raises(ValueError):
        scorer.score_hist(np.zeros((5, 1)))
