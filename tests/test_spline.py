"""Spline evaluation, differentiation, Greville points, and refitting."""

import numpy as np
import pytest

from adaptkan.spline import (
    GridDomain,
    M_CUBIC,
    activation_dz,
    basis,
    dense_basis,
    eval_activation,
    greville_abscissae,
    refine_grid,
    refit_greville,
    refit_least_squares,
    window_columns,
)
from adaptkan.spline import _lsq_factor

DOM4 = GridDomain(0.0, 1.0, 4)


def random_domain(rng):
    a = rng.uniform(-5.0, 2.0)
    b = a + rng.uniform(0.1, 8.0)
    return GridDomain(a, b, int(rng.integers(1, 12)))


def test_basis_matrix_columns():
    # every column sums to zero except the last, which sums to one
    sums = M_CUBIC.sum(axis=0)
    np.testing.assert_allclose(sums, [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    expected = np.array([[-2, 6, -6, 2], [6, -12, 0, 8], [-6, 6, 6, 2], [2, 0, 0, 0]]) / 12
    np.testing.assert_array_equal(M_CUBIC, expected)


def test_domain_validation():
    with pytest.raises(ValueError):
        GridDomain(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        GridDomain(0.0, 1.0, 0)
    assert DOM4.d == 0.25
    assert DOM4.n_coef == 7


def _basis4(z):
    """basis() on DOM4 for scalar samples: (bins (S,), value windows (S, 4))."""
    bins, (C,) = basis(np.asarray(z, dtype=float)[:, None], DOM4.a, DOM4.d, DOM4.omega)
    return bins[:, 0], C[:, 0]


def test_basis_bin_examples():
    bins, _ = _basis4([0.3, 1.0, 0.0, -2.0, 9.0])
    # right-edge clamp, below-domain clamp, above-domain clamp
    np.testing.assert_array_equal(bins, [1, 3, 0, 0, 3])


def test_basis_local_coordinate_examples():
    bins, C = _basis4([0.3, 0.25, 1.0])
    np.testing.assert_array_equal(bins, [1, 1, 3])
    # the last window entry is theta^3 times M_CUBIC[3, 0] = 1/6
    theta = np.cbrt(C[:, 3] / M_CUBIC[3, 0])
    assert theta[0] == pytest.approx(0.2, abs=1e-12)
    assert theta[1] == pytest.approx(0.0, abs=1e-12)
    assert theta[2] == 1.0  # edge continuity convention: b sits in the last bin


def test_constant_weights_give_constant():
    w = np.full(DOM4.n_coef, -2.5)
    z = np.linspace(0.0, 1.0, 97)
    np.testing.assert_allclose(eval_activation(z, w, DOM4), -2.5, atol=1e-12)


def test_partition_of_unity_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        dom = random_domain(rng)
        c = rng.uniform(-10, 10)
        w = np.full(dom.n_coef, c)
        z = rng.uniform(dom.a, dom.b, size=200)
        assert np.abs(eval_activation(z, w, dom) - c).max() <= 1e-12 * max(1.0, abs(c))


def test_linear_reproduction_at_greville():
    # cubic uniform B-splines reproduce linear functions when the weights
    # sit at the Greville abscissae; oracle = dense evaluation of the line
    rng = np.random.default_rng(7)
    for _ in range(20):
        dom = random_domain(rng)
        slope, icept = rng.uniform(-3, 3, size=2)
        w = slope * greville_abscissae(dom.a, dom.b, dom.omega) + icept
        z = np.linspace(dom.a, dom.b, 400)
        err = np.abs(eval_activation(z, w, dom) - (slope * z + icept)).max()
        assert err <= 1e-9


def test_one_hot_first_weight_at_left_edge():
    w = np.zeros(DOM4.n_coef)
    w[0] = 1.0
    # window at z=0 is [w0..w3]; theta = 0 picks the last column of M
    assert eval_activation(0.0, w, DOM4) == pytest.approx(2.0 / 12.0, abs=1e-15)


def test_constant_extension_outside_domain():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(DOM4.n_coef)
    left = eval_activation(DOM4.a, w, DOM4)
    right = eval_activation(DOM4.b, w, DOM4)
    assert eval_activation(-7.0, w, DOM4) == pytest.approx(left, abs=1e-12)
    assert eval_activation(9.0, w, DOM4) == pytest.approx(right, abs=1e-12)


def test_knot_continuity():
    # left limit (previous window at theta=1) agrees with the value at the
    # knot (current window at theta=0); pure matrix algebra as the oracle
    rng = np.random.default_rng(11)
    for _ in range(20):
        dom = random_domain(rng)
        w = rng.standard_normal(dom.n_coef)
        for p in range(1, dom.omega):
            left = w[p - 1:p + 3] @ M_CUBIC @ np.array([1.0, 1.0, 1.0, 1.0])
            knot = dom.a + p * dom.d
            assert abs(eval_activation(knot, w, dom) - left) <= 1e-12


def test_dz_constant_is_zero():
    w = np.full(DOM4.n_coef, 4.2)
    z = np.linspace(-1.0, 2.0, 61)
    np.testing.assert_allclose(activation_dz(z, w, DOM4), 0.0, atol=1e-12)


def test_dz_linear_weights():
    dom = GridDomain(-1.0, 1.0, 5)
    w = 2.0 * greville_abscissae(dom.a, dom.b, dom.omega)
    z = np.linspace(-0.95, 0.95, 41)
    fd = (eval_activation(z + 1e-6, w, dom) - eval_activation(z - 1e-6, w, dom)) / 2e-6
    np.testing.assert_allclose(activation_dz(z, w, dom), 2.0, atol=1e-9)
    np.testing.assert_allclose(activation_dz(z, w, dom), fd, rtol=1e-6)


def test_dz_matches_finite_difference_random():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        dom = random_domain(rng)
        w = rng.standard_normal(dom.n_coef)
        # stay away from knots so the central difference does not straddle one
        bins = rng.integers(0, dom.omega, size=8)
        z = dom.a + (bins + rng.uniform(0.1, 0.9, size=8)) * dom.d
        fd = (eval_activation(z + h, w, dom) - eval_activation(z - h, w, dom)) / (2 * h)
        got = activation_dz(z, w, dom)
        assert np.abs(got - fd).max() <= 1e-6 * np.maximum(np.abs(fd), 1.0).max()


def test_dz_outside_domain_is_zero():
    rng = np.random.default_rng(9)
    w = rng.standard_normal(DOM4.n_coef)
    assert activation_dz(-3.0, w, DOM4) == 0.0
    assert activation_dz(4.0, w, DOM4) == 0.0


def weight_grad(z, dom):
    """Gradient of the spline value w.r.t. its weights at each z: (len(z), P)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    bins, (C,) = basis(z[:, None], dom.a, dom.d, dom.omega)
    return dense_basis(window_columns(bins, dom.n_coef), C, np.empty((len(z), dom.n_coef)))


def test_dw_basis_properties():
    rng = np.random.default_rng(13)
    z = rng.uniform(-1.0, 2.0, size=100)  # includes out-of-domain points
    grad = weight_grad(z, DOM4)
    assert grad.shape == (100, DOM4.n_coef)
    np.testing.assert_allclose(grad.sum(axis=1), 1.0, atol=1e-12)
    assert grad.min() >= -1e-15


def test_dw_at_knot_is_last_matrix_column():
    grad = weight_grad(0.25, DOM4)[0]
    expected = np.zeros(DOM4.n_coef)
    expected[1:5] = [2.0 / 12.0, 8.0 / 12.0, 2.0 / 12.0, 0.0]
    np.testing.assert_allclose(grad, expected, atol=1e-15)


def test_dw_matches_finite_difference():
    rng = np.random.default_rng(17)
    dom = GridDomain(-2.0, 3.0, 6)
    w = rng.standard_normal(dom.n_coef)
    z = float(rng.uniform(dom.a, dom.b))
    grad = weight_grad(z, dom)[0]
    h = 1e-7
    for i in range(dom.n_coef):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (eval_activation(z, wp, dom) - eval_activation(z, wm, dom)) / (2 * h)
        assert abs(grad[i] - fd) <= 1e-8


def test_greville_examples():
    np.testing.assert_allclose(greville_abscissae(0, 1, 2),
                               [-0.5, 0.0, 0.5, 1.0, 1.5], atol=1e-15)
    g = greville_abscissae(DOM4.a, DOM4.b, DOM4.omega)
    assert len(g) == 7
    np.testing.assert_allclose(g + g[::-1], 1.0, atol=1e-15)  # symmetric about 0.5


def test_greville_spacing():
    rng = np.random.default_rng(19)
    for _ in range(10):
        dom = random_domain(rng)
        g = greville_abscissae(dom.a, dom.b, dom.omega)
        assert len(g) == dom.n_coef
        np.testing.assert_allclose(np.diff(g), dom.d, rtol=1e-12)


def test_greville_rows_match_single_domains():
    # the (J,) form that the refits use gives each domain's points bitwise
    rng = np.random.default_rng(23)
    doms = [random_domain(rng) for _ in range(20)]
    for omega in (1, 4, 11):
        rows = greville_abscissae([d.a for d in doms], [d.b for d in doms], omega)
        assert rows.shape == (20, omega + 3)
        for d, row in zip(doms, rows):
            np.testing.assert_array_equal(row, greville_abscissae(d.a, d.b, omega))


def _dense_err(w_new, dom_new, w_old, dom_old, lo, hi, n=500):
    z = np.linspace(lo, hi, n)
    return np.abs(eval_activation(z, w_new, dom_new) - eval_activation(z, w_old, dom_old)).max()


def _lsq(w, dom, new_dom):
    """Rows (P,) or (m, P) of one feature refit from dom onto new_dom: (rows, residual)."""
    W = np.asarray(w, dtype=float)
    W2, err = refit_least_squares(W.reshape(1, -1, dom.n_coef), [dom.a], [dom.b],
                                  [new_dom.a], [new_dom.b], dom.omega, new_dom.omega)
    return W2[0].reshape(W.shape[:-1] + (new_dom.n_coef,)), float(err[0])


def _greville_refit(w, dom, new_dom):
    """Rows (P,) or (m, P) of one feature refit from dom onto new_dom by Greville points."""
    W = np.asarray(w, dtype=float)
    W2 = refit_greville(W.reshape(1, -1, dom.n_coef), [dom.a], [dom.b], [new_dom.a],
                        [new_dom.b], dom.omega, new_dom.omega)
    return W2[0].reshape(W.shape[:-1] + (new_dom.n_coef,))


def _refine(w, dom, new_omega):
    """Rows (P,) of one feature refined onto new_omega: (rows, new domain, residual)."""
    W2, err = refine_grid(np.asarray(w, dtype=float)[None, None], [dom.a], [dom.b], dom.omega,
                          new_omega)
    return W2[0, 0], GridDomain(dom.a, dom.b, new_omega), float(err[0])


def test_refit_lsq_constant():
    w = np.full(DOM4.n_coef, 1.5)
    new_dom = GridDomain(-2.0, 4.0, 4)
    w2, _ = _lsq(w, DOM4, new_dom)
    assert _dense_err(w2, new_dom, w, DOM4, -2.0, 4.0) <= 1e-10


def test_refit_lsq_linear_stretch_overlap():
    dom = GridDomain(0.0, 1.0, 5)
    w = 3.0 * greville_abscissae(dom.a, dom.b, dom.omega) - 1.0
    new_dom = GridDomain(-1.0, 2.0, 5)
    w2, _ = _lsq(w, dom, new_dom)
    z = np.linspace(0.0, 1.0, 400)
    err = np.abs(eval_activation(z, w2, new_dom) - (3.0 * z - 1.0)).max()
    assert err <= 1e-8


def test_refit_lsq_stretch_keeps_the_weight_scale():
    # the old spline continues linearly past its bounds; fitting its edge
    # cubics instead grew max |w| here from 2.3 to 55
    w = np.random.default_rng(0).standard_normal((1, 3, 13))
    w2, _ = refit_least_squares(w, [-1.0], [1.0], [-1.5], [1.5], 10, 10)
    assert np.abs(w2).max() <= 3.0 * np.abs(w).max()


def test_refit_lsq_covers_new_inputs_by_the_linear_rule():
    # f(clip(z)) + f'(clip(z)) (z - clip(z)) on the newly covered inputs, to
    # within the residual the refit reports on its samples
    dom, new_dom = GridDomain(-1.0, 1.0, 10), GridDomain(-1.5, 1.5, 10)
    W = np.random.default_rng(0).standard_normal((3, dom.n_coef))
    W2, max_err = refit_least_squares(W[None], [dom.a], [dom.b], [new_dom.a], [new_dom.b],
                                      dom.omega, new_dom.omega)
    z = np.linspace(new_dom.a, new_dom.b, 10 * new_dom.omega)  # the refit's samples
    zc = np.clip(z, dom.a, dom.b)
    # the slope at b from just inside, where the last segment still reads it
    slope = activation_dz(np.minimum(zc, np.nextafter(dom.b, -np.inf)), W, dom)
    target = eval_activation(zc, W, dom) + slope * (z - zc)[:, None]
    new = (z < dom.a) | (z > dom.b)
    err = np.abs(eval_activation(z, W2[0], new_dom) - target)[new].max()
    assert 0.0 < err <= max_err[0] + 1e-12


def test_refit_lsq_linear_spline_stays_linear_past_b():
    # (b - a) / d rounds above omega on this domain, so a derivative window
    # read at b is zero; the edge slope must come from the last segment
    dom = GridDomain(-3.0, 0.21, 50)
    assert (dom.b - dom.a) / dom.d > dom.omega
    w = 2.0 * greville_abscissae(dom.a, dom.b, dom.omega) - 1.0
    new_dom = GridDomain(-3.0, 1.5, 50)
    w2, _ = _lsq(w, dom, new_dom)
    z = np.linspace(new_dom.a, new_dom.b, 999)
    assert np.abs(eval_activation(z, w2, new_dom) - (2.0 * z - 1.0)).max() <= 1e-8


def test_refit_lsq_identity():
    rng = np.random.default_rng(23)
    w = rng.standard_normal(DOM4.n_coef)
    w2, max_err = _lsq(w, DOM4, DOM4)
    assert _dense_err(w2, DOM4, w, DOM4, 0.0, 1.0) <= 1e-10
    assert max_err <= 1e-10


def test_refit_lsq_multiple_rows():
    rng = np.random.default_rng(29)
    W = rng.standard_normal((3, DOM4.n_coef))
    new_dom = GridDomain(0.25, 0.75, 4)
    W2, _ = _lsq(W, DOM4, new_dom)
    assert W2.shape == (3, new_dom.n_coef)
    for row, row2 in zip(W, W2):
        assert _dense_err(row2, new_dom, row, DOM4, 0.25, 0.75) <= 1e-6


def test_refit_greville_identity_and_constant():
    rng = np.random.default_rng(31)
    w = rng.standard_normal(DOM4.n_coef)
    np.testing.assert_array_equal(_greville_refit(w, DOM4, DOM4), w)
    wc = np.full(DOM4.n_coef, 2.0)
    np.testing.assert_allclose(
        _greville_refit(wc, DOM4, GridDomain(-3.0, 5.0, 4)), 2.0, atol=1e-14)


def test_refit_greville_linear_shift():
    # linear weights under a shifted domain move exactly like the line
    dom = GridDomain(0.0, 1.0, 4)
    new_dom = GridDomain(0.5, 1.5, 4)
    g = greville_abscissae(dom.a, dom.b, dom.omega)
    w = 2.0 * g + 1.0
    expected = 2.0 * np.clip(greville_abscissae(new_dom.a, new_dom.b, new_dom.omega),
                             g[0], g[-1]) + 1.0
    np.testing.assert_allclose(_greville_refit(w, dom, new_dom), expected, atol=1e-12)


def test_refine_constant_preserved():
    w = np.full(GridDomain(0, 1, 3).n_coef, 0.7)
    w2, dom2, _ = _refine(w, GridDomain(0, 1, 3), 5)
    assert w2.shape == (dom2.n_coef,)
    assert _dense_err(w2, dom2, w, GridDomain(0, 1, 3), 0, 1) <= 1e-10


def test_refine_random_3_to_50():
    rng = np.random.default_rng(37)
    dom = GridDomain(-1.0, 1.0, 3)
    w = rng.standard_normal(dom.n_coef)
    z = np.linspace(-1, 1, 800)
    vals = eval_activation(z, w, dom)
    w2, dom2, _ = _refine(w, dom, 50)
    err = np.abs(eval_activation(z, w2, dom2) - vals).max()
    assert err <= 1e-3 * (vals.max() - vals.min())


def test_refine_residual_self_check():
    rng = np.random.default_rng(41)
    dom = GridDomain(0.0, 2.0, 3)
    w = rng.standard_normal(dom.n_coef)
    w2, dom2, max_err = _refine(w, dom, 7)
    knots = np.linspace(dom.a, dom.b, dom.omega + 1)[1:-1]
    err = np.abs(eval_activation(knots, w2, dom2) - eval_activation(knots, w, dom)).max()
    assert err <= max_err + 1e-12


def test_lsq_factor_has_full_rank():
    # S = 10 omega samples put at least 9 in every interval
    for omega in range(1, 65):
        A, _ = _lsq_factor(omega)
        assert A.shape == (10 * omega, omega + 3)
        assert np.linalg.matrix_rank(A) == omega + 3


def test_refine_requires_larger_omega():
    with pytest.raises(ValueError):
        refine_grid(np.zeros((1, 1, DOM4.n_coef)), [DOM4.a], [DOM4.b], DOM4.omega, 4)
