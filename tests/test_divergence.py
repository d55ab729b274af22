import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from feddiar.divergence import (
    REGULARIZATION_EPS,
    BicConfig,
    ComputeCounter,
    delta_bic,
    gaussian_fit,
    gaussian_log_likelihood,
    hotelling_t2,
    stacked_log_det,
)
from feddiar.errors import FeddiarError, NonFiniteInput, WindowTooSmall


def mle_loglik(window):
    """Reference log-likelihood: per-sample normal density at the MLE fit."""
    mu = window.mean(axis=0)
    d = window.shape[1]
    cov = np.cov(window.T, bias=True).reshape(d, d)
    return float(multivariate_normal(mu, cov).logpdf(window).sum())


def reference_delta_bic(x, y, lambda_=1.0):
    s = np.vstack([x, y])
    d = x.shape[1]
    delta_k = d + d * (d + 1) // 2
    penalty = 0.5 * lambda_ * delta_k * np.log(len(s))
    return mle_loglik(x) + mle_loglik(y) - mle_loglik(s) - penalty


def reference_gaussian_fit(window, estimator="mle"):
    """The eigenvalue oracle: eigvalsh for the ridge test, slogdet for log|C|."""
    eps = REGULARIZATION_EPS
    w = np.asarray(window, dtype=np.float64)
    n, d = w.shape
    mean = w.mean(axis=0)
    centered = w - mean
    divisor = n if estimator == "mle" else n - 1
    cov = (centered.T @ centered) / divisor
    regularized = False
    trace = float(np.trace(cov))
    dust = 1e-24 * max(float(np.mean(w * w)), 1e-30) * d
    if trace <= dust:
        cov = cov + eps * np.eye(d)
        regularized = True
    else:
        min_eig = float(np.linalg.eigvalsh(cov)[0])
        if min_eig <= eps * (trace / d):
            cov = cov + (eps * trace / d) * np.eye(d)
            regularized = True
    sign, log_det = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(log_det):
        log_det = -np.inf
    return mean, cov, float(log_det), regularized


def log_det_tolerance(cov, log_det, regularized):
    """How far two backward-stable log|C| may lie apart.

    A ridged covariance carries null-space rounding of about 1e-10 of the
    ridge per dimension, so it gets an absolute floor; otherwise the error
    grows with the condition number on top of a relative 1e-12.
    """
    d = cov.shape[0]
    if math.isinf(log_det):
        return 0.0
    if regularized:
        return 1e-9 * d
    eig = np.linalg.eigvalsh(cov)
    return max(1e-12 * abs(log_det), 64 * d * np.finfo(float).eps * eig[-1] / eig[0])


WINDOW_KINDS = ("plain", "rank_deficient", "constant_column", "all_equal",
                "two_rows", "d_plus_one")


def draw_window(rng, kind, d):
    """A window of one kind."""
    offset = rng.uniform(-5.0, 5.0, d)
    fill = float(rng.uniform(-9.0, 9.0))
    if kind == "plain":
        n = int(rng.integers(d + 2, 4 * d + 40))
        return rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d) + offset
    if kind == "rank_deficient":
        rank = int(rng.integers(1, d)) if d > 1 else 1
        n = int(rng.integers(2, 3 * d + 20))
        return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d)) + offset
    if kind == "constant_column":
        w = rng.standard_normal((int(rng.integers(d + 2, 4 * d + 40)), d)) + offset
        w[:, rng.integers(0, d)] = fill
        return w
    if kind == "all_equal":
        return np.full((int(rng.integers(2, 40)), d), fill)
    if kind == "two_rows":
        return rng.standard_normal((2, d)) + offset
    return rng.standard_normal((d + 1, d)) + offset


def assert_log_det_close(got, want, cov, regularized):
    if math.isinf(want) or math.isinf(got):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=0, abs=log_det_tolerance(cov, want, regularized))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(WINDOW_KINDS),
       st.integers(min_value=1, max_value=12), st.sampled_from(["mle", "unbiased"]))
def test_fit_matches_eigenvalue_oracle(seed, kind, d, estimator) -> None:
    w = draw_window(np.random.default_rng(seed), kind, d)
    mean, cov, log_det, regularized = reference_gaussian_fit(w, estimator)
    got = gaussian_fit(w, estimator)
    assert np.array_equal(got.mean, mean)
    assert np.array_equal(got.covariance, cov)
    assert got.regularized == regularized
    assert_log_det_close(got.log_det, log_det, cov, regularized)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.sampled_from(WINDOW_KINDS), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=12))
def test_stacked_log_det_matches_eigenvalue_oracle(seed, kinds, d) -> None:
    rng = np.random.default_rng(seed)
    windows = [draw_window(rng, kind, d) for kind in kinds]
    n = np.array([len(w) for w in windows])
    mean = np.stack([w.mean(axis=0) for w in windows])
    scatter = np.stack([(w - m).T @ (w - m) for w, m in zip(windows, mean)])
    got = stacked_log_det(n, mean, scatter)
    for w, value in zip(windows, got):
        _, cov, log_det, regularized = reference_gaussian_fit(w, "mle")
        assert_log_det_close(float(value), log_det, cov, regularized)


def reference_divergences(x, y):
    """delta BIC and T^2 from the oracle fits."""
    s = np.vstack([x, y])
    fits = [reference_gaussian_fit(w, "mle") for w in (s, x, y)]
    d = x.shape[1]
    bic = (0.5 * len(s) * fits[0][2] - 0.5 * len(x) * fits[1][2] - 0.5 * len(y) * fits[2][2]
           - 0.5 * (d + d * (d + 1) // 2) * np.log(len(s)))
    bic_tol = sum(0.5 * len(w) * log_det_tolerance(f[1], f[2], f[3])
                  for w, f in zip((s, x, y), fits))
    _, pooled, _, _ = reference_gaussian_fit(s, "unbiased")
    diff = x.mean(axis=0) - y.mean(axis=0)
    t2 = (len(x) * len(y) / len(s)) * float(diff @ np.linalg.solve(pooled, diff))
    return bic, bic_tol, max(0.0, t2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(WINDOW_KINDS),
       st.sampled_from(WINDOW_KINDS), st.integers(min_value=1, max_value=12))
def test_divergences_match_eigenvalue_oracle(seed, kind_x, kind_y, d) -> None:
    rng = np.random.default_rng(seed)
    x = draw_window(rng, kind_x, d)
    y = draw_window(rng, kind_y, d)
    bic, bic_tol, t2 = reference_divergences(x, y)
    got = delta_bic(x, y)
    if math.isnan(bic) or math.isinf(bic):
        assert got == bic or (math.isnan(got) and math.isnan(bic))
    else:
        assert got == pytest.approx(bic, rel=1e-12, abs=bic_tol)
    # the pooled covariance is bit-equal, so is the solve against it
    assert hotelling_t2(x, y) == t2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_raise(bad) -> None:
    rng = np.random.default_rng(11)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal((20, 3))
    y[7, 1] = bad
    with pytest.raises(NonFiniteInput):
        gaussian_fit(y)
    with pytest.raises(NonFiniteInput):
        delta_bic(x, y)
    with pytest.raises(NonFiniteInput):
        hotelling_t2(x, y)
    mean = np.stack([x.mean(axis=0), np.full(3, bad)])
    scatter = np.stack([(x - mean[0]).T @ (x - mean[0]), np.eye(3)])
    with pytest.raises(NonFiniteInput):
        stacked_log_det(np.array([20, 20]), mean, scatter)
    scatter[1, 2, 2] = bad
    with pytest.raises(NonFiniteInput):
        stacked_log_det(np.array([20, 20]), mean[[0, 0]], scatter)
    assert issubclass(NonFiniteInput, FeddiarError) and issubclass(NonFiniteInput, ValueError)


def test_fit_two_point_means_and_covariances() -> None:
    w = np.array([[0.0], [2.0]])
    mle = gaussian_fit(w, estimator="mle")
    unb = gaussian_fit(w, estimator="unbiased")
    assert mle.mean[0] == pytest.approx(1.0)
    assert mle.covariance[0, 0] == pytest.approx(1.0)
    assert unb.covariance[0, 0] == pytest.approx(2.0)
    assert mle.n == 2


def test_fit_requires_two_rows() -> None:
    with pytest.raises(WindowTooSmall):
        gaussian_fit(np.zeros((1, 3)))


def test_fit_constant_column_regularized() -> None:
    rng = np.random.default_rng(0)
    w = rng.standard_normal((50, 3))
    w[:, 1] = 4.0
    stats = gaussian_fit(w)
    assert stats.regularized
    assert np.isfinite(stats.log_det)


def test_stacked_log_det_matches_fit_on_every_branch() -> None:
    rng = np.random.default_rng(2)
    plain = rng.standard_normal((40, 4))
    rank_one = rng.standard_normal((30, 1)) * rng.standard_normal(4) + 2.0
    constant_column = plain.copy()
    constant_column[:, 2] = -3.0
    all_equal = np.full((25, 4), 7.5)
    windows = [plain, rank_one, constant_column, all_equal]
    n = np.array([len(w) for w in windows])
    mean = np.stack([w.mean(axis=0) for w in windows])
    scatter = np.stack([(w - m).T @ (w - m) for w, m in zip(windows, mean)])
    counter = ComputeCounter()
    fits = [gaussian_fit(w, counter=counter) for w in windows]
    assert [f.regularized for f in fits] == [False, True, True, True]
    # all-equal rows take the zero-variance branch: eps * I
    assert fits[3].log_det == pytest.approx(4 * np.log(1e-6))
    got = stacked_log_det(n, mean, scatter)
    assert got == pytest.approx([f.log_det for f in fits], rel=1e-12, abs=1e-12)
    assert counter.covariance_count == 4


def test_fit_counts_one_covariance() -> None:
    counter = ComputeCounter()
    gaussian_fit(np.random.default_rng(1).standard_normal((10, 2)), counter=counter)
    assert counter.covariance_count == 1
    assert counter.delta_bic_count == 0
    assert counter.t2_count == 0


def test_log_likelihood_matches_scipy() -> None:
    rng = np.random.default_rng(2)
    w = rng.standard_normal((60, 4))
    stats = gaussian_fit(w, estimator="mle")
    assert gaussian_log_likelihood(w, stats) == pytest.approx(mle_loglik(w), rel=1e-10)


def test_delta_bic_matches_likelihood_reference() -> None:
    rng = np.random.default_rng(3)
    for d in (1, 2, 12):
        for _ in range(5):
            n_x = int(rng.integers(30, 201))
            n_y = int(rng.integers(30, 201))
            x = rng.standard_normal((n_x, d))
            y = 0.5 + rng.standard_normal((n_y, d))
            got = delta_bic(x, y)
            want = reference_delta_bic(x, y)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_delta_bic_zero_for_identical_halves_without_penalty() -> None:
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 3))
    val = delta_bic(x, x.copy(), BicConfig(lambda_=0.0))
    assert abs(val) < 1e-9


def test_delta_bic_decreases_with_lambda() -> None:
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 2))
    y = 3.0 + rng.standard_normal((50, 2))
    vals = [delta_bic(x, y, BicConfig(lambda_=lam)) for lam in (0.0, 0.5, 1.0, 2.0)]
    assert vals == sorted(vals, reverse=True)


def test_delta_bic_requires_two_rows_per_side() -> None:
    ok = np.zeros((5, 2))
    with pytest.raises(WindowTooSmall):
        delta_bic(ok, np.zeros((1, 2)))
    with pytest.raises(WindowTooSmall):
        delta_bic(np.zeros((1, 2)), ok)


def test_delta_k_default_counts_mean_and_covariance_params() -> None:
    assert BicConfig().resolve_delta_k(12) == 90
    assert BicConfig().resolve_delta_k(1) == 2
    assert BicConfig(delta_k=7).resolve_delta_k(12) == 7


def test_t2_hand_case_is_seven() -> None:
    x = np.zeros((4, 1))
    y = np.full((4, 1), 2.0)
    assert abs(hotelling_t2(x, y) - 7.0) < 1e-12


def test_t2_zero_when_y_permutes_x() -> None:
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 3))
    y = x[rng.permutation(30)]
    assert hotelling_t2(x, y) < 1e-12


def test_t2_affine_invariance() -> None:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 5))
    y = 1.0 + rng.standard_normal((45, 5))
    base = hotelling_t2(x, y)
    scaled = hotelling_t2(3.7 * x, 3.7 * y)
    assert scaled == pytest.approx(base, rel=1e-9)
    shift = rng.standard_normal(5)
    assert hotelling_t2(x + shift, y + shift) == pytest.approx(base, rel=1e-9)


def test_t2_nonnegative() -> None:
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((25, 2))
        assert hotelling_t2(x, y) >= 0.0


def test_counter_accounting_exact() -> None:
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal((30, 2))
    counter = ComputeCounter()
    delta_bic(x, y, counter=counter)
    assert (counter.covariance_count, counter.delta_bic_count, counter.t2_count) == (3, 1, 0)
    hotelling_t2(x, y, counter=counter)
    assert (counter.covariance_count, counter.delta_bic_count, counter.t2_count) == (4, 1, 1)
    delta_bic(x, y, counter=counter)
    assert (counter.covariance_count, counter.delta_bic_count, counter.t2_count) == (7, 2, 1)

