import numpy as np
import pytest
from scipy.stats import multivariate_normal

from feddiar.divergence import (
    BicConfig,
    ComputeCounter,
    delta_bic,
    gaussian_fit,
    gaussian_log_likelihood,
    hotelling_t2,
    stacked_log_det,
)
from feddiar.errors import SingularCovariance, WindowTooSmall


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


def test_stacked_log_det_without_ridge_reports_singular() -> None:
    w = np.full((10, 2), 1.0)
    got = stacked_log_det(np.array([10]), w.mean(axis=0)[None], np.zeros((1, 2, 2)),
                          regularization_eps=0.0)
    assert got[0] == -np.inf == gaussian_fit(w, regularization_eps=0.0).log_det


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


def test_t2_singular_without_regularization() -> None:
    x = np.ones((10, 2))
    y = np.ones((10, 2))
    with pytest.raises(SingularCovariance):
        hotelling_t2(x, y, regularization_eps=0.0)


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


def test_counter_merge_and_snapshot() -> None:
    a = ComputeCounter(covariance_count=3, delta_bic_count=1)
    b = ComputeCounter(covariance_count=1, t2_count=1, merge_cost_count=5)
    a.merge(b)
    assert a.snapshot() == {"covariance_count": 4, "delta_bic_count": 1, "t2_count": 1,
                            "merge_cost_count": 5}
