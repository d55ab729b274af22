"""Gaussian window statistics and the two divergences used for segmentation.

Two measures decide whether the halves of a feature window come from
different speakers:

* delta BIC: log-likelihood gain of modeling the halves with separate
  full-covariance Gaussians, minus a complexity penalty. Needs three
  covariance fits per evaluation (whole window plus both halves).
* Hotelling's T^2: squared Mahalanobis distance between the half means
  under the pooled covariance. Needs a single covariance fit, which is
  why it is the cheap pre-filter.

Both take the same fit: the MLE covariance, built on Cholesky
factorisations (LAPACK dpotrf), not on an eigenvalue decomposition and an
LU determinant. The ridge rule "smallest eigenvalue <= eps * trace / d",
with eps the constant REGULARIZATION_EPS, is tested as "C - (eps * trace /
d) * I does not factor"; the fit keeps the lower factor L of the (ridged)
covariance, log|C| is 2 sum log diag(L), and T^2 is a triangular solve
against L.

A ComputeCounter tracks covariance fits and divergence evaluations so the
relative cost of the two methods can be measured exactly; one fit counts one
covariance computation. Clustering prices merges from sufficient statistics
with stacked_log_det instead of calling the oracles, so its work is counted
separately as merge cost evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import InvalidConfig, InvalidInput

# Relative ridge of a near-singular covariance (see gaussian_fit).
REGULARIZATION_EPS = 1e-6


@dataclass
class ComputeCounter:
    """Monotone counters for divergence cost accounting.

    covariance_count, delta_bic_count and t2_count count calls of
    gaussian_fit, delta_bic and hotelling_t2; merge_cost_count counts the
    cluster-pair costs clustering prices from sufficient statistics.
    """

    covariance_count: int = 0
    delta_bic_count: int = 0
    t2_count: int = 0
    merge_cost_count: int = 0


@dataclass(frozen=True)
class BicConfig:
    """Penalty settings for delta BIC.

    delta_k defaults to the parameter count of one extra full-covariance
    Gaussian, d + d(d+1)/2 (90 for d = 12). Natural log throughout.
    """

    lambda_: float = 1.0
    delta_k: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.lambda_ < math.inf:
            raise InvalidConfig("lambda must be non-negative and finite")
        if self.delta_k is not None and self.delta_k <= 0:
            raise InvalidConfig("delta_k must be positive")

    def resolve_delta_k(self, d: int) -> int:
        if self.delta_k is not None:
            return self.delta_k
        return d + d * (d + 1) // 2


@dataclass(frozen=True)
class GaussianStats:
    """Sample mean and MLE covariance of a window of feature rows; factor
    is the covariance's lower Cholesky factor (upper triangle not cleared),
    None where it does not factor."""

    mean: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray | None
    log_det: float
    n: int


def _as_window(rows) -> np.ndarray:
    w = np.asarray(rows, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    return w


def _split(x_window, y_window, min_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two halves as (n, d) float arrays and the pooled window."""
    x = _as_window(x_window)
    y = _as_window(y_window)
    if x.shape[1] != y.shape[1]:
        raise InvalidInput(f"window dims differ: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] < min_rows or y.shape[0] < min_rows:
        raise InvalidInput(f"each sub-window needs >= {min_rows} rows")
    return x, y, np.concatenate([x, y], axis=0)


def _cholesky(matrix: np.ndarray) -> tuple[np.ndarray | None, float]:
    """The lower factor L and log|matrix| = 2 sum log diag(L), or (None, -inf)
    if it does not factor."""
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info != 0:
        return None, -np.inf
    return factor, 2.0 * float(np.log(factor.diagonal()).sum())


def window_stats(rows) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, mean, centred scatter sum (x - mean)(x - mean)^T) of a window of
    rows: the one row reduction behind every Gaussian fit."""
    w = _as_window(rows)
    # add.reduce / n is w.mean(axis=0) without its Python-level overhead
    mean = np.add.reduce(w, axis=0) / len(w)
    centered = w - mean
    # one operand on both sides, so matmul takes its symmetric kernel
    return len(w), mean, centered.T @ centered


def gaussian_fit(window, counter: ComputeCounter | None = None) -> GaussianStats:
    """Fit mean and MLE covariance to a window of shape (n, d).

    With eps = REGULARIZATION_EPS, a covariance whose smallest eigenvalue
    is at most eps * trace / d gets a ridge of (eps * trace / d) * I so the
    log-determinant stays finite; a zero covariance (all rows equal) falls
    back to eps * I. The eigenvalue test is made as "C - (eps * trace / d)
    * I has no Cholesky factor". The fit keeps the lower Cholesky factor of
    the (ridged) covariance and log|C| from it, None and -inf when it does
    not factor. Raises InvalidInput on NaN or inf rows. Counts one
    covariance computation.
    """
    w = _as_window(window)
    n, d = w.shape
    if n < 2:
        raise InvalidInput(f"covariance fit needs >= 2 rows, got {n}")

    _, mean, scatter = window_stats(w)
    cov = scatter / n
    trace = float(cov.trace())
    # a NaN or inf anywhere in the window reaches the diagonal through the centring
    if not math.isfinite(trace):
        raise InvalidInput("covariance fit of a window holding NaN or inf")

    # rounding dust from centering identical rows is O(eps_mach^2 * |x|^2)
    # per dimension; anything at that level is a zero variance, and the
    # proportional ridge below would be dust too. The mean square of the
    # raw rows is (tr C + |mean|^2) / d.
    mean_sq = (trace + float(mean @ mean)) / d
    dust = 1e-24 * max(mean_sq, 1e-30) * d
    if trace <= dust:
        cov = cov + REGULARIZATION_EPS * np.eye(d)
    else:
        # the smallest eigenvalue is at most the ridge exactly when
        # C - ridge * I is not positive definite (dpotrf info != 0)
        ridge = REGULARIZATION_EPS * trace / d
        if dpotrf(cov - ridge * np.eye(d), lower=1, clean=0)[1] != 0:
            cov = cov + ridge * np.eye(d)

    factor, log_det = _cholesky(cov)

    if counter is not None:
        counter.covariance_count += 1

    return GaussianStats(mean=mean, covariance=cov, factor=factor, log_det=log_det, n=n)


def _stacked_cholesky_log_det(stack: np.ndarray) -> np.ndarray:
    """(k,) log-determinants of a (k, d, d) stack, -inf where one does not factor."""
    try:
        factor = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        # the batched factorisation fails as a whole: factor one at a time
        return np.array([_cholesky(m)[1] for m in stack])
    return 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2)).sum(axis=1)


def stacked_ridge(n, mean: np.ndarray,
                  scatter: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gaussian_fit's ridge rule on a stack of sufficient statistics.

    n has shape (k,), mean (k, d) and scatter (k, d, d), the window_stats of
    k windows. Returns the (k, d, d) MLE covariances, the (k,) ridges and
    the (k,) zero-variance mask: a zero-variance covariance takes its ridge
    (REGULARIZATION_EPS) as it is, any other one only if its smallest
    eigenvalue is at most its ridge (REGULARIZATION_EPS * trace / d). The
    mean square of the raw rows is recovered as (tr S + n |mean|^2) / (n d).
    Raises InvalidInput when a mean or scatter trace is NaN or inf.
    """
    n = np.asarray(n, dtype=np.float64)
    d = scatter.shape[-1]
    cov = scatter / n[:, None, None]
    trace = np.trace(cov, axis1=1, axis2=2)
    mean_sq = ((np.trace(scatter, axis1=1, axis2=2)
                + n * np.einsum("ki,ki->k", mean, mean)) / (n * d))
    if not np.isfinite(mean_sq).all():
        raise InvalidInput("sufficient statistics hold NaN or inf")
    zero_variance = trace <= 1e-24 * np.maximum(mean_sq, 1e-30) * d
    ridge = np.where(zero_variance, REGULARIZATION_EPS, REGULARIZATION_EPS * trace / d)
    return cov, ridge, zero_variance


def stacked_log_det(n, mean: np.ndarray, scatter: np.ndarray) -> np.ndarray:
    """log|C| of k MLE covariances given as sufficient statistics.

    Applies stacked_ridge's rule to every matrix of the stack and returns
    the (k,) log-determinants from batched Cholesky factors (-inf where the
    covariance is not positive definite). Raises InvalidInput as
    stacked_ridge does. Counts nothing: callers account for their own work.
    """
    cov, ridge, zero_variance = stacked_ridge(n, mean, scatter)
    eye = np.eye(cov.shape[-1])
    # the smallest eigenvalue is above the proportional ridge exactly
    # where C - ridge * I factors; those covariances are left as they are
    clear = np.zeros(len(cov), dtype=bool)
    test = ~zero_variance
    clear[test] = np.isfinite(
        _stacked_cholesky_log_det(cov[test] - ridge[test, None, None] * eye))
    cov = cov + np.where(clear, 0.0, ridge)[:, None, None] * eye
    return _stacked_cholesky_log_det(cov)


def delta_bic(
    x_window,
    y_window,
    cfg: BicConfig | None = None,
    counter: ComputeCounter | None = None,
) -> float:
    """Penalized likelihood gain of splitting the pooled window at the boundary.

    Evaluates (Ns/2) ln|C_s| - (Nx/2) ln|C_x| - (Ny/2) ln|C_y|
    - (lambda/2) * delta_k * ln(Ns) with MLE covariances, which equals the
    two-model log-likelihood difference at the fitted parameters. Positive
    values indicate the halves are better modeled separately, i.e. a
    speaker change. Counts three covariance computations.
    """
    cfg = cfg or BicConfig()
    x, y, s = _split(x_window, y_window, 2)
    stats_s = gaussian_fit(s, counter)
    stats_x = gaussian_fit(x, counter)
    stats_y = gaussian_fit(y, counter)

    n_s, n_x, n_y = stats_s.n, stats_x.n, stats_y.n
    d = x.shape[1]
    penalty = 0.5 * cfg.lambda_ * cfg.resolve_delta_k(d) * np.log(n_s)
    value = (
        0.5 * n_s * stats_s.log_det
        - 0.5 * n_x * stats_x.log_det
        - 0.5 * n_y * stats_y.log_det
        - penalty
    )

    if counter is not None:
        counter.delta_bic_count += 1
    return float(value)


def hotelling_t2(
    x_window,
    y_window,
    counter: ComputeCounter | None = None,
) -> float:
    """Hotelling's two-sample T^2 between the sub-window means.

    T^2 = (Nx * Ny / Ns) * (mx - my)' Sigma^-1 (mx - my), where Sigma is the
    unbiased covariance of the pooled window. That is Ns / (Ns - 1) times
    its MLE covariance C = L L', and the proportional ridge scales with
    the matrix, so T^2 = (Nx * Ny / Ns) * ((Ns - 1) / Ns) * |L^-1 (mx -
    my)|^2, with L the factor gaussian_fit keeps: one triangular solve.
    The one exception is a zero-variance pooled window, whose absolute
    eps * I ridge does not scale; there the mean difference, and so T^2,
    is ~0 either way. Counts a single covariance computation. Raises
    InvalidInput if the covariance does not factor.
    """
    x, y, s = _split(x_window, y_window, 1)
    stats = gaussian_fit(s, counter)
    if stats.factor is None:
        raise InvalidInput("pooled covariance has no Cholesky factor")

    n_x, n_y, n_s = x.shape[0], y.shape[0], stats.n
    diff = np.add.reduce(x, axis=0) / n_x - np.add.reduce(y, axis=0) / n_y
    z = dtrtrs(stats.factor, diff, lower=1)[0]

    if counter is not None:
        counter.t2_count += 1
    return (n_x * n_y / n_s) * ((n_s - 1) / n_s) * float(z @ z)
