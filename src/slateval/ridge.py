"""Closed-form ridge regression with deterministic k-fold cross-validation.

Rows are assigned to folds by row index modulo the fold count, so fits are
reproducible without any RNG. The intercept column is never penalized.
A floor of 1e-6 on the regularization strength keeps the normal equations
solvable; if a solve still fails the strength is raised tenfold rather
than failing silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_RIDGE = 1e-6
DEFAULT_ALPHAS = (0.01, 0.1, 1.0, 10.0)


def solve_ridge(xtx: np.ndarray, xty: np.ndarray, alpha: float, penalize: np.ndarray) -> np.ndarray:
    """Solve (XtX + alpha * diag(penalize)) beta = Xty."""
    alpha = max(float(alpha), MIN_RIDGE)
    while True:
        try:
            beta = np.linalg.solve(xtx + alpha * np.diag(penalize), xty)
        except np.linalg.LinAlgError:
            alpha *= 10.0
            continue
        if np.all(np.isfinite(beta)):
            return beta
        alpha *= 10.0


@dataclass(frozen=True)
class FoldMoments:
    """Per-fold normal-equation pieces: Gram matrices, cross terms and row
    counts."""

    xtx: np.ndarray  # (folds, d, d)
    xty: np.ndarray  # (folds, d)
    counts: np.ndarray  # (folds,)

    @property
    def num_folds(self) -> int:
        return len(self.counts)


def fold_moments_from_rows(X: np.ndarray, y: np.ndarray, folds: int = 5) -> FoldMoments:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = X.shape[1]
    xtx = np.zeros((folds, d, d))
    xty = np.zeros((folds, d))
    counts = np.zeros(folds)
    assignment = np.arange(len(y)) % folds
    for f in range(folds):
        mask = assignment == f
        Xf, yf = X[mask], y[mask]
        xtx[f] = Xf.T @ Xf
        xty[f] = Xf.T @ yf
        counts[f] = int(mask.sum())
    return FoldMoments(xtx, xty, counts)


def cv_select_alpha(moments: FoldMoments, penalize: np.ndarray, alphas=DEFAULT_ALPHAS) -> float:
    """Pick the strength with the lowest pooled held-out squared error.

    Each fold's error leaves out the sum of squares of its targets, which is
    the same for every strength and so cannot change the choice.
    """
    folds = moments.num_folds
    total_xtx = moments.xtx.sum(axis=0)
    total_xty = moments.xty.sum(axis=0)
    best_alpha, best_err = None, np.inf
    for alpha in alphas:
        err = 0.0
        used = 0.0
        for f in range(folds):
            if moments.counts[f] == 0:
                continue
            train_xtx = total_xtx - moments.xtx[f]
            train_xty = total_xty - moments.xty[f]
            beta = solve_ridge(train_xtx, train_xty, alpha, penalize)
            err += float(beta @ moments.xtx[f] @ beta - 2.0 * beta @ moments.xty[f])
            used += moments.counts[f]
        err = err / max(used, 1.0)
        if err < best_err - 1e-15:
            best_alpha, best_err = alpha, err
    return float(best_alpha if best_alpha is not None else alphas[0])


@dataclass(frozen=True)
class RidgeFit:
    weights: np.ndarray
    alpha: float


def fit_ridge(X: np.ndarray, y: np.ndarray, alpha: float, penalize: np.ndarray | None = None) -> RidgeFit:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if penalize is None:
        penalize = np.ones(X.shape[1])
    beta = solve_ridge(X.T @ X, X.T @ y, alpha, penalize)
    return RidgeFit(weights=beta, alpha=float(alpha))


def fit_ridge_cv(
    X: np.ndarray,
    y: np.ndarray,
    alphas=DEFAULT_ALPHAS,
    folds: int = 5,
    penalize: np.ndarray | None = None,
) -> RidgeFit:
    """Fit with the CV-selected strength; falls back to a plain fit when
    there are too few rows to form folds."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if penalize is None:
        penalize = np.ones(X.shape[1])
    if len(y) < folds:
        return fit_ridge(X, y, alphas[0], penalize)
    moments = fold_moments_from_rows(X, y, folds)
    alpha = cv_select_alpha(moments, penalize, alphas)
    beta = solve_ridge(moments.xtx.sum(axis=0), moments.xty.sum(axis=0), alpha, penalize)
    return RidgeFit(weights=beta, alpha=alpha)


def add_intercept(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def intercept_penalty_mask(num_features: int) -> np.ndarray:
    """Penalty mask for a design whose last column is the intercept."""
    mask = np.ones(num_features + 1)
    mask[-1] = 0.0
    return mask
