"""Linear model family: OLS, ridge, logistic, and quantile regression.

Linear models are the workhorse of the paper (Insight 1): KEA's machine
behaviour models, AutoToken's resource predictors, and many micromodels
are linear fits chosen for interpretability and negligible training cost.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_2d, check_fitted, check_xy


class LinearRegression:
    """Ordinary least squares via ``numpy.linalg.lstsq``.

    Attributes after fitting: ``coef_`` (per-feature slopes) and
    ``intercept_``.  Both are plain floats/arrays so downstream services
    can inspect and explain the fit (a recurring production requirement
    in the paper's Insight 1 discussion).
    """

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearRegression":
        xarr, yarr = check_xy(x, y)
        design = self._design(xarr)
        solution, *_ = np.linalg.lstsq(design, yarr, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(solution[0])
            self.coef_ = solution[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = solution
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        xarr = check_2d(x)
        if xarr.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"expected {self.coef_.shape[0]} features, got {xarr.shape[1]}"
            )
        return xarr @ self.coef_ + self.intercept_

    def _design(self, xarr: np.ndarray) -> np.ndarray:
        if not self.fit_intercept:
            return xarr
        return np.hstack([np.ones((xarr.shape[0], 1)), xarr])


class RidgeRegression(LinearRegression):
    """L2-regularized least squares, solved in closed form.

    The intercept is never penalized.
    """

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True) -> None:
        super().__init__(fit_intercept=fit_intercept)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        xarr, yarr = check_xy(x, y)
        design = self._design(xarr)
        n_params = design.shape[1]
        # Solve the augmented least-squares system [X; sqrt(a) I] b = [y; 0]
        # via lstsq: numerically stable even for terribly conditioned
        # feature matrices (near-constant or hugely scaled columns).
        penalty_rows = np.sqrt(self.alpha) * np.eye(n_params)
        if self.fit_intercept:
            penalty_rows[0, 0] = 0.0
        augmented = np.vstack([design, penalty_rows])
        target = np.concatenate([yarr, np.zeros(n_params)])
        solution, *_ = np.linalg.lstsq(augmented, target, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(solution[0])
            self.coef_ = solution[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = solution
        return self


class LogisticRegression:
    """Binary logistic regression fit by gradient descent with L2 penalty."""

    def __init__(
        self,
        learning_rate: float = 0.1,
        n_iter: int = 500,
        alpha: float = 1e-4,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if n_iter <= 0:
            raise ValueError("n_iter must be positive")
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.alpha = alpha
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        xarr, yarr = check_xy(x, y)
        unique = set(np.unique(yarr).tolist())
        if not unique <= {0.0, 1.0}:
            raise ValueError(f"labels must be 0/1, got {sorted(unique)}")
        n, d = xarr.shape
        weights = np.zeros(d)
        bias = 0.0
        for _ in range(self.n_iter):
            prob = self._sigmoid(xarr @ weights + bias)
            error = prob - yarr
            grad_w = xarr.T @ error / n + self.alpha * weights
            grad_b = float(np.mean(error))
            weights -= self.learning_rate * grad_w
            bias -= self.learning_rate * grad_b
        self.coef_ = weights
        self.intercept_ = bias
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        xarr = check_2d(x)
        return self._sigmoid(xarr @ self.coef_ + self.intercept_)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba(x) >= 0.5).astype(int)


class QuantileRegression:
    """Linear quantile regression via the pinball loss, solved as an LP.

    Phoebe-style stage-time prediction uses conservative quantiles rather
    than means so that checkpoint placement errs on the safe side.
    """

    def __init__(self, quantile: float = 0.5) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.quantile = quantile
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "QuantileRegression":
        xarr, yarr = check_xy(x, y)
        n, d = xarr.shape
        design = np.hstack([np.ones((n, 1)), xarr])
        k = d + 1
        # Variables: beta+ (k), beta- (k), u (n, over-estimation slack),
        # v (n, under-estimation slack).  Minimize q*sum(u) + (1-q)*sum(v)
        # s.t. design @ (beta+ - beta-) + u - v = y, u, v >= 0.
        cost = np.concatenate(
            [
                np.zeros(2 * k),
                np.full(n, self.quantile),
                np.full(n, 1.0 - self.quantile),
            ]
        )
        a_eq = np.hstack([design, -design, np.eye(n), -np.eye(n)])
        from scipy import optimize

        result = optimize.linprog(
            cost, A_eq=a_eq, b_eq=yarr, bounds=[(0, None)] * (2 * k + 2 * n),
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"quantile LP failed: {result.message}")
        beta = result.x[:k] - result.x[k : 2 * k]
        self.intercept_ = float(beta[0])
        self.coef_ = beta[1:]
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        xarr = check_2d(x)
        return xarr @ self.coef_ + self.intercept_
