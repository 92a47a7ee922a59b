"""Multi-armed and contextual bandits.

Section 4.2 describes steering the query optimizer with rule hints using
a *contextual bandit* to minimize pre-production experimentation cost
(QO-Advisor, [35, 51]).  These are the standard algorithms that effort
builds on; ``LinUCB`` is the contextual variant used by the steering
service in :mod:`repro.core.steering`.
"""

from __future__ import annotations

import math

import numpy as np


class _BaseBandit:
    """Shared bookkeeping for the non-contextual bandits."""

    def __init__(self, n_arms: int, rng: np.random.Generator | int | None = None):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        self.n_arms = n_arms
        self._rng = np.random.default_rng(rng)
        self.counts = np.zeros(n_arms, dtype=int)
        self.rewards = np.zeros(n_arms, dtype=float)

    @property
    def total_pulls(self) -> int:
        return int(self.counts.sum())

    def mean_reward(self, arm: int) -> float:
        if self.counts[arm] == 0:
            return 0.0
        return float(self.rewards[arm] / self.counts[arm])

    def update(self, arm: int, reward: float) -> None:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        self.counts[arm] += 1
        self.rewards[arm] += reward

    def best_arm(self) -> int:
        """The arm with the highest empirical mean so far."""
        means = np.divide(
            self.rewards,
            self.counts,
            out=np.zeros(self.n_arms),
            where=self.counts > 0,
        )
        return int(np.argmax(means))


class EpsilonGreedyBandit(_BaseBandit):
    """Explore uniformly with probability epsilon, else exploit."""

    def __init__(
        self,
        n_arms: int,
        epsilon: float = 0.1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(n_arms, rng)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon

    def select(self) -> int:
        if self._rng.random() < self.epsilon:
            return int(self._rng.integers(0, self.n_arms))
        return self.best_arm()


class UCB1Bandit(_BaseBandit):
    """Upper-confidence-bound selection (Auer et al.)."""

    def select(self) -> int:
        # Each arm must be tried once before UCB scores are defined.
        untried = np.nonzero(self.counts == 0)[0]
        if untried.size:
            return int(untried[0])
        total = self.total_pulls
        means = self.rewards / self.counts
        bonus = np.sqrt(2.0 * math.log(total) / self.counts)
        return int(np.argmax(means + bonus))


class ThompsonSamplingBandit(_BaseBandit):
    """Beta-Bernoulli Thompson sampling for rewards in [0, 1]."""

    def __init__(self, n_arms: int, rng: np.random.Generator | int | None = None):
        super().__init__(n_arms, rng)
        self._alpha = np.ones(n_arms)
        self._beta = np.ones(n_arms)

    def select(self) -> int:
        samples = self._rng.beta(self._alpha, self._beta)
        return int(np.argmax(samples))

    def update(self, arm: int, reward: float) -> None:
        if not 0.0 <= reward <= 1.0:
            raise ValueError("Thompson sampling expects rewards in [0, 1]")
        super().update(arm, reward)
        self._alpha[arm] += reward
        self._beta[arm] += 1.0 - reward


class LinUCB:
    """Contextual linear UCB (Li et al. 2010), one ridge model per arm.

    ``select`` takes a context vector and returns the arm maximizing the
    optimistic linear payoff estimate; ``update`` performs the closed-form
    ridge update for the chosen arm.  The arms' ``A`` and ``b`` are
    stacked arrays, and so are the cached ``inv(A)`` and ``inv(A) @ b``
    (``_solved``; pickles drop it): a ``select`` re-inverts only the
    arms updated since the last one and scores every arm in one call.
    """

    def __init__(
        self,
        n_arms: int,
        n_features: int,
        alpha: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.n_arms = n_arms
        self.n_features = n_features
        self.alpha = alpha
        self._rng = np.random.default_rng(rng)
        self._a = np.tile(np.eye(n_features), (n_arms, 1, 1))
        self._b = np.zeros((n_arms, n_features))
        self.counts = np.zeros(n_arms, dtype=int)
        self._solved: dict[str, np.ndarray] = {}
        self._stale: set[int] = set()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_solved"], state["_stale"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Older pickles hold one array per arm.
        for name in ("_a", "_b"):
            if isinstance(state[name], list):
                state[name] = np.stack(state[name])
        self.__dict__.update(state)
        self._solved = {}
        self._stale = set()

    def _check_context(self, context: np.ndarray) -> np.ndarray:
        ctx = np.asarray(context, dtype=float).ravel()
        if ctx.shape[0] != self.n_features:
            raise ValueError(
                f"context must have {self.n_features} features, got {ctx.shape[0]}"
            )
        return ctx

    def scores(self, context: np.ndarray) -> np.ndarray:
        """Optimistic payoff estimate for every arm given ``context``.

        The batched matmuls make the same per-arm dot and matrix-vector
        calls as ``theta @ ctx`` and ``ctx @ inv @ ctx`` on one arm, so
        every score equals the per-arm formula bit for bit.
        """
        ctx = self._check_context(context)
        solved = self._solved
        if solved:
            stale = self._stale
        else:
            solved["inv"] = np.empty_like(self._a)
            solved["theta"] = np.empty((self.n_arms, 1, self.n_features))
            stale = range(self.n_arms)
        inv, theta = solved["inv"], solved["theta"]
        for arm in stale:
            inv[arm] = np.linalg.inv(self._a[arm])
            theta[arm, 0] = inv[arm] @ self._b[arm]
        self._stale = set()
        column = ctx[:, None]
        lin = np.matmul(theta, column)[:, 0, 0]
        quad = np.matmul(np.matmul(ctx[None, None, :], inv), column)[:, 0, 0]
        return lin + self.alpha * np.sqrt(quad)

    def select(self, context: np.ndarray) -> int:
        scores = self.scores(context)
        best = np.flatnonzero(scores == scores.max())
        # Draws exactly what ``Generator.choice(best)`` draws, for less.
        return int(best[self._rng.integers(0, best.size)])

    def update(self, arm: int, context: np.ndarray, reward: float) -> None:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        ctx = self._check_context(context)
        self._a[arm] += np.outer(ctx, ctx)
        self._b[arm] += reward * ctx
        self.counts[arm] += 1
        self._stale.add(arm)

    def point_estimate(self, arm: int, context: np.ndarray) -> float:
        """Non-optimistic payoff estimate (no exploration bonus)."""
        ctx = self._check_context(context)
        theta = np.linalg.solve(self._a[arm], self._b[arm])
        return float(theta @ ctx)
