"""Tests for multi-armed and contextual bandits."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    EpsilonGreedyBandit,
    LinUCB,
    ThompsonSamplingBandit,
    UCB1Bandit,
)


def run_bernoulli(bandit, probabilities, n_rounds, rng):
    """Play a Bernoulli bandit; return the fraction of optimal pulls."""
    optimal = int(np.argmax(probabilities))
    optimal_pulls = 0
    for _ in range(n_rounds):
        arm = bandit.select()
        reward = float(rng.random() < probabilities[arm])
        bandit.update(arm, reward)
        if arm == optimal:
            optimal_pulls += 1
    return optimal_pulls / n_rounds


PROBS = [0.2, 0.5, 0.8]


class TestStochasticBandits:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: EpsilonGreedyBandit(3, epsilon=0.1, rng=0),
            lambda: UCB1Bandit(3, rng=0),
            lambda: ThompsonSamplingBandit(3, rng=0),
        ],
        ids=["eps-greedy", "ucb1", "thompson"],
    )
    def test_converges_to_best_arm(self, factory):
        rng = np.random.default_rng(1)
        bandit = factory()
        fraction = run_bernoulli(bandit, PROBS, 2000, rng)
        assert fraction > 0.6
        assert bandit.best_arm() == 2

    def test_ucb_tries_every_arm_first(self):
        bandit = UCB1Bandit(4, rng=0)
        pulled = []
        for _ in range(4):
            arm = bandit.select()
            pulled.append(arm)
            bandit.update(arm, 0.0)
        assert sorted(pulled) == [0, 1, 2, 3]

    def test_epsilon_zero_is_pure_greedy(self):
        bandit = EpsilonGreedyBandit(2, epsilon=0.0, rng=0)
        bandit.update(1, 1.0)
        assert all(bandit.select() == 1 for _ in range(20))

    def test_epsilon_one_explores_uniformly(self):
        bandit = EpsilonGreedyBandit(3, epsilon=1.0, rng=0)
        bandit.update(0, 100.0)
        selections = {bandit.select() for _ in range(100)}
        assert selections == {0, 1, 2}

    def test_thompson_rejects_out_of_range_reward(self):
        bandit = ThompsonSamplingBandit(2, rng=0)
        with pytest.raises(ValueError):
            bandit.update(0, 2.0)

    def test_update_out_of_range_arm(self):
        with pytest.raises(ValueError):
            EpsilonGreedyBandit(2).update(5, 1.0)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            EpsilonGreedyBandit(0)
        with pytest.raises(ValueError):
            EpsilonGreedyBandit(2, epsilon=1.5)


class TestLinUCB:
    def test_learns_context_dependent_best_arm(self):
        # Arm 0 is best when context[0] > 0, arm 1 otherwise.
        rng = np.random.default_rng(0)
        bandit = LinUCB(n_arms=2, n_features=2, alpha=0.5, rng=0)
        for _ in range(600):
            ctx = rng.normal(size=2)
            arm = bandit.select(ctx)
            reward = ctx[0] if arm == 0 else -ctx[0]
            bandit.update(arm, ctx, reward)
        # After training, the point estimate should pick the right arm.
        pos = np.array([1.0, 0.0])
        neg = np.array([-1.0, 0.0])
        assert bandit.point_estimate(0, pos) > bandit.point_estimate(1, pos)
        assert bandit.point_estimate(1, neg) > bandit.point_estimate(0, neg)

    @given(seed=st.integers(0, 2**32 - 1), ties=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_tie_break_draws_what_generator_choice_draws(self, seed, ties):
        bandit = LinUCB(n_arms=ties, n_features=2, rng=seed)
        twin = np.random.default_rng(seed)
        for _ in range(3):
            # No updates: every arm scores the same, so all tie.
            arm = bandit.select(np.array([1.0, 0.5]))
            assert arm == int(twin.choice(np.arange(ties)))
        assert bandit._rng.bit_generator.state == twin.bit_generator.state

    def test_scores_shape(self):
        bandit = LinUCB(3, 4, rng=0)
        assert bandit.scores(np.ones(4)).shape == (3,)

    def test_context_dimension_checked(self):
        bandit = LinUCB(2, 3, rng=0)
        with pytest.raises(ValueError, match="features"):
            bandit.select(np.ones(5))
        with pytest.raises(ValueError, match="features"):
            bandit.update(0, np.ones(2), 1.0)

    def test_exploration_bonus_shrinks_with_data(self):
        bandit = LinUCB(1, 2, alpha=1.0, rng=0)
        ctx = np.array([1.0, 0.5])
        before = bandit.scores(ctx)[0] - bandit.point_estimate(0, ctx)
        for _ in range(50):
            bandit.update(0, ctx, 0.0)
        after = bandit.scores(ctx)[0] - bandit.point_estimate(0, ctx)
        assert after < before

    def test_cached_scores_equal_the_uncached_formula(self):
        def uncached(bandit, ctx):
            out = np.zeros(bandit.n_arms)
            for arm in range(bandit.n_arms):
                a_inv = np.linalg.inv(bandit._a[arm])
                theta = a_inv @ bandit._b[arm]
                out[arm] = float(
                    theta @ ctx + bandit.alpha * math.sqrt(ctx @ a_inv @ ctx)
                )
            return out

        rng = np.random.default_rng(4)
        bandit = LinUCB(n_arms=5, n_features=3, alpha=0.8, rng=0)
        for step in range(200):
            ctx = rng.normal(size=3)
            assert np.array_equal(bandit.scores(ctx), uncached(bandit, ctx))
            if step % 3 != 2:
                bandit.update(int(rng.integers(0, 5)), ctx, rng.normal())
            if step % 50 == 49:
                blob = pickle.dumps(bandit)
                assert b"_solved" not in blob
                bandit = pickle.loads(blob)
        assert bandit._solved == {}
        ctx = rng.normal(size=3)
        assert np.array_equal(bandit.scores(ctx), uncached(bandit, ctx))

    def test_pickles_with_per_arm_lists_load_and_score_the_same(
        self, monkeypatch
    ):
        def per_arm_state(bandit):
            """``__getstate__`` as it was when each arm had its own arrays."""
            state = {
                k: v
                for k, v in bandit.__dict__.items()
                if k not in ("_solved", "_stale")
            }
            state["_a"] = [a.copy() for a in bandit._a]
            state["_b"] = [b.copy() for b in bandit._b]
            return state

        rng = np.random.default_rng(7)
        bandit = LinUCB(n_arms=11, n_features=6, alpha=0.8, rng=0)
        for _ in range(40):
            ctx = rng.normal(size=6)
            bandit.update(bandit.select(ctx), ctx, rng.normal())
        with monkeypatch.context() as patch:
            patch.setattr(LinUCB, "__getstate__", per_arm_state)
            blob = pickle.dumps(bandit)
        old = pickle.loads(blob)
        assert isinstance(old._a, np.ndarray) and old._a.shape == (11, 6, 6)
        assert isinstance(old._b, np.ndarray) and old._b.shape == (11, 6)
        for _ in range(20):
            ctx = rng.normal(size=6)
            assert np.array_equal(old.scores(ctx), bandit.scores(ctx))
            arm = bandit.select(ctx)
            assert old.select(ctx) == arm
            bandit.update(arm, ctx, 0.5)
            old.update(arm, ctx, 0.5)
        assert pickle.dumps(old) == pickle.dumps(bandit)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            LinUCB(0, 1)
        with pytest.raises(ValueError):
            LinUCB(1, 0)
        with pytest.raises(ValueError):
            LinUCB(1, 1, alpha=-1)
