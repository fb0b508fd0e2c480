import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgrw.multiobjective import SimplexWeights, min_norm_point

from oracles import grid_min_norm_value, two_objective_closed_form


def combined_norm_sq(grads, lam):
    combo = sum(l * g for l, g in zip(lam, grads))
    return float(combo @ combo)


class TestMinNormPoint:
    def test_single_objective(self):
        assert min_norm_point([np.array([3.0, 1.0])]).lambdas.tolist() == [1.0]

    def test_orthogonal_pair_splits_evenly(self):
        lam = min_norm_point([np.array([1.0, 0.0]), np.array([0.0, 1.0])]).lambdas
        assert np.allclose(lam, [0.5, 0.5], atol=1e-9)
        norm = np.sqrt(combined_norm_sq([np.array([1.0, 0.0]), np.array([0.0, 1.0])], lam))
        assert norm == pytest.approx(np.sqrt(2) / 2)

    def test_identical_gradients_return_uniform(self):
        g = np.array([2.0, -1.0, 0.5])
        assert np.allclose(min_norm_point([g, g.copy()]).lambdas, [0.5, 0.5])

    def test_zero_gradient_takes_all_weight(self):
        lam = min_norm_point([np.array([1.0, 1.0]), np.zeros(2)]).lambdas
        assert np.allclose(lam, [0.0, 1.0])

    def test_two_zero_gradients_split(self):
        lam = min_norm_point([np.ones(2), np.zeros(2), np.zeros(2)]).lambdas
        assert np.allclose(lam, [0.0, 0.5, 0.5])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            min_norm_point([np.ones(3), np.ones(4)])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matches_two_objective_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        g1, g2 = rng.standard_normal((2, 5))
        lam = min_norm_point([g1, g2]).lambdas
        ref = two_objective_closed_form(g1, g2)
        assert np.allclose(lam, ref, atol=1e-8)

    @given(seed=st.integers(0, 10**6), m=st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_simplex_invariants(self, seed, m):
        rng = np.random.default_rng(seed)
        grads = [rng.standard_normal(6) for _ in range(m)]
        lam = min_norm_point(grads).lambdas
        assert np.all(lam >= 0)
        assert abs(lam.sum() - 1.0) < 1e-9
        # min-norm point of the hull is no longer than any vertex
        combo = np.sqrt(combined_norm_sq(grads, lam))
        assert combo <= min(np.linalg.norm(g) for g in grads) + 1e-8

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(12)
        for m in (2, 3, 4):
            for _ in range(5):
                grads = [rng.uniform(-1, 1, size=5) for _ in range(m)]
                lam = min_norm_point(grads).lambdas
                ours = combined_norm_sq(grads, lam)
                grid = grid_min_norm_value(grads, step=1e-3)
                assert ours <= grid + 1e-9
                assert abs(ours - grid) < 1e-3


class TestSimplexWeights:
    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            SimplexWeights(np.array([-0.2, 1.2]))
