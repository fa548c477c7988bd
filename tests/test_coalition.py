import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest

from ssvkit import coalition
from ssvkit.coalition import (
    StochasticGame,
    enumerate_coalitions,
    exact_ssv,
    sample_coalitions,
    shapley_kernel_weight,
    shapley_of_variance_game,
)
from ssvkit.errors import (
    BoundaryCoalition,
    CountOutOfRange,
    DimensionTooLarge,
    SingularSystem,
)


def random_game(rng, design):
    ell = design.n_coalitions
    M = rng.normal(size=(ell, ell))
    return StochasticGame(
        design=design,
        payoff_mean=rng.normal(size=ell),
        payoff_cov=M @ M.T / ell,
    )


def brute_force_ssv(design, payoff_mean, payoff_cov):
    """Literal double-sum oracle over marginal contributions.

    Independent of the vectorized coefficient-matrix path: loops over all
    subsets explicitly for each player.
    """
    d = design.d
    pos = {int(m): j for j, m in enumerate(design.masks)}
    mean = np.zeros(d)
    cov = np.zeros((d, d))
    weights = []
    for i in range(d):
        terms = []  # (coefficient, coalition-with-i, coalition-without-i)
        for mask in range(1 << d):
            if mask >> i & 1:
                continue
            s = bin(mask).count("1")
            c = 1.0 / (d * comb(d - 1, s))
            terms.append((c, pos[mask | (1 << i)], pos[mask]))
        weights.append(terms)
        mean[i] = sum(c * (payoff_mean[a] - payoff_mean[b]) for c, a, b in terms)
    for i in range(d):
        for m in range(d):
            acc = 0.0
            for c1, a1, b1 in weights[i]:
                for c2, a2, b2 in weights[m]:
                    acc += c1 * c2 * (
                        payoff_cov[a1, a2] - payoff_cov[a1, b2]
                        - payoff_cov[b1, a2] + payoff_cov[b1, b2]
                    )
            cov[i, m] = acc
    return mean, cov


class TestShapleyKernelWeight:
    def test_hand_values_d4(self):
        # (d-1) / (C(d,s) * s * (d-s)) for d=4
        assert shapley_kernel_weight(4, 1) == pytest.approx(3 / 12)
        assert shapley_kernel_weight(4, 2) == pytest.approx(3 / 24)
        assert shapley_kernel_weight(4, 3) == pytest.approx(3 / 12)

    def test_symmetric_in_size(self):
        for d in range(2, 9):
            for s in range(1, d):
                assert shapley_kernel_weight(d, s) == pytest.approx(
                    shapley_kernel_weight(d, d - s)
                )

    def test_boundary_raises(self):
        for s in (0, 5):
            with pytest.raises(BoundaryCoalition):
                shapley_kernel_weight(5, s)


class TestDesignConstruction:
    def test_enumeration_order_and_count(self):
        design = enumerate_coalitions(3)
        assert design.n_coalitions == 8
        assert design.masks[0] == 0
        assert design.masks[-1] == 0b111
        sizes = [int(m).bit_count() for m in design.masks]
        assert sizes == sorted(sizes)
        # ties in size break by mask value
        masks_by_size_one = [m for m in design.masks if int(m).bit_count() == 1]
        assert masks_by_size_one == sorted(masks_by_size_one)

    def test_boundary_weights_are_zero(self):
        design = enumerate_coalitions(4)
        assert design.weights[0] == 0.0
        assert design.weights[-1] == 0.0
        assert np.all(design.weights[1:-1] > 0)

    def test_enumeration_cap(self):
        with pytest.raises(DimensionTooLarge):
            enumerate_coalitions(21)

    def test_sampling_always_includes_boundaries(self):
        design = sample_coalitions(6, 10, seed=3)
        assert design.masks[0] == 0
        assert design.masks[-1] == (1 << 6) - 1
        assert design.n_coalitions == 10

    def test_sampling_is_seed_deterministic(self):
        a = sample_coalitions(8, 20, seed=7)
        b = sample_coalitions(8, 20, seed=7)
        assert a.digest() == b.digest()
        np.testing.assert_array_equal(a.A, b.A)

    def test_sampling_count_bounds(self):
        with pytest.raises(CountOutOfRange):
            sample_coalitions(4, 1)
        with pytest.raises(CountOutOfRange):
            sample_coalitions(3, 9)

    def test_sampling_width_cap(self):
        with pytest.raises(DimensionTooLarge, match=r"d <= 30, got d=31"):
            sample_coalitions(31, 50)
        assert sample_coalitions(30, 50).masks[-1] == (1 << 30) - 1

    def test_large_d_duplicates_merge_by_summing_weights(self):
        # with replacement beyond the enumeration cap; merged rows must keep
        # total weight equal to draw count times the per-size weight
        design = sample_coalitions(25, 400, seed=0)
        assert design.masks[0] == 0
        assert design.masks[-1] == (1 << 25) - 1
        total = design.weights.sum()
        expected = sum(
            shapley_kernel_weight(25, bin(m).count("1"))
            for m in np.random.default_rng(0).integers(
                1, (1 << 25) - 1, size=398, dtype=np.int64
            )
        )
        assert total == pytest.approx(expected)

    def test_rows_of_z_are_the_mask_bits(self):
        for design in (enumerate_coalitions(5), sample_coalitions(25, 400, seed=0)):
            for row, m in zip(design.Z, design.masks):
                assert row.tolist() == [float(m >> i & 1) for i in range(design.d)]

    def test_memory_is_linear_in_the_coalition_count(self):
        # the constraint elimination must not form an ell x ell (or
        # (ell - 2) x ell) matrix: at ell = 4,096 one such array is 134 MB
        for build in (lambda: sample_coalitions(20, 3000), lambda: enumerate_coalitions(12)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6

    def test_digest_distinguishes_designs(self):
        assert (
            sample_coalitions(5, 12, seed=1).digest()
            != sample_coalitions(5, 12, seed=2).digest()
        )


class TestDigest:
    def test_length_does_not_grow_with_the_design(self):
        designs = [enumerate_coalitions(d) for d in range(3, 17)] + [
            sample_coalitions(8, 50), sample_coalitions(25, 400)]
        assert {len(design.digest()) for design in designs} == {64}

    def test_equal_masks_give_equal_digests_and_others_differ(self):
        assert enumerate_coalitions(6).digest() == enumerate_coalitions(6).digest()
        a = coalition._design_from_masks(4, np.array([0, 1, 2, 4, 8, 3, 15]))
        b = coalition._design_from_masks(4, np.array([0, 1, 2, 4, 8, 5, 15]))
        assert a.digest() != b.digest()
        assert enumerate_coalitions(4).digest() != sample_coalitions(4, 8, seed=0).digest()

    def test_value_is_sha256_of_d_and_little_endian_int64_masks(self):
        design = sample_coalitions(10, 40, seed=2)
        data = b"".join(int(v).to_bytes(8, "little", signed=True)
                        for v in [10, *design.masks.tolist()])
        assert design.digest() == hashlib.sha256(data).hexdigest()


class TestProjection:
    def test_textbook_game_d2(self):
        # payoffs over ({}, {1}, {2}, {1,2}) = (0, 1, 0, 2) split as (1.5, 0.5)
        design = enumerate_coalitions(2)
        v = np.array([0.0, 1.0, 0.0, 2.0])
        np.testing.assert_allclose(design.A @ v, [1.5, 0.5], atol=1e-10)

    def test_d1_projection(self):
        design = enumerate_coalitions(1)
        np.testing.assert_allclose(design.A, [[-1.0, 1.0]], atol=1e-12)

    def test_efficiency_rows_sum_to_delta(self, rng):
        designs = [enumerate_coalitions(d) for d in (1, 2, 3, 5, 10, 12)] + [
            sample_coalitions(2, 2), sample_coalitions(20, 3000), sample_coalitions(25, 400)]
        for design in designs:
            col = design.A.sum(axis=0)
            expected = np.zeros(design.n_coalitions)
            expected[0], expected[-1] = -1.0, 1.0
            np.testing.assert_allclose(col, expected, rtol=0, atol=1e-14)

    def test_empty_constraint_is_interpolated(self):
        # shifting all payoffs by a constant leaves attributions unchanged
        design = enumerate_coalitions(3)
        v = np.arange(8.0)
        np.testing.assert_allclose(
            design.A @ v, design.A @ (v + 10.0), atol=1e-10
        )

    def test_minimal_design_equal_split(self):
        # only the two boundary coalitions: ridge limit splits delta equally
        design = sample_coalitions(2, 2)
        np.testing.assert_allclose(design.A, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-12)

    @pytest.mark.parametrize("d,count,seed", [(6, 5, 0), (30, 12, 1)])
    def test_under_determined_draw_raises(self, d, count, seed):
        # (6, 5, 0): no interior row holds feature 3, so its value is free
        with pytest.raises(SingularSystem, match=f"< d = {d}"):
            sample_coalitions(d, count, seed)

    @pytest.mark.parametrize("d,count,seed", [(2, 3, 0), (6, 12, 0), (10, 32, 4)])
    def test_matches_the_minimum_norm_constrained_solution(self, d, count, seed):
        # (2, 3, 0) has a singular Z_i^T W_i Z_i but is determined with the efficiency row
        design = sample_coalitions(d, count, seed)
        Zi, w, ell = design.Z[1:-1], design.weights[1:-1], design.n_coalitions
        kkt = np.block([[Zi.T * w @ Zi, np.ones((d, 1))], [np.ones((1, d)), 0.0]])
        rhs = np.zeros((d + 1, ell))        # the KKT right-hand side as a map of v
        rhs[:d, 1:-1] = Zi.T * w
        rhs[:d, 0] = -(Zi.T * w).sum(axis=1)
        rhs[d, 0], rhs[d, -1] = -1.0, 1.0
        A = (np.linalg.pinv(kkt) @ rhs)[:d]
        np.testing.assert_allclose(design.A, A, rtol=0, atol=1e-10 * np.abs(A).max())

    def test_full_enumeration_matches_direct_formula(self, rng):
        # on a full design the WLS projection IS the Shapley operator
        for d in (2, 3, 4, 6, 9, 10, 12):
            design = enumerate_coalitions(d)
            C = coalition._marginal_coefficients(design)
            np.testing.assert_allclose(design.A, C, atol=1e-9)


class TestExactSsvOracle:
    def test_matches_literal_double_sum(self, rng):
        for d in (2, 3, 4):
            design = enumerate_coalitions(d)
            game = random_game(rng, design)
            mean, cov = exact_ssv(game)
            mean_o, cov_o = brute_force_ssv(design, game.payoff_mean, game.payoff_cov)
            np.testing.assert_allclose(mean, mean_o, atol=1e-10)
            np.testing.assert_allclose(cov, cov_o, atol=1e-10)

    def test_efficiency_of_oracle(self, rng):
        design = enumerate_coalitions(5)
        game = random_game(rng, design)
        mean, cov = exact_ssv(game)
        delta_mean = game.payoff_mean[-1] - game.payoff_mean[0]
        assert mean.sum() == pytest.approx(delta_mean, abs=1e-10)
        delta_var = (
            game.payoff_cov[-1, -1] - 2 * game.payoff_cov[-1, 0] + game.payoff_cov[0, 0]
        )
        assert np.ones(5) @ cov @ np.ones(5) == pytest.approx(delta_var, abs=1e-8)

    def test_linearity(self, rng):
        design = enumerate_coalitions(4)
        g1, g2 = random_game(rng, design), random_game(rng, design)
        combo = StochasticGame(
            design=design,
            payoff_mean=2.0 * g1.payoff_mean + 3.0 * g2.payoff_mean,
            payoff_cov=np.zeros_like(g1.payoff_cov),
        )
        m1, _ = exact_ssv(g1)
        m2, _ = exact_ssv(g2)
        mc, _ = exact_ssv(combo)
        np.testing.assert_allclose(mc, 2 * m1 + 3 * m2, atol=1e-10)

    def test_symmetric_players_get_equal_shares(self):
        # nu(S) = |S| is symmetric in all players
        design = enumerate_coalitions(4)
        v = np.array([int(m).bit_count() for m in design.masks], dtype=float)
        game = StochasticGame(
            design=design, payoff_mean=v, payoff_cov=np.zeros((16, 16))
        )
        mean, _ = exact_ssv(game)
        np.testing.assert_allclose(mean, np.ones(4), atol=1e-12)

    def test_oracle_requires_full_enumeration(self, rng):
        design = sample_coalitions(5, 10, seed=0)
        with pytest.raises(ValueError):
            exact_ssv(random_game(rng, design))

    def test_oracle_dimension_cap(self, rng):
        design = enumerate_coalitions(13)
        game = StochasticGame(
            design=design,
            payoff_mean=np.zeros(design.n_coalitions),
            payoff_cov=np.zeros((design.n_coalitions,) * 2),
        )
        with pytest.raises(DimensionTooLarge):
            exact_ssv(game)


class TestVarianceGameSeparation:
    def test_stored_d2_regression_game(self):
        # independent payoffs with Var nu({1}) = 1, Var nu({2}) = 1,
        # Var nu({1,2}) = 2 and Cov(nu({1}), nu({1,2})) = 1: the variance of
        # the first attribution is 1.5 while the Shapley value of the
        # variance game is 1.0
        design = enumerate_coalitions(2)
        cov = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 2.0],
        ])
        game = StochasticGame(
            design=design, payoff_mean=np.array([0.0, 1.0, 0.0, 2.0]), payoff_cov=cov
        )
        mean, ssv_cov = exact_ssv(game)
        var_shap = shapley_of_variance_game(game)
        np.testing.assert_allclose(mean, [1.5, 0.5], atol=1e-12)
        assert ssv_cov[0, 0] == pytest.approx(1.5, abs=1e-12)
        np.testing.assert_allclose(var_shap, [1.0, 1.0], atol=1e-12)
        assert np.max(np.abs(np.diag(ssv_cov) - var_shap)) > 0.1
