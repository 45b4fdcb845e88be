import numpy as np
import pytest

from fedsim.ranking import (
    BETA0,
    GAMMA,
    CompensatorState,
    RankEntry,
    build_rank_entries,
    combined_weight,
    decay_compensators,
    rank_positions,
    sample_proportional,
    select_top_k,
    solve_quadratic,
    straggler_boost,
    weight_early,
)

from oracles import brute_force_top_k


def entry(cid, weight=0.0, n_updates=0, divergence=0.0, part=0.0):
    return RankEntry(
        client_id=cid,
        divergence=divergence,
        participation=part,
        n_updates=n_updates,
        weight=weight,
    )


class TestSolveQuadratic:
    def test_hand_computed_coefficients(self):
        assert solve_quadratic(2.0, 10) == pytest.approx((0.01, -0.2, 2.0))

    def test_alpha_one_degenerates_to_constant_one(self):
        b0, b1, b2 = solve_quadratic(1.0, 7)
        assert (b0, b1, b2) == (0.0, 0.0, 1.0)
        for pos in range(1, 8):
            assert weight_early(pos, b0, b1, b2) == 1.0

    def test_anchor_identities_hold_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            alpha = rng.uniform(1.0, 5.0)
            m_t = int(rng.integers(1, 201))
            b0, b1, b2 = solve_quadratic(alpha, m_t)
            assert abs(weight_early(0, b0, b1, b2) - alpha) <= 1e-12
            assert abs(weight_early(m_t, b0, b1, b2) - 1.0) <= 1e-12
            assert abs(weight_early(2 * m_t, b0, b1, b2) - alpha) <= 1e-12


class TestWeightEarly:
    def test_vertex_value_is_one(self):
        b = solve_quadratic(3.0, 12)
        assert weight_early(12, *b) == pytest.approx(1.0)

    def test_hand_computed_position_one(self):
        b = solve_quadratic(2.0, 10)
        assert weight_early(1, *b) == pytest.approx(1.81)

    def test_monotone_nonincreasing_when_alpha_above_one(self):
        b = solve_quadratic(2.5, 20)
        values = [weight_early(p, *b) for p in range(1, 21)]
        assert all(a >= b_ for a, b_ in zip(values, values[1:]))

    def test_phase_argmax_positions(self):
        # alpha > 1: best weight at position 1 (highest divergence);
        # alpha <= 1: best weight at position m_t (lowest divergence).
        m_t = 15
        b = solve_quadratic(2.0, m_t)
        early = [weight_early(p, *b) for p in range(1, m_t + 1)]
        assert int(np.argmax(early)) + 1 == 1
        late = [combined_weight(p, m_t, 1.0, m_t, 1.0) for p in range(1, m_t + 1)]
        assert int(np.argmax(late)) + 1 == m_t


class TestRankPositions:
    def test_simple_descending_sort(self):
        positions = rank_positions([(0, 0.5), (1, 0.9), (2, 0.1)])
        assert positions == {1: 1, 0: 2, 2: 3}

    def test_all_equal_follow_id_order(self):
        positions = rank_positions([(3, 1.0), (1, 1.0), (2, 1.0)])
        assert positions == {1: 1, 2: 2, 3: 3}

    def test_single_client(self):
        assert rank_positions([(7, 0.0)]) == {7: 1}


class TestCombinedWeight:
    def test_early_phase_substitution(self):
        # alpha=2, m_t=10, both positions 10, beta=1 -> 1 * 10/10 * 1 = 1
        assert combined_weight(10, 10, 2.0, 10, 1.0) == pytest.approx(1.0)

    def test_late_phase_substitution(self):
        # alpha=0.5, positions 10 and 10, m_t=10 -> 100/100 = 1
        assert combined_weight(10, 10, 0.5, 10, 1.0) == pytest.approx(1.0)

    # with the participation position at m_t, the late phase is the linear
    # ramp P / m_t on its own
    def test_late_top_position_gives_one(self):
        assert combined_weight(10, 10, 1.0, 10, 1.0) == 1.0

    def test_late_bottom_position(self):
        assert combined_weight(1, 10, 0.5, 10, 1.0) == pytest.approx(0.1)

    def test_late_strictly_increasing(self):
        values = [combined_weight(p, 30, 0.5, 30, 1.0) for p in range(1, 31)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_linear_in_beta(self):
        w1 = combined_weight(3, 5, 2.0, 10, 1.0)
        w2 = combined_weight(3, 5, 2.0, 10, 2.0)
        assert w2 == pytest.approx(2.0 * w1)


class TestStragglerBoost:
    def test_all_equal_updates_no_boost(self):
        entries = [entry(0, weight=1.0, n_updates=4), entry(1, weight=2.0, n_updates=4)]
        straggler_boost(entries)
        assert [e.weight for e in entries] == [1.0, 2.0]

    def test_below_mean_boosted(self):
        entries = [entry(0, weight=1.0, n_updates=0), entry(1, weight=1.0, n_updates=10)]
        straggler_boost(entries)
        assert entries[0].weight == GAMMA
        assert entries[1].weight == 1.0


class TestDecayCompensators:
    def make_comp(self, alpha=2.0, delta_alpha=0.01):
        return CompensatorState(alpha=alpha, delta_alpha=delta_alpha)

    def test_beta_decay_arithmetic(self):
        comp = self.make_comp()
        decay_compensators(comp, [0])
        assert comp.beta[0] == pytest.approx(1.45)

    def test_beta_floor_at_one(self):
        # BETA0 = 1.5 falls by 0.05 a ranked round and meets the floor at the tenth
        comp = self.make_comp()
        for _ in range(9):
            decay_compensators(comp, [0])
        assert comp.beta[0] > 1.0
        decay_compensators(comp, [0])
        assert comp.beta[0] == 1.0
        decay_compensators(comp, [0])
        assert comp.beta[0] == 1.0

    def test_alpha_decays_every_round_even_without_ranked_clients(self):
        comp = self.make_comp(alpha=2.0, delta_alpha=0.25)
        decay_compensators(comp, [])
        decay_compensators(comp, [])
        assert comp.alpha == pytest.approx(1.5)

    def test_unranked_client_keeps_beta(self):
        comp = self.make_comp()
        decay_compensators(comp, [1])
        assert comp.beta_for(0) == BETA0


class TestSelectTopK:
    def test_k_at_least_m_selects_everyone(self):
        entries = [entry(0, 0.3), entry(1, 0.2), entry(2, 0.9)]
        assert sorted(select_top_k(entries, 5)) == [0, 1, 2]

    def test_hand_case(self):
        entries = [entry(0, 3.0), entry(1, 1.0), entry(2, 2.0)]
        assert select_top_k(entries, 2) == [0, 2]

    def test_matches_brute_force_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = int(rng.integers(1, 30))
            # quantized weights force frequent ties
            weights = np.round(rng.uniform(0.0, 1.0, size=m), 1)
            entries = [entry(cid, float(w)) for cid, w in enumerate(weights)]
            k = int(rng.integers(0, m + 2))
            expected = brute_force_top_k({e.client_id: e.weight for e in entries}, min(k, m))
            assert select_top_k(entries, k) == expected

    def test_positive_scaling_leaves_selection_unchanged(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            weights = rng.uniform(size=12)
            entries1 = [entry(cid, float(w)) for cid, w in enumerate(weights)]
            entries2 = [entry(cid, float(w) * 7.3) for cid, w in enumerate(weights)]
            assert select_top_k(entries1, 4) == select_top_k(entries2, 4)


class TestBuildRankEntries:
    def test_full_round_of_weights(self):
        comp = CompensatorState(alpha=2.0, delta_alpha=0.0)
        participants = [
            entry(0, divergence=0.9, part=0.1, n_updates=1),
            entry(1, divergence=0.5, part=0.5, n_updates=5),
            entry(2, divergence=0.1, part=0.9, n_updates=9),
        ]
        build_rank_entries(participants, comp)
        assert [e.pos_divergence for e in participants] == [1, 2, 3]
        assert [e.pos_participation for e in participants] == [3, 2, 1]
        # client 0: quadratic(1) * 3/3 * BETA0, then the straggler boost GAMMA;
        # client 2 updated above the mean and keeps its weight
        b = solve_quadratic(2.0, 3)
        expected0 = weight_early(1, *b) * 3 / 3 * 1.5 * 1.2
        assert participants[0].weight == pytest.approx(expected0)
        assert participants[2].weight == combined_weight(3, 1, 2.0, 3, 1.5)

    def test_positions_are_one_based_and_bounded(self):
        comp = CompensatorState(alpha=1.5, delta_alpha=0.0)
        rng = np.random.default_rng(3)
        participants = [
            entry(cid, divergence=float(rng.uniform()), part=float(rng.uniform()))
            for cid in range(17)
        ]
        build_rank_entries(participants, comp)
        for e in participants:
            assert 1 <= e.pos_divergence <= 17
            assert 1 <= e.pos_participation <= 17
            assert e.weight > 0


class TestSampleProportional:
    def test_samples_requested_count_without_replacement(self):
        entries = [entry(cid, weight=1.0 + cid) for cid in range(10)]
        picked = sample_proportional(entries, 4, np.random.default_rng(4))
        assert len(picked) == len(set(picked)) == 4

    def test_heavy_weight_dominates(self):
        entries = [entry(0, weight=1e6), entry(1, weight=1e-6), entry(2, weight=1e-6)]
        hits = 0
        rng = np.random.default_rng(5)
        for _ in range(200):
            if 0 in sample_proportional(entries, 1, rng):
                hits += 1
        assert hits == 200

    def test_enough_positive_weights_draw_as_numpy_does(self):
        weights = [3.0, 0.25, 1.0, 0.5, 2.0]
        entries = [entry(cid, weight=w) for cid, w in enumerate(weights)]
        p = np.array(weights) / sum(weights)
        expected = np.random.default_rng(6).choice(np.arange(5), size=3, replace=False, p=p)
        assert sample_proportional(entries, 3, np.random.default_rng(6)) == sorted(expected)
