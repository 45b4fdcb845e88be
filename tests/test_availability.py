import numpy as np
import pytest

from fedsim.availability import (
    RevealState,
    assign_by_datasize,
    assign_random,
    assign_regional,
    datasize_threshold,
    reveal_round,
)
from fedsim.data import BBox


class TestAssignRandom:
    def test_single_point_gets_probability_one(self):
        probs = assign_random(1, alpha_dir=0.5, rng=np.random.default_rng(0))
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(1.0)

    def test_large_concentration_approaches_all_ones(self):
        # Monte-Carlo check: Dirichlet(1e6) concentrates at the uniform vector,
        # so the mean-1 scaling puts every probability near 1.
        rng = np.random.default_rng(1)
        lows = []
        for _ in range(1000):
            probs = assign_random(4, alpha_dir=1e6, rng=rng)
            lows.append(probs.min())
        assert np.mean(1.0 - np.array(lows)) < 0.05

    def test_deterministic_under_seed(self):
        a = assign_random(50, alpha_dir=0.4, rng=np.random.default_rng(42))
        b = assign_random(50, alpha_dir=0.4, rng=np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_probabilities_in_unit_interval(self):
        probs = assign_random(200, alpha_dir=0.1, rng=np.random.default_rng(2))
        assert probs.min() >= 0.0 and probs.max() <= 1.0


class TestAssignRegional:
    def test_no_weak_areas_gives_p_high_everywhere(self):
        coords = np.column_stack([np.linspace(30, 31, 10), np.linspace(120, 121, 10)])
        probs = assign_regional(coords, [], p_low=0.2, p_high=0.9)
        assert np.all(probs == 0.9)

    def test_entirely_inside_one_area_gives_p_low(self):
        coords = np.column_stack([np.full(5, 30.5), np.full(5, 120.5)])
        area = BBox(30.0, 31.0, 120.0, 121.0)
        probs = assign_regional(coords, [area], p_low=0.2, p_high=0.9)
        assert np.all(probs == 0.2)

    def test_path_crossing_box_covering_points_4_to_7(self):
        # 10 points marching east; the box spans exactly points with index 3..6
        # (the 4th through 7th points), so 4 entries land at p_low.
        lats = np.full(10, 30.0)
        lons = 120.0 + 0.1 * np.arange(10)
        coords = np.column_stack([lats, lons])
        area = BBox(29.5, 30.5, 120.25, 120.65)
        expected_inside = (lons >= 120.25) & (lons <= 120.65)
        assert expected_inside.sum() == 4
        probs = assign_regional(coords, [area], p_low=0.2, p_high=0.9)
        assert np.array_equal(probs == 0.2, expected_inside)


class TestAssignByDatasize:
    def test_counts_straddling_threshold(self):
        probs = assign_by_datasize([100, 5000], threshold=1000, p_company=0.95, p_private=0.3)
        assert np.array_equal(probs, [0.3, 0.95])

    def test_threshold_above_all_counts(self):
        probs = assign_by_datasize([10, 20, 30], threshold=100, p_company=0.95, p_private=0.3)
        assert np.all(probs == 0.3)

    def test_percentile_threshold_selects_top_decile(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(100, 10_000, size=40).tolist()
        threshold = datasize_threshold(counts, percentile=90.0)
        probs = assign_by_datasize(counts, threshold, p_company=0.95, p_private=0.3)
        n_company = int((probs == 0.95).sum())
        assert n_company == int(np.ceil(0.1 * len(counts)))


class TestRevealRound:
    def make(self, n, slice_size, probs):
        state = RevealState(np.asarray(probs, dtype=float), slice_size)
        assert state.n_points == n
        return state

    def test_all_ones_reveal_everything(self):
        state = self.make(10, 4, np.ones(10))
        rng = np.random.default_rng(5)
        got = []
        for _ in range(4):
            got.extend(reveal_round(state, rng).tolist())
        assert got == list(range(10))
        assert np.count_nonzero(state.available) == state.cursor == 10

    def test_all_zeros_lose_everything(self):
        state = self.make(10, 4, np.zeros(10))
        rng = np.random.default_rng(6)
        for _ in range(4):
            assert reveal_round(state, rng).size == 0
        assert state.cursor == 10 and np.count_nonzero(state.available) == 0

    def test_empirical_rate_within_three_sigma(self):
        n = 10_000
        state = self.make(n, 500, np.full(n, 0.7))
        rng = np.random.default_rng(7)
        while state.cursor < n:
            reveal_round(state, rng)
        rate = np.count_nonzero(state.available) / n
        sigma = np.sqrt(0.7 * 0.3 / n)
        assert abs(rate - 0.7) < 3 * sigma

    def test_monotone_and_conserved_over_trace(self):
        n = 240 * 8
        state = self.make(n, 8, np.random.default_rng(8).uniform(size=n))
        rng = np.random.default_rng(9)
        prev_avail, prev_cursor = state.available.copy(), state.cursor
        for _ in range(240):
            reveal_round(state, rng)
            # the available set only grows, and the processed prefix never
            # changes, so a lost point stays lost
            assert np.all(state.available[prev_avail])
            assert np.array_equal(state.available[:prev_cursor], prev_avail[:prev_cursor])
            # conservation: nothing at or past the cursor is available
            assert not np.any(state.available[state.cursor :])
            prev_avail, prev_cursor = state.available.copy(), state.cursor
        assert state.cursor == n

    def test_past_end_is_noop(self):
        state = self.make(5, 10, np.ones(5))
        rng = np.random.default_rng(10)
        reveal_round(state, rng)
        assert state.cursor == 5
        assert reveal_round(state, rng).size == 0

    def test_identical_seed_gives_identical_trace(self):
        n = 100
        plan_probs = np.random.default_rng(11).uniform(size=n)
        traces = []
        for _ in range(2):
            state = self.make(n, 7, plan_probs)
            rng = np.random.default_rng(12)
            trace = []
            while state.cursor < n:
                trace.append(reveal_round(state, rng).tolist())
            traces.append(trace)
        assert traces[0] == traces[1]
