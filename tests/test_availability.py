import numpy as np
import pytest

from fedsim.availability import (
    P_COMPANY,
    P_HIGH,
    P_LOW,
    P_PRIVATE,
    RevealState,
    assign_by_datasize,
    assign_random,
    assign_regional,
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
        probs = assign_regional(coords, [])
        assert np.all(probs == P_HIGH)

    def test_entirely_inside_one_area_gives_p_low(self):
        coords = np.column_stack([np.full(5, 30.5), np.full(5, 120.5)])
        area = BBox(30.0, 31.0, 120.0, 121.0)
        probs = assign_regional(coords, [area])
        assert np.all(probs == P_LOW)

    def test_path_crossing_box_covering_points_4_to_7(self):
        # 10 points marching east; the box spans exactly points with index 3..6
        # (the 4th through 7th points), so 4 entries land at P_LOW.
        lats = np.full(10, 30.0)
        lons = 120.0 + 0.1 * np.arange(10)
        coords = np.column_stack([lats, lons])
        area = BBox(29.5, 30.5, 120.25, 120.65)
        expected_inside = (lons >= 120.25) & (lons <= 120.65)
        assert expected_inside.sum() == 4
        probs = assign_regional(coords, [area])
        assert np.array_equal(probs == P_LOW, expected_inside)


class TestAssignByDatasize:
    def test_counts_straddling_threshold(self):
        probs = assign_by_datasize([100, 5000])
        assert np.array_equal(probs, [P_PRIVATE, P_COMPANY])

    def test_the_largest_client_and_equal_counts_are_company_devices(self):
        # the threshold is always one of the counts, so it never exceeds them all
        rng = np.random.default_rng(5)
        for n in range(1, 30):
            counts = rng.integers(1, 50, size=n).tolist()
            probs = assign_by_datasize(counts)
            assert probs[int(np.argmax(counts))] == P_COMPANY
            assert np.all(assign_by_datasize([counts[0]] * n) == P_COMPANY)

    def test_percentile_threshold_selects_top_decile(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(100, 10_000, size=40).tolist()
        probs = assign_by_datasize(counts)
        n_company = int((probs == P_COMPANY).sum())
        assert n_company == int(np.ceil(0.1 * len(counts)))


class TestRevealRound:
    def make(self, probs, slice_size, seed):
        # fates drawn once, as prepare_clients draws them
        probs = np.asarray(probs, dtype=float)
        return RevealState(np.random.default_rng(seed).random(probs.size) < probs, slice_size)

    def test_all_ones_reveal_everything(self):
        state = self.make(np.ones(10), 4, 5)
        got = []
        for _ in range(4):
            got.extend(reveal_round(state).tolist())
        assert got == list(range(10))
        assert state.cursor == 10

    def test_all_zeros_lose_everything(self):
        state = self.make(np.zeros(10), 4, 6)
        for _ in range(4):
            assert reveal_round(state).size == 0
        assert state.cursor == 10

    def test_empirical_rate_within_three_sigma(self):
        n = 10_000
        state = self.make(np.full(n, 0.7), 500, 7)
        joined = 0
        while state.cursor < n:
            joined += reveal_round(state).size
        rate = joined / n
        sigma = np.sqrt(0.7 * 0.3 / n)
        assert abs(rate - 0.7) < 3 * sigma

    def test_monotone_and_conserved_over_trace(self):
        n = 240 * 8
        state = self.make(np.random.default_rng(8).uniform(size=n), 8, 9)
        revealed = np.zeros(n, dtype=bool)
        for _ in range(240):
            prev_cursor = state.cursor
            new = reveal_round(state)
            # each round reveals only points of its own slice, so the
            # revealed prefix never changes, a lost point stays lost, and
            # nothing at or past the cursor is revealed
            assert np.all((new >= prev_cursor) & (new < state.cursor))
            revealed[new] = True
        assert state.cursor == n
        np.testing.assert_array_equal(revealed, state.joins)

    def test_past_end_is_noop(self):
        state = self.make(np.ones(5), 10, 10)
        reveal_round(state)
        assert state.cursor == 5
        assert reveal_round(state).size == 0
        assert state.cursor == 5

    def test_identical_seed_gives_identical_trace(self):
        n = 100
        plan_probs = np.random.default_rng(11).uniform(size=n)
        traces = []
        for _ in range(2):
            state = self.make(plan_probs, 7, 12)
            trace = []
            while state.cursor < n:
                trace.append(reveal_round(state).tolist())
            traces.append(trace)
        assert traces[0] == traces[1]
