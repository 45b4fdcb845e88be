import numpy as np
import pytest

import fedsim.connectivity
from fedsim.connectivity import LinkState, build_neighbor_graph, participation, step_connectivity

from oracles import brute_force_neighbors, markov_online_fraction


def make_states(n):
    return {cid: LinkState() for cid in range(n)}


def make_rngs(n, seed):
    seqs = np.random.SeedSequence(seed).spawn(n)
    return {cid: np.random.default_rng(seqs[cid]) for cid in range(n)}


class TestStepConnectivity:
    def test_no_transitions_keeps_everyone_online(self):
        states = make_states(5)
        rngs = make_rngs(5, seed=0)
        for _ in range(10):
            online, recovered, offline = step_connectivity(states, 0.0, 0.0, rngs)
            assert online == list(range(5)) and recovered == [] and offline == []

    def test_certain_dropout_without_recovery(self):
        states = make_states(4)
        rngs = make_rngs(4, seed=1)
        online, _, offline = step_connectivity(states, 1.0, 0.0, rngs)
        assert online == [] and offline == list(range(4))
        for _ in range(5):
            online, recovered, offline = step_connectivity(states, 1.0, 0.0, rngs)
            assert online == [] and recovered == [] and offline == list(range(4))

    def test_partition_and_recovered_subset(self):
        states = make_states(30)
        rngs = make_rngs(30, seed=2)
        prev_offline = set()
        for _ in range(50):
            online, recovered, offline = step_connectivity(states, 0.3, 0.2, rngs)
            assert sorted(online + offline) == list(range(30))
            assert set(recovered) <= set(online)
            assert set(recovered) <= prev_offline
            prev_offline = set(offline)

    def test_stationary_online_fraction(self):
        # Closed form for the two-state chain: 0.1 / (0.1 + 0.2) = 1/3.
        p_offline, p_recover = 0.2, 0.1
        expected = markov_online_fraction(p_offline, p_recover)
        assert expected == pytest.approx(1.0 / 3.0)
        n, rounds, burn_in = 100, 2100, 100
        states = make_states(n)
        rngs = make_rngs(n, seed=3)
        online_count = 0
        for t in range(rounds):
            online, _, _ = step_connectivity(states, p_offline, p_recover, rngs)
            if t >= burn_in:
                online_count += len(online)
        fraction = online_count / (n * (rounds - burn_in))
        assert abs(fraction - expected) < 0.01


class TestParticipation:
    def test_zero_uploads(self):
        assert participation(0, 10) == 0.0

    def test_full_participation(self):
        assert participation(10, 10) == 1.0

    def test_half(self):
        assert participation(5, 10) == 0.5

    def test_nonincreasing_when_round_advances_without_upload(self):
        for n in range(0, 8):
            for t in range(max(n, 1), 12):
                assert participation(n, t + 1) <= participation(n, t)


class TestNeighborGraph:
    def test_two_clients_point_at_each_other(self):
        graph = build_neighbor_graph(
            {0: np.array([0.0, 0.0]), 1: np.array([1.0, 0.0])}, chi=3
        )
        assert graph == {0: [1], 1: [0]}

    def test_line_positions_nearest_two(self):
        positions = {
            0: np.array([0.0, 0.0]),
            1: np.array([1.0, 0.0]),
            2: np.array([2.0, 0.0]),
            3: np.array([10.0, 0.0]),
        }
        graph = build_neighbor_graph(positions, chi=2)
        assert graph[2] == [1, 0]

    def test_chi_at_least_n_minus_one_gives_complete_graph(self):
        positions = {i: np.array([float(i), 0.0]) for i in range(5)}
        graph = build_neighbor_graph(positions, chi=10)
        for cid, neighbors in graph.items():
            assert len(neighbors) == 4
            assert cid not in neighbors

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(5)
        positions = {i: rng.uniform(size=2) for i in range(12)}
        graph = build_neighbor_graph(positions, chi=6)
        for cid, neighbors in graph.items():
            dists = [np.linalg.norm(positions[nid] - positions[cid]) for nid in neighbors]
            assert dists == sorted(dists)

    def test_tie_broken_by_ascending_id(self):
        positions = {
            0: np.array([0.0, 0.0]),
            1: np.array([1.0, 0.0]),
            2: np.array([-1.0, 0.0]),
            3: np.array([0.0, 5.0]),
        }
        graph = build_neighbor_graph(positions, chi=1)
        assert graph[0] == [1]


def random_fleets():
    """Seeded fleets of 2 to 40 clients: spread, quantised (many equal
    distances) and with duplicate positions, at chi = 1, 2, 3, N - 1, N and
    N + 4."""
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 9, 17, 40):
        spread = rng.normal(size=(n, 2))
        quantised = np.round(rng.uniform(-2, 2, size=(n, 2)))
        duplicated = spread[rng.integers(0, max(1, n // 2), size=n)]
        for pts in (spread, quantised, duplicated):
            positions = {3 * i + 1: pts[i] for i in range(n)}
            for chi in sorted({1, 2, 3, n - 1, n, n + 4}):
                yield positions, chi


class TestNeighborGraphOracle:
    def test_matches_brute_force_on_random_fleets(self):
        for positions, chi in random_fleets():
            assert build_neighbor_graph(positions, chi) == brute_force_neighbors(positions, chi)

    def test_row_blocks_match_brute_force(self, monkeypatch):
        # blocks of one row, and of a few rows with a short last block
        for entries in (1, 80, 100):
            monkeypatch.setattr(fedsim.connectivity, "NEIGHBOR_BLOCK_ENTRIES", entries)
            for positions, chi in random_fleets():
                assert build_neighbor_graph(positions, chi) == brute_force_neighbors(positions, chi)
