import numpy as np
import pytest

import fedsim.connectivity
from fedsim.connectivity import build_neighbor_graph, online_chains, step_connectivity

from oracles import brute_force_neighbors, markov_online_fraction


def make_chains(n, steps, p_offline, p_recover, seed):
    """The chains of n clients over 1 + steps rounds, each client's draws
    from its own stream, as prepare_clients draws them."""
    seqs = np.random.SeedSequence(seed).spawn(n)
    draws = np.array([np.random.default_rng(ss).random(steps) for ss in seqs])
    return online_chains(draws >= p_offline, draws < p_recover)


class TestStepConnectivity:
    def test_no_transitions_keeps_everyone_online(self):
        chains = make_chains(5, 10, 0.0, 0.0, seed=0)
        for t in range(2, 12):
            online, recovered, offline = step_connectivity(chains, t)
            assert online == list(range(5)) and recovered == [] and offline == []

    def test_certain_dropout_without_recovery(self):
        chains = make_chains(4, 6, 1.0, 0.0, seed=1)
        online, _, offline = step_connectivity(chains, 2)
        assert online == [] and offline == list(range(4))
        for t in range(3, 8):
            online, recovered, offline = step_connectivity(chains, t)
            assert online == [] and recovered == [] and offline == list(range(4))

    def test_partition_and_recovered_subset(self):
        chains = make_chains(30, 50, 0.3, 0.2, seed=2)
        prev_offline = set()
        for t in range(2, 52):
            online, recovered, offline = step_connectivity(chains, t)
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
        chains = make_chains(n, rounds, p_offline, p_recover, seed=3)
        online_count = 0
        for t in range(2, rounds + 2):
            online, _, _ = step_connectivity(chains, t)
            if t - 2 >= burn_in:
                online_count += len(online)
        fraction = online_count / (n * (rounds - burn_in))
        assert abs(fraction - expected) < 0.01


class TestNeighborGraph:
    def test_two_clients_point_at_each_other(self):
        graph = build_neighbor_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), chi=3)
        assert graph.dtype == np.intp
        assert graph.tolist() == [[1], [0]]

    def test_line_positions_nearest_two(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
        graph = build_neighbor_graph(positions, chi=2)
        assert graph[2].tolist() == [1, 0]

    def test_chi_at_least_n_minus_one_gives_complete_graph(self):
        positions = np.array([[float(i), 0.0] for i in range(5)])
        graph = build_neighbor_graph(positions, chi=10)
        assert graph.shape == (5, 4)
        for cid, neighbors in enumerate(graph.tolist()):
            assert cid not in neighbors

    def test_distances_sorted_ascending(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(size=(12, 2))
        graph = build_neighbor_graph(positions, chi=6)
        for cid, neighbors in enumerate(graph):
            dists = [np.linalg.norm(positions[nid] - positions[cid]) for nid in neighbors]
            assert dists == sorted(dists)

    def test_tie_broken_by_ascending_id(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
        graph = build_neighbor_graph(positions, chi=1)
        assert graph[0].tolist() == [1]


def random_fleets():
    """Seeded (n, 2) fleets of 2 to 160 clients (fleet_churn's fleet size):
    spread, quantised (many equal distances) and with duplicate positions, at
    chi = 1, 2, 3, N - 1, N and N + 4."""
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 9, 17, 40, 160):
        spread = rng.normal(size=(n, 2))
        quantised = np.round(rng.uniform(-2, 2, size=(n, 2)))
        duplicated = spread[rng.integers(0, max(1, n // 2), size=n)]
        for positions in (spread, quantised, duplicated):
            for chi in sorted({1, 2, 3, n - 1, n, n + 4}):
                yield positions, chi


class TestNeighborGraphOracle:
    def test_matches_brute_force_on_random_fleets(self):
        for positions, chi in random_fleets():
            graph = build_neighbor_graph(positions, chi)
            assert graph.tolist() == brute_force_neighbors(positions, chi)

    def test_row_blocks_match_brute_force(self, monkeypatch):
        # blocks of one row, and of a few rows with a short last block
        for entries in (1, 80, 100):
            monkeypatch.setattr(fedsim.connectivity, "NEIGHBOR_BLOCK_ENTRIES", entries)
            for positions, chi in random_fleets():
                graph = build_neighbor_graph(positions, chi)
                assert graph.tolist() == brute_force_neighbors(positions, chi)

    def test_subsets_of_rows_match_the_same_rows_of_brute_force(self, monkeypatch):
        # blocks of one row, and of a few rows, so that a subset spans blocks;
        # subsets unsorted, of one row, and the fleet reversed
        rng = np.random.default_rng(43)
        for entries in (1, 100, fedsim.connectivity.NEIGHBOR_BLOCK_ENTRIES):
            monkeypatch.setattr(fedsim.connectivity, "NEIGHBOR_BLOCK_ENTRIES", entries)
            for positions, chi in random_fleets():
                n = positions.shape[0]
                brute = brute_force_neighbors(positions, chi)
                for rows in (
                    rng.permutation(n)[: rng.integers(1, n + 1)],
                    np.array([n - 1]),
                    np.arange(n)[::-1],
                ):
                    graph = build_neighbor_graph(positions, chi, rows)
                    assert graph.tolist() == [brute[u] for u in rows.tolist()]
