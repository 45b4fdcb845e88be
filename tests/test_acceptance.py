"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The trend criteria (5 and 6) run full experiments on two worker processes.
On a 2-core host the criterion-6 fixture takes about 24 s and criterion 5
12-18 s, about half of the whole suite.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from unittest import mock

import numpy as np
import pytest

from fedsim.config import ExperimentConfig
from fedsim.connectivity import LinkState, step_connectivity
from fedsim.availability import RevealState, reveal_round
from fedsim.experiment import run_experiment
from fedsim.nn import Dims, ParamSet, TrainBatch, backward, batch_objective, init_params
from fedsim.collab import head_payload_values
from fedsim.ranking import (
    RankEntry,
    combined_weight,
    select_top_k,
    solve_quadratic,
    weight_early,
)
from fedsim.reports import write_rounds_csv

from oracles import (
    brute_force_top_k,
    finite_difference_gradient,
    gradcheck_relative_error,
    markov_online_fraction,
)


def report(n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# shared experiment fixtures

CRIT5_BASE = dict(
    dataset="synthetic",
    synth_kind="sinusoid",
    synth_vehicles=10,
    synth_points_each=60,
    vehicles_per_client=1,
    n_clients=10,
    rounds=60,
    epochs=2,
    sample_ratio=1.0,
    scenario="constant",
    constant_p=1.0,
    reveal_slice_points=1_000_000,
    budget=None,
    p_offline=0.0,
    p_recover=0.0,
    hidden=32,
    eta0=0.05,
)

CRIT6_BASE = dict(
    dataset="synthetic",
    synth_kind="sinusoid",
    synth_vehicles=40,
    synth_points_each=220,
    vehicles_per_client=1,
    n_clients=40,
    rounds=120,
    sample_ratio=0.1,   # K = 4
    epochs=1,
    scenario="random",
    alpha_dir=0.5,
    budget=20,
    p_offline=0.2,
    p_recover=0.1,
    decentral_freq=0.5,
    chi=3,
    hidden=32,
    eta0=0.05,
)

CRIT6_SEEDS = (0, 1, 2, 3, 4)


def crit6_config(variant, seed, **overrides):
    return ExperimentConfig(variant=variant, seed=seed, **{**CRIT6_BASE, **overrides})


def timed_run(config):
    """A run's result and its wall time, both taken in the process that runs it."""
    t0 = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - t0


def timed_runs(configs):
    """``timed_run`` of each config, in order, on two spawned workers.

    The runs are independent and seed-determined, so where they run changes
    no result. Each worker gets one BLAS thread, so two of them fill two cores.
    """
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    with mock.patch.dict(os.environ, one_thread):
        with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
            return list(pool.map(timed_run, configs))


@pytest.fixture(scope="module")
def crit6_runs():
    """3 variants x 5 seeds at the headline setting, with per-run timings."""
    keys = [(variant, seed) for variant in ("fedavg", "fedcab", "feddecab") for seed in CRIT6_SEEDS]
    runs = dict(zip(keys, timed_runs([crit6_config(*key) for key in keys])))
    results = {key: result for key, (result, _) in runs.items()}
    timings = {key: seconds for key, (_, seconds) in runs.items()}
    return results, timings


def test_criterion_1_gradient_correctness():
    # 20 random instances at H=8, S=4, B=4, central differences at eps=1e-5,
    # the divergence bias term included on half of them
    rng = np.random.default_rng(0)
    dims = Dims(2, 8, 2)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        model = init_params(dims, rng)
        target = init_params(dims, rng).fc_block if trial % 2 else None
        batch = TrainBatch(
            rng.normal(size=(4, 4, dims.n_in)), rng.normal(size=(4, dims.n_out))
        )
        analytic = backward(model, batch, kl_anchor=target).values

        def loss_at(vec, batch=batch, target=target):
            return batch_objective(ParamSet(vec, dims), batch, kl_anchor=target)

        numeric = finite_difference_gradient(loss_at, model.values, eps=1e-5)
        worst = max(worst, gradcheck_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.3e} (< 1e-4), runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_ranking_math_exactness():
    rng = np.random.default_rng(1)
    worst_anchor = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(1.0, 5.0))
        m_t = int(rng.integers(1, 201))
        b = solve_quadratic(alpha, m_t)
        worst_anchor = max(
            worst_anchor,
            abs(weight_early(0, *b) - alpha),
            abs(weight_early(m_t, *b) - 1.0),
            abs(weight_early(2 * m_t, *b) - alpha),
        )
    # the late phase (alpha <= 1) with the participation position at m is P / m
    linear_exact = all(
        combined_weight(p, m, alpha, m, 1.0) == p / m
        for alpha in (1.0, 0.5, -3.0)
        for m in (1, 7, 40, 200)
        for p in range(1, m + 1)
    )
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 25))
        weights = np.round(rng.uniform(size=m), 1)  # coarse grid forces ties
        entries = [
            RankEntry(client_id=cid, divergence=0, participation=0, n_updates=0, weight=float(w))
            for cid, w in enumerate(weights)
        ]
        k = int(rng.integers(0, m + 2))
        if select_top_k(entries, k) != brute_force_top_k(
            {e.client_id: e.weight for e in entries}, min(k, m)
        ):
            mismatches += 1
    report(
        2,
        worst_anchor <= 1e-12 and linear_exact and mismatches == 0,
        f"anchor error {worst_anchor:.2e} (<= 1e-12), linear weights exact: {linear_exact}, "
        f"top-k oracle mismatches {mismatches}/1000",
    )


def test_criterion_3_connectivity_statistics():
    p_offline, p_recover = 0.2, 0.1
    expected = markov_online_fraction(p_offline, p_recover)
    n, rounds, burn_in = 100, 2100, 100
    states = {cid: LinkState() for cid in range(n)}
    seqs = np.random.SeedSequence(2).spawn(n)
    rngs = {cid: np.random.default_rng(seqs[cid]) for cid in range(n)}
    online_total = 0
    for t in range(rounds):
        online, _, _ = step_connectivity(states, p_offline, p_recover, rngs)
        if t >= burn_in:
            online_total += len(online)
    client_rounds = n * (rounds - burn_in)
    fraction = online_total / client_rounds
    report(
        3,
        abs(fraction - expected) < 0.01 and client_rounds >= 100_000,
        f"online fraction {fraction:.4f} vs stationary {expected:.4f} "
        f"over {client_rounds} client-rounds (+/- 0.01)",
    )


def test_criterion_4_reveal_statistics():
    # statistics at p = 0.7 over 10k points; each fate is drawn once
    n = 10_000
    state = RevealState(np.random.default_rng(3).random(n) < 0.7, slice_size=96)
    joined = 0
    while state.cursor < n:
        joined += reveal_round(state).size
    rate = joined / n
    sigma = float(np.sqrt(0.7 * 0.3 / n))
    stats_ok = abs(rate - 0.7) < 3 * sigma

    # invariants on every step of a 240-round trace: a round reveals only
    # its own slice, so the revealed prefix never changes and nothing at or
    # past the cursor is revealed; the trace ends having revealed every join
    n2 = 240 * 16
    probs2 = np.random.default_rng(4).uniform(size=n2)
    state2 = RevealState(np.random.default_rng(5).random(n2) < probs2, slice_size=16)
    revealed = np.zeros(n2, dtype=bool)
    invariants_ok = True
    for _ in range(240):
        prev_cursor = state2.cursor
        new = reveal_round(state2)
        invariants_ok &= bool(np.all((new >= prev_cursor) & (new < state2.cursor)))
        revealed[new] = True
    invariants_ok &= np.array_equal(revealed, state2.joins)
    report(
        4,
        stats_ok and invariants_ok,
        f"rate {rate:.4f} within 3 sigma of 0.7 ({3 * sigma:.4f}); "
        f"monotone/conservation invariants over 240 rounds: {invariants_ok}",
    )


def test_criterion_5_fl_beats_local_only():
    wins = 0
    worst_seed_time = 0.0
    details = []
    runs = timed_runs([
        ExperimentConfig(variant=variant, seed=seed, **CRIT5_BASE)
        for seed in range(5)
        for variant in ("fedavg", "local_only")
    ])
    for seed in range(5):
        (fl, fl_time), (lo, lo_time) = runs[2 * seed : 2 * seed + 2]
        worst_seed_time = max(worst_seed_time, fl_time + lo_time)
        fl_mean = float(np.mean(list(fl.final_client_rmse().values())))
        lo_mean = float(np.mean(list(lo.final_client_rmse().values())))
        wins += fl_mean < lo_mean
        details.append(f"seed {seed}: {fl_mean:.4f} vs {lo_mean:.4f}")
    report(
        5,
        wins >= 4 and worst_seed_time < 180.0,
        f"federated beats local-only in {wins}/5 seeds "
        f"({'; '.join(details)}); worst seed {worst_seed_time:.0f}s (< 180s)",
    )


def test_criterion_6_feddecab_superiority_trend(crit6_runs):
    results, timings = crit6_runs
    medians = {
        variant: float(np.median([results[variant, s].final_rmse() for s in CRIT6_SEEDS]))
        for variant in ("fedavg", "fedcab", "feddecab")
    }
    ratio = medians["feddecab"] / medians["fedavg"]
    worst_time = max(timings.values())
    ok = (
        medians["feddecab"] <= 0.95 * medians["fedavg"]
        and medians["feddecab"] <= medians["fedcab"]
        and worst_time < 300.0
    )
    report(
        6,
        ok,
        f"median RMSE feddecab {medians['feddecab']:.4f}, fedcab {medians['fedcab']:.4f}, "
        f"fedavg {medians['fedavg']:.4f}; ratio {ratio:.3f} (<= 0.95); "
        f"worst run {worst_time:.0f}s (< 300s)",
    )


def test_criterion_7_communication_accounting(crit6_runs):
    results, _ = crit6_runs
    head_values = Dims(2, CRIT6_BASE["hidden"], 2).fc_size
    bound = CRIT6_BASE["chi"] * head_values
    payload_rounds = 0
    worst = 0
    for seed in CRIT6_SEEDS:
        for log in results["feddecab", seed].logs:
            for payload in log.payloads.values():
                payload_rounds += 1
                worst = max(worst, payload)
    per_neighbor_128x5 = head_payload_values(1, Dims(2, 128, 5))
    report(
        7,
        payload_rounds > 0 and worst <= bound and per_neighbor_128x5 == 645,
        f"max logged payload {worst} <= chi*(H*O+O) = {bound} over {payload_rounds} "
        f"client-rounds; per-neighbor payload at H=128,O=5 is {per_neighbor_128x5} (= 645)",
    )


def test_criterion_8_determinism(crit6_runs, tmp_path):
    # the first run is the criterion-6 fixture's, made in a spawned worker;
    # the second is made here, in this process
    results, _ = crit6_runs
    config = crit6_config("feddecab", CRIT6_SEEDS[0])
    paths = []
    for run_idx, result in enumerate((results["feddecab", CRIT6_SEEDS[0]], run_experiment(config))):
        path = tmp_path / f"rounds_{run_idx}.csv"
        write_rounds_csv(result.logs, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(
        8,
        identical,
        f"two runs of the criterion-6 config at seed {CRIT6_SEEDS[0]} produced "
        f"byte-identical rounds.csv ({paths[0].stat().st_size} bytes): {identical}",
    )


def test_criterion_9_variant_reduction(tmp_path):
    # shrink the setting so four extra runs stay fast; the reduction property
    # itself is scale-independent
    small = dict(
        CRIT6_BASE,
        n_clients=10,
        synth_vehicles=10,
        synth_points_each=120,
        rounds=24,
        sample_ratio=0.2,
    )

    def rounds_bytes(config, name):
        result = run_experiment(config)
        path = tmp_path / f"{name}.csv"
        write_rounds_csv(result.logs, path)
        return path.read_bytes()

    a = rounds_bytes(ExperimentConfig(variant="feddecab", seed=7, **{**small, "decentral_freq": 0.0}), "de_f0")
    b = rounds_bytes(ExperimentConfig(variant="fedcab", seed=7, **small), "cab")
    fedcab_exact = a == b

    neutral = dict(alpha0=1.0, beta0=1.0, gamma=1.0)
    c = rounds_bytes(
        ExperimentConfig(
            variant="feddecab", seed=8, selection="uniform",
            **{**small, "decentral_freq": 0.0, **neutral},
        ),
        "de_neutral",
    )
    d = rounds_bytes(ExperimentConfig(variant="fedavg", seed=8, **{**small, **neutral}), "avg")
    fedavg_exact = c == d
    report(
        9,
        fedcab_exact and fedavg_exact,
        f"feddecab(f=0) == fedcab bit-exact: {fedcab_exact}; "
        f"neutral compensators + uniform sampling == fedavg bit-exact: {fedavg_exact}",
    )


def test_criterion_10_recovered_clients_do_best_under_feddecab(crit6_runs):
    # the paper's claim for offline models: a client back online resumes from
    # its own model, which under feddecab trained in peer rounds toward its
    # neighbours' heads while it was offline. Each run's score is the mean
    # holdout RMSE of the clients that recovered in a round, over every round
    results, _ = crit6_runs
    medians, evals = {}, {}
    for variant in ("fedavg", "fedcab", "feddecab"):
        means = []
        evals[variant] = 0
        for seed in CRIT6_SEEDS:
            errors = [
                log.client_rmse[c]
                for log in results[variant, seed].logs
                for c in log.recovered
                if c in log.client_rmse
            ]
            means.append(float(np.mean(errors)))
            evals[variant] += len(errors)
        medians[variant] = float(np.median(means))
    ok = medians["feddecab"] <= medians["fedcab"] and medians["feddecab"] <= medians["fedavg"]
    report(
        10,
        ok,
        "median RMSE of recovered clients feddecab "
        f"{medians['feddecab']:.4f} ({evals['feddecab']} evals), fedcab {medians['fedcab']:.4f} "
        f"({evals['fedcab']}), fedavg {medians['fedavg']:.4f} ({evals['fedavg']}); "
        "feddecab <= both",
    )
