"""Property tests over generated inputs: the parsers, top-k selection, the
streaming reveal and the connectivity chains against the scalar oracles,
aggregation as an order-free convex combination, config loading, whole runs
of small edge-case configs, and the row-blocked eval pass against a single
pass.

The examples come from the derandomized profile in conftest.py.
"""

import math
import typing

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from fedsim.availability import RevealState, reveal_round  # noqa: E402
from fedsim.config import SCENARIOS, VARIANTS, ExperimentConfig, _Interval, _RANGES  # noqa: E402
from fedsim.connectivity import online_chains, step_connectivity  # noqa: E402
from fedsim.data import Trajectory, parse_csv, synth_trajectories, write_csv  # noqa: E402
from fedsim.errors import FedsimError  # noqa: E402
from fedsim.experiment import _reveal_all, aggregate, prepare_clients, run_experiment  # noqa: E402
from fedsim import nn  # noqa: E402
from fedsim.nn import Dims, ParamSet, TrainBatch, init_params  # noqa: E402
from fedsim import ranking  # noqa: E402
from fedsim.ranking import (  # noqa: E402
    CompensatorState,
    RankEntry,
    build_rank_entries,
    decay_compensators,
    select_top_k,
)

from conftest import REDUCTIONS, log_bytes, prepare_clients_and_plans  # noqa: E402
from oracles import (  # noqa: E402
    brute_force_top_k,
    markov_chain_by_steps,
    newest_joined_by_scan,
    parse_rows_by_loop,
    reveal_by_slices,
    training_window_starts,
    usable_windows_by_cumsum,
)

# ids that csv quoting and the parser's strip leave as they are
VEHICLE_IDS = st.text(st.sampled_from("ab9_ ,\"'-é"), min_size=1, max_size=6).filter(
    lambda vid: vid == vid.strip()
)
FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def fleets(draw):
    """Distinct vehicles with distinct, unsorted timestamps and in-range points."""
    fleet = []
    for vid in draw(st.lists(VEHICLE_IDS, max_size=5, unique=True)):
        ts = draw(st.lists(st.floats(**FINITE), min_size=1, max_size=8, unique=True))
        lat = draw(st.lists(st.floats(-90.0, 90.0), min_size=len(ts), max_size=len(ts)))
        lon = draw(st.lists(st.floats(-180.0, 180.0), min_size=len(ts), max_size=len(ts)))
        fleet.append(Trajectory(vid, np.array(ts), np.column_stack([lat, lon])))
    return fleet


@given(fleets())
def test_write_then_parse_round_trips(tmp_path_factory, fleet):
    path = tmp_path_factory.mktemp("round_trip") / "fleet.csv"
    write_csv(path, fleet)
    parsed, rejected = parse_csv(path)
    assert rejected == 0
    assert [t.vehicle_id for t in parsed] == sorted(t.vehicle_id for t in fleet)
    for traj in parsed:
        (source,) = [t for t in fleet if t.vehicle_id == traj.vehicle_id]
        order = np.argsort(source.timestamps, kind="stable")
        assert traj.timestamps.tobytes() == source.timestamps[order].tobytes()
        assert traj.coords.tobytes() == source.coords[order].tobytes()


# a few distinct values, so rows share vehicles and timestamps; coordinates
# may be out of range or NaN
ROWS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", " b ", "10", "9"]),
        st.integers(0, 5).map(lambda s: str(1000 + s)),
        st.one_of(st.floats(-95.0, 95.0), st.just(float("nan"))).map(repr),
        st.one_of(st.floats(-185.0, 185.0), st.just(float("inf"))).map(repr),
    ),
    max_size=30,
)


@given(ROWS)
def test_csv_and_its_tdrive_copy_parse_alike(tmp_path_factory, rows):
    folder = tmp_path_factory.mktemp("layouts")
    csv_path, tdrive_path = folder / "fleet.csv", folder / "fleet.txt"
    csv_path.write_text(
        "vehicle_id,timestamp,lat,lon\n" + "".join(f"{v},{t},{a},{o}\n" for v, t, a, o in rows),
        encoding="utf-8",
    )
    tdrive_path.write_text("".join(f"{v},{t},{o},{a}\n" for v, t, a, o in rows), encoding="utf-8")
    from_csv, csv_rejected = parse_csv(csv_path)
    from_tdrive, tdrive_rejected = parse_csv(tdrive_path, tdrive=True)
    want, want_rejected = parse_rows_by_loop(csv_path, tdrive=False)
    assert csv_rejected == tdrive_rejected == want_rejected
    assert len(from_csv) == len(from_tdrive) == len(want)
    for a, b, (vid, ts, coords) in zip(from_csv, from_tdrive, want):
        assert a.vehicle_id == b.vehicle_id == vid
        assert a.timestamps.tobytes() == b.timestamps.tobytes() == ts.tobytes()
        assert a.coords.tobytes() == b.coords.tobytes() == coords.tobytes()


@given(
    st.lists(st.floats(0.0, 1.0), max_size=60),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
)
@example([], 3, 0)  # an empty stream
@example([0.5] * 5, 20, 1)  # a slice longer than the stream
def test_reveal_round_matches_the_slice_by_slice_draw(probs, slice_size, seed):
    # fates drawn at once give the rounds of drawing each slice as it arrives
    want, available = reveal_by_slices(probs, slice_size, np.random.default_rng(seed))
    joins = np.random.default_rng(seed).random(len(probs)) < np.array(probs, dtype=float)
    state = RevealState(joins, slice_size)
    assert joins.tolist() == available
    # every round, then one past the end of the stream, which is a no-op
    for cursor, new in want + [(len(probs), [])]:
        assert reveal_round(state).tolist() == new
        assert state.cursor == cursor


# draws and probabilities that often tie, next to arbitrary ones; p may be 0 or 1
CHAIN_DRAWS = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0, exclude_max=True))
CHAIN_PROBS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=30)
@given(
    st.integers(1, 3),
    st.data(),
    st.integers(1, 4),
    st.sampled_from([("random", 0.3), ("random", 3.0), ("constant", 0.6), ("constant", 1.0)]),
    st.integers(1, 9),
    st.integers(0, 3),
)
@example(2, None, 4, ("constant", 0.6), 3, 0)  # a client of two 3-point vehicles: no window
def test_usable_windows_found_at_set_up_match_the_cumsum_rule(
    tmp_path_factory, per_client, data, seq_len, scenario, slice_points, seed
):
    # whole vehicles of 1 to 30 points, per_client to a client; the first
    # vehicle is long enough for a holdout, and a short one holds no window
    n_clients = 3
    if data is None:
        lengths = [30] * per_client + [3] * per_client + [12] * per_client
    else:
        lengths = [30] + data.draw(
            st.lists(st.integers(1, 30), min_size=n_clients * per_client - 1,
                     max_size=n_clients * per_client - 1), "lengths")
    path = tmp_path_factory.mktemp("fleet") / "fleet.csv"
    write_csv(path, [
        Trajectory(t.vehicle_id, t.timestamps[:n], t.coords[:n])
        for t, n in zip(synth_trajectories(seed, len(lengths), 30, "sinusoid"), lengths)
    ])
    kind, value = scenario
    config = ExperimentConfig(
        dataset="csv", data_path=str(path), n_clients=n_clients, vehicles_per_client=per_client,
        seq_len=seq_len, scenario=kind, alpha_dir=value if kind == "random" else 1.0,
        constant_p=value if kind == "constant" else 1.0, reveal_slice_points=slice_points,
        seed=seed,
    )
    clients = prepare_clients(config)[0]
    window_starts = training_window_starts(config)
    for client, starts in zip(clients, window_starts):
        for cursor in range(client.reveal.joins.size + 1):
            client.reveal.cursor = cursor
            expected = usable_windows_by_cumsum(starts, client.reveal.joins, cursor, seq_len)
            assert client.usable_window_indices().tolist() == expected.tolist()
    if data is None:
        assert window_starts[1].size == 0


@settings(max_examples=30)
@given(
    st.integers(1, 3),
    st.data(),
    st.sampled_from([("random", None), ("regional", None), ("datasize", None), ("constant", 0.3)]),
    st.integers(1, 9),
    st.integers(0, 3),
)
# a client of two 3-point vehicles has no window, and with one point a slice,
# some client's first point is lost and a later one joins
@example(2, None, ("constant", 0.3), 1, 0)
def test_a_clients_position_is_its_newest_joined_point_at_every_reveal(
    tmp_path_factory, per_client, data, scenario, slice_points, seed
):
    n_clients = 3
    if data is None:
        lengths = [30] * per_client + [3] * per_client + [12] * per_client
    else:
        lengths = [30] + data.draw(
            st.lists(st.integers(1, 30), min_size=n_clients * per_client - 1,
                     max_size=n_clients * per_client - 1), "lengths")
    path = tmp_path_factory.mktemp("fleet") / "fleet.csv"
    write_csv(path, [
        Trajectory(t.vehicle_id, t.timestamps[:n], t.coords[:n])
        for t, n in zip(synth_trajectories(seed, len(lengths), 30, "sinusoid"), lengths)
    ])
    kind, p = scenario
    config = ExperimentConfig(
        dataset="csv", data_path=str(path), n_clients=n_clients, vehicles_per_client=per_client,
        seq_len=4, scenario=kind, weak_areas=[[29.0, 30.0, 119.0, 121.0]],
        constant_p=p or 1.0, reveal_slice_points=slice_points, seed=seed,
    )
    clients = prepare_clients(config)[0]
    # before any reveal, a client with a stream stands at its stream's mean
    centroids = [client.position for client in clients]
    for client in clients:
        if client.stream_coords.size:
            assert client.position.tolist() == client.stream_coords.mean(axis=0).tolist()
    # every reveal, then one past the end of the longest stream
    for _ in range(max(client.reveal.joins.size for client in clients) // slice_points + 2):
        _reveal_all(clients)
        for client, centroid in zip(clients, centroids):
            reveal = client.reveal
            want = newest_joined_by_scan(client.stream_coords, reveal.joins, reveal.cursor, centroid)
            assert client.position.tolist() == want.tolist()
    if data is None:
        assert training_window_starts(config)[1].size == 0
        assert any(c.reveal.joins.any() and not c.reveal.joins[0] for c in clients)


@st.composite
def chain_draws(draw):
    """One row of draws per client, 1 to 6 clients, 0 to 10 rounds after the first."""
    steps = draw(st.integers(0, 10))
    row = st.lists(CHAIN_DRAWS, min_size=steps, max_size=steps)
    return draw(st.lists(row, min_size=1, max_size=6))


@given(chain_draws(), CHAIN_PROBS, CHAIN_PROBS)
@example([[]], 0.5, 0.5)  # one client, no step
@example([[0.0, 0.5], [0.25, 0.0]], 1.0, 0.0)  # everyone drops and stays out
@example([[0.0, 0.5], [0.25, 0.0]], 0.0, 1.0)  # nobody ever drops
def test_online_chains_match_the_step_by_step_chain(draws, p_offline, p_recover):
    flags = np.array(draws, dtype=float).reshape(len(draws), -1)
    online = online_chains(flags >= p_offline, flags < p_recover)
    want = markov_chain_by_steps(draws, p_offline, p_recover)
    assert online.tolist() == want
    ids = list(range(len(draws)))
    last_offline = set()
    for t in range(1, len(draws[0]) + 2):
        now, recovered, offline = step_connectivity(online, t)
        assert now == [cid for cid in ids if want[cid][t - 1]]
        assert recovered == [cid for cid in now if t > 1 and not want[cid][t - 2]]
        # the three lists partition the fleet, and recovered clients were
        # offline last round and are online now
        assert sorted(now + offline) == ids and not set(now) & set(offline)
        assert set(recovered) <= set(now) and set(recovered) <= last_offline
        last_offline = set(offline)


# a few repeated values, so weights tie, next to arbitrary finite ones
RANK_WEIGHTS = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-1e6, 1e6))


@given(
    st.lists(st.tuples(st.integers(0, 50), RANK_WEIGHTS), max_size=20, unique_by=lambda e: e[0]),
    st.integers(0, 25),
)
def test_select_top_k_matches_the_brute_force_oracle(pairs, k):
    entries = [RankEntry(cid, 0.0, 0.0, 0, weight=w) for cid, w in pairs]
    assert select_top_k(entries, k) == brute_force_top_k(dict(pairs), k)


# how a participant's divergence order relates to its participation order: any
# permutation, the same order (top in both) or the reverse
POSITION_ORDERS = ("any", "same", "reverse")


@settings(max_examples=40)
@given(
    m_t=st.integers(1, 10_000),
    rounds=st.integers(1, 1_000),
    decays=st.integers(0, 999),
    order=st.sampled_from(POSITION_ORDERS),
    seed=st.integers(0, 2**32 - 1),
)
# 10,000 participants at the default 240 rounds: in the last two rounds of
# alpha's quadratic phase (the second at alpha = 1 + 3.6e-15), the first of
# its linear phase, and the last round
@example(m_t=10_000, rounds=240, decays=119, order="same", seed=0)
@example(m_t=10_000, rounds=240, decays=120, order="same", seed=0)
@example(m_t=10_000, rounds=240, decays=121, order="reverse", seed=0)
@example(m_t=10_000, rounds=240, decays=239, order="any", seed=0)
def test_every_rank_weight_is_positive_and_finite(m_t, rounds, decays, order, seed):
    # proportional selection draws with p = w / w.sum() and has no branch for
    # a weight that is zero, negative, NaN or infinite, so no round may give one
    comp = CompensatorState(
        alpha=ranking.ALPHA0, delta_alpha=2.0 * (ranking.ALPHA0 - 1.0) / rounds
    )
    # alpha in round decays + 1, after the decays of the rounds before it
    for _ in range(decays % rounds):
        decay_compensators(comp, [])
    rng = np.random.default_rng(seed)
    divergence = rng.permutation(m_t).astype(float)
    participation = {
        "any": rng.permutation(m_t), "same": divergence, "reverse": -divergence
    }[order]
    entries = [
        RankEntry(cid, divergence[cid], float(participation[cid]), int(n))
        for cid, n in enumerate(rng.integers(0, 20, size=m_t))
    ]
    # a client ranked j times before has the beta of j decays from BETA0; 0 to
    # 12 decays run from BETA0 to the floor of 1 and past it
    betas = [ranking.BETA0]
    while len(betas) < 13:
        betas.append(max(betas[-1] - ranking.DELTA_BETA, 1.0))
    for cid, j in enumerate(rng.integers(0, len(betas), size=m_t)):
        if j:
            comp.beta[cid] = betas[j]
    build_rank_entries(entries, comp)
    weights = np.array([e.weight for e in entries])
    assert np.all(np.isfinite(weights) & (weights > 0.0)), (comp.alpha, weights.min())


# the smallest model: one input, one hidden unit and one output, 14 values
AGG_DIMS = Dims(1, 1, 1)
PARAMS = st.lists(
    st.floats(-1e3, 1e3), min_size=AGG_DIMS.total_size, max_size=AGG_DIMS.total_size
)


@st.composite
def weighted_models(draw):
    """Models and nonnegative weights with a positive sum."""
    values = draw(st.lists(PARAMS, min_size=1, max_size=6))
    weights = draw(
        st.lists(st.floats(0.0, 10.0), min_size=len(values), max_size=len(values)).filter(
            lambda w: sum(w) > 0
        )
    )
    return np.array(values), weights


def _rounding_slack(stack):
    # a weighted sum of n terms is off by at most a few n ulps of the largest
    return 4 * len(stack) * np.finfo(float).eps * np.abs(stack).max(axis=0)


def _aggregate(stack, weights):
    return aggregate([ParamSet(v.copy(), AGG_DIMS) for v in stack], weights).values


@given(weighted_models(), st.booleans())
def test_aggregate_is_a_convex_combination(models, uniform):
    stack, weights = models
    merged = _aggregate(stack, None if uniform else weights)
    slack = _rounding_slack(stack)
    assert np.all(merged >= stack.min(axis=0) - slack)
    assert np.all(merged <= stack.max(axis=0) + slack)


@given(weighted_models(), st.data())
def test_aggregate_with_one_hot_weights_returns_that_model(models, data):
    stack, _ = models
    pick = data.draw(st.integers(0, len(stack) - 1))
    one_hot = [float(i == pick) for i in range(len(stack))]
    assert np.array_equal(_aggregate(stack, one_hot), stack[pick])


@given(weighted_models(), st.data())
def test_aggregate_ignores_the_order_of_its_models(models, data):
    stack, weights = models
    order = data.draw(st.permutations(range(len(stack))))
    shuffled = _aggregate(stack[order], [weights[i] for i in order])
    assert np.all(np.abs(shuffled - _aggregate(stack, weights)) <= _rounding_slack(stack))


# any JSON value; objects are keyed mostly by real config fields, so values
# reach the per-field validation and not only the unknown-key check
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
CONFIG_OBJECTS = st.dictionaries(
    st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__)) | st.text(max_size=8),
    JSON_VALUES,
    max_size=6,
)


@given(JSON_VALUES | CONFIG_OBJECTS)
def test_config_from_dict_raises_only_fedsim_errors(raw):
    try:
        ExperimentConfig.from_dict(raw)
    except FedsimError:
        pass


# Fields with no entry in the config's range table: their type is their whole
# range, or a rule that ties fields together checks them.
UNBOUNDED = ("data_path", "weak_areas", "offline_train_every_round", "aggregate_by_datasize")


def test_every_config_field_has_a_range_or_is_unbounded():
    assert sorted([*_RANGES, *UNBOUNDED]) == sorted(ExperimentConfig.__dataclass_fields__)


def _edges(name, rule):
    """Each finite bound of an interval with the integers or floats on either
    side of it, or the values just outside a tuple of allowed values."""
    if not isinstance(rule, _Interval):
        return [min(rule) - 1, max(rule) + 1] if isinstance(rule[0], int) else ["?"]
    bounds = [b for b in (rule.lo, rule.hi) if math.isfinite(b)]
    hint = typing.get_type_hints(ExperimentConfig)[name]
    if int in (hint, *typing.get_args(hint)):
        return [b + step for b in bounds for step in (-1, 0, 1)]
    return [math.nextafter(b, toward) for b in bounds for toward in (-math.inf, b, math.inf)]


# Values at and just past the edge of each field's range, and hand-picked
# values: more than the data holds, a diverging learning rate, and weak boxes
# on and off their shape rule. The engine checks none of these again, so a
# config that loads must run to its end or stop with a FedsimError that
# depends on the data.
EXTRAS = {
    **dict.fromkeys(("chi", "synth_vehicles"), [9]),
    "eta0": [50.0],
    "weak_areas": [
        [[0.0, 90.0, 0.0, 180.0]], [[30.0, 30.0, 119.0, 121.0]], [[29.0, 31.0, 121.0, 119.0]]
    ],
}
EDGES = {
    name: (_edges(name, _RANGES[name]) if name in _RANGES else []) + EXTRAS.get(name, [])
    for name in _RANGES.keys() | EXTRAS.keys()
}

# the scenario that reads each scenario-specific field
SCENARIO_OF = {
    "alpha_dir": "random",
    "weak_areas": "regional",
    "constant_p": "constant",
}


@st.composite
def small_configs(draw):
    """A small valid config: a fleet of one vehicle per client."""
    n_clients = draw(st.integers(2, 4))
    return dict(
        variant=draw(st.sampled_from(VARIANTS)),
        scenario=draw(st.sampled_from(SCENARIOS)),
        n_clients=n_clients,
        synth_vehicles=n_clients,
        synth_points_each=draw(st.integers(8, 30)),
        rounds=draw(st.integers(1, 3)),
        hidden=draw(st.integers(1, 3)),
        seq_len=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 4)),
        chi=draw(st.integers(1, 3)),
        budget=draw(st.sampled_from([None, 2])),
        offline_train_every_round=draw(st.booleans()),
        aggregate_by_datasize=draw(st.booleans()),
        eta0=0.05,
        seed=draw(st.integers(0, 3)),
    )


@given(small_configs())
def test_a_small_config_loads_and_prepares_its_clients(raw):
    # the edge test below returns on any FedsimError, so a base draw that
    # failed on its own would leave every edge case passing untested
    prepare_clients(ExperimentConfig.from_dict(raw))


# Every field gets its own examples, so each edge is drawn however the
# examples fall; a second edge, drawn from any field, may join it.
@pytest.mark.parametrize("edge", sorted(EDGES))
@settings(max_examples=8)
@given(data=st.data())
def test_a_config_at_an_edge_is_rejected_or_runs_to_its_end_or_a_fedsim_error(edge, data):
    raw = data.draw(small_configs())
    for name in [edge] + data.draw(st.lists(st.sampled_from(sorted(EDGES)), max_size=1)):
        raw[name] = data.draw(st.sampled_from(EDGES[name]))
        raw["scenario"] = SCENARIO_OF.get(name, raw["scenario"])
    try:
        config = ExperimentConfig.from_dict(raw)
        (clients, model, *_), plans = prepare_clients_and_plans(config)
    except FedsimError:
        return
    # what the engine takes for granted without checking it
    dims = model.dims
    assert len(clients) >= 2 and min(dims.n_in, dims.n_hidden, dims.n_out) >= 1
    for client in clients:
        assert client.reveal.slice_size >= 1
        assert client.train_inputs.shape[2] == dims.n_in
        assert client.train_targets.shape[1] == dims.n_out
    assert len(plans) == len(clients)
    for plan, client in zip(plans, clients):
        assert plan.shape == client.reveal.joins.shape
        assert np.all((plan >= 0.0) & (plan <= 1.0))
    try:
        result = run_experiment(config)
    except FedsimError:
        return
    assert 1 <= len(result.logs) <= config.rounds


# Every reduction between variants: the richer variant at its identity
# overrides, and the poorer variant it then is.
REDUCTION_EDGES = {
    **{edge: row[:3] for edge, row in REDUCTIONS.items()},
    "fedprox": ("fedprox", dict(prox_mu=0.0), "fedavg"),
    "fedprox_plus": ("fedprox_plus", dict(prox_mu=0.0), "fedcab"),
}


@settings(max_examples=25)
@given(small_configs())
def test_every_variant_reduction_is_bit_exact_on_a_drawn_base(raw):
    def logs(variant, **overrides):
        config = ExperimentConfig(**{**raw, "variant": variant, **overrides})
        return log_bytes(run_experiment(config))

    for edge, (richer, identity, poorer) in REDUCTION_EDGES.items():
        assert logs(richer, **identity) == logs(poorer), edge


# Even hidden widths only: at odd widths of 15 and more the gate GEMM rounds a
# row differently as its row count changes, so blocks do not keep the bits of
# one pass there (see the nn module docstring). A batch is up to two whole
# blocks of its width plus a tail, at least 2 rows in all.
@pytest.mark.usefixtures("one_blas_thread")
@given(
    st.integers(1, 32).map(lambda k: 2 * k),
    st.integers(0, 2),
    st.data(),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_blocked_eval_equals_a_single_pass_at_even_widths(
    hidden, n_blocks, data, seq_len, n_in, seed
):
    rows = nn._eval_block_rows(n_in, hidden)
    n_rows = n_blocks * rows + data.draw(st.integers(0 if n_blocks else 2, rows - 1), "tail")
    dims = Dims(n_in, hidden, 2)
    rng = np.random.default_rng(seed)
    model = init_params(dims, rng)
    batch = TrainBatch(rng.normal(size=(n_rows, seq_len, n_in)), rng.normal(size=(n_rows, 2)))
    # the training pass: one pass over all rows, in fresh arrays
    single, _ = nn._lstm_steps(model, batch.inputs)
    assert np.array_equal(nn.lstm_hidden(model, batch.inputs), single)
    # the head runs per block, on each block's h; one GEMM over every row of
    # the training pass's hidden state gives the same bits
    assert np.array_equal(nn.forward(model, batch), nn.apply_fc(model.fc_block, single, dims))
