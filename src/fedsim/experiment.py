"""The experiment engine: data preparation, the round loop, and evaluation.

One engine runs every algorithm variant; variants only toggle the selection
mode, the peer-collaboration rounds, and the proximal penalty, and local_only
runs it with no server at all. All randomness flows from per-purpose
generators spawned off the config seed, one set per client, so results are
independent of evaluation order and identical across repeated runs.

A round trains in up to three phases. Each makes one ``_train_phase`` call over
the windows its clients can use, then walks those clients in id order; a
client whose training diverges keeps its model and logs its event:

- online: clients train from the global push, or from their own model once
  recovered. A divergence stops the run; its round logs the clients up to the
  one that diverged and aggregates nothing.
- peer round: offline clients train, then score their neighbours' heads. One
  that diverges skips this exchange.
- offline, in rounds without a peer pass when ``offline_train_every_round``
  is set: offline clients train. One that diverges skips this update.

A client that trains its own model, in any phase, is pulled toward the peer
head it cached in its last exchange; one that got the global push is not.

Each point is held once. A client's training windows are read-only views of
its normalized training stream, indexed by stream position, and a phase
gathers only the rows it uses. Its holdout windows are a slice of the pooled
global holdout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .availability import (
    RevealState,
    assign_by_datasize,
    assign_random,
    assign_regional,
    datasize_threshold,
    reveal_round,
)
from .collab import CollabCache, evaluate_candidates, head_payload_values
from .config import ExperimentConfig
from .connectivity import LinkState, build_neighbor_graph, participation, step_connectivity
from .data import BBox, make_windows, parse_csv, partition_by_vehicle, synth_trajectories
from .errors import ConfigError, NumericError
from .nn import Dims, ParamSet, init_params, model_divergence
from .ranking import (
    CompensatorState,
    RankEntry,
    build_rank_entries,
    decay_compensators,
    sample_proportional,
    select_top_k,
)
from .training import evaluate_rmse, train_local

# Share of each client's windows, the last by stream order, held out for testing.
HOLDOUT_FRACTION = 0.2


@dataclass
class ClientRuntime:
    """Everything one simulated client owns during a run."""

    n_points: int                     # raw dataset size (all segments)
    train_inputs: np.ndarray          # (n_stream - S, S, 2) read-only view of stream_coords
    train_targets: np.ndarray         # (n_stream - S, 2), both indexed by stream position
    window_starts: np.ndarray         # stream positions of the training windows
    stream_coords: np.ndarray         # (n_stream, 2) normalized training stream
    hold_inputs: np.ndarray           # this client's rows of the pooled holdout
    hold_targets: np.ndarray
    reveal: RevealState
    link: LinkState
    model: ParamSet
    rng_conn: np.random.Generator
    rng_train: np.random.Generator
    rng_eval: np.random.Generator
    centroid: np.ndarray
    cache: CollabCache | None = None

    def usable_window_indices(self) -> np.ndarray:
        """Stream positions of the revealed training windows whose points
        all joined; they index ``train_inputs`` and ``train_targets``."""
        span = self.train_inputs.shape[1] + 1
        cursor = self.reveal.cursor
        starts = self.window_starts[self.window_starts + span <= cursor]
        csum = np.concatenate([[0], np.cumsum(self.reveal.joins[:cursor])])
        return starts[csum[starts + span] - csum[starts] == span]

    def position(self) -> np.ndarray:
        """Newest joined stream point, or the centroid before any arrives."""
        newest = np.flatnonzero(self.reveal.joins[: self.reveal.cursor])
        return self.stream_coords[newest[-1]] if newest.size else self.centroid


@dataclass
class RoundLog:
    """Everything recorded about one round."""

    t: int
    eta: float
    online: list[int]
    recovered: list[int]
    offline: list[int]
    provenance: dict[int, str] = field(default_factory=dict)
    entries: list[RankEntry] = field(default_factory=list)
    selected: list[int] = field(default_factory=list)
    alpha: float | None = None
    rmse_global: float = float("nan")
    client_rmse: dict[int, float] = field(default_factory=dict)
    decentralized: bool = False
    payloads: dict[int, int] = field(default_factory=dict)
    collab_sources: dict[int, int] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    logs: list[RoundLog]
    global_model: ParamSet | None
    rejected_rows: int = 0  # dataset rows the parser dropped

    def final_rmse(self) -> float:
        return self.logs[-1].rmse_global

    def best_rmse(self) -> float | None:
        """Lowest global RMSE of any round; NaN rounds are skipped, and None
        means every round was NaN."""
        return min(
            (log.rmse_global for log in self.logs if not math.isnan(log.rmse_global)),
            default=None,
        )

    def final_client_rmse(self) -> dict[int, float]:
        """Latest logged per-client holdout error for every client seen."""
        latest: dict[int, float] = {}
        for log in self.logs:
            latest.update(log.client_rmse)
        return latest


def aggregate(models: list[ParamSet], weights: list[float] | None = None) -> ParamSet:
    """Per-parameter mean of one or more models, unweighted by default.

    ``weights``, one per model, are nonnegative with a positive sum.
    """
    w = np.ones(len(models)) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    return ParamSet(sum(wi * m.values for wi, m in zip(w, models)), models[0].dims)


# ---------------------------------------------------------------------------
# data preparation


def load_trajectories(config: ExperimentConfig):
    """The configured trajectories, and how many dataset rows the parser dropped."""
    if config.dataset == "synthetic":
        return synth_trajectories(
            config.seed, config.synth_vehicles, config.synth_points_each, config.synth_kind
        ), 0
    trajectories, rejected = parse_csv(config.data_path, tdrive=config.dataset == "tdrive")
    if not trajectories:
        raise ConfigError(f"no trajectories parsed from {config.data_path}")
    return trajectories, rejected


def _client_plan(
    config: ExperimentConfig,
    train_runs: list[np.ndarray],
    client_p: float,
    rng_plan: np.random.Generator,
) -> np.ndarray:
    """Availability probabilities over one client's training stream. The
    random scenario draws once per run; the others are pointwise, and the
    datasize and constant ones give every point ``client_p``."""
    if config.scenario == "random":
        parts = [assign_random(run.shape[0], config.alpha_dir, rng_plan) for run in train_runs]
        return np.concatenate([np.zeros(0)] + parts)
    points = np.concatenate([np.zeros((0, 2))] + train_runs)
    if config.scenario == "regional":
        areas = [BBox(*box) for box in config.weak_areas]
        return assign_regional(points, areas, config.p_low, config.p_high)
    return np.full(points.shape[0], client_p, dtype=float)


def _split_runs(segments: list[np.ndarray], seq_len: int):
    """Cut one client's list of segments into training runs and holdout runs.

    The client's windows, in segment order, train except the last ``n_hold``:
    ``HOLDOUT_FRACTION`` of them, rounded and at least one, or none for a
    client of one window. A segment whose first ``k`` windows train gives the
    training run ``seg[:k + seq_len]`` and, if it has more windows, the
    holdout run ``seg[k:]``; the two share ``seq_len`` points of input context
    but never a target. No run is empty.
    """
    m = sum(max(0, seg.shape[0] - seq_len) for seg in segments)
    # round(0.2 m) <= 0.2 m + 0.5 <= m - 1 for m >= 2: a window is left to train on
    n_hold = max(1, round(HOLDOUT_FRACTION * m)) if m >= 2 else 0
    remaining = m - n_hold
    train_runs, hold_runs = [], []
    for seg in segments:
        m_s = max(0, seg.shape[0] - seq_len)
        k = min(m_s, remaining)
        remaining -= k
        if k > 0:
            train_runs.append(seg[: k + seq_len])
        if m_s > k:
            hold_runs.append(seg[k:])
    return train_runs, hold_runs


def prepare_clients(config: ExperimentConfig):
    """Build per-client runtimes, the frozen bbox, the global holdout, the
    selection RNG and the count of dataset rows the parser dropped."""
    dims = Dims(2, config.hidden, 2)  # a point in and a point out, each a lat/lon pair
    trajectories, rejected = load_trajectories(config)
    datasets = partition_by_vehicle(trajectories, config.vehicles_per_client)
    if len(datasets) != config.n_clients:
        raise ConfigError(
            f"by-vehicle partition yields {len(datasets)} clients, "
            f"config says {config.n_clients}"
        )

    seq_len = config.seq_len
    splits = [_split_runs(segments, seq_len) for segments in datasets]
    train_point_arrays = [run for train_runs, _ in splits for run in train_runs]
    if not train_point_arrays:
        raise ConfigError("no client has enough points to form a single window")
    bbox = BBox.from_points(np.concatenate(train_point_arrays))

    counts = [sum(seg.shape[0] for seg in segments) for segments in datasets]
    client_p = [config.constant_p] * len(datasets)
    if config.scenario == "datasize":
        threshold = datasize_threshold(counts, config.datasize_percentile)
        client_p = assign_by_datasize(counts, threshold, config.p_company, config.p_private)

    root = np.random.SeedSequence(config.seed)
    server_ss, select_ss, clients_ss = root.spawn(3)
    client_seqs = clients_ss.spawn(len(datasets))
    rng_server = np.random.default_rng(server_ss)
    rng_select = np.random.default_rng(select_ss)

    global_model = init_params(dims, rng_server)

    # every holdout window is stored once, in the pooled holdout; a client's
    # holdout is its slice of it. Every holdout run has a window
    hold_windows = [
        make_windows(bbox.normalize(run), seq_len) for _, runs in splits for run in runs
    ]
    holdout = (
        np.concatenate([np.zeros((0, seq_len, 2))] + [w[0] for w in hold_windows]),
        np.concatenate([np.zeros((0, 2))] + [w[1] for w in hold_windows]),
    )
    for part in holdout:
        part.flags.writeable = False
    hold_ends = np.cumsum([0] + [sum(len(run) - seq_len for run in runs) for _, runs in splits])

    clients: dict[int, ClientRuntime] = {}
    for i, (segments, (train_runs, _), ss) in enumerate(zip(datasets, splits, client_seqs)):
        plan_ss, reveal_ss, conn_ss, train_ss, eval_ss = ss.spawn(5)
        stream_coords = bbox.normalize(np.concatenate([np.zeros((0, 2))] + train_runs))
        # windows at every stream position; those that cross from one run
        # into the next are never listed in window_starts
        train_inputs, train_targets = make_windows(stream_coords, seq_len)
        offsets = np.cumsum([0] + [run.shape[0] for run in train_runs])
        window_starts = np.concatenate(
            [np.zeros(0, dtype=int)]
            + [start + np.arange(run.shape[0] - seq_len) for start, run in zip(offsets, train_runs)]
        )
        hold = slice(hold_ends[i], hold_ends[i + 1])

        probs = _client_plan(config, train_runs, client_p[i], np.random.default_rng(plan_ss))
        joins = np.random.default_rng(reveal_ss).random(probs.size) < probs

        # a client with no window has no stream, but it holds at least one point
        points = stream_coords if stream_coords.size else bbox.normalize(np.concatenate(segments))

        clients[i] = ClientRuntime(
            n_points=counts[i],
            train_inputs=train_inputs,
            train_targets=train_targets,
            window_starts=window_starts,
            stream_coords=stream_coords,
            hold_inputs=holdout[0][hold],
            hold_targets=holdout[1][hold],
            reveal=RevealState(joins, config.slice_points),
            link=LinkState(),
            # round 1 pushes a copy of the global model to every client, and
            # local_only replaces it, before anyone reads it
            model=global_model,
            rng_conn=np.random.default_rng(conn_ss),
            rng_train=np.random.default_rng(train_ss),
            rng_eval=np.random.default_rng(eval_ss),
            centroid=points.mean(axis=0),
        )

    if holdout[0].shape[0] == 0:
        raise ConfigError("holdout is empty; clients have too few windows")
    return clients, global_model, bbox, holdout, rng_select, rejected


def _reveal_all(clients: dict[int, ClientRuntime]) -> None:
    for cid in sorted(clients):
        reveal_round(clients[cid].reveal)


def _sample_eval_batch(client: ClientRuntime, usable: np.ndarray, batch_size: int):
    picked = client.rng_eval.choice(usable, size=min(batch_size, usable.size), replace=False)
    picked = np.sort(picked)
    return client.train_inputs[picked], client.train_targets[picked]


def _train_phase(
    config: ExperimentConfig,
    clients: dict[int, ClientRuntime],
    ids: list[int],
    eta: float,
    prox_mu: float,
    anchored: set[int],
) -> tuple[dict[int, np.ndarray], set[int]]:
    """Local SGD of every client in ``ids`` that has a usable window, in id order.

    A client in ``anchored`` is pulled toward its cached peer head once it has
    one. Returns the usable windows of each client that trained, and the ids
    whose training diverged; their models stay as they were.
    """
    usable = {cid: w for cid in ids if (w := clients[cid].usable_window_indices()).size}
    diverged = set()
    for cid in sorted(usable):
        client = clients[cid]
        anchor = client.cache.head if cid in anchored and client.cache is not None else None
        try:
            client.model = train_local(
                client.model,
                client.train_inputs[usable[cid]],
                client.train_targets[usable[cid]],
                config.epochs,
                eta,
                config.batch_size,
                client.rng_train,
                kl_anchor=anchor,
                prox_mu=prox_mu,
            )
        except NumericError:
            diverged.add(cid)
    return usable, diverged


def _decentralized_round(
    config: ExperimentConfig,
    clients: dict[int, ClientRuntime],
    offline: list[int],
    eta: float,
    log: RoundLog,
) -> None:
    """Peer-collaboration pass over the offline set with snapshot semantics."""
    log.decentralized = True
    if not offline:
        return
    dims = next(iter(clients.values())).model.dims
    heads = {cid: clients[cid].model.fc_block.copy() for cid in sorted(clients)}
    positions = {cid: clients[cid].position() for cid in sorted(clients)}
    graph = build_neighbor_graph(positions, config.chi)
    usable, diverged = _train_phase(config, clients, offline, eta, 0.0, set(offline))
    for u in offline:
        client = clients[u]
        if u in diverged:
            # divergence aborts this client's peer round only
            log.events.append(f"numeric_abort_peer:{u}")
        elif u not in usable:
            # nothing to train on or to score candidates with: no exchange
            log.events += [f"peer_update_skipped:{u}", f"peer_eval_skipped:{u}"]
        else:
            inputs, targets = _sample_eval_batch(client, usable[u], config.batch_size)
            neighbors = [(nid, heads[nid]) for nid in graph[u]]
            log.payloads[u] = head_payload_values(len(neighbors), dims)
            client.cache = evaluate_candidates(client.model, u, neighbors, inputs, targets)
            log.collab_sources[u] = client.cache.source_id


def _server_round(
    config: ExperimentConfig,
    clients: dict[int, ClientRuntime],
    trained: dict[int, float],
    comp: CompensatorState,
    rng_select: np.random.Generator,
    log: RoundLog,
) -> ParamSet | None:
    """Rank, select and aggregate the clients trained this round.

    ``trained`` maps each trained client to its divergence from the global
    model. Returns the new global model, or None when nobody was selected.
    The budget caps a client's server uploads only; offline computation is
    free.
    """
    participants = []
    for cid in sorted(trained):
        if config.budget is None or clients[cid].link.n_uploads < config.budget:
            participants.append(cid)
        else:
            log.events.append(f"budget_exhausted:{cid}")
    log.entries = [
        RankEntry(
            client_id=cid,
            divergence=trained[cid],
            participation=participation(clients[cid].link.n_uploads, log.t),
            n_updates=clients[cid].link.n_uploads,
        )
        for cid in participants
    ]

    if not participants:
        log.events.append("empty_selection")
    elif config.selection_mode != "uniform":
        build_rank_entries(log.entries, comp)
        if config.selection_mode == "proportional":
            log.selected = sample_proportional(log.entries, config.k_selected, rng_select)
        else:
            log.selected = select_top_k(log.entries, config.k_selected)
    else:
        take = min(config.k_selected, len(participants))
        picked = rng_select.choice(np.array(participants), size=take, replace=False)
        log.selected = sorted(int(c) for c in picked)

    for cid in log.selected:
        clients[cid].link.n_uploads += 1

    new_global = None
    if log.selected:
        uploaded = [clients[cid].model for cid in sorted(log.selected)]
        sizes = [float(clients[cid].n_points) for cid in sorted(log.selected)]
        new_global = aggregate(uploaded, sizes if config.aggregate_by_datasize else None)

    if config.selection_mode != "uniform":
        decay_compensators(comp, participants)
        log.alpha = comp.alpha
    return new_global


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full round loop for any variant.

    local_only is the same loop with no server: every client starts from its
    own initialization, stays online, and never ranks, uploads or meets a peer;
    its round RMSE is the mean per-client holdout error and it has no global
    model.
    """
    clients, global_model, bbox, holdout, rng_select, rejected = prepare_clients(config)
    isolated = config.variant == "local_only"
    if isolated:
        for client in clients.values():
            client.model = init_params(global_model.dims, client.rng_train)
        global_model = None
    comp = CompensatorState(
        alpha=config.alpha0,
        delta_alpha=config.alpha_step,
        delta_beta=config.delta_beta,
        gamma=config.gamma,
        beta0=config.beta0,
    )
    # min-max normalization is per-axis affine, so degree-space errors are the
    # per-axis errors rescaled before pooling
    scale = bbox.scale() if config.rmse_units == "degrees" else 1.0
    states = {cid: clients[cid].link for cid in clients}
    rngs_conn = {cid: clients[cid].rng_conn for cid in clients}

    # one slice arrives before the first round so early training is possible
    _reveal_all(clients)

    logs: list[RoundLog] = []
    aborted = False
    # holdout RMSE of global_model, reset when aggregation replaces the model;
    # a round that aggregates nothing reuses it instead of re-scoring
    global_rmse: float | None = None
    for t in range(1, config.rounds + 1):
        eta = config.eta_at(t)
        if t == 1 or isolated:
            # every client starts online and nobody has recovered
            online, recovered, offline = sorted(clients), [], []
        else:
            online, recovered, offline = step_connectivity(
                states, config.p_offline, config.p_recover, rngs_conn
            )
        log = RoundLog(t=t, eta=eta, online=online, recovered=recovered, offline=offline)
        _reveal_all(clients)

        # a client resuming its own model keeps it; the others get the global push
        own = set(online) if isolated else set(recovered)
        for cid in online:
            if cid not in own:
                clients[cid].model = global_model.copy()
        usable, diverged = _train_phase(config, clients, online, eta, config.proximal_mu, own)
        trained: dict[int, float] = {}
        for cid in online:
            client = clients[cid]
            if cid not in usable:
                log.provenance[cid] = "skip"
                log.events.append(f"no_usable_windows:{cid}")
                continue
            log.provenance[cid] = "local" if cid in own else "global"
            if cid in diverged:
                # divergence aborts the run; logs so far are kept
                log.events.append(f"numeric_abort:client={cid}")
                aborted = True
                break
            if not isolated:
                trained[cid] = model_divergence(client.model, global_model)
            if client.hold_inputs.shape[0]:
                log.client_rmse[cid] = evaluate_rmse(
                    client.model, client.hold_inputs, client.hold_targets, scale
                )

        if not (aborted or isolated):
            new_global = _server_round(config, clients, trained, comp, rng_select, log)
            if new_global is not None:
                global_model, global_rmse = new_global, None
            if config.is_decentral_round(t):
                _decentralized_round(config, clients, offline, eta, log)
            elif config.offline_train_every_round:
                _, diverged = _train_phase(config, clients, offline, eta, 0.0, set(offline))
                for u in sorted(diverged):
                    # divergence skips this client's offline update only
                    log.events.append(f"numeric_abort_offline:{u}")

        if isolated:
            # no global model exists; report the mean per-client holdout error
            scores = list(log.client_rmse.values())
            log.rmse_global = float(np.mean(scores)) if scores else float("nan")
        else:
            if global_rmse is None:
                global_rmse = evaluate_rmse(global_model, *holdout, scale)
            log.rmse_global = global_rmse
        logs.append(log)
        if aborted:
            break

    return ExperimentResult(config, logs, global_model, rejected)
