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
gathers only the rows it uses: those of the windows whose points all join,
listed at set-up, that the reveal has reached. Its holdout windows are a slice
of the pooled global holdout. It stands at the newest joined point revealed.
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
    reveal_round,
)
from .collab import evaluate_exchanges, head_payload_values
from .config import ExperimentConfig
from .connectivity import build_neighbor_graph, online_chains, step_connectivity
from .data import BBox, make_windows, parse_csv, partition_by_vehicle, synth_trajectories
from .errors import ConfigError, NumericError
from .nn import Dims, ParamSet, init_params, model_divergence
from .ranking import (
    ALPHA0,
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
    ready: np.ndarray                 # training-window positions whose S + 1 points all join
    stream_coords: np.ndarray         # (n_stream, 2) normalized training stream
    hold_inputs: np.ndarray           # this client's rows of the pooled holdout
    hold_targets: np.ndarray
    reveal: RevealState
    model: ParamSet
    rng_train: np.random.Generator
    rng_eval: np.random.Generator
    position: np.ndarray              # newest revealed joined point; its points' mean before one
    anchor: np.ndarray | None = None  # the head cached in its latest peer exchange
    n_uploads: int = 0                # server uploads so far

    def usable_window_indices(self) -> np.ndarray:
        """Stream positions of the revealed training windows whose points
        all joined; they index ``train_inputs`` and ``train_targets``."""
        # ready ascends, and a window is revealed once its last point is
        last = self.reveal.cursor - self.train_inputs.shape[1] - 1
        return self.ready[: np.searchsorted(self.ready, last, side="right")]


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
        return assign_regional(points, areas)
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
    """Build the client runtimes, a list indexed by client id, the frozen bbox,
    the global holdout, the selection RNG, the count of dataset rows the parser
    dropped, and every client's online flag in every round (``online_chains``)."""
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
        client_p = assign_by_datasize(counts)

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

    # a client's connectivity draw of each round after the first is kept only
    # as the two outcomes it can give its chain
    try:
        stays = np.empty((len(datasets), config.rounds - 1), dtype=bool)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"rounds={config.rounds} is too many to hold: {exc}") from exc
    recovers = np.empty_like(stays)

    clients: list[ClientRuntime] = []
    for i, (segments, (train_runs, _), ss) in enumerate(zip(datasets, splits, client_seqs)):
        plan_ss, reveal_ss, conn_ss, train_ss, eval_ss = ss.spawn(5)
        stream_coords = bbox.normalize(np.concatenate([np.zeros((0, 2))] + train_runs))
        # windows at every stream position; those that cross from one run
        # into the next are not training windows, so window_starts skips them
        train_inputs, train_targets = make_windows(stream_coords, seq_len)
        offsets = np.cumsum([0] + [run.shape[0] for run in train_runs])
        window_starts = np.concatenate(
            [np.zeros(0, dtype=int)]
            + [start + np.arange(run.shape[0] - seq_len) for start, run in zip(offsets, train_runs)]
        )
        hold = slice(hold_ends[i], hold_ends[i + 1])

        probs = _client_plan(config, train_runs, client_p[i], np.random.default_rng(plan_ss))
        joins = np.random.default_rng(reveal_ss).random(probs.size) < probs
        # fates never change, so the windows whose seq_len + 1 points all
        # join are known now; joined[p] counts the joined points before p
        joined = np.concatenate([[0], np.cumsum(joins)])
        full = joined[window_starts + seq_len + 1] - joined[window_starts] == seq_len + 1
        ready = window_starts[full]
        draws = np.random.default_rng(conn_ss).random(config.rounds - 1)
        stays[i], recovers[i] = draws >= config.p_offline, draws < config.p_recover

        # a client with no window has no stream, but it holds at least one point
        points = stream_coords if stream_coords.size else bbox.normalize(np.concatenate(segments))

        clients.append(ClientRuntime(
            n_points=counts[i],
            train_inputs=train_inputs,
            train_targets=train_targets,
            ready=ready,
            stream_coords=stream_coords,
            hold_inputs=holdout[0][hold],
            hold_targets=holdout[1][hold],
            reveal=RevealState(joins, config.slice_points),
            # round 1 pushes a copy of the global model to every client, and
            # local_only replaces it, before anyone reads it
            model=global_model,
            rng_train=np.random.default_rng(train_ss),
            rng_eval=np.random.default_rng(eval_ss),
            position=points.mean(axis=0),
        ))

    if holdout[0].shape[0] == 0:
        raise ConfigError("holdout is empty; clients have too few windows")
    online = online_chains(stays, recovers)
    return clients, global_model, bbox, holdout, rng_select, rejected, online


def _reveal_all(clients: list[ClientRuntime]) -> None:
    """Reveal each client's next slice; its newest joined point becomes the position."""
    for client in clients:
        joined = reveal_round(client.reveal)
        if joined.size:
            client.position = client.stream_coords[joined[-1]]


def _sample_eval_batch(client: ClientRuntime, usable: np.ndarray, batch_size: int):
    picked = client.rng_eval.choice(usable, size=min(batch_size, usable.size), replace=False)
    picked = np.sort(picked)
    return client.train_inputs[picked], client.train_targets[picked]


def _train_phase(
    config: ExperimentConfig,
    clients: list[ClientRuntime],
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
        anchor = client.anchor if cid in anchored else None
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
    clients: list[ClientRuntime],
    offline: list[int],
    eta: float,
    log: RoundLog,
) -> None:
    """Peer-collaboration pass over the offline set with snapshot semantics."""
    log.decentralized = True
    if not offline:
        return
    dims = clients[0].model.dims
    # heads as they were before this pass trains anyone: np.stack copies
    heads = np.stack([c.model.fc_block for c in clients])
    positions = np.array([c.position for c in clients])
    graph = build_neighbor_graph(positions, config.chi, np.array(offline))
    usable, diverged = _train_phase(config, clients, offline, eta, 0.0, set(offline))
    rows, batches = [], []  # the graph row and the eval batch of each exchange
    for row, u in enumerate(offline):
        if u in diverged:
            # divergence aborts this client's peer round only
            log.events.append(f"numeric_abort_peer:{u}")
        elif u not in usable:
            # nothing to train on or to score candidates with: no exchange
            log.events += [f"peer_update_skipped:{u}", f"peer_eval_skipped:{u}"]
        else:
            rows.append(row)
            batches.append(_sample_eval_batch(clients[u], usable[u], config.batch_size))
            log.payloads[u] = head_payload_values(graph.shape[1], dims)
    if not rows:
        return
    scored = [offline[row] for row in rows]
    models = [clients[u].model for u in scored]
    for u, best in zip(scored, evaluate_exchanges(models, scored, graph[rows], heads, batches)):
        clients[u].anchor, log.collab_sources[u] = best.head, best.source_id


def _server_round(
    config: ExperimentConfig,
    clients: list[ClientRuntime],
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
        if config.budget is None or clients[cid].n_uploads < config.budget:
            participants.append(cid)
        else:
            log.events.append(f"budget_exhausted:{cid}")
    log.entries = [
        RankEntry(
            client_id=cid,
            divergence=trained[cid],
            participation=clients[cid].n_uploads / log.t,
            n_updates=clients[cid].n_uploads,
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
        clients[cid].n_uploads += 1

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
    clients, global_model, _, holdout, rng_select, rejected, chains = prepare_clients(config)
    isolated = config.variant == "local_only"
    if isolated:
        for client in clients:
            client.model = init_params(global_model.dims, client.rng_train)
        global_model = None
    # alpha reaches 1, and the linear phase, halfway through the run
    comp = CompensatorState(alpha=ALPHA0, delta_alpha=2.0 * (ALPHA0 - 1.0) / config.rounds)

    # one slice arrives before the first round so early training is possible
    _reveal_all(clients)

    logs: list[RoundLog] = []
    aborted = False
    # holdout RMSE of global_model, reset when aggregation replaces the model;
    # a round that aggregates nothing reuses it instead of re-scoring
    global_rmse: float | None = None
    for t in range(1, config.rounds + 1):
        eta = config.eta_at(t)
        online, recovered, offline = (
            (list(range(len(clients))), [], []) if isolated else step_connectivity(chains, t)
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
                    client.model, client.hold_inputs, client.hold_targets
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
                global_rmse = evaluate_rmse(global_model, *holdout)
            log.rmse_global = global_rmse
        logs.append(log)
        if aborted:
            break

    return ExperimentResult(config, logs, global_model, rejected)
