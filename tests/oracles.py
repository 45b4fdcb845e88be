"""Independent reference implementations used as test oracles.

Everything in this file is written directly from the defining equations,
scalar loop by scalar loop, and deliberately shares no code with the
vectorized package under test.
"""

import csv
import math
from datetime import datetime, timezone

import numpy as np


def sigmoid_scalar(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def lstm_forward_scalar(lstm_block, fc_block, n_in, n_hidden, n_out, inputs):
    """Step-by-step scalar LSTM + linear head.

    Parameter layout interpreted directly from the flat vectors:
    lstm_block = [W rows for the stacked (x, h) input, columns i|f|g|o, then
    the 4H gate bias], fc_block = [H x O weight rows, then O bias].
    Returns (predictions, final hidden state) as lists of lists.
    """
    H = n_hidden
    n_z = n_in + n_hidden
    preds = []
    hiddens = []
    for seq in inputs:
        h = [0.0] * H
        c = [0.0] * H
        for step in seq:
            z = list(step) + h
            h_new = [0.0] * H
            c_new = [0.0] * H
            for u in range(H):
                a_i = lstm_block[n_z * 4 * H + 0 * H + u]
                a_f = lstm_block[n_z * 4 * H + 1 * H + u]
                a_g = lstm_block[n_z * 4 * H + 2 * H + u]
                a_o = lstm_block[n_z * 4 * H + 3 * H + u]
                for r in range(n_z):
                    row = lstm_block[r * 4 * H : (r + 1) * 4 * H]
                    a_i += z[r] * row[0 * H + u]
                    a_f += z[r] * row[1 * H + u]
                    a_g += z[r] * row[2 * H + u]
                    a_o += z[r] * row[3 * H + u]
                gate_i = sigmoid_scalar(a_i)
                gate_f = sigmoid_scalar(a_f)
                gate_g = math.tanh(a_g)
                gate_o = sigmoid_scalar(a_o)
                c_new[u] = gate_f * c[u] + gate_i * gate_g
                h_new[u] = gate_o * math.tanh(c_new[u])
            h = h_new
            c = c_new
        y = []
        for k in range(n_out):
            acc = fc_block[H * n_out + k]
            for u in range(H):
                acc += h[u] * fc_block[u * n_out + k]
            y.append(acc)
        preds.append(y)
        hiddens.append(h)
    return preds, hiddens


def finite_difference_gradient(loss_fn, vec, eps=1e-5):
    """Central finite differences of loss_fn over a flat parameter vector."""
    vec = np.asarray(vec, dtype=float)
    grad = np.zeros_like(vec)
    for k in range(vec.size):
        bumped = vec.copy()
        bumped[k] += eps
        hi = loss_fn(bumped)
        bumped[k] -= 2.0 * eps
        lo = loss_fn(bumped)
        grad[k] = (hi - lo) / (2.0 * eps)
    return grad


def gradcheck_relative_error(analytic, numeric):
    """Worst-case relative error, clamped to absolute below unit scale."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def brute_force_top_k(weights_by_id, k):
    """Exhaustive selection oracle: largest weights, ties to the lowest id."""
    order = sorted(weights_by_id.items(), key=lambda kv: (-kv[1], kv[0]))
    return [cid for cid, _ in order[: max(0, k)]]


def kl_scalar(p, q):
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))


def markov_online_fraction(p_offline, p_recover):
    """Stationary online probability of the two-state offline/online chain."""
    return p_recover / (p_recover + p_offline)


def brute_force_neighbors(positions, chi):
    """Ids of every client's chi nearest others, from one sorted (distance, id) list each."""
    ids = sorted(positions)
    pts = np.array([positions[cid] for cid in ids], dtype=float)
    graph = {}
    for i, cid in enumerate(ids):
        dists = np.linalg.norm(pts - pts[i], axis=1)
        order = sorted((float(dists[j]), ids[j]) for j in range(len(ids)) if j != i)
        graph[cid] = [nid for _, nid in order[:chi]]
    return graph


def best_head_by_loop(hidden, targets, own_id, own_head, neighbor_heads, n_hidden, n_out):
    """Source id of the head with the lowest MSE, one 2-D product per head.

    Candidates are scanned as [own, neighbors by ascending id] with a strict
    ``<``, so ties keep the earlier candidate and a NaN loss never replaces one.
    """
    n_w = n_hidden * n_out
    best_id, best_loss = None, None
    for cid, head in [(own_id, own_head)] + sorted(neighbor_heads, key=lambda kv: kv[0]):
        head = np.asarray(head, dtype=float)
        diff = hidden @ head[:n_w].reshape(n_hidden, n_out) + head[n_w:] - targets
        loss = float(np.mean(diff * diff))
        if best_loss is None or loss < best_loss:
            best_id, best_loss = cid, loss
    return best_id


def windows_by_slices(points, seq_len):
    """(inputs, targets) of stride-1 windows, one slice per window."""
    points = np.asarray(points, dtype=float)
    m = max(0, points.shape[0] - seq_len)
    inputs = [points[k : k + seq_len] for k in range(m)]
    targets = [points[k + seq_len] for k in range(m)]
    return (
        np.array(inputs).reshape(m, seq_len, points.shape[1]),
        np.array(targets).reshape(m, points.shape[1]),
    )


def reveal_by_slices(probs, slice_size, rng):
    """The streaming reveal drawn slice by slice: each round draws one number
    per point of its slice and marks the points whose draw falls under their
    probability. Returns one (cursor, newly joined indices) pair per round,
    until the stream ends, and the final mask of joined points."""
    n = len(probs)
    available = [False] * n
    rounds = []
    cursor = 0
    while cursor < n:
        stop = min(cursor + slice_size, n)
        draws = rng.random(stop - cursor)
        new = []
        for i in range(cursor, stop):
            if draws[i - cursor] < probs[i]:
                available[i] = True
                new.append(i)
        rounds.append((stop, new))
        cursor = stop
    return rounds, available


def parse_rows_by_loop(path, tdrive):
    """(trajectories as (id, timestamps, coords) triples, rejected count) of a
    well-formed CSV or T-Drive file, one row tuple at a time.

    Rows are grouped per vehicle in a dict of lists, each vehicle's points are
    sorted by timestamp with a stable sort, and the first of equal timestamps
    is kept. Rows with coordinates out of the degree ranges are counted.
    """
    def timestamp(raw):
        raw = raw.strip()
        try:
            return float(raw)
        except ValueError:
            parsed = datetime.fromisoformat(raw)
            if parsed.tzinfo is None:
                parsed = parsed.replace(tzinfo=timezone.utc)
            return parsed.timestamp()

    by_vehicle = {}
    rejected = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            header = not tdrive and lineno == 1 and [c.strip() for c in row] == [
                "vehicle_id", "timestamp", "lat", "lon"
            ]
            if not row or header:
                continue
            ts, first, second = timestamp(row[1]), float(row[2]), float(row[3])
            lat, lon = (second, first) if tdrive else (first, second)
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                rejected += 1
                continue
            by_vehicle.setdefault(row[0].strip(), []).append((ts, lat, lon))
    trajectories = []
    for vid in sorted(by_vehicle):
        pts = sorted(by_vehicle[vid], key=lambda p: p[0])
        deduped = [pts[0]]
        for p in pts[1:]:
            if p[0] != deduped[-1][0]:
                deduped.append(p)
        ts = np.array([p[0] for p in deduped])
        coords = np.array([[p[1], p[2]] for p in deduped])
        trajectories.append((vid, ts, coords))
    return trajectories, rejected
