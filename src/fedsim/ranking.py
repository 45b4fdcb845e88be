"""Server-side client ranking: position weights, compensators, top-K picks.

Each round the server ranks participants by model divergence and by
participation, combines the two positions into a weight, applies the decaying
compensators, and selects the top-K weights for aggregation.

The divergence weight runs in two phases. While the compensator alpha exceeds
1, a quadratic through (0, alpha), (m, 1), (2m, alpha) boosts high-divergence
clients; once alpha decays to 1 or below, a linear ramp P/m favors
low-divergence clients instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The compensators' start values and beta's decay rate; alpha's rate depends
# on the run's length, so ``run_experiment`` derives it.
ALPHA0 = 2.0
BETA0 = 1.5
DELTA_BETA = 0.05
GAMMA = 1.2


@dataclass
class CompensatorState:
    """Decaying ranking compensators shared by the server.

    alpha: divergence-phase compensator, decays by delta_alpha per round.
    beta: per-client late-join multiplier, decays toward a floor of 1 each
    round the client is ranked. gamma: straggler boost multiplier.
    """

    alpha: float
    delta_alpha: float
    delta_beta: float
    gamma: float
    beta: dict[int, float] = field(default_factory=dict)
    beta0: float = 1.0

    def beta_for(self, client_id: int) -> float:
        return self.beta.get(client_id, self.beta0)


@dataclass
class RankEntry:
    """One participant's ranking record for a round."""

    client_id: int
    divergence: float
    participation: float
    n_updates: int
    pos_divergence: int = 0
    pos_participation: int = 0
    weight: float = 0.0


def solve_quadratic(alpha: float, m_t: int) -> tuple[float, float, float]:
    """Coefficients (b0, b1, b2) of the parabola through the three anchors."""
    b0 = (alpha - 1.0) / (m_t * m_t)
    b1 = -2.0 * m_t * (alpha - 1.0) / (m_t * m_t)
    b2 = alpha
    return b0, b1, b2


def weight_early(pos: float, b0: float, b1: float, b2: float) -> float:
    """Quadratic-phase weight for a 1-based ranking position."""
    return b0 * pos * pos + b1 * pos + b2


def rank_positions(values: list[tuple[int, float]]) -> dict[int, int]:
    """1-based positions with the largest value first; ties go to lower ids."""
    order = sorted(values, key=lambda kv: (-kv[1], kv[0]))
    return {cid: pos for pos, (cid, _) in enumerate(order, start=1)}


def combined_weight(
    pos_divergence: int,
    pos_participation: int,
    alpha: float,
    m_t: int,
    beta: float,
) -> float:
    """Fold both positions and the late-join multiplier into one weight."""
    if alpha > 1.0:
        b0, b1, b2 = solve_quadratic(alpha, m_t)
        return weight_early(pos_divergence, b0, b1, b2) * pos_participation / m_t * beta
    return pos_divergence * pos_participation / (m_t * m_t) * beta


def straggler_boost(entries: list[RankEntry], gamma: float) -> None:
    """Multiply weights of below-mean updaters by gamma in place (strict inequality)."""
    mean_updates = sum(e.n_updates for e in entries) / len(entries)
    for entry in entries:
        if entry.n_updates < mean_updates:
            entry.weight *= gamma


def build_rank_entries(participants: list[RankEntry], comp: CompensatorState) -> None:
    """Assign positions and weights to this round's participants in place."""
    m_t = len(participants)
    pos_div = rank_positions([(e.client_id, e.divergence) for e in participants])
    pos_part = rank_positions([(e.client_id, e.participation) for e in participants])
    for entry in participants:
        entry.pos_divergence = pos_div[entry.client_id]
        entry.pos_participation = pos_part[entry.client_id]
        entry.weight = combined_weight(
            entry.pos_divergence,
            entry.pos_participation,
            comp.alpha,
            m_t,
            comp.beta_for(entry.client_id),
        )
    straggler_boost(participants, comp.gamma)


def decay_compensators(comp: CompensatorState, ranked_ids: list[int]) -> None:
    """Per-round decay: beta toward its floor for ranked clients, alpha always."""
    for cid in ranked_ids:
        comp.beta[cid] = max(comp.beta_for(cid) - comp.delta_beta, 1.0)
    comp.alpha -= comp.delta_alpha


def select_top_k(entries: list[RankEntry], k: int) -> list[int]:
    """Ids of the min(k, m_t) largest weights; ties go to lower ids."""
    order = sorted(entries, key=lambda e: (-e.weight, e.client_id))
    return [e.client_id for e in order[:k]]


def sample_proportional(
    entries: list[RankEntry], k: int, rng: np.random.Generator
) -> list[int]:
    """Weight-proportional sampling without replacement (ablation mode).

    Every weight must be positive and finite, as every weight that
    ``build_rank_entries`` assigns under the module's compensators is.
    """
    ids = np.array([e.client_id for e in entries])
    w = np.array([e.weight for e in entries], dtype=float)
    picked = rng.choice(ids, size=min(k, len(entries)), replace=False, p=w / w.sum())
    return sorted(int(cid) for cid in picked)
