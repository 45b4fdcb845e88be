#!/usr/bin/env python3
"""Trace the two-phase ranking weights and the decaying compensators.

While alpha > 1 a quadratic through (0, alpha), (m, 1), (2m, alpha) favors
high-divergence clients; once alpha decays past 1 a linear ramp favors
low-divergence clients. Late joiners carry a beta multiplier that decays to
1, and below-average updaters get a straggler boost.
"""

from fedsim.ranking import (
    ALPHA0,
    CompensatorState,
    RankEntry,
    build_rank_entries,
    combined_weight,
    decay_compensators,
    select_top_k,
    solve_quadratic,
    weight_early,
)

m_t = 10

print(f"divergence position -> weight, early (alpha={ALPHA0:g}) vs late (alpha<=1) phase")
b = solve_quadratic(ALPHA0, m_t)
print("pos:   " + "  ".join(f"{p:>5}" for p in range(1, m_t + 1)))
print("early: " + "  ".join(f"{weight_early(p, *b):>5.2f}" for p in range(1, m_t + 1)))
# the late weight with the participation position at m_t: the ramp P / m_t
late = [combined_weight(p, m_t, 1.0, m_t, 1.0) for p in range(1, m_t + 1)]
print("late:  " + "  ".join(f"{w:>5.2f}" for w in late))

# a round of ranking: divergences and participations become positions,
# positions become weights, stragglers get boosted, top-K upload
# the engine's compensators, with alpha's step for a 20-round run
comp = CompensatorState(alpha=ALPHA0, delta_alpha=2.0 * (ALPHA0 - 1.0) / 20)
entries = [
    RankEntry(client_id=0, divergence=0.90, participation=0.8, n_updates=8),
    RankEntry(client_id=1, divergence=0.40, participation=0.2, n_updates=2),
    RankEntry(client_id=2, divergence=0.10, participation=0.5, n_updates=5),
    RankEntry(client_id=3, divergence=0.70, participation=0.1, n_updates=1),
]
build_rank_entries(entries, comp)
print("\nclient  L      A    P_L  P_A  weight")
for e in entries:
    print(
        f"{e.client_id:>6}  {e.divergence:.2f}  {e.participation:.2f}  "
        f"{e.pos_divergence:>3}  {e.pos_participation:>3}  {e.weight:.4f}"
    )
print("selected for upload (K=2):", select_top_k(entries, 2))

decay_compensators(comp, [e.client_id for e in entries])
print(f"\nafter decay: alpha {comp.alpha:.2f}, beta of client 0 {comp.beta_for(0):.2f}")
for _ in range(12):
    decay_compensators(comp, [0])
print(f"after 13 ranked rounds: alpha {comp.alpha:.2f}, beta floor reached: {comp.beta_for(0)}")
