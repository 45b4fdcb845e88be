#!/usr/bin/env python3
"""Show the three trajectory-availability scenarios and the reveal stream.

Every point of a client's stream carries a probability of ever becoming
usable; points arrive slice by slice, and a point that misses its slice is
lost for good.
"""

import numpy as np

from fedsim.availability import (
    RevealState,
    WeakArea,
    assign_by_datasize,
    assign_random,
    assign_regional,
    datasize_threshold,
    reveal_round,
)
from fedsim.data import synth_trajectories

rng = np.random.default_rng(0)
traj = synth_trajectories(seed=2, n_vehicles=1, points_each=600, kind="random-walk")[0]

# scenario 1: Dirichlet-random availability; small concentrations are bursty
for alpha in (0.2, 1.0, 100.0):
    probs = assign_random(traj.n_points, alpha_dir=alpha, rng=np.random.default_rng(1))
    print(
        f"random alpha={alpha:<6}: mean p {probs.mean():.3f}, "
        f"share of near-certain points (p > 0.99) {np.mean(probs > 0.99):.2f}, "
        f"share below 0.1 {np.mean(probs < 0.1):.2f}"
    )

# scenario 2: weak-signal areas cut availability inside their boxes
lat_mid = float(np.median(traj.coords[:, 0]))
lon_mid = float(np.median(traj.coords[:, 1]))
area = WeakArea(lat_mid - 0.3, lat_mid + 0.3, lon_mid - 0.3, lon_mid + 0.3)
probs = assign_regional(traj.coords, [area], p_low=0.2, p_high=0.9)
inside = int((probs == 0.2).sum())
print(f"\nregional: {inside}/{traj.n_points} points inside the weak area at p=0.2")

# scenario 3: company fleets (many points) keep high availability
counts = [150, 300, 800, 1200, 9000, 12000]
threshold = datasize_threshold(counts, percentile=80.0)
per_client = assign_by_datasize(counts, threshold, p_company=0.95, p_private=0.3)
print(f"datasize: counts {counts} at threshold {threshold:.0f} -> {per_client}")

# the reveal stream: one slice per round, losses are permanent
state = RevealState(assign_random(traj.n_points, 0.5, np.random.default_rng(3)), slice_size=96)
print("\nround  cursor  available  lost")
for t in range(1, 8):
    reveal_round(state, rng)
    n_available = np.count_nonzero(state.available)
    print(f"{t:>5}  {state.cursor:>6}  {n_available:>9}  {state.cursor - n_available:>4}")
print(f"nothing past the cursor is available: {not state.available[state.cursor :].any()}")
