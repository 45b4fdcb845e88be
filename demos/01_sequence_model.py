#!/usr/bin/env python3
"""Walk through the sequence model: forward pass, training, gradient check.

The model is a single-layer LSTM with a linear head, stored as one flat
parameter vector with the recurrent and head blocks as views into it. This
script trains it on one synthetic vehicle and then verifies the hand-written
backpropagation against finite differences with `fedsim gradcheck`.
"""

import sys

import numpy as np

from fedsim.cli import main
from fedsim.data import BBox, make_windows, synth_trajectories
from fedsim.nn import Dims, TrainBatch, forward, init_params, mse_loss
from fedsim.training import evaluate_rmse, train_local

rng = np.random.default_rng(0)
dims = Dims(n_in=2, n_hidden=16, n_out=2)
model = init_params(dims, rng)
print(f"model dims {dims}: {dims.lstm_size} recurrent + {dims.fc_size} head parameters")

# one vehicle, normalized into the unit square, 6-step windows
traj = synth_trajectories(seed=1, n_vehicles=1, points_each=200, kind="sinusoid")[0]
bbox = BBox.from_points(traj.coords)
inputs, targets = make_windows(bbox.normalize(traj.coords), seq_len=6)
split = int(0.8 * inputs.shape[0])
print(f"{inputs.shape[0]} windows -> {split} train / {inputs.shape[0] - split} holdout")

preds = forward(model, TrainBatch(inputs[:split], targets[:split]))
print(f"before training: loss {mse_loss(preds, targets[:split]):.5f}")

model = train_local(
    model, inputs[:split], targets[:split], epochs=400, eta=0.05, batch_size=16, rng=rng
)
print(f"after 400 epochs: holdout RMSE {evaluate_rmse(model, inputs[split:], targets[split:]):.5f}")
last_step = inputs[split:, -1, :]
persistence = float(np.sqrt(np.mean((last_step - targets[split:]) ** 2)))
print(f"persistence baseline (predict the last seen point): {persistence:.5f}")

# gradient check on a small instance: analytic BPTT vs central differences;
# the demo exits 1 if it fails
sys.exit(main(["gradcheck", "--hidden", "6", "--trials", "2"]))
