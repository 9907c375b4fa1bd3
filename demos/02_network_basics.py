#!/usr/bin/env python3
"""Exercise the from-scratch network: forward, gradients, XOR, early stopping.

Shows the pieces the experiment harness builds on: Gaussian initialization,
tanh/sigmoid forward passes, backpropagation checked against finite
differences, momentum descent with learning-rate decay, and early stopping
that restores the best-validation weights.
"""

import numpy as np

import trendlag.neural as nn

# --- a small net and a numerical gradient spot-check ---------------------
config = nn.NetworkConfig(input_dim=3, hidden_layers=(6, 6), rng_seed=0)
model = nn.init(config)
print("layer sizes:", config.layer_sizes())

rng = np.random.default_rng(2)
x = rng.normal(size=(5, 3))
y = np.eye(2)[rng.integers(0, 2, 5)]
grad = nn.backward(model, x, y)  # one vector, laid out like model.parameters

# entry 31 of the flat vector: weights of layer 0 (3 x 6) come first, so this
# is weight (2, 1) of layer 1, the same number as model.weights[1][2, 1]
i, eps = 3 * 6 + 2 * 6 + 1, 1e-5
model.parameters[i] += eps
up = nn.loss(model, x, y)
model.parameters[i] -= 2 * eps
down = nn.loss(model, x, y)
model.parameters[i] += eps
numeric = (up - down) / (2 * eps)
analytic = grad[i]
print(f"gradient spot check: analytic {analytic:+.8f} vs numeric {numeric:+.8f}")

# --- XOR: the classic separability sanity check --------------------------
xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
xor_labels = np.array([0, 1, 1, 0])
xor_y = np.eye(2)[xor_labels]
xor_config = nn.NetworkConfig(
    input_dim=2, hidden_layers=(8,), batch_size=4,
    max_epochs=5000, early_stop_patience=5000,
    lr_decay=0.97 ** (50 / 5000),  # stretch the default decay over the budget
    rng_seed=7,
)
xor_model = nn.init(xor_config)
report = nn.train(xor_model, (xor_x, xor_y), (xor_x, xor_y))
accuracy = np.mean(nn.predict_class(xor_model, xor_x) == xor_labels)
print(f"\nXOR: {accuracy:.0%} training accuracy after {report.epochs_run} epochs "
      f"(final loss {report.best_validation_loss:.5f})")

# --- early stopping restores the best-validation weights -----------------
half = 30
data_x = rng.normal(size=(2 * half, 3))
data_y = np.eye(2)[(data_x[:, 0] > 0).astype(int)]
es_model = nn.init(nn.NetworkConfig(input_dim=3, hidden_layers=(16,), batch_size=10,
                                    max_epochs=40, early_stop_patience=4, rng_seed=3))
es_report = nn.train(es_model, (data_x[:half], data_y[:half]), (data_x[half:], data_y[half:]))
print(f"\nearly stopping: ran {es_report.epochs_run}/40 epochs, "
      f"stopped early: {es_report.stopped_early}, "
      f"best validation loss {es_report.best_validation_loss:.5f}")
print("restored-weight validation loss:",
      round(nn.loss(es_model, data_x[half:], data_y[half:]), 5))
