"""From-scratch dense feed-forward network with the full training recipe.

Hidden layers use hyperbolic tangent activations, the output layer two
independent logistic sigmoid units scored with a quadratic cost.  Training
is mini-batch gradient descent with L2 weight decay, momentum, per-epoch
multiplicative learning-rate decay, and early stopping that restores the
best-validation weights.  Weights start Gaussian with variance 2/fan_in;
an optional narrow bottleneck layer can be inserted mid-model to probe how
far the problem compresses.

Everything is plain numpy and deterministic under the configured seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

DOWN, UP = 0, 1


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture plus every training hyperparameter.

    The bottleneck, when set, is inserted after hidden layer
    ceil(len(hidden_layers) / 2), i.e. between layers 3 and 4 of the
    default five-layer stack.  ``sigmoid_midpoint`` shifts the output
    activation 1 / (1 + exp(-(x - midpoint))); 0 is the standard logistic.
    """

    input_dim: int
    hidden_layers: tuple[int, ...] = (400, 400, 400, 400, 400)
    bottleneck: int | None = None
    output_dim: int = 2
    learning_rate: float = 0.05
    lr_decay: float = 0.97
    momentum: float = 0.9
    l2_lambda: float = 1e-4
    batch_size: int = 100
    max_epochs: int = 50
    early_stop_patience: int = 5
    sigmoid_midpoint: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.output_dim < 1:
            raise ConfigError(f"output_dim must be >= 1, got {self.output_dim}")
        if not self.hidden_layers:
            raise ConfigError("at least one hidden layer is required")
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")
        if self.bottleneck is not None and self.bottleneck < 1:
            raise ConfigError(f"bottleneck width must be >= 1, got {self.bottleneck}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must lie in (0, 1]")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.l2_lambda < 0:
            raise ConfigError("l2_lambda must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be positive")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be positive")

    def hidden_with_bottleneck(self) -> tuple[int, ...]:
        if self.bottleneck is None:
            return self.hidden_layers
        pos = (len(self.hidden_layers) + 1) // 2
        return self.hidden_layers[:pos] + (self.bottleneck,) + self.hidden_layers[pos:]

    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim,) + self.hidden_with_bottleneck() + (self.output_dim,)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic 1 / (1 + exp(-z))."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class Gradients:
    """Cost gradients w.r.t. every weight matrix and bias vector."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


class NetworkModel:
    """Layer weights, biases, and momentum velocity buffers."""

    def __init__(
        self,
        config: NetworkConfig,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
    ) -> None:
        self.config = config
        self.weights = weights
        self.biases = biases
        self.velocities_w = [np.zeros_like(w) for w in weights]
        self.velocities_b = [np.zeros_like(b) for b in biases]
        self.rng = np.random.default_rng(config.rng_seed)
        sizes = config.layer_sizes()
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ConfigError(
                    f"layer {i} shapes {w.shape}/{b.shape} break the chain {sizes}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy_parameters(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]

    def set_parameters(self, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]


def init(config: NetworkConfig) -> NetworkModel:
    """Gaussian-initialised model: weights ~ N(0, 2/fan_in), biases zero."""
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    sizes = config.layer_sizes()
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    model = NetworkModel(config, weights, biases)
    model.rng = rng  # continue the same stream for batch shuffling
    return model


def _forward_batch(model: NetworkModel, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer for a (batch, input_dim) matrix; index 0 = input."""
    activations = [x]
    last = model.n_layers - 1
    a = x
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        if layer == last:
            a = _sigmoid(z - model.config.sigmoid_midpoint)
        else:
            a = np.tanh(z)
        activations.append(a)
    return activations


def forward(model: NetworkModel, inputs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Network outputs plus cached per-layer activations.

    Accepts a single input vector or a (batch, input_dim) matrix; the
    output shape follows the input.
    """
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.config.input_dim:
        raise ValueError(
            f"input has {x2.shape[1]} features, model expects {model.config.input_dim}"
        )
    activations = _forward_batch(model, x2)
    if single:
        activations = [a[0] for a in activations]
    return activations[-1], activations


def loss(model: NetworkModel, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean-reduced quadratic cost: 0.5 * mean_i sum_j (yhat - y)^2."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    outputs = _forward_batch(model, x)[-1]
    return float(0.5 * np.sum((outputs - y) ** 2) / x.shape[0])


def _loss_and_gradients(
    model: NetworkModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, Gradients]:
    batch = x.shape[0]
    activations = _forward_batch(model, x)
    outputs = activations[-1]
    batch_loss = float(0.5 * np.sum((outputs - y) ** 2) / batch)
    # output layer: quadratic cost through the sigmoid, mean-reduced
    delta = (outputs - y) / batch * outputs * (1.0 - outputs)
    grad_w = [np.empty(0)] * model.n_layers
    grad_b = [np.empty(0)] * model.n_layers
    for layer in range(model.n_layers - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            # tanh'(z) expressed through the cached activation
            delta = (delta @ model.weights[layer].T) * (1.0 - activations[layer] ** 2)
    return batch_loss, Gradients(weights=grad_w, biases=grad_b)


def backward(model: NetworkModel, inputs: np.ndarray, targets: np.ndarray) -> Gradients:
    """Reverse-mode gradients of the mean-reduced quadratic cost."""
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("backward pass needs a non-empty batch")
    if y.shape != (x.shape[0], model.config.output_dim):
        raise ValueError(f"target shape {y.shape} does not match batch/output dims")
    return _loss_and_gradients(model, x, y)[1]


def sgd_step(model: NetworkModel, gradients: Gradients, epoch: int) -> None:
    """One momentum + weight-decay descent update at the epoch's decayed rate.

    velocity <- momentum * velocity - eta_e * (gradient + lambda * w)
    w        <- w + velocity

    with eta_e = learning_rate * lr_decay ** epoch.  Weight decay applies
    to weight matrices only, not biases.  With momentum 0 and decay 1 this
    is exactly w - eta * (dE/dw + lambda * w).
    """
    cfg = model.config
    eta = cfg.learning_rate * cfg.lr_decay**epoch
    mu = cfg.momentum
    lam = cfg.l2_lambda
    for i in range(model.n_layers):
        vw = mu * model.velocities_w[i] - eta * (gradients.weights[i] + lam * model.weights[i])
        model.velocities_w[i] = vw
        model.weights[i] = model.weights[i] + vw
        vb = mu * model.velocities_b[i] - eta * gradients.biases[i]
        model.velocities_b[i] = vb
        model.biases[i] = model.biases[i] + vb


@dataclass
class TrainReport:
    """Epoch counts and loss curves from one training run.

    ``diverged`` marks a run stopped by a non-finite batch or validation
    loss; its model holds the weights of the best finite validation epoch,
    or the initial weights if no epoch finished with a finite loss.
    """

    epochs_run: int
    best_validation_loss: float
    stopped_early: bool
    train_losses: tuple[float, ...] = field(default_factory=tuple)
    validation_losses: tuple[float, ...] = field(default_factory=tuple)
    diverged: bool = False


def _as_arrays(dataset: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """An (X, Y) pair as 2-D float arrays."""
    x, y = dataset
    return np.atleast_2d(np.asarray(x, dtype=np.float64)), np.atleast_2d(
        np.asarray(y, dtype=np.float64)
    )


def train(model: NetworkModel, train_set, validation_set) -> TrainReport:
    """Mini-batch training with early stopping on validation loss.

    Shuffles the training set every epoch, applies sgd_step per batch at
    that epoch's decayed rate, and evaluates validation loss after each
    epoch.  Stops once validation loss has failed to improve for
    ``early_stop_patience`` consecutive epochs (or at max_epochs) and
    restores the weights of the best validation epoch.  A non-finite batch
    or validation loss ends training at once and marks the report diverged.
    """
    cfg = model.config
    x_train, y_train = _as_arrays(train_set)
    x_val, y_val = _as_arrays(validation_set)
    n = x_train.shape[0]
    if n == 0:
        raise ConfigError("training set is empty")
    if x_val.shape[0] == 0:
        raise ConfigError("validation set is empty")
    if cfg.batch_size > n:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training-set size {n}"
        )
    best_val = np.inf
    best_params = model.copy_parameters()
    epochs_since_best = 0
    stopped_early = False
    train_curve: list[float] = []
    val_curve: list[float] = []
    epochs_run = 0
    diverged = False
    for epoch in range(cfg.max_epochs):
        order = model.rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch_loss, grads = _loss_and_gradients(model, x_train[idx], y_train[idx])
            if not math.isfinite(batch_loss):
                diverged = True
                break
            sgd_step(model, grads, epoch)
            batch_losses.append(batch_loss)
        if diverged:
            break
        train_curve.append(float(np.mean(batch_losses)))
        val_loss = loss(model, x_val, y_val)
        val_curve.append(val_loss)
        epochs_run = epoch + 1
        if not math.isfinite(val_loss):
            diverged = True
            break
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.copy_parameters()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.early_stop_patience:
                stopped_early = True
                break
    model.set_parameters(*best_params)
    return TrainReport(
        epochs_run=epochs_run,
        best_validation_loss=float(best_val),
        stopped_early=stopped_early,
        train_losses=tuple(train_curve),
        validation_losses=tuple(val_curve),
        diverged=diverged,
    )


def predict_class(model: NetworkModel, inputs: np.ndarray) -> int | np.ndarray:
    """Argmax over the two sigmoid outputs; exact ties go to the down class."""
    outputs, _ = forward(model, inputs)
    if outputs.ndim == 1:
        return UP if outputs[UP] > outputs[DOWN] else DOWN
    return np.where(outputs[:, UP] > outputs[:, DOWN], UP, DOWN).astype(np.int64)


CHECKPOINT_FORMAT = "trendlag-network"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: NetworkModel, path: str | Path) -> None:
    """Write config and parameters as JSON; reload reproduces predictions bitwise."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "layer_sizes": list(model.config.layer_sizes()),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str | Path) -> NetworkModel:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a network checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    raw = dict(payload["config"])
    raw["hidden_layers"] = tuple(raw["hidden_layers"])
    config = NetworkConfig(**raw)
    weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
    return NetworkModel(config, weights, biases)
