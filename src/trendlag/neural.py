"""From-scratch dense feed-forward network with the full training recipe.

Hidden layers use hyperbolic tangent activations, the output layer two
independent logistic sigmoid units scored with a quadratic cost.  Training
is mini-batch gradient descent with L2 weight decay, momentum, per-epoch
multiplicative learning-rate decay, and early stopping that restores the
best-validation weights.  Weights start Gaussian with variance 2/fan_in;
an optional narrow bottleneck layer can be inserted mid-model to probe how
far the problem compresses.

A model keeps its parameters in one flat float64 vector: every weight
matrix (row-major, in layer order) first, then every bias vector, so weight
decay covers one prefix slice.  The momentum velocity and the gradient that
``backward`` returns share that layout.  ``init`` draws every weight
straight into the vector's weight prefix and scales each layer's view in
place.  The per-layer ``weights`` and ``biases`` are read-only tuples of
views into the parameter vector, so writing into one of them changes the
model.

``sgd_step`` applies a whole gradient vector in cache-sized blocks.
``train`` makes the same update without one: its step fuses the update into
the backward pass.  Whole layers, from the top, form update groups of at
least ``_UPDATE_BLOCK`` weights; a group is updated as soon as its weights
have carried the delta down, so every group's gradient shares one scratch
vector the size of the largest group.  The layers below the last group and
all biases are updated after the pass, which for a net smaller than one
block (19-32-32-2) is one blocked pass over the whole vector.  Every
element gets ``sgd_step``'s operations in its order, so ``train`` ends
bit for bit where ``backward`` and ``sgd_step`` per batch would.

A model also owns ``train``'s scratch: that gradient scratch, a
best-weights vector and one block's step buffer, so training allocates
nothing parameter-sized.  ``init`` can redraw into a model of the same
layer sizes: the harness trains all of a stock's splits in one model's
memory, and the paper-size net does not fault fresh vectors in for every
split.

Everything is plain numpy and deterministic under the configured seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .features import DOWN, UP


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture plus every training hyperparameter.

    The bottleneck, when set, is inserted after hidden layer
    ceil(len(hidden_layers) / 2), i.e. between layers 3 and 4 of the
    default five-layer stack.
    """

    input_dim: int
    hidden_layers: tuple[int, ...] = (400, 400, 400, 400, 400)
    bottleneck: int | None = None
    learning_rate: float = 0.05
    lr_decay: float = 0.97
    momentum: float = 0.9
    l2_lambda: float = 1e-4
    batch_size: int = 100
    max_epochs: int = 50
    early_stop_patience: int = 5
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))

    def validate(self) -> None:
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.hidden_layers:
            raise ConfigError("at least one hidden layer is required")
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")
        if self.bottleneck is not None and self.bottleneck < 1:
            raise ConfigError(f"bottleneck width must be >= 1, got {self.bottleneck}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must lie in (0, 1]")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ConfigError(f"l2_lambda must be non-negative and finite, got {self.l2_lambda}")
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
        # one sigmoid output unit for each label, DOWN and UP
        return (self.input_dim,) + self.hidden_with_bottleneck() + (2,)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic 1 / (1 + exp(-z)), written over ``z``."""
    e = np.exp(-np.abs(z))
    numerator = np.where(z >= 0, 1.0, e)
    e += 1.0
    return np.divide(numerator, e, out=z)


def _layer_views(
    flat: np.ndarray, sizes: tuple[int, ...]
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Weight-matrix and bias views into a flat vector: all weights, then all biases."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
        start += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[start : start + fan_out])
        start += fan_out
    return tuple(weights), tuple(biases)


# elements per update block: 256 KiB per float64 operand stays in cache
_UPDATE_BLOCK = 32768

# (parameter view, velocity view, gradient view, step buffer view,
#  offset of the first bias in the block or its length)
_Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]


def _update_blocks(
    model: NetworkModel, start: int, stop: int, gradient: np.ndarray
) -> tuple[_Block, ...]:
    """The update of ``parameters[start:stop]`` in blocks of at most ``_UPDATE_BLOCK`` elements.

    ``gradient`` holds that slice's gradient from its index 0.  Every block
    computes its step in the model's one step buffer.
    """
    blocks = []
    for lo in range(start, stop, _UPDATE_BLOCK):
        hi = min(lo + _UPDATE_BLOCK, stop)
        blocks.append((
            model.parameters[lo:hi], model.velocity[lo:hi], gradient[lo - start : hi - start],
            model._step[: hi - lo], min(max(model.n_weights - lo, 0), hi - lo),
        ))
    return tuple(blocks)


def _descend(blocks: tuple[_Block, ...], config: NetworkConfig, eta: float) -> None:
    """``sgd_step``'s update of each block's elements, at rate ``eta``."""
    for w, v, g, step, first_bias in blocks:
        np.multiply(w, config.l2_lambda, out=step)
        step[first_bias:] = -0.0  # no bias decay: -0.0 + g is exactly g, signed zeros too
        step += g
        step *= eta
        v *= config.momentum
        v -= step
        w += v


@dataclass(frozen=True)
class _FusedPlan:
    """Where ``train``'s fused step puts each gradient, and when it applies it.

    ``grad_w`` and ``grad_b`` are per-layer views into the model's gradient
    scratch.  ``after_layer[k]`` holds the blocks updated as soon as layer k
    has passed the delta down; ``rest`` those updated after the backward pass.
    """

    grad_w: tuple[np.ndarray, ...]
    grad_b: tuple[np.ndarray, ...]
    after_layer: tuple[tuple[_Block, ...], ...]
    rest: tuple[_Block, ...]


def _fused_plan(model: NetworkModel) -> _FusedPlan:
    """Update groups of whole layers, from the top, each of at least ``_UPDATE_BLOCK`` weights.

    Every group's gradient goes into the head of one scratch vector, as
    large as the largest group: a group is updated before the next one
    down is computed.  The layers below the last group and all biases (the
    rest) have the tail, weights then biases as in ``parameters``.  When no
    layer makes a group, the tail is the whole gradient and the rest is a
    single blocked pass over the whole vector, as ``sgd_step`` makes it.
    """
    sizes = model.config.layer_sizes()
    shapes = list(zip(sizes[:-1], sizes[1:]))
    edges = np.cumsum([0] + [i * o for i, o in shapes]).tolist()  # each layer's first weight
    groups, top = [], len(shapes)  # (lowest layer, highest layer + 1) per group
    for layer in range(len(shapes) - 1, -1, -1):
        if edges[top] - edges[layer] >= _UPDATE_BLOCK:
            groups.append((layer, top))
            top = layer
    head = max((edges[hi] - edges[lo] for lo, hi in groups), default=0)
    size, n_weights, n_rest_weights = model.parameters.size, model.n_weights, edges[top]
    scratch = np.empty(head + n_rest_weights + size - n_weights)
    rest = scratch[head:]
    grad_w, after_layer = [rest[edges[k] : edges[k + 1]] for k in range(top)], [()] * len(shapes)
    for lo, hi in reversed(groups):
        grad_w += [scratch[edges[k] - edges[lo] : edges[k + 1] - edges[lo]] for k in range(lo, hi)]
        after_layer[lo] = _update_blocks(model, edges[lo], edges[hi], scratch)
    bias_edges = np.cumsum([n_rest_weights, *sizes[1:]]).tolist()
    if top == len(shapes):
        rest_blocks = _update_blocks(model, 0, size, rest)
    else:
        rest_blocks = _update_blocks(model, 0, n_rest_weights, rest) + _update_blocks(
            model, n_weights, size, rest[n_rest_weights:]
        )
    return _FusedPlan(
        grad_w=tuple(g.reshape(shape) for g, shape in zip(grad_w, shapes)),
        grad_b=tuple(rest[a:b] for a, b in zip(bias_edges[:-1], bias_edges[1:])),
        after_layer=tuple(after_layer),
        rest=rest_blocks,
    )


class NetworkModel:
    """Layer weights and biases in one flat vector, momentum velocity in another.

    Both vectors start at zero.  The per-layer ``weights`` and ``biases``
    tuples are views into ``parameters``.  ``train``'s scratch is allocated
    here uninitialised, so its pages are touched only once a model trains:
    a best-weights vector, a gradient vector the size of the largest update
    group plus the rest (``_fused_plan``), and one update block's step.
    """

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        sizes = config.layer_sizes()
        size = sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
        # np.zeros, not zeros_like: calloc hands a large vector fresh zero pages, no memset
        self._parameters = np.zeros(size)
        self._velocity = np.zeros(size)
        self._weights, self._biases = _layer_views(self._parameters, sizes)
        self.n_weights = sum(w.size for w in self._weights)
        self._best, self._step = np.empty(size), np.empty(min(size, _UPDATE_BLOCK))
        self._plan = _fused_plan(self)
        self.rng = np.random.default_rng(config.rng_seed)

    @property
    def parameters(self) -> np.ndarray:
        return self._parameters

    @property
    def velocity(self) -> np.ndarray:
        return self._velocity

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return self._weights

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return self._biases

    @property
    def n_layers(self) -> int:
        return len(self._weights)


def init(config: NetworkConfig, model: NetworkModel | None = None) -> NetworkModel:
    """Gaussian-initialised model: weights ~ N(0, 2/fan_in), biases zero.

    One standard-normal draw into the weight prefix, then each layer scaled
    in place: the values and ``model.rng`` state of per-layer ``rng.normal``
    calls.  ``model.rng`` goes on to shuffle the batches.

    Given a ``model`` with ``config``'s layer sizes, the net is drawn into
    its memory instead: it takes ``config``, zero biases and velocity and a
    fresh ``rng``, and equals a new model bitwise.  Its vectors and training
    scratch are reused, so no fresh pages are faulted in.  A model with
    other layer sizes is a ValueError and is left as it was.
    """
    config.validate()
    if model is None:
        model = NetworkModel(config)
    elif model.config.layer_sizes() != config.layer_sizes():
        raise ValueError(
            f"cannot draw the chain {config.layer_sizes()} into a model of "
            f"{model.config.layer_sizes()}"
        )
    else:
        model.config = config
        model.parameters[model.n_weights :] = 0.0
        model.velocity.fill(0.0)
        model.rng = np.random.default_rng(config.rng_seed)
    model.rng.standard_normal(out=model.parameters[: model.n_weights])
    for w in model.weights:
        w *= np.sqrt(2.0 / w.shape[0])
    return model


def _layer_buffers(model: NetworkModel, rows: int) -> list[np.ndarray]:
    """One (rows, width) activation buffer per layer."""
    return [np.empty((rows, width)) for width in model.config.layer_sizes()[1:]]


def _forward_into(
    model: NetworkModel, x: np.ndarray, buffers: list[np.ndarray]
) -> list[np.ndarray]:
    """Activations per layer for a (batch, input_dim) matrix; index 0 = input.

    Each layer's activations fill the leading ``batch`` rows of its buffer.
    """
    activations = [x]
    last = model.n_layers - 1
    for layer, (w, b, buffer) in enumerate(zip(model.weights, model.biases, buffers)):
        z = np.matmul(activations[-1], w, out=buffer[: x.shape[0]])
        z += b
        if layer == last:
            _sigmoid(z)
        else:
            np.tanh(z, out=z)
        activations.append(z)
    return activations


def forward(model: NetworkModel, inputs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Network outputs plus cached per-layer activations for a (batch, input_dim) matrix.

    A single input vector is a one-row batch.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} features, model expects {model.config.input_dim}"
        )
    activations = _forward_into(model, x, _layer_buffers(model, x.shape[0]))
    return activations[-1], activations


def _forward_loss(
    model: NetworkModel, x: np.ndarray, y: np.ndarray, buffers: list[np.ndarray]
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """The batch's mean quadratic cost, its activations and its error outputs - ``y``."""
    activations = _forward_into(model, x, buffers)
    error = activations[-1] - y
    # np.add.reduce is np.sum without its Python wrapper, a few µs per step
    return float(0.5 * np.add.reduce(error**2, axis=None) / x.shape[0]), activations, error


def loss(model: NetworkModel, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean-reduced quadratic cost: 0.5 * mean_i sum_j (yhat - y)^2."""
    outputs, _ = forward(model, inputs)
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    return float(0.5 * np.sum((outputs - y) ** 2) / outputs.shape[0])


def _backpropagate(
    model: NetworkModel,
    activations: list[np.ndarray],
    error: np.ndarray,
    grad_w: tuple[np.ndarray, ...],
    grad_b: tuple[np.ndarray, ...],
    after_layer: tuple[tuple[_Block, ...], ...] | None = None,
    eta: float = 0.0,
) -> None:
    """The gradients of the batch's cost into ``grad_w`` and ``grad_b``.

    ``error`` and then, layer by layer from the top, the hidden activations'
    buffers become the back-propagated deltas.  With ``after_layer``, each
    layer's blocks descend at rate ``eta`` once that layer's weights have
    carried the delta down, before any lower layer's gradient is made.
    """
    outputs = activations[-1]
    # output layer: quadratic cost through the sigmoid, mean-reduced
    delta = error
    delta /= outputs.shape[0]
    delta *= outputs
    delta *= 1.0 - outputs
    for layer in range(model.n_layers - 1, -1, -1):
        a = activations[layer]
        np.matmul(a.T, delta, out=grad_w[layer])
        np.add.reduce(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            # tanh'(z) expressed through the cached activation, in its buffer; one
            # (batch, fan_in) temporary is alive at a time
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            a *= delta @ model.weights[layer].T
            delta = a
        if after_layer is not None and after_layer[layer]:
            _descend(after_layer[layer], model.config, eta)


def backward(model: NetworkModel, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of the mean-reduced quadratic cost.

    One float64 vector laid out like ``model.parameters``: every weight
    matrix row-major in layer order, then every bias.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("backward pass needs a non-empty batch")
    if y.shape != (x.shape[0], model.config.layer_sizes()[-1]):
        raise ValueError(f"target shape {y.shape} does not match batch/output dims")
    gradient = np.empty_like(model.parameters)
    grad_w, grad_b = _layer_views(gradient, model.config.layer_sizes())
    _, activations, error = _forward_loss(model, x, y, _layer_buffers(model, x.shape[0]))
    _backpropagate(model, activations, error, grad_w, grad_b)
    return gradient


def sgd_step(model: NetworkModel, gradient: np.ndarray, epoch: int) -> None:
    """One momentum + weight-decay descent update at the epoch's decayed rate.

    velocity <- momentum * velocity - eta_e * (gradient + lambda * w)
    w        <- w + velocity

    with eta_e = learning_rate * lr_decay ** epoch.  Weight decay applies
    to weight matrices only, not biases.  With momentum 0 and decay 1 this
    is exactly w - eta * (dE/dw + lambda * w).  ``gradient`` is laid out
    like ``model.parameters``, as ``backward`` returns it, and is left as is.
    The update runs block by block (``_update_blocks``) through one step
    buffer; every element gets the same operations in the same order.
    ``train`` makes this update fused into its backward pass instead.
    """
    cfg = model.config
    eta = cfg.learning_rate * cfg.lr_decay**epoch
    _descend(_update_blocks(model, 0, model.parameters.size, gradient), cfg, eta)


def _fused_step(
    model: NetworkModel, x: np.ndarray, y: np.ndarray, buffers: list[np.ndarray], eta: float
) -> float:
    """``backward`` and ``sgd_step`` on one batch, without a whole gradient vector.

    Each update group (``_fused_plan``) is updated during the backward pass,
    the rest after it; every element ends as the two calls would leave it.
    Returns the batch loss; a non-finite one leaves the model untouched.
    """
    batch_loss, activations, error = _forward_loss(model, x, y, buffers)
    if math.isfinite(batch_loss):
        plan = model._plan
        _backpropagate(model, activations, error, plan.grad_w, plan.grad_b, plan.after_layer, eta)
        _descend(plan.rest, model.config, eta)
    return batch_loss


@dataclass
class TrainReport:
    """Epoch counts and the validation loss curve from one training run.

    ``diverged`` marks a run stopped by a non-finite batch or validation
    loss; its model holds the weights of the best finite validation epoch,
    or the initial weights if no epoch finished with a finite loss.
    """

    epochs_run: int
    best_validation_loss: float
    stopped_early: bool
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

    Shuffles the training set every epoch, makes ``sgd_step``'s update per
    batch at that epoch's decayed rate, fused into the backward pass
    (``_fused_step``), and evaluates validation loss after each epoch in
    the batches' activation buffers.  Stops once validation loss has
    failed to improve for ``early_stop_patience`` consecutive epochs (or at
    max_epochs) and restores the weights of the best validation epoch.  A
    non-finite batch or validation loss ends training at once and marks
    the report diverged.
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
    best_params = model._best
    buffers = _layer_buffers(model, max(cfg.batch_size, x_val.shape[0]))
    best_val = np.inf
    np.copyto(best_params, model.parameters)
    epochs_since_best = 0
    stopped_early = False
    val_curve: list[float] = []
    epochs_run = 0
    diverged = False
    for epoch in range(cfg.max_epochs):
        eta = cfg.learning_rate * cfg.lr_decay**epoch
        order = model.rng.permutation(n)
        x_epoch, y_epoch = x_train[order], y_train[order]
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            batch_loss = _fused_step(model, x_epoch[start:stop], y_epoch[start:stop], buffers, eta)
            if not math.isfinite(batch_loss):
                diverged = True
                break
        if diverged:
            break
        val_loss = _forward_loss(model, x_val, y_val, buffers)[0]
        val_curve.append(val_loss)
        epochs_run = epoch + 1
        if not math.isfinite(val_loss):
            diverged = True
            break
        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best_params, model.parameters)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.early_stop_patience:
                stopped_early = True
                break
    np.copyto(model.parameters, best_params)
    return TrainReport(
        epochs_run=epochs_run,
        best_validation_loss=float(best_val),
        stopped_early=stopped_early,
        validation_losses=tuple(val_curve),
        diverged=diverged,
    )


def predict_class(model: NetworkModel, inputs: np.ndarray) -> np.ndarray:
    """Per input row, the argmax over the two sigmoid outputs; exact ties go to the down class."""
    outputs, _ = forward(model, inputs)
    return np.where(outputs[:, UP] > outputs[:, DOWN], UP, DOWN).astype(np.int64)

