"""From-scratch dense feed-forward network with the full training recipe.

Hidden layers use hyperbolic tangent activations, the output layer two
independent logistic sigmoid units scored with a quadratic cost.  Training
is mini-batch gradient descent with L2 weight decay, momentum, per-epoch
multiplicative learning-rate decay, and early stopping that restores the
best-validation weights.  Weights start Gaussian with variance 2/fan_in;
an optional narrow bottleneck layer can be inserted mid-model to probe how
far the problem compresses.

A model holds a stack of nets that share one layer chain, one net per row
of a (nets, P) float64 array.  A row holds every weight matrix (row-major,
in layer order) first, then every bias vector, so weight decay covers one
prefix of it.  The momentum velocity and the gradient that ``backward``
returns share that layout.  Each layer's weights are a (nets, fan_in,
fan_out) view of the rows, so a forward or backward op is one numpy call
for the whole stack: ``np.matmul`` makes one gemm per net, as for a lone
net, and elementwise ops and reductions treat each net's elements as a
lone net's, so every net's numbers are bit for bit its own.  A one-net
model is the stack of one, and its public views drop the stack axis.
A stack is one ``NetworkConfig`` drawn from one seed per net:
``init_stack`` draws every net from its own generator, ``init`` one net
from the config's ``rng_seed``.

``sgd_step`` applies a whole gradient in cache-sized blocks.
``train_stack`` makes the same update without one: its step fuses the
update into the backward pass.  Whole layers, from the top, form update
groups of at least ``_UPDATE_BLOCK`` weights; a group is updated as soon
as its weights have carried the delta down, so every group's gradient
shares one scratch row the size of the largest group.  The layers below
the last group and all biases are updated after the pass, which for a
stack that fits one block (up to ``stack_size`` nets of 19-32-32-2) is one
pass over all its rows.  Every element gets ``sgd_step``'s operations in
its order, so training ends bit for bit where ``backward`` and
``sgd_step`` per batch would.  Each net of a stack shuffles, stops early
or diverges on its own; a net that stops leaves the stack, and the rest
train on.  Validation runs in chunks of whole nets: a chunk gathers its
nets' validation sets into the batch buffer and runs the forward pass on
those nets' weight views.  ``train`` is ``train_stack`` on a one-net model.

A model also owns the training scratch: those gradient rows, best-weights
rows and one block's step, so training allocates nothing parameter-sized.
``init_stack`` can redraw into a model of the same size and layer sizes:
the harness trains all of a stock group's splits in one model's memory,
and the paper-size net does not fault fresh vectors in for every split.

Everything is plain numpy and deterministic under the configured seeds.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

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


def _parameter_count(sizes: tuple[int, ...]) -> int:
    return sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))


def _layer_views(
    rows: np.ndarray, sizes: tuple[int, ...]
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer views into (nets, P) rows, each row all weights, then all biases.

    Weights are (nets, fan_in, fan_out), biases (nets, 1, fan_out).
    """
    nets = rows.shape[0]
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rows[:, start : start + fan_in * fan_out].reshape(nets, fan_in, fan_out))
        start += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(rows[:, start : start + fan_out].reshape(nets, 1, fan_out))
        start += fan_out
    return tuple(weights), tuple(biases)


# elements per update block: 256 KiB per float64 operand stays in cache
_UPDATE_BLOCK = 32768


def stack_size(config: NetworkConfig) -> int:
    """How many nets of ``config``'s chain fit one update block together; at least 1.

    Every step of such a stack updates all its parameters in one blocked pass.
    """
    return max(1, _UPDATE_BLOCK // _parameter_count(config.layer_sizes()))


# (parameter view, velocity view, gradient view, step buffer view,
#  column of the first bias in the block or its width)
_Block = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]


def _update_blocks(
    model: NetworkModel, nets: int, start: int, stop: int, gradient: np.ndarray
) -> tuple[_Block, ...]:
    """The update of columns ``start:stop`` of the first ``nets`` rows, in blocks.

    A block is at most ``_UPDATE_BLOCK`` columns wide.  ``gradient`` holds
    those columns' gradient from its column 0.  Every block computes its
    step in the model's one step buffer.
    """
    blocks = []
    for lo in range(start, stop, _UPDATE_BLOCK):
        hi = min(lo + _UPDATE_BLOCK, stop)
        blocks.append((
            model._param_rows[:nets, lo:hi], model._velocity_rows[:nets, lo:hi],
            gradient[:, lo - start : hi - start], model._step[:nets, : hi - lo],
            min(max(model.n_weights - lo, 0), hi - lo),
        ))
    return tuple(blocks)


def _descend(blocks: tuple[_Block, ...], config: NetworkConfig, eta: float) -> None:
    """``sgd_step``'s update of each block's elements, at rate ``eta``."""
    for w, v, g, step, first_bias in blocks:
        np.multiply(w, config.l2_lambda, out=step)
        step[:, first_bias:] = -0.0  # no bias decay: -0.0 + g is exactly g, signed zeros too
        step += g
        step *= eta
        v *= config.momentum
        v -= step
        w += v


def _update_groups(
    sizes: tuple[int, ...]
) -> tuple[list[int], list[tuple[int, int]], int, int]:
    """Update groups of whole layers, from the top, each of at least ``_UPDATE_BLOCK`` weights.

    Returns each layer's first weight (and the weight count last), the
    groups as (lowest layer, highest layer + 1), the lowest group's lowest
    layer (the layer count when there is no group), and the largest
    group's weight count (0 when there is none).
    """
    shapes = list(zip(sizes[:-1], sizes[1:]))
    edges = np.cumsum([0] + [i * o for i, o in shapes]).tolist()
    groups, top = [], len(shapes)
    for layer in range(len(shapes) - 1, -1, -1):
        if edges[top] - edges[layer] >= _UPDATE_BLOCK:
            groups.append((layer, top))
            top = layer
    return edges, groups, top, max((edges[hi] - edges[lo] for lo, hi in groups), default=0)


@dataclass(frozen=True)
class _FusedPlan:
    """The leading nets of a model: where the fused step puts each gradient, and when.

    ``weights`` and ``biases`` are per-layer views of those nets'
    parameters; ``grad_w`` and ``grad_b`` are views of the same shapes into
    the model's gradient scratch.  ``after_layer[k]`` holds the blocks
    updated as soon as layer k has passed the delta down; ``rest`` those
    updated after the backward pass.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    grad_w: tuple[np.ndarray, ...]
    grad_b: tuple[np.ndarray, ...]
    after_layer: tuple[tuple[_Block, ...], ...]
    rest: tuple[_Block, ...]


def _fused_plan(model: NetworkModel, nets: int) -> _FusedPlan:
    """The plan of the model's first ``nets`` rows (``_update_groups``).

    Every group's gradient goes into the head of each net's scratch row, as
    wide as the largest group: a group is updated before the next one down
    is computed.  The layers below the last group and all biases (the
    rest) have the tail, weights then biases as in a parameter row.  When
    no layer makes a group, the tail is the whole gradient and the rest is
    a single blocked pass over the whole rows, as ``sgd_step`` makes it.
    """
    sizes = model.config.layer_sizes()
    shapes = list(zip(sizes[:-1], sizes[1:]))
    edges, groups, top, head = _update_groups(sizes)
    size, n_weights, n_rest_weights = model._param_rows.shape[1], model.n_weights, edges[top]
    scratch = model._gradient[:nets]
    rest = scratch[:, head:]
    grad_w, after_layer = [rest[:, edges[k] : edges[k + 1]] for k in range(top)], [()] * len(shapes)
    for lo, hi in reversed(groups):
        grad_w += [
            scratch[:, edges[k] - edges[lo] : edges[k + 1] - edges[lo]] for k in range(lo, hi)
        ]
        after_layer[lo] = _update_blocks(model, nets, edges[lo], edges[hi], scratch)
    bias_edges = np.cumsum([n_rest_weights, *sizes[1:]]).tolist()
    if top == len(shapes):
        rest_blocks = _update_blocks(model, nets, 0, size, rest)
    else:
        rest_blocks = _update_blocks(model, nets, 0, n_rest_weights, rest) + _update_blocks(
            model, nets, n_weights, size, rest[:, n_rest_weights:]
        )
    weights, biases = _layer_views(model._param_rows[:nets], sizes)
    return _FusedPlan(
        weights=weights,
        biases=biases,
        grad_w=tuple(g.reshape(nets, *shape) for g, shape in zip(grad_w, shapes)),
        grad_b=tuple(
            rest[:, a:b].reshape(nets, 1, b - a) for a, b in zip(bias_edges[:-1], bias_edges[1:])
        ),
        after_layer=tuple(after_layer),
        rest=rest_blocks,
    )


class NetworkModel:
    """``size`` nets of one layer chain, each net's parameters one row of a (size, P) array.

    A row holds the net's weight matrices, then its biases; the momentum
    velocity has rows of the same layout.  Both start at zero.  Each net
    draws from its own generator in ``rngs``.  ``parameters``,
    ``velocity``, ``weights`` and ``biases`` are views with the stack axis
    first; a one-net model's drop it, so it reads as one net: a flat
    parameter vector, (fan_in, fan_out) weights and (fan_out,) biases.

    ``train_stack``'s scratch is allocated here uninitialised, so its pages
    are touched only once a model trains: best-weights rows, gradient rows
    as wide as the largest update group plus the rest (``_fused_plan``),
    and one update block's step per net.
    """

    def __init__(self, config: NetworkConfig, size: int = 1) -> None:
        self.config = config
        self.size = size
        sizes = config.layer_sizes()
        n = _parameter_count(sizes)
        edges, _, top, head = _update_groups(sizes)
        self.n_weights = edges[-1]
        # np.zeros, not zeros_like: calloc hands a large array fresh zero pages, no memset
        self._param_rows = np.zeros((size, n))
        self._velocity_rows = np.zeros((size, n))
        self._gradient = np.empty((size, head + edges[top] + n - self.n_weights))
        self._best, self._step = np.empty((size, n)), np.empty((size, min(n, _UPDATE_BLOCK)))
        self._plan = _fused_plan(self, size)
        one = (lambda a: a[0]) if size == 1 else (lambda a: a)
        self._parameters, self._velocity = one(self._param_rows), one(self._velocity_rows)
        self._weights = tuple(one(w) for w in self._plan.weights)
        self._biases = tuple(one(b[:, 0]) for b in self._plan.biases)
        self.rngs = [np.random.default_rng(config.rng_seed) for _ in range(size)]

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


def init(config: NetworkConfig, model: NetworkModel | None = None) -> NetworkModel:
    """Gaussian-initialised one-net model: weights ~ N(0, 2/fan_in), biases zero.

    One standard-normal draw into the weight prefix, then each layer scaled
    in place: the values and generator state (``model.rngs[0]``) of
    per-layer ``rng.normal`` calls.  The generator goes on to shuffle the
    batches.

    Given a one-net ``model`` with ``config``'s layer sizes, the net is
    drawn into its memory instead: it takes ``config``, zero biases and
    velocity and a fresh generator, and equals a new model bitwise.  Its
    vectors and training scratch are reused, so no fresh pages are faulted
    in.  A model with other layer sizes is a ValueError and is left as it
    was.
    """
    return init_stack(config, (config.rng_seed,), model)


def init_stack(
    config: NetworkConfig, seeds: Sequence[int], model: NetworkModel | None = None
) -> NetworkModel:
    """A stack of ``config``'s net, one per seed, each drawn as ``init`` draws it.

    Net k draws from its own generator, seeded with ``seeds[k]`` in place
    of ``config.rng_seed``; the model takes ``config``.  Given a ``model``
    of as many nets of ``config``'s layer sizes, the nets are drawn into its
    memory as ``init`` draws into a one-net model.  A model of another size
    or other layer sizes is a ValueError and is left as it was.
    """
    config.validate()
    if model is None:
        model = NetworkModel(config, len(seeds))
    elif (model.size, model.config.layer_sizes()) != (len(seeds), config.layer_sizes()):
        raise ValueError(
            f"cannot draw {len(seeds)} net(s) of the chain {config.layer_sizes()} into a "
            f"model of {model.size} net(s) of {model.config.layer_sizes()}"
        )
    else:
        model.config = config
        model._param_rows[:, model.n_weights :] = 0.0
        model._velocity_rows.fill(0.0)
    model.rngs = [np.random.default_rng(seed) for seed in seeds]
    for row, rng in zip(model._param_rows, model.rngs):
        rng.standard_normal(out=row[: model.n_weights])
    for w in model._plan.weights:
        w *= np.sqrt(2.0 / w.shape[1])
    return model


def _as_stack(model: NetworkModel, values) -> np.ndarray:
    """``values`` as a (nets, rows, columns) float64 array.

    A one-net model's 1-D or 2-D array gains the stack axis.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim < 3 and model.size == 1:
        return np.atleast_2d(a)[None]
    if a.ndim != 3 or a.shape[0] != model.size:
        raise ValueError(
            f"a model of {model.size} nets takes one (rows, columns) array per net, got {a.shape}"
        )
    return a


def _layer_buffers(model: NetworkModel, rows: int) -> list[np.ndarray]:
    """Per layer, an activation buffer of ``rows`` rows for every net of the model."""
    return [np.empty((model.size * rows, width)) for width in model.config.layer_sizes()[1:]]


def _views(buffers: list[np.ndarray], nets: int, rows: int) -> list[np.ndarray]:
    """The leading nets x rows rows of each buffer as (nets, rows, width), net after net."""
    return [buffer[: nets * rows].reshape(nets, rows, -1) for buffer in buffers]


def _forward_into(weights, biases, x: np.ndarray, views: list[np.ndarray]) -> list[np.ndarray]:
    """Activations per layer for (nets, batch, input_dim) inputs; index 0 = input.

    ``weights`` and ``biases`` hold those nets' per-layer views, as a plan's
    do.  Each layer's activations fill its view (``_views``) of x's shape.
    """
    activations = [x]
    last = len(weights) - 1
    for layer, (w, b, z) in enumerate(zip(weights, biases, views)):
        np.matmul(activations[-1], w, out=z)
        z += b
        if layer == last:
            _sigmoid(z)
        else:
            np.tanh(z, out=z)
        activations.append(z)
    return activations


def forward(model: NetworkModel, inputs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Network outputs plus cached per-layer activations for a (batch, input_dim) matrix.

    A single input vector is a one-row batch.  A stack takes one batch per
    net, (nets, batch, input_dim), and its arrays keep that stack axis.
    """
    x = _as_stack(model, inputs)
    if x.shape[2] != model.config.input_dim:
        raise ValueError(
            f"input has {x.shape[2]} features, model expects {model.config.input_dim}"
        )
    views = _views(_layer_buffers(model, x.shape[1]), model.size, x.shape[1])
    activations = _forward_into(model._plan.weights, model._plan.biases, x, views)
    if np.ndim(inputs) < 3:
        activations = [a[0] for a in activations]
    return activations[-1], activations


def _forward_loss(
    weights, biases, x: np.ndarray, y: np.ndarray, views: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Each net's mean quadratic cost on its batch, the activations, and outputs - ``y``."""
    activations = _forward_into(weights, biases, x, views)
    error = activations[-1] - y
    # np.add.reduce is np.sum without its Python wrapper, a few µs per step
    return 0.5 * np.add.reduce(error**2, axis=(1, 2)) / x.shape[1], activations, error


def loss(model: NetworkModel, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean-reduced quadratic cost of a one-net model: 0.5 * mean_i sum_j (yhat - y)^2."""
    outputs, _ = forward(model, inputs)
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    return float(0.5 * np.sum((outputs - y) ** 2) / outputs.shape[0])


def _backpropagate(
    plan: _FusedPlan,
    activations: list[np.ndarray],
    error: np.ndarray,
    config: NetworkConfig,
    eta: float = 0.0,
) -> None:
    """The gradients of each net's batch cost into ``plan.grad_w`` and ``plan.grad_b``.

    ``error`` and then, layer by layer from the top, the hidden activations'
    buffers become the back-propagated deltas.  Each layer's blocks in
    ``plan.after_layer`` descend at rate ``eta`` once that layer's weights
    have carried the delta down, before any lower layer's gradient is made.
    """
    outputs = activations[-1]
    # output layer: quadratic cost through the sigmoid, mean-reduced
    delta = error
    delta /= outputs.shape[1]
    delta *= outputs
    delta *= 1.0 - outputs
    for layer in range(len(plan.weights) - 1, -1, -1):
        a = activations[layer]
        np.matmul(a.transpose(0, 2, 1), delta, out=plan.grad_w[layer])
        np.add.reduce(delta, axis=1, out=plan.grad_b[layer], keepdims=True)
        if layer > 0:
            # tanh'(z) expressed through the cached activation, in its buffer; one
            # (nets, batch, fan_in) temporary is alive at a time
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            a *= delta @ plan.weights[layer].transpose(0, 2, 1)
            delta = a
        if plan.after_layer[layer]:
            _descend(plan.after_layer[layer], config, eta)


def backward(model: NetworkModel, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of the mean-reduced quadratic cost.

    One float64 vector laid out like ``model.parameters``: every weight
    matrix row-major in layer order, then every bias.  A stack takes one
    batch per net and returns one such row per net.
    """
    x, y = _as_stack(model, inputs), _as_stack(model, targets)
    if x.shape[1] == 0:
        raise ValueError("backward pass needs a non-empty batch")
    if y.shape != (*x.shape[:2], model.config.layer_sizes()[-1]):
        raise ValueError(f"target shape {y.shape} does not match batch/output dims")
    gradient = np.empty_like(model._param_rows)
    grad_w, grad_b = _layer_views(gradient, model.config.layer_sizes())
    plan = replace(
        model._plan, grad_w=grad_w, grad_b=grad_b, after_layer=((),) * len(grad_w), rest=()
    )
    views = _views(_layer_buffers(model, x.shape[1]), model.size, x.shape[1])
    _, activations, error = _forward_loss(plan.weights, plan.biases, x, y, views)
    _backpropagate(plan, activations, error, model.config)
    return gradient if np.ndim(inputs) == 3 else gradient[0]


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
    ``train_stack`` makes this update fused into its backward pass instead.
    """
    cfg = model.config
    eta = cfg.learning_rate * cfg.lr_decay**epoch
    rows = np.asarray(gradient).reshape(model.size, -1)
    _descend(_update_blocks(model, model.size, 0, rows.shape[1], rows), cfg, eta)


def _fused_step(
    model: NetworkModel,
    x: np.ndarray,
    y: np.ndarray,
    buffers: list[np.ndarray],
    eta: float,
    plan: _FusedPlan,
) -> np.ndarray:
    """``backward`` and ``sgd_step`` on one batch per net, without a whole gradient vector.

    ``plan`` covers the nets that step (``_fused_plan``; ``model._plan``
    for all of the model's); x and y hold one (batch, columns) batch per
    net.  Each update group is updated during the backward pass, the rest
    after it; every element ends as the two calls would leave it.  Returns
    each net's batch loss; when any loss is not finite, no net is touched.
    """
    views = _views(buffers, *x.shape[:2])
    losses, activations, error = _forward_loss(plan.weights, plan.biases, x, y, views)
    if np.isfinite(losses).all():
        _backpropagate(plan, activations, error, model.config, eta)
        _descend(plan.rest, model.config, eta)
    return losses


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


def train(model: NetworkModel, train_set, validation_set) -> TrainReport:
    """Mini-batch training of a one-net model with early stopping on validation loss.

    Shuffles the training set every epoch, makes ``sgd_step``'s update per
    batch at that epoch's decayed rate, fused into the backward pass
    (``_fused_step``), and evaluates validation loss after each epoch in
    the batches' activation buffers.  Stops once validation loss has
    failed to improve for ``early_stop_patience`` consecutive epochs (or at
    max_epochs) and restores the weights of the best validation epoch.  A
    non-finite batch or validation loss ends training at once and marks
    the report diverged.  This is ``train_stack`` on a stack of one.
    """
    if model.size != 1:
        raise ValueError(f"train takes a one-net model, not {model.size} nets; see train_stack")
    return train_stack(model, train_set, validation_set)[0]


def train_stack(model: NetworkModel, train_sets, validation_sets) -> list[TrainReport]:
    """``train`` for every net of a model at once; one report per net.

    ``train_sets`` and ``validation_sets`` are (X, Y) pairs of (nets, rows,
    columns) arrays, one set of rows per net; a one-net model also takes
    ``train``'s 2-D sets.  Every forward, backward and update op runs once
    for all the nets still training, so numpy's fixed cost per call is paid
    once per op, not once per net.  Each net shuffles its rows with its own
    generator, and each batch is gathered from them straight into one
    buffer.  After each epoch the validation sets are gathered into that
    buffer by whole nets, as many per chunk as it holds, and each chunk's
    forward pass runs on its nets' slice of the weights.  Each net keeps
    its own early stopping, divergence stop and best weights, and ends bit
    for bit where ``train`` alone would leave it.  A net that stops leaves
    the stack: its row moves behind the rows still training, and every row
    returns to its net at the end.
    """
    cfg = model.config
    x_train, y_train = (_as_stack(model, a) for a in train_sets)
    # contiguous, so that take gathers whole nets without copying all of them first
    x_val, y_val = (np.ascontiguousarray(_as_stack(model, a)) for a in validation_sets)
    nets, n = x_train.shape[:2]
    n_val = x_val.shape[1]
    if n == 0:
        raise ConfigError("training set is empty")
    if n_val == 0:
        raise ConfigError("validation set is empty")
    if cfg.batch_size > n:
        raise ConfigError(
            f"batch_size {cfg.batch_size} exceeds training-set size {n}"
        )
    # every net's training rows, net after net.  A batch of every active net,
    # or the validation sets of a chunk of up to ``per_chunk`` whole nets, is
    # gathered into x_batch and y_batch, and its activations fill the buffers
    x_rows, y_rows = x_train.reshape(nets * n, -1), y_train.reshape(nets * n, -1)
    rows_per_net = max(cfg.batch_size, -(-n_val // nets))
    x_batch = np.empty((nets * rows_per_net, x_rows.shape[1]))
    y_batch = np.empty((nets * rows_per_net, y_rows.shape[1]))
    buffers = _layer_buffers(model, rows_per_net)
    per_chunk = max(1, nets * rows_per_net // n_val)
    order = np.empty((nets, n), dtype=np.intp)  # each slot's epoch order, as rows of x_rows
    params, velocity, best = model._param_rows, model._velocity_rows, model._best
    np.copyto(best, params)
    # slot_net[slot] is the net in row ``slot`` of the model's arrays; the first
    # ``active`` rows train, with the plan of those rows
    slot_net = np.arange(nets)
    plan, active = model._plan, nets
    # each net's report, updated in place as it trains
    reports = [TrainReport(0, math.inf, False) for _ in range(nets)]
    since_best = [0] * nets

    def leave(slots) -> None:
        """Move the nets in ``slots`` behind the rows still training."""
        nonlocal plan, active
        for slot in sorted(slots, reverse=True):
            active -= 1
            pair = [slot, active]
            for array in (params, velocity, best, order, slot_net):
                array[pair] = array[pair[::-1]]
        plan = _fused_plan(model, active)

    for epoch in range(cfg.max_epochs):
        eta = cfg.learning_rate * cfg.lr_decay**epoch
        for slot in range(active):
            order[slot] = model.rngs[slot_net[slot]].permutation(n)
        order[:active] += n * slot_net[:active, None]
        start = 0
        while start < n and active:
            stop = min(start + cfg.batch_size, n)
            x, y = _views([x_batch, y_batch], active, stop - start)
            index = order[:active, start:stop]
            x_rows.take(index, 0, x, "clip")  # in range: "clip" spares take a buffered copy
            y_rows.take(index, 0, y, "clip")
            finite = np.isfinite(_fused_step(model, x, y, buffers, eta, plan))
            if finite.all():
                start = stop
                continue
            # those nets stop untouched; the others redo the batch without them
            lost = np.flatnonzero(~finite).tolist()
            for slot in lost:
                reports[slot_net[slot]].diverged = True
            leave(lost)
        if not active:
            break
        val_losses = []
        for lo in range(0, active, per_chunk):
            hi = min(lo + per_chunk, active)
            x, y, *views = _views([x_batch, y_batch, *buffers], hi - lo, n_val)
            x_val.take(slot_net[lo:hi], 0, x, "clip")
            y_val.take(slot_net[lo:hi], 0, y, "clip")
            weights = [w[lo:hi] for w in plan.weights]
            biases = [b[lo:hi] for b in plan.biases]
            val_losses += _forward_loss(weights, biases, x, y, views)[0].tolist()
        done = []
        for slot, val_loss in enumerate(val_losses):
            net = slot_net[slot]
            report = reports[net]
            report.validation_losses += (val_loss,)
            report.epochs_run = epoch + 1
            if not math.isfinite(val_loss):
                report.diverged = True
                done.append(slot)
            elif val_loss < report.best_validation_loss:
                report.best_validation_loss, since_best[net] = val_loss, 0
                np.copyto(best[slot], params[slot])
            else:
                since_best[net] += 1
                if since_best[net] >= cfg.early_stop_patience:
                    report.stopped_early = True
                    done.append(slot)
        if done:
            leave(done)
        if not active:
            break
    params[slot_net] = best
    moved = np.flatnonzero(slot_net != np.arange(nets))
    velocity[slot_net[moved]] = velocity[moved]
    return reports


def predict_class(model: NetworkModel, inputs: np.ndarray) -> np.ndarray:
    """Per input row, the argmax over the two sigmoid outputs; exact ties go to the down class.

    A stack takes one (rows, input_dim) array per net and returns one row of classes per net.
    """
    outputs, _ = forward(model, inputs)
    return np.where(outputs[..., UP] > outputs[..., DOWN], UP, DOWN).astype(np.int64)
