"""Network mechanics: initialization, forward/backward oracles, optimizer, training."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendlag import neural
from trendlag.errors import ConfigError
from trendlag.neural import (
    _UPDATE_BLOCK,
    _fused_step,
    _layer_buffers,
    DOWN,
    UP,
    NetworkConfig,
    TrainReport,
    backward,
    forward,
    init,
    init_stack,
    loss,
    predict_class,
    sgd_step,
    stack_size,
    train,
    train_stack,
)


def _config(**kwargs):
    defaults = dict(input_dim=3, hidden_layers=(4, 4), rng_seed=42)
    defaults.update(kwargs)
    return NetworkConfig(**defaults)


def numeric_gradient(model, x, y, eps=1e-5):
    """Central finite differences of the mean-reduced quadratic cost.

    Laid out like ``model.parameters``, as ``backward`` returns the gradient.
    """
    params = model.parameters
    numeric = np.zeros_like(params)
    for i in range(params.size):
        original = params[i]
        params[i] = original + eps
        up = loss(model, x, y)
        params[i] = original - eps
        down = loss(model, x, y)
        params[i] = original
        numeric[i] = (up - down) / (2 * eps)
    return numeric


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a, b = init(_config()), init(_config())
        for wa, wb in zip(a.weights, b.weights):
            assert (wa == wb).all()

    def test_weight_variance_tracks_two_over_fan_in(self):
        model = init(NetworkConfig(input_dim=400, hidden_layers=(400,), rng_seed=1))
        empirical = model.weights[0].var()
        assert abs(empirical - 2.0 / 400) < 0.2 * (2.0 / 400)

    def test_biases_and_velocities_start_at_zero(self):
        model = init(_config())
        assert all((b == 0).all() for b in model.biases)
        assert not model.velocity.any()

    def test_bottleneck_shape_chain(self):
        config = NetworkConfig(input_dim=448, hidden_layers=(400,) * 5, bottleneck=1)
        assert config.layer_sizes() == (448, 400, 400, 400, 1, 400, 400, 2)
        model = init(NetworkConfig(input_dim=6, hidden_layers=(5, 5, 5, 5, 5), bottleneck=2))
        shapes = [w.shape for w in model.weights]
        assert shapes == [(6, 5), (5, 5), (5, 5), (5, 2), (2, 5), (5, 5), (5, 2)]

    @pytest.mark.parametrize("bottleneck", [None, 3])
    def test_paper_net_matches_per_layer_normal_draws(self, bottleneck):
        config = NetworkConfig(input_dim=19, bottleneck=bottleneck, rng_seed=8)
        rng = np.random.default_rng(config.rng_seed)
        sizes = config.layer_sizes()
        expected = [rng.normal(0.0, np.sqrt(2.0 / i), size=(i, o))
                    for i, o in zip(sizes[:-1], sizes[1:])]
        model = init(config)
        assert [w.tobytes() for w in model.weights] == [w.tobytes() for w in expected]
        assert not model.parameters[model.n_weights :].any()
        assert not model.velocity.any()
        assert model.rngs[0].permutation(500).tobytes() == rng.permutation(500).tobytes()

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ConfigError):
            init(_config(hidden_layers=(4, 0)))
        with pytest.raises(ConfigError):
            init(_config(bottleneck=0))

    @pytest.mark.parametrize("name", ["learning_rate", "l2_lambda"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_hyperparameter_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            init(_config(**{name: value}))


def _labelled_rows(rows, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, dim))
    return x, np.eye(2)[(x[:, 0] > 0).astype(int)]


def _model_state(model):
    """Bytes of every piece of state ``init`` sets, for bitwise comparison."""
    return (
        model.config,
        model.parameters.tobytes(),
        model.velocity.tobytes(),
        json.dumps(model.rngs[0].bit_generator.state),
    )


class TestInitIntoModel:
    @pytest.mark.parametrize(
        "hidden, bottleneck",
        [((32, 32), None), ((400,) * 5, None), ((400,) * 5, 3)],
        ids=["19-32-32-2", "5x400", "5x400-b3"],
    )
    def test_matches_a_fresh_model_bitwise(self, hidden, bottleneck):
        config = NetworkConfig(
            input_dim=19, hidden_layers=hidden, bottleneck=bottleneck, max_epochs=3, rng_seed=5
        )
        x, y = _labelled_rows(400, 19, seed=2)
        used = init(replace(config, rng_seed=6, learning_rate=0.2))
        train(used, _labelled_rows(300, 19, seed=3), _labelled_rows(100, 19, seed=4))
        assert used.velocity.any()

        fresh = init(config)
        reused = init(config, used)
        assert reused is used
        assert _model_state(reused) == _model_state(fresh)
        reports = [train(m, (x[:300], y[:300]), (x[300:], y[300:])) for m in (fresh, reused)]
        assert reports[0] == reports[1]
        assert _model_state(reused) == _model_state(fresh)

    @pytest.mark.parametrize(
        "change",
        [dict(input_dim=4), dict(hidden_layers=(4, 5)), dict(bottleneck=2)],
        ids=["input", "hidden", "bottleneck"],
    )
    def test_other_layer_sizes_rejected_untouched(self, change):
        model = init(_config(max_epochs=2, batch_size=10))
        train(model, _labelled_rows(30, 3, seed=1), _labelled_rows(10, 3, seed=2))
        before = _model_state(model)
        with pytest.raises(ValueError, match="chain"):
            init(_config(**change), model)
        assert _model_state(model) == before


class TestForward:
    def test_all_zero_parameters_give_half_outputs(self):
        model = init(_config())
        for w in model.weights:
            w[...] = 0.0
        outputs, _ = forward(model, np.zeros(3))
        np.testing.assert_array_equal(outputs, [[0.5, 0.5]])  # a vector is a one-row batch

    def test_hidden_tanh_limits(self):
        model = init(_config(input_dim=1, hidden_layers=(2,)))
        model.weights[0][...] = [[1000.0, -1000.0]]
        _, acts = forward(model, np.array([1.0]))
        np.testing.assert_allclose(acts[1], [[1.0, -1.0]])
        _, acts0 = forward(model, np.array([0.0]))
        np.testing.assert_allclose(acts0[1], [[0.0, 0.0]])

    def test_matches_hand_rolled_matrix_oracle(self):
        rng = np.random.default_rng(77)
        model = init(NetworkConfig(input_dim=2, hidden_layers=(3,), rng_seed=5))
        x = rng.normal(size=2)
        outputs, _ = forward(model, x)
        # independent dense-forward oracle with explicit loops
        h = np.zeros(3)
        for j in range(3):
            z = sum(x[i] * model.weights[0][i, j] for i in range(2)) + model.biases[0][j]
            h[j] = math.tanh(z)
        expected = np.zeros(2)
        for j in range(2):
            z = sum(h[i] * model.weights[1][i, j] for i in range(3)) + model.biases[1][j]
            expected[j] = 1.0 / (1.0 + math.exp(-z))
        np.testing.assert_allclose(outputs, [expected], atol=1e-12)

    def test_outputs_open_unit_interval_hidden_open_pm_one(self):
        rng = np.random.default_rng(6)
        model = init(_config(rng_seed=8))
        x = rng.normal(size=(40, 3))
        outputs, acts = forward(model, x)
        assert ((outputs > 0) & (outputs < 1)).all()
        for hidden in acts[1:-1]:
            assert ((hidden > -1) & (hidden < 1)).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            forward(init(_config()), np.zeros(5))


class TestBackward:
    def test_matches_finite_differences_on_5_4_4_2(self):
        rng = np.random.default_rng(101)
        model = init(NetworkConfig(input_dim=5, hidden_layers=(4, 4), rng_seed=11))
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 2, size=(6, 2)).astype(float)
        np.testing.assert_allclose(
            backward(model, x, y), numeric_gradient(model, x, y), rtol=1e-5, atol=1e-9
        )

    def test_matches_finite_differences_with_bottleneck(self):
        rng = np.random.default_rng(102)
        model = init(NetworkConfig(input_dim=4, hidden_layers=(3, 3, 3), bottleneck=1, rng_seed=2))
        x = rng.normal(size=(5, 4))
        y = np.eye(2)[rng.integers(0, 2, 5)]
        np.testing.assert_allclose(
            backward(model, x, y), numeric_gradient(model, x, y), rtol=1e-5, atol=1e-9
        )

    def test_perfect_predictions_zero_gradients(self):
        model = init(_config(rng_seed=9))
        x = np.random.default_rng(1).normal(size=(4, 3))
        outputs, _ = forward(model, x)
        grad = backward(model, x, outputs)  # targets equal the outputs
        np.testing.assert_array_equal(grad, np.zeros_like(model.parameters))

    def test_duplicating_the_batch_leaves_gradients_unchanged(self):
        rng = np.random.default_rng(103)
        model = init(_config(rng_seed=21))
        x = rng.normal(size=(5, 3))
        y = np.eye(2)[rng.integers(0, 2, 5)]
        once = backward(model, x, y)
        twice = backward(model, np.vstack([x, x]), np.vstack([y, y]))
        np.testing.assert_allclose(once, twice, rtol=1e-14, atol=1e-16)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            backward(init(_config()), np.empty((0, 3)), np.empty((0, 2)))


class TestSgdStep:
    def test_reduces_to_plain_weight_decay_update(self):
        # momentum 0, decay 1: one step must equal w - eta*(grad + lambda*w)
        config = _config(momentum=0.0, lr_decay=1.0, learning_rate=0.05, l2_lambda=0.01)
        model = init(config)
        rng = np.random.default_rng(55)
        grad = rng.normal(size=model.parameters.size)
        nw = model.n_weights
        w = model.parameters[:nw]
        expected_w = w - 0.05 * (grad[:nw] + 0.01 * w)
        expected_b = model.parameters[nw:] - 0.05 * grad[nw:]
        sgd_step(model, grad, epoch=0)
        assert (model.parameters[:nw] == expected_w).all()  # bitwise
        assert (model.parameters[nw:] == expected_b).all()

    def test_pure_decay_shrinks_weights(self):
        config = _config(momentum=0.0, lr_decay=1.0, learning_rate=0.1, l2_lambda=0.5)
        model = init(config)
        before = [w.copy() for w in model.weights]
        sgd_step(model, np.zeros_like(model.parameters), epoch=0)
        for w_new, w_old in zip(model.weights, before):
            np.testing.assert_allclose(w_new, w_old * (1 - 0.1 * 0.5), rtol=1e-15)

    def test_learning_rate_decays_per_epoch(self):
        config = _config(momentum=0.0, lr_decay=0.95, learning_rate=0.2, l2_lambda=0.0)
        model = init(config)
        before = model.weights[0].copy()
        sgd_step(model, np.ones_like(model.parameters), epoch=10)
        step = before - model.weights[0]
        np.testing.assert_allclose(step, np.full_like(step, 0.2 * 0.95**10), rtol=1e-13)

    def test_leaves_its_gradients_unchanged(self):
        model = init(_config(l2_lambda=0.01))
        rng = np.random.default_rng(56)
        grad = rng.normal(size=model.parameters.size)
        before = grad.copy()
        sgd_step(model, grad, epoch=0)
        assert grad.tobytes() == before.tobytes()

    @pytest.mark.parametrize("input_dim, hidden", [
        (19, (300, 300)),  # three blocks, the biases start inside the third
        (126, (128, 128)),  # the biases start exactly at the second block's edge
        (125, (128, 128)),  # the biases straddle the first block's edge
    ])
    def test_blocks_match_the_whole_vector_update(self, input_dim, hidden):
        config = NetworkConfig(input_dim=input_dim, hidden_layers=hidden, momentum=0.9,
                               lr_decay=0.9, l2_lambda=0.01, rng_seed=14)
        model = init(config)
        size, nw = model.parameters.size, model.n_weights
        assert size > _UPDATE_BLOCK
        rng = np.random.default_rng(57)
        # nonzero biases, so that decaying one would show
        params, velocity, grad = (rng.normal(size=size) for _ in range(3))
        edges = [0, _UPDATE_BLOCK, 2 * _UPDATE_BLOCK, nw, size]
        spots = sorted({i + d for i in edges for d in (-2, -1, 0, 1) if 0 <= i + d < size})
        # (gradient, weight, velocity) mixes; over all shifts each spot meets each mix
        mixes = np.array(list(itertools.product(
            [0.0, -0.0, np.inf, -np.inf, np.nan], [-0.0, 0.5], [-0.0, 0.25]
        )))
        eta = config.learning_rate * config.lr_decay**3
        for shift in range(len(mixes)):
            picked = mixes[(np.arange(len(spots)) + shift) % len(mixes)]
            grad[spots], params[spots], velocity[spots] = picked.T
            model.parameters[...], model.velocity[...] = params, velocity
            before = grad.copy()
            p, v = params.copy(), velocity.copy()
            with np.errstate(invalid="ignore"):
                # the update as whole-vector operations
                step = config.l2_lambda * p
                step[nw:] = -0.0
                step += grad
                step *= eta
                v *= config.momentum
                v -= step
                p += v
                sgd_step(model, grad, epoch=3)
            assert model.parameters.tobytes() == p.tobytes()
            assert model.velocity.tobytes() == v.tobytes()
            assert grad.tobytes() == before.tobytes()

    def test_momentum_accumulates_velocity(self):
        config = _config(momentum=0.9, lr_decay=1.0, learning_rate=0.1, l2_lambda=0.0)
        model = init(config)
        ones = np.ones_like(model.parameters)
        sgd_step(model, ones, epoch=0)
        sgd_step(model, ones, epoch=0)
        # velocity after two steps: -0.1, then -0.19
        np.testing.assert_allclose(model.velocity, np.full_like(model.velocity, -0.19))


class TestFusedStep:
    """``train``'s step is ``backward`` then ``sgd_step``, without a whole gradient vector."""

    @pytest.mark.parametrize(
        "input_dim, hidden, groups",
        [(19, (32, 32), 0), (5, (200, 200, 200), 2)],
        ids=["19-32-32-2", "5-200-200-200-2"],
    )
    def test_matches_backward_then_sgd_step(self, input_dim, hidden, groups):
        config = NetworkConfig(input_dim=input_dim, hidden_layers=hidden, lr_decay=0.9,
                               l2_lambda=0.01, rng_seed=21)
        fused, reference = init(config), init(config)
        # 19-32-32-2 is all rest; the 40,000-weight layers make groups of their own
        assert sum(map(bool, fused._plan.after_layer)) == groups
        rng = np.random.default_rng(58)
        buffers = _layer_buffers(fused, 50)
        for epoch in (0, 2):
            eta = config.learning_rate * config.lr_decay**epoch
            for _ in range(3):
                x, y = rng.normal(size=(50, input_dim)), np.eye(2)[rng.integers(0, 2, 50)]
                losses = _fused_step(fused, x[None], y[None], buffers, eta, fused._plan)
                assert np.isfinite(losses).all()
                sgd_step(reference, backward(reference, x, y), epoch)
            assert np.array_equal(fused.parameters, reference.parameters)
            assert np.array_equal(fused.velocity, reference.velocity)

    def test_non_finite_batch_leaves_the_model_untouched(self):
        config = NetworkConfig(input_dim=5, hidden_layers=(200, 200, 200), rng_seed=22)
        model = init(config)
        x, y = _labelled_rows(50, 5, seed=5)
        buffers = _layer_buffers(model, 50)
        # a velocity that an update would change
        _fused_step(model, x[None], y[None], buffers, 0.05, model._plan)
        before = model.parameters.tobytes(), model.velocity.tobytes()
        x[7, 2] = np.nan
        assert np.isnan(_fused_step(model, x[None], y[None], buffers, 0.05, model._plan)).all()
        assert (model.parameters.tobytes(), model.velocity.tobytes()) == before


def test_paper_size_net_trains_without_a_parameter_sized_gradient(traced_peak):
    # parameters, velocity and best weights make three vectors; a whole gradient would add one
    config = NetworkConfig(input_dim=5, max_epochs=2, rng_seed=23)  # the default 5x400 stack
    x, y = _labelled_rows(300, 5, seed=6)

    def init_and_train():
        model = init(config)
        train(model, (x[:240], y[:240]), (x[240:], y[240:]))
        return model

    model, peak = traced_peak(init_and_train)
    ratio = peak / model.parameters.nbytes
    assert ratio < 3.75, f"peak {ratio:.2f}x one parameter vector"


class TestTrain:
    def _tiny_data(self, n=40, seed=1):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        labels = (x[:, 0] > 0).astype(int)
        y = np.eye(2)[labels]
        return x, y

    def test_runs_exactly_max_epochs_with_infinite_patience(self):
        x, y = self._tiny_data()
        model = init(_config(max_epochs=7, early_stop_patience=10_000, batch_size=10))
        report = train(model, (x, y), (x, y))
        assert report.epochs_run == 7
        assert not report.stopped_early
        assert len(report.validation_losses) == 7

    def test_early_stop_on_strictly_rising_validation_loss(self):
        # train toward [1, 0] while validating against the flipped target:
        # every step of progress on the training set raises validation loss,
        # so the best epoch is the first one
        x = np.array([[0.5, -0.2, 0.1]])
        y_train = np.array([[1.0, 0.0]])
        y_val = np.array([[0.0, 1.0]])
        model = init(_config(
            max_epochs=50, early_stop_patience=3, batch_size=1,
            momentum=0.0, learning_rate=0.3, l2_lambda=0.0, lr_decay=1.0, rng_seed=4,
        ))
        report = train(model, (x, y_train), (x, y_val))
        assert report.stopped_early
        assert report.epochs_run == 4  # best at epoch 1, then 3 strikes
        assert report.best_validation_loss == report.validation_losses[0]
        # restored weights must reproduce the best validation loss
        assert loss(model, x, y_val) == pytest.approx(report.best_validation_loss)

    def test_best_validation_loss_is_curve_minimum(self):
        x, y = self._tiny_data(60, seed=3)
        model = init(_config(max_epochs=12, early_stop_patience=4, batch_size=20, rng_seed=5))
        report = train(model, (x[:40], y[:40]), (x[40:], y[40:]))
        assert report.best_validation_loss == min(report.validation_losses)
        assert loss(model, x[40:], y[40:]) == pytest.approx(report.best_validation_loss)

    def test_non_finite_loss_stops_training_and_is_flagged(self):
        x, y = self._tiny_data(60, seed=3)
        model = init(_config(max_epochs=20, batch_size=20, learning_rate=1e300))
        initial = model.parameters.copy()
        with np.errstate(all="ignore"):
            report = train(model, (x[:40], y[:40]), (x[40:], y[40:]))
        assert report.diverged
        assert report.epochs_run < 20
        assert len(report.validation_losses) == report.epochs_run
        # no epoch ended with a finite validation loss: the initial weights return
        assert report.best_validation_loss == math.inf
        np.testing.assert_array_equal(model.parameters, initial)

    def test_finite_run_is_not_flagged(self):
        x, y = self._tiny_data(60, seed=3)
        model = init(_config(max_epochs=20, batch_size=20))
        report = train(model, (x[:40], y[:40]), (x[40:], y[40:]))
        assert not report.diverged
        assert all(math.isfinite(v) for v in report.validation_losses)

    def test_empty_validation_rejected(self):
        x, y = self._tiny_data()
        model = init(_config(batch_size=10))
        with pytest.raises(ConfigError, match="validation"):
            train(model, (x, y), (np.empty((0, 3)), np.empty((0, 2))))

    def test_oversized_batch_rejected(self):
        x, y = self._tiny_data(8)
        model = init(_config(batch_size=100))
        with pytest.raises(ConfigError, match="batch_size"):
            train(model, (x, y), (x, y))

    def test_training_is_deterministic_under_seed(self):
        x, y = self._tiny_data(50, seed=9)
        reports, predictions = [], []
        for _ in range(2):
            model = init(_config(max_epochs=6, batch_size=10, rng_seed=33))
            reports.append(train(model, (x[:30], y[:30]), (x[30:], y[30:])))
            predictions.append(predict_class(model, x))
        assert reports[0] == reports[1]
        np.testing.assert_array_equal(predictions[0], predictions[1])


def _reference_train(config, train_set, validation_set):
    """The per-layer trainer the flat-vector one replaced, kept as an oracle.

    Fresh arrays per layer and step, masked sigmoid, fancy-indexed batches;
    returns the weights, biases, the velocity as one vector laid out like
    ``NetworkModel.velocity``, and the TrainReport it ends with.
    """
    rng = np.random.default_rng(config.rng_seed)
    sizes = config.layer_sizes()
    shapes = list(zip(sizes[:-1], sizes[1:]))
    weights = [rng.normal(0.0, np.sqrt(2.0 / i), size=(i, o)) for i, o in shapes]
    biases = [np.zeros(o) for o in sizes[1:]]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def forward(x):
        acts = [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            acts.append(np.tanh(acts[-1] @ w + b))
        acts.append(sigmoid(acts[-1] @ weights[-1] + biases[-1]))
        return acts

    def cost(x, y):
        return float(0.5 * np.sum((forward(x)[-1] - y) ** 2) / x.shape[0])

    (x_train, y_train), (x_val, y_val) = train_set, validation_set
    n = x_train.shape[0]
    best_val, best = np.inf, ([w.copy() for w in weights], [b.copy() for b in biases])
    since_best, stopped_early, diverged, epochs_run = 0, False, False, 0
    val_curve = []
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        eta = config.learning_rate * config.lr_decay**epoch
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            x, y = x_train[idx], y_train[idx]
            acts = forward(x)
            out = acts[-1]
            batch_loss = float(0.5 * np.sum((out - y) ** 2) / len(idx))
            if not math.isfinite(batch_loss):
                diverged = True
                break
            delta = (out - y) / len(idx) * out * (1.0 - out)
            grad_w, grad_b = [None] * len(weights), [None] * len(weights)
            for layer in range(len(weights) - 1, -1, -1):
                grad_w[layer] = acts[layer].T @ delta
                grad_b[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ weights[layer].T) * (1.0 - acts[layer] ** 2)
            for i in range(len(weights)):
                mu, lam = config.momentum, config.l2_lambda
                vel_w[i] = mu * vel_w[i] - eta * (grad_w[i] + lam * weights[i])
                weights[i] = weights[i] + vel_w[i]
                vel_b[i] = mu * vel_b[i] - eta * grad_b[i]
                biases[i] = biases[i] + vel_b[i]
        if diverged:
            break
        val_loss = cost(x_val, y_val)
        val_curve.append(val_loss)
        epochs_run = epoch + 1
        if not math.isfinite(val_loss):
            diverged = True
            break
        if val_loss < best_val:
            best_val, since_best = val_loss, 0
            best = ([w.copy() for w in weights], [b.copy() for b in biases])
        else:
            since_best += 1
            if since_best >= config.early_stop_patience:
                stopped_early = True
                break
    report = TrainReport(epochs_run, float(best_val), stopped_early, tuple(val_curve), diverged)
    velocity = np.concatenate([v.ravel() for v in vel_w + vel_b])
    return best[0], best[1], velocity, report


class TestTrainMatchesPerLayerOracle:
    """Bit-equality with the per-layer trainer, computed on the same machine."""

    def _check(self, config, n_train, n_val, expect):
        rng = np.random.default_rng(config.rng_seed + 100)
        x = rng.normal(size=(n_train + n_val, config.input_dim))
        y = np.eye(2)[(x[:, 0] + rng.normal(size=len(x)) > 0).astype(int)]
        train_set, val_set = (x[:n_train], y[:n_train]), (x[n_train:], y[n_train:])
        model = init(config)
        with np.errstate(all="ignore"):
            report = train(model, train_set, val_set)
            weights, biases, velocity, expected = _reference_train(config, train_set, val_set)
        assert repr(report) == repr(expected)  # float repr round-trips; nan equals nan
        assert (report.stopped_early, report.diverged) == expect
        for got_arrays, want_arrays in ((model.weights, weights), (model.biases, biases)):
            assert len(got_arrays) == len(want_arrays)
            for a, b in zip(got_arrays, want_arrays):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()  # bitwise, signed zeros included
        assert model.velocity.tobytes() == velocity.tobytes()

    def test_small_net_with_early_stopping(self):
        config = NetworkConfig(input_dim=19, hidden_layers=(32, 32), max_epochs=60,
                               early_stop_patience=3, rng_seed=7)
        self._check(config, 600, 150, expect=(True, False))

    def test_bottleneck_decay_and_partial_last_batch(self):
        config = NetworkConfig(input_dim=6, hidden_layers=(5, 5, 5), bottleneck=2,
                               lr_decay=0.9, batch_size=16,
                               max_epochs=8, early_stop_patience=100, rng_seed=4)
        self._check(config, 70, 30, expect=(False, False))  # 70 = 4 * 16 + 6

    def test_net_spanning_two_update_blocks(self):
        # 44,602 parameters; the biases start inside the second block
        config = NetworkConfig(input_dim=19, hidden_layers=(200, 200), batch_size=50,
                               max_epochs=3, early_stop_patience=10, rng_seed=11)
        sizes = config.layer_sizes()
        n_weights = sum(i * o for i, o in zip(sizes[:-1], sizes[1:]))
        assert _UPDATE_BLOCK < n_weights < 2 * _UPDATE_BLOCK
        self._check(config, 200, 50, expect=(False, False))

    def test_divergence(self):
        self._check(_config(max_epochs=20, batch_size=20, learning_rate=1e300), 40, 20,
                    expect=(False, True))


def _stack_data(n_nets, n_rows, input_dim, seed, nan_at=None):
    """One noisy labelled set per net; a NaN input at (net, row) ``nan_at``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_nets, n_rows, input_dim))
    y = np.eye(2)[(x[..., 0] + rng.normal(size=(n_nets, n_rows)) > 0).astype(int)]
    if nan_at is not None:
        x[nan_at + (0,)] = np.nan
    return x, y


def _assert_stack_matches_solo(config, seeds, x, y, n_train, n_val):
    """Train the nets as one stack and each alone; every result must match bit for bit."""
    configs = [replace(config, rng_seed=seed) for seed in seeds]
    val_rows = slice(n_train, n_train + n_val)
    train_set, val_set = (x[:, :n_train], y[:, :n_train]), (x[:, val_rows], y[:, val_rows])
    test_x = x[:, n_train + n_val :]
    stack = init_stack(config, seeds)
    with np.errstate(all="ignore"):
        reports = train_stack(stack, train_set, val_set)
        predictions = predict_class(stack, test_x)
    assert len(reports) == len(seeds)
    for k, net_config in enumerate(configs):
        solo = init(net_config)
        with np.errstate(all="ignore"):
            expected = train(
                solo, (train_set[0][k], train_set[1][k]), (val_set[0][k], val_set[1][k])
            )
            expected_classes = predict_class(solo, test_x[k])
        assert repr(reports[k]) == repr(expected)  # float repr round-trips; nan equals nan
        row = stack.parameters[k] if len(seeds) > 1 else stack.parameters
        assert row.tobytes() == solo.parameters.tobytes()  # bitwise, signed zeros included
        velocity = stack.velocity[k] if len(seeds) > 1 else stack.velocity
        assert velocity.tobytes() == solo.velocity.tobytes()
        assert stack.rngs[k].bit_generator.state == solo.rngs[0].bit_generator.state
        assert predictions[k].tobytes() == expected_classes.tobytes()
    return reports


class TestTrainStack:
    """A stack of nets trains each one bit for bit as ``train`` trains it alone."""

    def test_nets_stop_at_different_epochs_and_one_diverges(self):
        config = NetworkConfig(input_dim=19, hidden_layers=(32, 32), max_epochs=25,
                               early_stop_patience=2, batch_size=50)
        x, y = _stack_data(6, 360, 19, seed=3, nan_at=(4, 150))  # a training row of net 4
        reports = _assert_stack_matches_solo(config, [11, 12, 13, 14, 15, 16], x, y, 200, 80)
        assert reports[4].diverged and reports[4].epochs_run == 0
        assert not any(r.diverged for k, r in enumerate(reports) if k != 4)
        stopped = [r.epochs_run for r in reports if r.stopped_early]
        assert len(stopped) >= 2 and len(set(stopped)) >= 2

    def test_validation_chunks_move_as_nets_leave(self, monkeypatch):
        # 7 nets of batch 10 and 30 validation rows: a chunk holds 7 * 10 // 30 = 2 whole
        # nets, so the first epoch validates in 4 chunks; net 3 of the second chunk
        # diverges on a NaN validation row, and the nets behind it move up a chunk
        config = NetworkConfig(input_dim=4, hidden_layers=(6, 5), batch_size=10, max_epochs=12,
                               early_stop_patience=2, learning_rate=0.5)
        x, y = _stack_data(7, 237, 4, seed=21, nan_at=(3, 215))  # validation row 15 of net 3
        forward_loss, chunks = neural._forward_loss, []

        def spy(*args):
            x = next(a for a in args if isinstance(a, np.ndarray))
            if x.shape[1] == 30:
                chunks.append(x.shape[0])
            return forward_loss(*args)

        monkeypatch.setattr(neural, "_forward_loss", spy)
        reports = _assert_stack_matches_solo(config, list(range(31, 38)), x, y, 200, 30)
        assert chunks[:4] == [2, 2, 2, 1] and chunks[4:7] == [2, 2, 2]
        assert reports[3].diverged and reports[3].epochs_run == 1
        stopped = sorted(r.epochs_run for r in reports if r.stopped_early)
        assert len(stopped) >= 3 and len(set(stopped)) >= 2

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        n_nets=st.integers(1, 5),
        hidden=st.sampled_from([(3,), (6, 4), (5, 5, 5)]),
        bottleneck=st.sampled_from([None, 2]),
        batch_size=st.integers(4, 16),
        n_train=st.integers(16, 60),
        n_val=st.integers(1, 20),
        patience=st.integers(1, 3),
        max_epochs=st.integers(1, 8),
        learning_rate=st.sampled_from([0.05, 0.5, 1e150]),  # 1e150 overflows within epochs
        seed=st.integers(0, 2**16),
        nan_net=st.integers(0, 4),
        nan_row=st.one_of(st.none(), st.integers(0, 79)),  # a training or validation row
    )
    def test_matches_each_net_trained_alone(
        self, n_nets, hidden, bottleneck, batch_size, n_train, n_val, patience, max_epochs,
        learning_rate, seed, nan_net, nan_row,
    ):
        config = NetworkConfig(
            input_dim=4, hidden_layers=hidden, bottleneck=bottleneck, batch_size=batch_size,
            max_epochs=max_epochs, early_stop_patience=patience, lr_decay=0.9,
            learning_rate=learning_rate,
        )
        nan_at = None if nan_row is None else (nan_net % n_nets, nan_row % (n_train + n_val))
        x, y = _stack_data(n_nets, n_train + n_val + 7, 4, seed, nan_at)
        seeds = [seed + k for k in range(n_nets)]
        _assert_stack_matches_solo(config, seeds, x, y, n_train, n_val)

    def test_net_spanning_two_update_blocks(self):
        # 44,602 parameters per net: the stack updates in blocks of columns
        config = NetworkConfig(input_dim=19, hidden_layers=(200, 200), batch_size=50,
                               max_epochs=3, early_stop_patience=1)
        x, y = _stack_data(2, 300, 19, seed=8)
        _assert_stack_matches_solo(config, [1, 2], x, y, 200, 50)

    def test_stack_size_fills_one_update_block(self):
        small = NetworkConfig(input_dim=19, hidden_layers=(32, 32))
        assert init(small).parameters.size == 1762
        assert stack_size(small) == _UPDATE_BLOCK // 1762 == 18
        assert stack_size(NetworkConfig(input_dim=19)) == 1  # the 5x400 net

    def test_redraws_into_a_stack_of_its_size_only(self):
        config, seeds = _config(batch_size=10, max_epochs=2), (1, 2, 3)
        x, y = _stack_data(3, 40, 3, seed=1)
        used = init_stack(config, seeds[::-1])
        train_stack(used, (x[:, :30], y[:, :30]), (x[:, 30:], y[:, 30:]))
        assert used.velocity.any()
        fresh = init_stack(config, seeds)
        assert init_stack(config, seeds, used) is used
        assert used.parameters.tobytes() == fresh.parameters.tobytes()
        assert not used.velocity.any()
        states = [[r.bit_generator.state for r in m.rngs] for m in (used, fresh)]
        assert states[0] == states[1]
        with pytest.raises(ValueError, match="chain"):
            init_stack(config, seeds[:2], used)
        with pytest.raises(ValueError, match="one-net"):
            train(used, (x, y), (x, y))


class TestFlatParameters:
    def test_writing_into_a_weight_view_changes_forward(self):
        model = init(_config(rng_seed=12))
        x = np.random.default_rng(3).normal(size=(4, 3))
        before, _ = forward(model, x)
        model.weights[-1][0, :] += 1.0
        after, _ = forward(model, x)
        assert not (before == after).all()

    def test_layer_lists_cannot_be_rebound(self):
        model = init(_config())
        for name in ("weights", "biases", "parameters", "velocity"):
            with pytest.raises(AttributeError):
                setattr(model, name, getattr(model, name))
        with pytest.raises(TypeError):
            model.weights[0] = np.zeros_like(model.weights[0])

    def test_weights_first_then_biases_in_one_vector(self):
        model = init(_config(hidden_layers=(4, 5)))
        views = list(model.weights) + list(model.biases)
        assert sum(v.size for v in views) == model.parameters.size
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in views]), model.parameters)
        assert all(np.shares_memory(model.parameters, v) for v in views)
        assert model.velocity.shape == model.parameters.shape


class TestPredictClass:
    def test_down_wins_on_higher_first_output(self):
        model = init(_config(rng_seed=2))
        outputs, _ = forward(model, np.zeros(3))
        expected = UP if outputs[0, UP] > outputs[0, DOWN] else DOWN
        prediction = predict_class(model, np.zeros(3))
        assert prediction.dtype == np.int64
        assert prediction.tolist() == [expected]

    def test_exact_tie_goes_down(self):
        model = init(_config())
        for w in model.weights:
            w[...] = 0.0
        assert predict_class(model, np.ones(3)).tolist() == [DOWN]  # outputs (0.5, 0.5)

    def test_batch_predictions_match_forward_argmax(self):
        rng = np.random.default_rng(44)
        model = init(_config(rng_seed=13))
        x = rng.normal(size=(25, 3))
        outputs, _ = forward(model, x)
        expected = (outputs[:, UP] > outputs[:, DOWN]).astype(int)
        np.testing.assert_array_equal(predict_class(model, x), expected)

