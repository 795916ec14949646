"""Classifier head: inference, batchnorm, backprop gradients, training loop."""

import gc
import io
import math
import re
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendfuse import mlp
from blendfuse.core import ValidationError
from blendfuse.labels import mean_kl, softmax
from blendfuse.mlp import (
    SPLIT_MIN_MACS,
    MlpConfig,
    MlpModel,
    NumericError,
    TrainLogEntry,
    load_model,
    loss_and_gradients,
    param_layout,
    predict_proba,
    save_model,
    save_train_log,
    train,
    _Layer,
    _batches,
    _forward,
    _matmul,
    _one_blas_thread,
)


def toy_config(**overrides):
    base = dict(hidden_dims=(2,), dropout=0.0, lr=0.05, max_epochs=50, patience=10,
                batch_size=8, seed=0)
    base.update(overrides)
    return MlpConfig(**base)


def random_soft_rows(rng, n):
    y = np.zeros((n, 6))
    for r in range(n):
        kind = rng.integers(3)
        i = int(rng.integers(6))
        j = int((i + 1 + rng.integers(5)) % 6)
        if kind == 0:
            y[r, i] = 1.0
        elif kind == 1:
            y[r, i], y[r, j] = 0.7, 0.3
        else:
            y[r, i], y[r, j] = 0.5, 0.5
    return y


class TestForward:
    def test_output_on_simplex(self):
        rng = np.random.default_rng(0)
        model = MlpModel.initialize(5, toy_config())
        for _ in range(20):
            out = predict_proba(model, rng.normal(size=5))[0]
            assert abs(sum(out) - 1.0) <= 1e-6
            assert all(v > 0 for v in out)

    def test_eval_forward_deterministic(self):
        model = MlpModel.initialize(4, toy_config(dropout=0.0))
        x = np.arange(4.0)
        assert np.array_equal(predict_proba(model, x), predict_proba(model, x))

    def test_zero_final_layer_gives_uniform(self):
        model = MlpModel.initialize(4, toy_config())
        model.params["w1"][:] = 0.0
        model.params["b1"][:] = 0.0
        out = predict_proba(model, np.ones(4))[0]
        assert np.allclose(out, [1 / 6] * 6, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = MlpModel.initialize(4, toy_config())
        with pytest.raises(ValidationError):
            predict_proba(model, np.ones(5))


def fresh_batchnorm(dim):
    """The batchnorm entries of a new head's hidden layer 0 of width ``dim``."""
    params = MlpModel.initialize(1, toy_config(hidden_dims=(dim,))).params
    return {k: a for k, a in params.items() if k.startswith("bn0_")}


def normalized(x, params, train):
    """``x_hat`` of hidden layer 0 for the rows of ``x``, fed through an
    identity affine layer: ``params`` holds the layer's batchnorm entries,
    which training updates in place, and gains the affine entries."""
    n, dim = x.shape
    params.update(w0=np.eye(dim), b0=np.zeros(dim), w1=np.zeros((dim, 6)), b1=np.zeros(6))
    layer = _Layer(n, dim, train)
    _forward(MlpModel(toy_config(hidden_dims=(dim,)), dim, params), x, [layer], train)
    return layer.z


class TestBatchNorm:
    def test_train_mode_normalizes_columns(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.5, size=(64, 5))
        out = normalized(x, fresh_batchnorm(5), train=True)
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-5)
        assert np.all(np.abs(out.var(axis=0) - 1.0) <= 1e-3)

    def test_eval_matches_train_when_stats_equal(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 3))
        params = fresh_batchnorm(3)
        params["bn0_mean"] = x.mean(axis=0)
        params["bn0_var"] = x.var(axis=0)
        train_out = normalized(x, dict(params), train=True)
        eval_out = normalized(x, params, train=False)
        assert np.allclose(train_out, eval_out, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        x = np.full((16, 2), 7.25)
        out = normalized(x, fresh_batchnorm(2), train=True)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_single_row_train_rejected(self):
        with pytest.raises(ValidationError):
            normalized(np.ones((1, 3)), fresh_batchnorm(3), train=True)

    def test_running_stats_updated_with_momentum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 1.0, size=(32, 2))
        params = fresh_batchnorm(2)
        normalized(x, params, train=True)
        expected_mean = 0.9 * np.zeros(2) + 0.1 * x.mean(axis=0)
        expected_var = 0.9 * np.ones(2) + 0.1 * x.var(axis=0)
        assert np.allclose(params["bn0_mean"], expected_mean, atol=1e-12)
        assert np.allclose(params["bn0_var"], expected_var, atol=1e-12)

    def test_eval_leaves_running_stats(self):
        params = fresh_batchnorm(2)
        before = dict(params)
        normalized(np.arange(8.0).reshape(4, 2), params, train=False)
        assert all(params[k] is a for k, a in before.items())


def train_mode_loss(model, x, y):
    layers = [_Layer(len(x), width, train=True) for width in model.config.hidden_dims]
    return mean_kl(y, softmax(_forward(model, x, layers, train=True)))


def finite_difference_gradients(model, x, y, h=1e-4):
    numeric = {}
    for name, arr in model.parameters():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = train_mode_loss(model, x, y)
            flat[k] = orig - h
            lm = train_mode_loss(model, x, y)
            flat[k] = orig
            gflat[k] = (lp - lm) / (2 * h)
        numeric[name] = grad
    return numeric


def full_gradients(model, x, y, dropout_rng=None):
    """:func:`loss_and_gradients` with every weight gradient in the dict too,
    stored by the hook as ``inputs.T @ dz``."""
    weight_grads = {}

    def store(name, inputs, dz):
        weight_grads[name] = inputs.T @ dz

    loss, grads = loss_and_gradients(model, x, y, dropout_rng, store)
    return loss, {**grads, **weight_grads}


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestGradients:
    def test_full_parameter_gradcheck(self):
        rng = np.random.default_rng(4)
        for case in range(20):
            model = MlpModel.initialize(3, toy_config(seed=case))
            x = rng.normal(size=(4, 3))
            y = random_soft_rows(rng, 4)
            _, analytic = full_gradients(model, x, y)
            numeric = finite_difference_gradients(model, x, y)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_gradcheck_with_deeper_net(self):
        rng = np.random.default_rng(5)
        model = MlpModel.initialize(4, toy_config(hidden_dims=(3, 2), seed=9))
        x = rng.normal(size=(6, 4))
        y = random_soft_rows(rng, 6)
        _, analytic = full_gradients(model, x, y)
        numeric = finite_difference_gradients(model, x, y)
        assert max_relative_error(analytic, numeric) <= 1e-4


def separable_dataset(rng, n, noise=0.05):
    """Features linearly encode the dominant class."""
    y = np.zeros((n, 6))
    x = np.zeros((n, 8))
    for r in range(n):
        c = int(rng.integers(6))
        y[r, c] = 1.0
        x[r, c] = 1.0
        x[r, 6:] = rng.normal(0, noise, 2)
        x[r, :6] += rng.normal(0, noise, 6)
    return x, y


class TestTrain:
    def test_overfits_small_set(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 8))
        y = random_soft_rows(rng, 50)
        cfg = MlpConfig(hidden_dims=(32, 16), dropout=0.0, lr=0.1, max_epochs=500,
                        patience=500, batch_size=50, seed=1)
        result = train((x, y), (x, y), cfg)
        probs = predict_proba(result.model, x)
        assert mean_kl(y, probs) < 0.01

    def test_patience_zero_stops_after_first_bad_epoch(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(24, 6))
        y = random_soft_rows(rng, 24)
        # validation against permuted labels worsens while training improves
        y_val = y[rng.permutation(24)]
        cfg = toy_config(max_epochs=200, patience=0, batch_size=24, lr=0.1)
        result = train((x, y), (x, y_val), cfg)
        log = result.log
        assert len(log) < 200
        assert len(log) == result.best_epoch + 2
        assert log[-1].val_loss >= result.best_val_loss

    def test_seeded_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 5))
        y = random_soft_rows(rng, 30)
        cfg = toy_config(max_epochs=30, dropout=0.2, batch_size=8, seed=42)
        r1 = train((x, y), (x, y), cfg)
        r2 = train((x, y), (x, y), cfg)
        assert r1.log == r2.log
        for (n1, a1), (n2, a2) in zip(r1.model.parameters(), r2.model.parameters()):
            assert n1 == n2
            assert np.array_equal(a1, a2)

    def test_returns_best_snapshot_not_final(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(24, 6))
        y = random_soft_rows(rng, 24)
        y_val = y[rng.permutation(24)]
        cfg = toy_config(max_epochs=200, patience=5, batch_size=24, lr=0.1)
        result = train((x, y), (x, y_val), cfg)
        assert result.best_val_loss == min(e.val_loss for e in result.log)
        assert result.log[result.best_epoch].val_loss == result.best_val_loss
        probs = predict_proba(result.model, x)
        assert mean_kl(y_val, probs) == pytest.approx(result.best_val_loss, abs=1e-12)

    def test_monotone_loss_on_separable_set(self):
        rng = np.random.default_rng(10)
        x, y = separable_dataset(rng, 60)
        cfg = MlpConfig(hidden_dims=(16,), dropout=0.0, lr=0.05, max_epochs=100,
                        patience=100, batch_size=60, seed=3)
        result = train((x, y), (x, y), cfg)
        losses = [e.train_loss for e in result.log]
        windows = [np.mean(losses[i : i + 10]) for i in range(0, len(losses) - 9, 10)]
        for earlier, later in zip(windows, windows[1:]):
            assert later <= earlier + 1e-9

    def test_non_finite_loss_raises(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(16, 4)) * 100
        y = random_soft_rows(rng, 16)
        cfg = toy_config(lr=1e9, max_epochs=50, batch_size=16)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError):
            train((x, y), (x, y), cfg)

    def test_diverging_training_is_one_numeric_error_naming_the_epoch(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(16, 4)) * 100
        y = random_soft_rows(rng, 16)
        with pytest.raises(NumericError, match=r"^overflow encountered in \w+ at epoch 1$"):
            train((x, y), (x, y), toy_config(lr=1e100, max_epochs=10, batch_size=16))

    def test_overflow_in_the_worker_half_is_one_numeric_error_naming_the_epoch(self, monkeypatch):
        # One batch of 8 rows: the first hidden layer, 8 x 1024 @ 1024 x 1024,
        # runs as two column halves, and the worker takes columns [0, 512).
        # Feature 0 is 1e300 in the training rows, and its weight row is 1e10
        # in the worker's columns and 0 in the caller's, so only the worker's
        # gemm overflows; the validation rows overflow nothing.
        cfg = MlpConfig(hidden_dims=(1024,), dropout=0.0, max_epochs=2, patience=2, batch_size=8, seed=5)
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=(10, 1024)), random_soft_rows(rng, 10)
        assert 8 * 1024 * 1024 >= SPLIT_MIN_MACS
        x[:8, 0] = 1e300
        initialize = MlpModel.initialize

        def initialize_with_feature_0_weighted_in_the_worker_half(input_dim, config):
            model = initialize(input_dim, config)
            model.params["w0"][0] = np.repeat([1e10, 0.0], 512)
            return model

        monkeypatch.setattr(MlpModel, "initialize", initialize_with_feature_0_weighted_in_the_worker_half)
        threads = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match=r"^overflow encountered in matmul at epoch 0$"):
                train((x[:8], y[:8]), (x[8:], y[8:]), cfg)
        assert caught == []
        assert threading.active_count() == threads

    def test_the_worker_thread_ends_with_train(self):
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=(16, 1024)), random_soft_rows(rng, 16)
        threads = threading.active_count()
        train((x, y), (x, y), MlpConfig(hidden_dims=(1024,), max_epochs=1, batch_size=16))
        assert threading.active_count() == threads

    def test_a_process_on_one_cpu_trains_on_one_thread_to_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(18)
        x, y = rng.normal(size=(16, 1024)), random_soft_rows(rng, 16)
        cfg = MlpConfig(hidden_dims=(1024,), max_epochs=2, batch_size=16)
        two_cpus = train((x, y), (x, y), cfg)

        def no_pool(*args):
            raise AssertionError("a worker thread on one CPU")

        monkeypatch.setattr(mlp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(mlp, "ThreadPoolExecutor", no_pool)
        one_cpu = train((x, y), (x, y), cfg)
        assert one_cpu.log == two_cpus.log
        assert_models_identical(one_cpu.model, two_cpus.model)

    def test_batchnorm_relu_and_dropout_run_whole_on_the_calling_thread(self, monkeypatch):
        # With two CPUs the worker takes half of each large gemm, and nothing
        # else of a hidden layer: its forward and backward elementwise work
        # runs on the thread that called train.
        rng = np.random.default_rng(20)
        x, y = rng.normal(size=(128, 128)), random_soft_rows(rng, 128)
        cfg = MlpConfig(hidden_dims=(1024, 1024), dropout=0.3, max_epochs=1, batch_size=64)
        elementwise, gemms = [], []

        def traced(calls, run):
            def call(*args, **kwargs):
                calls.append(threading.get_ident())
                return run(*args, **kwargs)
            return call

        for name in ("_hidden_forward", "_hidden_backward"):
            monkeypatch.setattr(mlp, name, traced(elementwise, getattr(mlp, name)))
        monkeypatch.setattr(np, "matmul", traced(gemms, np.matmul))
        monkeypatch.setattr(mlp.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        train((x, y), (x[:32], y[:32]), cfg)
        assert set(elementwise) == {threading.get_ident()}
        assert len(elementwise) == 2 * 2 + 2 * 2 + 2  # two steps forward and back, then validation
        assert set(gemms) - {threading.get_ident()}

    def test_peak_memory_is_three_parameter_sized_arrays(self):
        # Parameters dominate activations here: 512 -> 512 -> 256 -> 6 on
        # batches of 16.  Weights, velocity and the best-epoch snapshot are
        # three copies, and each weight gradient is formed 64 rows at a
        # time; a fourth copy (full weight gradients, or a new snapshot
        # taken while the old one lives) would pass 4x.
        rng = np.random.default_rng(12)
        x = rng.normal(size=(64, 512))
        y = softmax(2.0 * x[:, :6])
        cfg = MlpConfig(hidden_dims=(512, 256), dropout=0.0, lr=1e-2, max_epochs=5, patience=5,
                        batch_size=16, seed=0)
        param_bytes = 8 * sum(math.prod(shape) for shape in param_layout(512, cfg).values())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = train((x, y), (x, y), cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        val = [e.val_loss for e in result.log]
        assert sum(v < min(val[:i]) for i, v in enumerate(val) if i) >= 2  # the snapshot is refreshed
        assert peak < 4 * param_bytes

    def test_a_step_after_the_first_allocates_no_batch_sized_array(self, monkeypatch):
        # Every array a step writes is allocated once for the head, so no
        # step after the first traces one 64 x 1024 activation's worth above
        # what it starts with; a block that large would raise its peak so far.
        rng = np.random.default_rng(19)
        x, y = rng.normal(size=(192, 128)), random_soft_rows(rng, 192)
        cfg = MlpConfig(hidden_dims=(1024, 512), dropout=0.3, max_epochs=2, patience=2, batch_size=64)
        step, peaks = mlp.loss_and_gradients, []

        def traced_step(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return result

        monkeypatch.setattr(mlp, "loss_and_gradients", traced_step)
        tracemalloc.start()
        try:
            train((x, y), (x[:32], y[:32]), cfg)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 6
        assert max(peaks[1:]) < 64 * 1024 * 8

    @pytest.mark.parametrize("which", ["train", "validation"])
    @pytest.mark.parametrize("shape", [(9, 6), (11, 6), (10, 5), (10,)],
                             ids=["fewer-rows", "more-rows", "five-columns", "one-d"])
    def test_targets_of_another_shape_are_rejected_naming_the_set(self, which, shape):
        rng = np.random.default_rng(16)
        x, y = rng.normal(size=(10, 4)), random_soft_rows(rng, 10)
        sets = {"train": (x, y), "validation": (x, y)}
        sets[which] = (x, np.full(shape, 1.0 / 6))
        expected = rf"^{which} targets are \({', '.join(map(str, shape))},?\), expected \(10, 6\)$"
        with pytest.raises(ValidationError, match=expected):
            train(sets["train"], sets["validation"], toy_config(max_epochs=2, patience=2))

    def test_empty_sets_rejected(self):
        with pytest.raises(ValidationError):
            train((np.zeros((0, 4)), np.zeros((0, 6))), (np.zeros((1, 4)), np.zeros((1, 6))),
                  toy_config())

    def test_patience_cannot_exceed_epochs(self):
        with pytest.raises(ValidationError):
            MlpConfig(max_epochs=10, patience=11)

    def test_omitted_patience_is_capped_at_max_epochs(self):
        assert MlpConfig().patience == 80
        assert MlpConfig(max_epochs=10).patience == 10
        assert MlpConfig(max_epochs=10, patience=0).patience == 0

    @pytest.mark.parametrize("momentum", [math.nan, math.inf, -math.inf, -5.0, -1e-300, 1.0, 1.5])
    def test_momentum_outside_zero_to_one_is_rejected(self, momentum):
        assert MlpConfig(momentum=0.0).momentum == 0.0
        with pytest.raises(ValidationError, match=rf"^momentum must be in \[0, 1\), got {re.escape(repr(momentum))}$"):
            MlpConfig(momentum=momentum)

    @pytest.mark.parametrize("settings", [dict(patience=-1), dict(batch_size=1)])
    def test_negative_patience_and_single_row_batches_rejected(self, settings):
        with pytest.raises(ValidationError):
            MlpConfig(**settings)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 5))
        y = random_soft_rows(rng, 20)
        result = train((x, y), (x, y), toy_config(max_epochs=5, patience=5))
        path = tmp_path / "model.npz"
        save_model(result.model, path)
        loaded = load_model(path)
        assert_models_identical(result.model, loaded)
        xq = rng.normal(size=(3, 5))
        assert np.array_equal(predict_proba(result.model, xq), predict_proba(loaded, xq))

    def test_layout_names_the_checkpoint_members_in_order(self, tmp_path):
        cfg = toy_config(hidden_dims=(3, 2))
        model = MlpModel.initialize(4, cfg)
        assert list(param_layout(4, cfg).items()) == [
            ("w0", (4, 3)), ("b0", (3,)), ("w1", (3, 2)), ("b1", (2,)), ("w2", (2, 6)), ("b2", (6,)),
            ("bn0_gamma", (3,)), ("bn0_beta", (3,)), ("bn0_mean", (3,)), ("bn0_var", (3,)),
            ("bn1_gamma", (2,)), ("bn1_beta", (2,)), ("bn1_mean", (2,)), ("bn1_var", (2,)),
        ]
        assert [name for name, _ in model.parameters()] == [
            "w0", "b0", "w1", "b1", "w2", "b2", "bn0_gamma", "bn0_beta", "bn1_gamma", "bn1_beta",
        ]
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            assert data.files == ["__meta__", *param_layout(4, cfg)]
            assert bytes(data["__meta__"]).decode() == (
                '{"config": {"batch_size": 8, "dropout": 0.0, "hidden_dims": [3, 2], "lr": 0.05, '
                '"max_epochs": 50, "momentum": 0.9, "output_dim": 6, "patience": 10, "seed": 0}, '
                '"input_dim": 4, "version": 1}'
            )

    def test_copy_shares_no_array(self):
        model = MlpModel.initialize(4, toy_config())
        twin = model.copy()
        assert_models_identical(model, twin)
        assert not any(np.shares_memory(a, twin.params[k]) for k, a in model.params.items())


def rewritten_checkpoint(tmp_path, **changes):
    """A checkpoint of a (3, 2)-hidden head on 4 inputs, saved and then
    rewritten with each named member replaced, or dropped where None."""
    path = tmp_path / "model.npz"
    save_model(MlpModel.initialize(4, toy_config(hidden_dims=(3, 2))), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    np.savez(path, **arrays)
    return path


def meta_bytes(text):
    return np.frombuffer(text.encode(), dtype=np.uint8)


def npy_bytes(arr):
    buffer = io.BytesIO()
    np.save(buffer, arr)
    return buffer.getvalue()


class TestLoadModelRejects:
    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(bn0_var=None), "missing array 'bn0_var'"),
            (dict(w9=np.zeros((2, 2))), "unexpected array 'w9'"),
            (dict(w1=np.zeros((2, 2))), "array 'w1' is float64 (2, 2), expected float (3, 2)"),
            (dict(b2=np.zeros(6, dtype=np.int64)), "array 'b2' is int64 (6,), expected float (6,)"),
            (dict(__meta__=None), "not a readable checkpoint: missing '__meta__'"),
            (dict(__meta__=meta_bytes("{not json")), "not a readable checkpoint: Expecting property name"),
            (dict(__meta__=meta_bytes("[1]")), "not a readable checkpoint: list indices must be integers"),
            (
                dict(__meta__=meta_bytes("[" * 100_000 + "]" * 100_000)),
                "not a readable checkpoint: maximum recursion depth exceeded",
            ),
            (dict(__meta__=meta_bytes('{"version": 2}')), "not a readable checkpoint: unsupported checkpoint version 2"),
            (dict(__meta__=meta_bytes('{"version": 1, "input_dim": 4}')), "not a readable checkpoint: missing 'config'"),
            (
                dict(__meta__=meta_bytes('{"version": 1, "input_dim": 4, "config": {"width": 3}}')),
                "not a readable checkpoint: MlpConfig.__init__() got an unexpected keyword argument 'width'",
            ),
            (
                dict(__meta__=meta_bytes('{"version": 1, "input_dim": 4, "config": {"dropout": 2}}')),
                "not a readable checkpoint: dropout must be in [0, 1), got 2",
            ),
            (
                dict(__meta__=meta_bytes('{"version": 1, "input_dim": 4, "config": {"momentum": NaN}}')),
                "not a readable checkpoint: momentum must be in [0, 1), got nan",
            ),
            (
                dict(__meta__=meta_bytes('{"version": 1, "input_dim": 4, "config": {"momentum": 1.5}}')),
                "not a readable checkpoint: momentum must be in [0, 1), got 1.5",
            ),
            (
                dict(__meta__=meta_bytes('{"version": 1, "input_dim": "x", "config": {}}')),
                "not a readable checkpoint: invalid literal for int() with base 10: 'x'",
            ),
            (
                dict(__meta__=meta_bytes('{"version": 1, "input_dim": 5, "config": {"hidden_dims": [3, 2]}}')),
                "array 'w0' is float64 (4, 3), expected float (5, 3)",
            ),
        ],
        ids=[
            "missing", "extra", "wrong-shape", "int-dtype", "no-meta", "meta-not-json", "meta-not-object",
            "meta-nested-too-deeply", "version", "no-config", "unknown-config-key", "bad-config-value",
            "momentum-nan", "momentum-above-one", "input-dim-not-int",
            "input-dim-differs",
        ],
    )
    def test_bad_member_names_path_and_array(self, tmp_path, changes, message):
        path = rewritten_checkpoint(tmp_path, **changes)
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize(
        "write",
        [
            lambda p: p.write_text("not an archive\n"),
            lambda p: p.write_bytes(b""),
            lambda p: p.write_bytes(rewritten_checkpoint(p.parent).read_bytes()[:200]),
            lambda p: p.write_bytes(npy_bytes(np.zeros(3))),
            lambda p: p.mkdir(),
            lambda p: None,
        ],
        ids=["text", "empty", "truncated", "npy", "directory", "absent"],
    )
    def test_unreadable_file_names_path(self, tmp_path, write):
        path = tmp_path / "bad.npz"
        write(path)
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: not a readable checkpoint: ")

    def test_truncated_file_is_closed(self, tmp_path):
        # np.load given a path leaves the file open when it is not a whole .npz.
        path = tmp_path / "bad.npz"
        path.write_bytes(rewritten_checkpoint(tmp_path).read_bytes()[:200])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                load_model(path)
            except ValidationError:
                pass
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_train_log_file(self, tmp_path):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(12, 4))
        y = random_soft_rows(rng, 12)
        result = train((x, y), (x, y), toy_config(max_epochs=3, patience=3))
        path = tmp_path / "log.csv"
        save_train_log(result.log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == len(result.log) + 1


def reference_batchnorm_forward(batch, params, layer):
    """Train-mode batchnorm of hidden layer ``layer``, with fresh arrays."""
    gamma, beta = params[f"bn{layer}_gamma"], params[f"bn{layer}_beta"]
    mean_key, var_key = f"bn{layer}_mean", f"bn{layer}_var"
    mean, var = batch.mean(axis=0), batch.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + mlp.BN_EPS)
    x_hat = (batch - mean) * inv_std
    params[mean_key] = (1 - mlp.BN_MOMENTUM) * params[mean_key] + mlp.BN_MOMENTUM * mean
    params[var_key] = (1 - mlp.BN_MOMENTUM) * params[var_key] + mlp.BN_MOMENTUM * var
    return gamma * x_hat + beta, {"x_hat": x_hat, "inv_std": inv_std}


def reference_forward(model, x, dropout_rng):
    """Train-mode logits and each layer's cache, with fresh arrays."""
    caches = []
    h, params, rate = x, model.params, model.config.dropout
    n_hidden = len(model.config.hidden_dims)
    for i in range(n_hidden):
        cache = {"x": h}
        z_bn, cache["bn"] = reference_batchnorm_forward(h @ params[f"w{i}"] + params[f"b{i}"], params, i)
        cache["relu_mask"] = relu_mask = z_bn > 0.0
        h = z_bn * relu_mask
        if rate > 0.0:
            cache["drop_mask"] = drop_mask = (dropout_rng.random(h.shape) >= rate) / (1.0 - rate)
            h = h * drop_mask
        caches.append(cache)
    caches.append({"x": h})
    return h @ params[f"w{n_hidden}"] + params[f"b{n_hidden}"], caches


def reference_batchnorm_backward(dout, gamma, cache):
    x_hat, inv_std = cache["x_hat"], cache["inv_std"]
    n = dout.shape[0]
    dgamma = (dout * x_hat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    dx = inv_std / n * (n * dxhat - dxhat.sum(axis=0) - x_hat * (dxhat * x_hat).sum(axis=0))
    return dx, dgamma, dbeta


def reference_loss_and_gradients(model, x, y, dropout_rng):
    """Backprop with fresh arrays and all six matmuls, the input gradient included."""
    logits, caches = reference_forward(model, x, dropout_rng)
    probs = softmax(logits)
    loss = mean_kl(y, probs)
    grads = {}
    dlogits = (probs - y) / x.shape[0]
    last = len(model.config.hidden_dims)
    grads[f"w{last}"] = caches[-1]["x"].T @ dlogits
    grads[f"b{last}"] = dlogits.sum(axis=0)
    dh = dlogits @ model.params[f"w{last}"].T
    for i in reversed(range(last)):
        cache = caches[i]
        if "drop_mask" in cache:
            dh = dh * cache["drop_mask"]
        dz, dgamma, dbeta = reference_batchnorm_backward(
            dh * cache["relu_mask"], model.params[f"bn{i}_gamma"], cache["bn"]
        )
        grads[f"bn{i}_gamma"] = dgamma
        grads[f"bn{i}_beta"] = dbeta
        grads[f"w{i}"] = cache["x"].T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        dh = dz @ model.params[f"w{i}"].T
    return loss, grads


def reference_train(train_set, val_set, cfg):
    """The training loop with a fresh gradient per step and ``v -= lr * g``."""
    x, y = train_set
    x_val, y_val = val_set
    model = MlpModel.initialize(x.shape[1], cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    dropout_rng = np.random.default_rng(cfg.seed + 2)
    velocity = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    best, best_val, best_epoch, bad_epochs, log = None, math.inf, -1, 0, []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        for batch in _batches(x.shape[0], cfg.batch_size, order):
            loss, grads = reference_loss_and_gradients(model, x[batch], y[batch], dropout_rng)
            epoch_loss += loss * batch.size
            for name, arr in model.parameters():
                v = velocity[name]
                v *= cfg.momentum
                v -= cfg.lr * grads[name]
                arr += v
        val_loss = mean_kl(y_val, predict_proba(model, x_val))
        log.append(TrainLogEntry(epoch, epoch_loss / x.shape[0], val_loss))
        if val_loss < best_val:
            best, best_val, best_epoch, bad_epochs = model.copy(), val_loss, epoch, 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(cfg.patience, 1):
                break
    return best, tuple(log), best_epoch, best_val


def assert_models_identical(a, b):
    """Same config, input width and table: names in order and every array bit for bit."""
    assert (a.config, a.input_dim) == (b.config, b.input_dim)
    for (n1, a1), (n2, a2) in zip(a.params.items(), b.params.items(), strict=True):
        assert n1 == n2
        assert a1.shape == a2.shape and np.array_equal(a1.view(np.int64), a2.view(np.int64)), n1


class TestTrainMatchesReference:
    def test_gradients_match_reference(self):
        rng = np.random.default_rng(14)
        model = MlpModel.initialize(12, toy_config(hidden_dims=(16, 8), dropout=0.3, seed=3))
        x = rng.normal(size=(9, 12))
        y = random_soft_rows(rng, 9)
        ref_loss, ref = reference_loss_and_gradients(model.copy(), x, y, np.random.default_rng(5))
        loss, grads = full_gradients(model.copy(), x, y, np.random.default_rng(5))
        assert loss == ref_loss
        assert grads.keys() == ref.keys()
        for name, g in ref.items():
            assert np.array_equal(grads[name].view(np.int64), g.view(np.int64)), name

        # With a hook, each weight's gradient is inputs.T @ dz, handed over
        # top layer first; backprop no longer reads a weight once its hook
        # ran, so a hook that overwrites it changes no other gradient.
        hooked, calls = model.copy(), []

        def hook(name, inputs, dz):
            calls.append((name, inputs.T @ dz))
            hooked.params[name][:] = np.nan

        loss, grads = loss_and_gradients(hooked, x, y, np.random.default_rng(5), hook)
        assert loss == ref_loss
        assert [name for name, _ in calls] == ["w2", "w1", "w0"]
        assert grads.keys() == ref.keys() - {"w0", "w1", "w2"}
        for name, g in [*grads.items(), *calls]:
            assert np.array_equal(g.view(np.int64), ref[name].view(np.int64)), name

        y[0, 0] = np.inf
        calls.clear()
        loss, grads = loss_and_gradients(model.copy(), x, y, np.random.default_rng(5), hook)
        assert loss == np.inf and grads == {} and calls == []

    # 25 rows in batches of 8: _batches folds the trailing row into the third batch.
    # In the "panels" case w0 is updated in row panels of 64, 64, 64, 64 and 8
    # rows, and w1 in panels of 64, 64, 64 and 8; in "folded-row" w0's 257th
    # row joins the fourth panel, as numpy would multiply a one-row panel by gemv.
    # In "two-threads" both hidden layers of width 1024 run as two column
    # halves, one on each thread, their backprop too, and the panel updates
    # of their weights are split between the threads.  In "odd-width" the
    # first hidden layer, 131 wide, runs as halves of 65 and 66 columns, and
    # so does its gradient from the 8192-wide layer above.  (Wider odd layers
    # do not fit this reference: the row panels of a weight 1025 wide sum
    # their last columns in another order than the whole weight gradient.)
    @pytest.mark.parametrize(
        "width,hidden,dropout,patience",
        [(12, (16, 8), 0.3, 8), (12, (16, 8), 0.0, 8), (12, (16, 8), 0.3, 1), (264, (200, 8), 0.3, 8),
         (257, (8,), 0.3, 8), (1024, (1024, 1024), 0.3, 8), (8192, (131, 8192), 0.3, 8)],
        ids=["0.3-8", "0.0-8", "0.3-1", "panels", "folded-row", "two-threads", "odd-width"],
    )
    def test_train_bit_identical_to_reference(self, width, hidden, dropout, patience):
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=(25, width)), random_soft_rows(rng, 25)
        x_val, y_val = rng.normal(size=(10, width)), random_soft_rows(rng, 10)
        assert [b.size for b in _batches(25, 8, np.arange(25))] == [8, 8, 9]
        cfg = MlpConfig(hidden_dims=hidden, dropout=dropout, lr=0.05, max_epochs=8,
                        patience=patience, batch_size=8, seed=4)
        result = train((x, y), (x_val, y_val), cfg)
        best, log, best_epoch, best_val = reference_train((x, y), (x_val, y_val), cfg)
        assert result.log == log
        assert (result.best_epoch, result.best_val_loss) == (best_epoch, best_val)
        assert_models_identical(result.model, best)


# Widths the layers of a head take: the 6 logits, 128-dim features, the
# hidden widths of the benchmark head, 130, which is not a multiple of 8, and
# 1025, an odd width over the split threshold whose halves differ by a column.
LAYER_WIDTHS = (6, 128, 130, 512, 768, 896, 1024, 1025)


class _CountingPool(ThreadPoolExecutor):
    """A one-worker pool that counts the tasks submitted to it."""

    def __init__(self):
        super().__init__(1)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        return super().submit(*args, **kwargs)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(rows=st.integers(2, 130), inner=st.sampled_from(LAYER_WIDTHS), outer=st.sampled_from(LAYER_WIDTHS),
       transposed=st.booleans())
def test_a_gemm_split_in_column_halves_is_the_whole_gemm_bit_for_bit(rows, inner, outer, transposed):
    # transposed: b is the transpose of a C-ordered array, as w.T is in
    # backprop, whose column halves are the row halves w[r0:r1].T.
    rng = np.random.default_rng([rows, inner, outer])
    a = rng.normal(size=(rows, inner))
    b = rng.normal(size=(outer, inner)).T if transposed else rng.normal(size=(inner, outer))
    halves = np.full((rows, outer), np.nan)
    with _one_blas_thread(), _CountingPool() as pool:
        _matmul(pool, a, b, halves)
        whole = np.matmul(a, b)
    assert pool.submits == (1 if rows * inner * outer >= SPLIT_MIN_MACS else 0)
    assert np.array_equal(halves.view(np.int64), whole.view(np.int64))
