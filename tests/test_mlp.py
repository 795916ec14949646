"""Classifier head: inference, batchnorm, backprop gradients, training loop."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from blendfuse.core import ValidationError
from blendfuse.labels import mean_kl, softmax
from blendfuse.mlp import (
    MlpConfig,
    MlpModel,
    NumericError,
    TrainLogEntry,
    batchnorm_forward,
    load_model,
    loss_and_gradients,
    param_layout,
    predict_proba,
    save_model,
    save_train_log,
    train,
    _batches,
    _forward_batch,
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


class TestBatchNorm:
    def test_train_mode_normalizes_columns(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3.0, 2.5, size=(64, 5))
        out, _ = batchnorm_forward(x, fresh_batchnorm(5), 0, train=True)
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-5)
        assert np.all(np.abs(out.var(axis=0) - 1.0) <= 1e-3)

    def test_eval_matches_train_when_stats_equal(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 3))
        params = fresh_batchnorm(3)
        params["bn0_mean"] = x.mean(axis=0)
        params["bn0_var"] = x.var(axis=0)
        train_out, _ = batchnorm_forward(x, dict(params), 0, train=True)
        eval_out, _ = batchnorm_forward(x, params, 0, train=False)
        assert np.allclose(train_out, eval_out, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        x = np.full((16, 2), 7.25)
        out, _ = batchnorm_forward(x, fresh_batchnorm(2), 0, train=True)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_single_row_train_rejected(self):
        with pytest.raises(ValidationError):
            batchnorm_forward(np.ones((1, 3)), fresh_batchnorm(3), 0, train=True)

    def test_running_stats_updated_with_momentum(self):
        rng = np.random.default_rng(3)
        x = rng.normal(2.0, 1.0, size=(32, 2))
        params = fresh_batchnorm(2)
        batchnorm_forward(x, params, 0, train=True)
        expected_mean = 0.9 * np.zeros(2) + 0.1 * x.mean(axis=0)
        expected_var = 0.9 * np.ones(2) + 0.1 * x.var(axis=0)
        assert np.allclose(params["bn0_mean"], expected_mean, atol=1e-12)
        assert np.allclose(params["bn0_var"], expected_var, atol=1e-12)

    def test_eval_leaves_running_stats(self):
        params = fresh_batchnorm(2)
        before = dict(params)
        batchnorm_forward(np.arange(8.0).reshape(4, 2), params, 0, train=False)
        assert all(params[k] is a for k, a in before.items())


def finite_difference_gradients(model, x, y, h=1e-4):
    numeric = {}
    for name, arr in model.parameters():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = mean_kl(y, softmax(_forward_batch(model, x, train=True)[0]))
            flat[k] = orig - h
            lm = mean_kl(y, softmax(_forward_batch(model, x, train=True)[0]))
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

    def test_peak_memory_is_three_parameter_sized_arrays(self):
        # Parameters dominate activations here: 512 -> 512 -> 256 -> 6 on
        # batches of 16.  Weights, velocity and the best-epoch snapshot are
        # three copies, and each weight gradient is formed 128 rows at a
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
            "meta-nested-too-deeply", "version", "no-config", "unknown-config-key", "bad-config-value", "input-dim-not-int",
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
    logits, caches = _forward_batch(model, x, train=True, dropout_rng=dropout_rng)
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
    # In the "panels" case w0 is updated in row panels of 128, 128 and 8 rows,
    # and w1 in panels of 128 and 72; in "folded-row" w0's 257th row joins the
    # second panel, as numpy would multiply a one-row panel by gemv.
    @pytest.mark.parametrize(
        "width,hidden,dropout,patience",
        [(12, (16, 8), 0.3, 8), (12, (16, 8), 0.0, 8), (12, (16, 8), 0.3, 1), (264, (200, 8), 0.3, 8),
         (257, (8,), 0.3, 8)],
        ids=["0.3-8", "0.0-8", "0.3-1", "panels", "folded-row"],
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
