"""From-scratch MLP classifier head trained with soft-label KL loss.

Architecture per hidden layer: affine -> batch normalization -> ReLU ->
inverted dropout, followed by a final affine into 6 logits and a softmax.
Training is plain mini-batch gradient descent with momentum, early-stopped
on mean validation KL with a patience counter, returning the
best-validation snapshot.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import json
import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import N_EMOTIONS, NPZ_FAULTS, ValidationError
from .labels import mean_kl, softmax

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # fraction of the batch statistic folded into the running stats
DEFAULT_PATIENCE = 80
CHECKPOINT_VERSION = 1
# Weight rows per gemm of a training step.  On two threads 128, 64 and 32 timed
# the same; 128 peaked 1 MB higher (a panel buffer for each thread).
PANEL_ROWS = 64
# Multiply-adds below which a gemm of a training step (a hidden layer's, backprop's
# dz @ w.T, or a weight's panel updates) stays on one thread: splits of 4.2M
# measured no faster than the whole.  It also keeps each half of a split gemm
# over OpenBLAS's small-matrix bound (10**6 multiply-adds), whose kernel sums in
# another order than the whole gemm's.  Only gemms are split: batchnorm, ReLU
# and dropout on strided column halves, one per thread, took longer than whole.
SPLIT_MIN_MACS = 1 << 23
# The widest hidden layer: 64 times the paper's 1024.  Far wider ones ask numpy
# for arrays it refuses (2**70 columns is past its largest dimension).
MAX_HIDDEN_WIDTH = 1 << 16


class NumericError(RuntimeError):
    """Raised when training produces a non-finite loss."""


@dataclass(frozen=True)
class MlpConfig:
    hidden_dims: tuple[int, ...] = (1024, 512)
    dropout: float = 0.3
    output_dim: int = N_EMOTIONS
    lr: float = 1e-3
    momentum: float = 0.9
    max_epochs: int = 500
    patience: Optional[int] = None  # None: DEFAULT_PATIENCE, capped at max_epochs
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if not self.hidden_dims or any(not 1 <= h <= MAX_HIDDEN_WIDTH for h in self.hidden_dims):
            raise ValidationError(f"hidden_dims must be widths in [1, {MAX_HIDDEN_WIDTH}], got {self.hidden_dims!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if not 0 < self.lr < math.inf:
            raise ValidationError(f"lr must be positive and finite, got {self.lr!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum!r}")
        if self.max_epochs < 1:
            raise ValidationError(f"max_epochs must be >= 1, got {self.max_epochs!r}")
        if self.batch_size < 2:
            raise ValidationError(f"batch_size must be >= 2 for batchnorm, got {self.batch_size!r}")
        if self.patience is None:
            object.__setattr__(self, "patience", min(DEFAULT_PATIENCE, self.max_epochs))
        if self.patience < 0:
            raise ValidationError(f"patience must be >= 0, got {self.patience!r}")
        if self.patience > self.max_epochs:
            raise ValidationError("patience cannot exceed max_epochs")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")


def param_layout(input_dim: int, config: MlpConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every array of a head, in checkpoint order: ``w{i}``
    and ``b{i}`` of each affine layer, then ``bn{i}_gamma``, ``bn{i}_beta``,
    ``bn{i}_mean`` and ``bn{i}_var`` of each hidden layer."""
    dims = [input_dim, *config.hidden_dims, config.output_dim]
    layout: dict[str, tuple[int, ...]] = {}
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        layout[f"w{i}"] = (fan_in, fan_out)
        layout[f"b{i}"] = (fan_out,)
    for i, dim in enumerate(config.hidden_dims):
        layout.update({f"bn{i}_{kind}": (dim,) for kind in ("gamma", "beta", "mean", "var")})
    return layout


@dataclass
class MlpModel:
    """A classifier head: every array in ``params``, keyed and ordered as
    :func:`param_layout` declares them."""

    config: MlpConfig
    input_dim: int
    params: dict[str, np.ndarray]

    @classmethod
    def initialize(cls, input_dim: int, config: MlpConfig) -> "MlpModel":
        rng = np.random.default_rng(config.seed)
        params = {}
        for name, shape in param_layout(input_dim, config).items():
            if name.startswith("w"):
                bound = math.sqrt(6.0 / sum(shape))
                params[name] = rng.uniform(-bound, bound, size=shape)
            elif name.endswith(("_gamma", "_var")):
                params[name] = np.ones(shape)
            else:
                params[name] = np.zeros(shape)
        return cls(config, input_dim, params)

    def copy(self) -> "MlpModel":
        return MlpModel(self.config, self.input_dim, {k: a.copy() for k, a in self.params.items()})

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named references to every trainable array, in checkpoint order."""
        return [(k, a) for k, a in self.params.items() if not k.endswith(("_mean", "_var"))]


@functools.cache
def _openblas_thread_count() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The getter and setter of the thread count of the OpenBLAS bundled with
    numpy, or None where numpy bundles none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        getter = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        setter = getattr(dll, "scipy_openblas_set_num_threads64_", None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with numpy's OpenBLAS on one thread, then restore its
    count.  A gemm's bits can depend on how OpenBLAS splits it between its
    threads; on one, they do not."""
    controls = _openblas_thread_count()
    if controls is None:
        yield
        return
    getter, setter = controls
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


def _step_pool() -> AbstractContextManager[Optional[Executor]]:
    """A one-worker pool for the training steps where this process may run
    on two CPUs or more, else None: on one CPU, splitting a step only adds
    work (the two halves take turns and each hands over to the other)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return ThreadPoolExecutor(1) if cpus > 1 else nullcontext(None)


def _on_two_threads(pool: Executor, first: Callable[[], object], second: Callable[[], object]) -> None:
    """Run ``first()`` on ``pool``'s worker, under this thread's
    floating-point error state, and ``second()`` here.  Returns or raises
    only once both have ended; an exception of ``first`` wins, as it would
    have come first in a serial run."""
    errors = np.geterr()

    def task() -> None:
        with np.errstate(**errors):
            first()

    future = pool.submit(task)
    try:
        second()
    finally:
        future.result()


def _matmul(pool: Optional[Executor], a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``np.matmul(a, b, out=out)``: with a ``pool``, at least
    ``SPLIT_MIN_MACS`` multiply-adds and 4 columns, as two column halves, the
    first on the worker; else whole, here.  On one BLAS thread each column of
    a gemm comes out bit for bit as it does from the whole gemm."""
    width = b.shape[1]
    if pool is None or a.shape[0] * b.size < SPLIT_MIN_MACS or width < 4:
        np.matmul(a, b, out=out)
        return
    half = width // 2
    _on_two_threads(pool, lambda: np.matmul(a, b[:, :half], out=out[:, :half]),
                    lambda: np.matmul(a, b[:, half:], out=out[:, half:]))


class _Layer:
    """The arrays a hidden layer of a head writes for a batch, one row per
    sample: ``z``, the pre-activation and then, in place, ``x_hat``; ``out``,
    the layer's output; ``relu``, its mask.  Training adds ``drop``, the
    dropout uniforms and then the mask (scratch in backprop); ``dh``, the
    gradient of ``out`` and then, in place, ``dz``; and the batch ``mean``,
    ``var`` and ``inv_std`` of each column."""

    def __init__(self, rows: int, width: int, train: bool) -> None:
        self.z, self.out = np.empty((rows, width)), np.empty((rows, width))
        self.relu = np.empty((rows, width), dtype=bool)
        if train:
            self.drop, self.dh = np.empty((rows, width)), np.empty((rows, width))
            self.mean, self.var, self.inv_std = np.empty(width), np.empty(width), np.empty(width)

    def first(self, n: int) -> "_Layer":
        """This layer's arrays cut to their first ``n`` rows."""
        view = copy.copy(self)
        view.__dict__.update((name, a[:n]) for name, a in vars(self).items() if a.ndim == 2)
        return view


def _hidden_forward(params: dict[str, np.ndarray], i: int, layer: _Layer, train: bool, rate: float) -> None:
    """Hidden layer ``i`` from its gemm in ``layer.z``: bias, batchnorm (on
    the batch statistics when training, else the running ones), ReLU and,
    when training at a dropout ``rate``, the dropout whose uniforms
    ``layer.drop`` holds."""
    z, out, relu = layer.z, layer.out, layer.relu
    z += params[f"b{i}"]
    if train:
        # z.mean(axis=0) and z.var(axis=0), in numpy's own steps, so the bits match.
        n, mean, var = z.shape[0], layer.mean, layer.var
        z.sum(axis=0, out=mean)
        mean /= n
        z -= mean
        np.square(z, out=out).sum(axis=0, out=var)
        var /= n
        np.divide(1.0, np.sqrt(var + BN_EPS), out=layer.inv_std)
        z *= layer.inv_std
    else:
        z -= params[f"bn{i}_mean"]
        z /= np.sqrt(params[f"bn{i}_var"] + BN_EPS)
    np.multiply(params[f"bn{i}_gamma"], z, out=out)
    out += params[f"bn{i}_beta"]
    np.greater(out, 0.0, out=relu)
    out *= relu
    if train and rate > 0.0:
        drop = layer.drop
        np.greater_equal(drop, rate, out=drop)
        drop /= 1.0 - rate
        out *= drop


def _forward(
    model: MlpModel,
    x: np.ndarray,
    layers: Sequence[_Layer],
    train: bool,
    dropout_rng: Optional[np.random.Generator] = None,
    pool: Optional[Executor] = None,
) -> np.ndarray:
    """The logits of ``x``, each hidden layer written into its entry of
    ``layers``, whose arrays have ``x``'s rows.  Training normalizes with the
    batch statistics, folds them into the running ones and draws each
    layer's dropout uniforms from ``dropout_rng``.  With a ``pool``, a large
    hidden layer's gemm runs as two column halves; its batchnorm, ReLU and
    dropout, and the 6-logit layer, run whole here."""
    params, rate = model.params, model.config.dropout
    if train and x.shape[0] < 2:
        raise ValidationError("batchnorm needs at least 2 rows in train mode")
    h = x
    for i, layer in enumerate(layers):
        if train and rate > 0.0:
            assert dropout_rng is not None
            dropout_rng.random(out=layer.drop)
        _matmul(pool, h, params[f"w{i}"], layer.z)
        _hidden_forward(params, i, layer, train, rate)
        if train:
            for stat, batch_stat in (("mean", layer.mean), ("var", layer.var)):
                key = f"bn{i}_{stat}"
                params[key] = (1 - BN_MOMENTUM) * params[key] + BN_MOMENTUM * batch_stat
        h = layer.out
    return h @ params[f"w{len(layers)}"] + params[f"b{len(layers)}"]


def _hidden_backward(
    params: dict[str, np.ndarray], i: int, layer: _Layer, rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backprop through hidden layer ``i``: turns the gradient of its output
    in ``layer.dh`` into ``dz``, and returns the gradients of its batchnorm
    gamma and beta and of its bias.  Its scratch is ``layer.drop``, as
    ``layer.out`` is still to be read by the weight hook of the layer
    above."""
    dh, x_hat, scratch = layer.dh, layer.z, layer.drop
    n = dh.shape[0]
    if rate > 0.0:
        dh *= scratch  # the dropout mask, read for the last time
    dh *= layer.relu
    gamma = np.multiply(dh, x_hat, out=scratch).sum(axis=0)
    beta = dh.sum(axis=0)
    dh *= params[f"bn{i}_gamma"]  # dxhat from here
    # dz = inv_std / n * (n * dxhat - dxhat.sum(0) - x_hat * (dxhat * x_hat).sum(0))
    dxhat_sum = dh.sum(axis=0)
    dxhat_x_hat_sum = np.multiply(dh, x_hat, out=scratch).sum(axis=0)
    dh *= n
    dh -= dxhat_sum
    dh -= np.multiply(x_hat, dxhat_x_hat_sum, out=scratch)
    dh *= layer.inv_std / n  # dz from here
    return gamma, beta, dh.sum(axis=0)


def loss_and_gradients(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    dropout_rng: Optional[np.random.Generator],
    weight_hook: Callable[[str, np.ndarray, np.ndarray], None],
    pool: Optional[Executor] = None,
    layers: Optional[Sequence[_Layer]] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean KL loss over a batch, the gradients of the biases and batchnorm
    parameters, and each weight gradient handed to ``weight_hook``.

    Uses train-mode forward (batch statistics); caller controls dropout by
    passing a generator or a model with dropout 0.  The weight gradients
    are not formed: for each layer, top layer first,
    ``weight_hook(name, inputs, dz)`` is called once backprop has read
    weight ``name``, whose gradient is ``inputs.T @ dz``.  A non-finite
    loss returns before any hook call.  The gradient with respect to ``x``
    is not computed.  ``layers`` holds the arrays each hidden layer writes,
    with ``x``'s rows; None allocates them.  With a ``pool``, each large
    hidden layer's gemm runs as two column halves, and so does backprop's
    ``dz @ w.T`` into it; everything else runs whole here.
    """
    n, params, rate = x.shape[0], model.params, model.config.dropout
    if layers is None:
        layers = [_Layer(n, width, train=True) for width in model.config.hidden_dims]
    probs = softmax(_forward(model, x, layers, True, dropout_rng, pool))
    loss = mean_kl(y, probs)
    if not math.isfinite(loss):
        return loss, {}
    dz = (probs - y) / n
    grads = {f"b{len(layers)}": dz.sum(axis=0)}
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        # The column halves of w.T are the row halves of w.
        _matmul(pool, dz, params[f"w{i + 1}"].T, layer.dh)
        grads[f"bn{i}_gamma"], grads[f"bn{i}_beta"], grads[f"b{i}"] = _hidden_backward(params, i, layer, rate)
        weight_hook(f"w{i + 1}", layer.out, dz)
        dz = layer.dh
    weight_hook("w0", x, dz)
    return loss, grads


def predict_proba(model: MlpModel, x: np.ndarray, pool: Optional[Executor] = None) -> np.ndarray:
    """Eval-mode class probabilities for a batch of feature vectors, on one
    BLAS thread.  With a ``pool``, each large hidden layer's gemm runs as two
    column halves."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise ValidationError(f"expected feature dim {model.input_dim}, got {x.shape[1]}")
    layers = [_Layer(x.shape[0], width, train=False) for width in model.config.hidden_dims]
    with _one_blas_thread():
        return softmax(_forward(model, x, layers, train=False, pool=pool))


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    log: tuple[TrainLogEntry, ...]
    best_epoch: int
    best_val_loss: float


def _batches(n: int, batch_size: int, order: np.ndarray) -> list[np.ndarray]:
    # Fold a trailing single-sample batch into its predecessor so batchnorm
    # always sees at least 2 rows.
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train(
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    cfg: MlpConfig,
) -> TrainResult:
    """Fit a head on (features, soft-label) arrays with early stopping.

    Each step runs on two threads where the process may use two CPUs: this
    one and a worker that lives as long as the call.  numpy's OpenBLAS is
    held at one thread, so the head's bits depend on neither count.  The
    steps write into arrays allocated once for the head's largest batch.

    Stops once mean validation KL has failed to improve for
    ``max(patience, 1)`` consecutive epochs and returns the snapshot from
    the best validation epoch.  A floating-point overflow, invalid
    operation or division by zero is a :class:`NumericError` naming the
    epoch.
    """
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train_set)
    x_val, y_val = (np.asarray(a, dtype=np.float64) for a in val_set)
    if x_train.ndim != 2 or x_val.ndim != 2 or x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValidationError("train and validation sets must be non-empty 2-d arrays")
    if x_train.shape[1] != x_val.shape[1]:
        raise ValidationError("train and validation feature dims differ")
    for name, x, y in (("train", x_train, y_train), ("validation", x_val, y_val)):
        if y.shape != (x.shape[0], cfg.output_dim):
            raise ValidationError(f"{name} targets are {y.shape}, expected {(x.shape[0], cfg.output_dim)}")
    if x_train.shape[0] < 2:
        raise ValidationError("training needs at least 2 samples for batchnorm")

    model = MlpModel.initialize(x_train.shape[1], cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    dropout_rng = np.random.default_rng(cfg.seed + 2)
    velocity = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    # Row panels per weight: _batches folds a one-row tail (numpy would use gemv) into the one before.
    panels = {k: [(r[0], r[-1] + 1) for r in _batches(len(a), PANEL_ROWS, np.arange(len(a)))]
              for k, a in model.params.items() if k.startswith("w")}
    # One panel buffer for each thread.
    scratch = np.empty((2, (PANEL_ROWS + 1) * max(model.params[k].shape[1] for k in panels)))

    def momentum_step(arr: np.ndarray, v: np.ndarray, g: np.ndarray) -> None:
        g *= cfg.lr
        v *= cfg.momentum
        v -= g
        arr += v

    def step_weight(name: str, inputs: np.ndarray, dz: np.ndarray) -> None:
        w, v, rows = model.params[name], velocity[name], panels[name]

        def step_panels(rows: list[tuple[int, int]], buffer: np.ndarray) -> None:
            for i, j in rows:
                panel = buffer[: (j - i) * w.shape[1]].reshape(j - i, -1)
                momentum_step(w[i:j], v[i:j], np.matmul(inputs.T[i:j], dz, out=panel))

        if pool is None or len(rows) < 2 or w.size * dz.shape[0] < SPLIT_MIN_MACS:
            step_panels(rows, scratch[0])
        else:
            half = len(rows) // 2
            _on_two_threads(pool, lambda: step_panels(rows[:half], scratch[1]),
                            lambda: step_panels(rows[half:], scratch[0]))

    best, best_val, best_epoch, bad_epochs, log = None, math.inf, -1, 0, []
    n = x_train.shape[0]
    # The largest batch: _batches folds a one-row tail into the batch before it.
    rows = min(n, cfg.batch_size + 1)
    x_rows = np.empty((rows, x_train.shape[1]))
    layers = [_Layer(rows, width, train=True) for width in cfg.hidden_dims]

    # The worker runs only gemms, from _matmul and step_weight, never a public
    # function: perfbench's tracer wraps those and keeps one span stack.
    errors = np.errstate(over="raise", invalid="raise", divide="raise")
    try:
        with _one_blas_thread(), _step_pool() as pool, errors:
            for epoch in range(cfg.max_epochs):
                order = rng.permutation(n)
                epoch_loss = 0.0
                for batch in _batches(n, cfg.batch_size, order):
                    # mode="clip" writes straight into the rows; "raise" would copy through a buffer.
                    xb = np.take(x_train, batch, axis=0, out=x_rows[: batch.size], mode="clip")
                    cut = [layer.first(batch.size) for layer in layers]
                    loss, grads = loss_and_gradients(model, xb, y_train[batch], dropout_rng, step_weight, pool, cut)
                    if not math.isfinite(loss):
                        raise NumericError(f"non-finite training loss at epoch {epoch}: {loss!r}")
                    epoch_loss += loss * batch.size
                    for name, g in grads.items():
                        momentum_step(model.params[name], velocity[name], g)
                train_loss = epoch_loss / n

                val_loss = mean_kl(y_val, predict_proba(model, x_val, pool))
                if not math.isfinite(val_loss):
                    raise NumericError(f"non-finite validation loss at epoch {epoch}: {val_loss!r}")
                log.append(TrainLogEntry(epoch, train_loss, val_loss))

                if val_loss < best_val:
                    best_val, best_epoch = val_loss, epoch
                    # Drop the old snapshot first: three parameter-sized arrays, not four.
                    # Refreshing a preallocated one with np.copyto measured slower.
                    best = None
                    best = model.copy()
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    if bad_epochs >= max(cfg.patience, 1):
                        break
    except FloatingPointError as exc:
        raise NumericError(f"{exc} at epoch {epoch}") from None

    assert best is not None
    return TrainResult(best, tuple(log), best_epoch, best_val)


# ---------------------------------------------------------------------------
# Checkpoints and training logs
# ---------------------------------------------------------------------------


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write a checkpoint that round-trips parameters and running stats exactly."""
    meta = {"version": CHECKPOINT_VERSION, "input_dim": model.input_dim, "config": asdict(model.config)}
    meta_bytes = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, __meta__=meta_bytes, **model.params)


def load_model(path: str | Path) -> MlpModel:
    """The head :func:`save_model` wrote to ``path``.  A file that is not a
    readable ``.npz``, a bad ``__meta__`` and a missing, extra or misshapen
    array are a :class:`ValidationError` naming ``path`` and the array."""
    try:
        # np.load leaves a file it opened open when it is not a whole .npz.
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {meta['version']!r}")
        cfg = MlpConfig(**meta["config"])
        input_dim = int(meta["input_dim"])
    except NPZ_FAULTS as exc:
        detail = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"{path}: not a readable checkpoint: {detail}") from None
    layout = param_layout(input_dim, cfg)
    for name in [*layout, *arrays]:
        if name not in arrays:
            raise ValidationError(f"{path}: missing array {name!r}")
        if name not in layout:
            raise ValidationError(f"{path}: unexpected array {name!r}")
        arr = arrays[name]
        if arr.shape != layout[name] or arr.dtype.kind != "f":
            raise ValidationError(
                f"{path}: array {name!r} is {arr.dtype} {arr.shape}, expected float {layout[name]}"
            )
    return MlpModel(cfg, input_dim, {name: arrays[name] for name in layout})


def save_train_log(log: Sequence[TrainLogEntry], path: str | Path) -> None:
    lines = ["epoch,train_loss,val_loss", *(f"{e.epoch},{e.train_loss!r},{e.val_loss!r}" for e in log)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
