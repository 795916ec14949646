"""From-scratch MLP classifier head trained with soft-label KL loss.

Architecture per hidden layer: affine -> batch normalization -> ReLU ->
inverted dropout, followed by a final affine into 6 logits and a softmax.
Training is plain mini-batch gradient descent with momentum, early-stopped
on mean validation KL with a patience counter, returning the
best-validation snapshot.  Everything is seeded and deterministic.
"""

from __future__ import annotations

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
# Multiply-adds below which a training gemm, or a weight's panel updates, stay
# on one thread: splits of 4.2M measured no faster than the whole.  It also
# keeps each half of a split gemm over OpenBLAS's small-matrix bound (10**6
# multiply-adds), whose kernel sums in another order than the whole gemm's.
SPLIT_MIN_MACS = 1 << 23


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
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ValidationError(f"bad hidden_dims: {self.hidden_dims!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if not 0 < self.lr < math.inf:
            raise ValidationError(f"lr must be positive and finite, got {self.lr!r}")
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


def batchnorm_forward(
    batch: np.ndarray, params: dict[str, np.ndarray], layer: int, train: bool
) -> tuple[np.ndarray, Optional[dict]]:
    """Normalize a batch with hidden layer ``layer``'s entries of ``params``.
    Training uses the batch statistics and replaces the running ones in
    ``params``; otherwise the running statistics are used.

    Returns the output and, when training, the cache needed for backprop.
    """
    gamma, beta = params[f"bn{layer}_gamma"], params[f"bn{layer}_beta"]
    mean_key, var_key = f"bn{layer}_mean", f"bn{layer}_var"
    if not train:
        x_hat = (batch - params[mean_key]) / np.sqrt(params[var_key] + BN_EPS)
        return gamma * x_hat + beta, None
    if batch.shape[0] < 2:
        raise ValidationError("batchnorm needs at least 2 rows in train mode")
    mean, var = batch.mean(axis=0), batch.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = (batch - mean) * inv_std
    params[mean_key] = (1 - BN_MOMENTUM) * params[mean_key] + BN_MOMENTUM * mean
    params[var_key] = (1 - BN_MOMENTUM) * params[var_key] + BN_MOMENTUM * var
    return gamma * x_hat + beta, {"x_hat": x_hat, "inv_std": inv_std}


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
    work (each row half of a gemm packs the whole weight)."""
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


def _matmul(a: np.ndarray, b: np.ndarray, pool: Optional[Executor]) -> np.ndarray:
    """``a @ b``, with its two row halves on two threads when there is a
    ``pool`` and the gemm is large enough to gain.  On one BLAS thread each
    row comes out bit for bit as it does from the whole gemm."""
    n = a.shape[0]
    if pool is None or n < 4 or n * a.shape[1] * b.shape[1] < SPLIT_MIN_MACS:
        return a @ b
    out, half = np.empty((n, b.shape[1])), n // 2
    _on_two_threads(
        pool,
        lambda: np.matmul(a[:half], b, out=out[:half]),
        lambda: np.matmul(a[half:], b, out=out[half:]),
    )
    return out


def _forward_batch(
    model: MlpModel,
    x: np.ndarray,
    train: bool,
    dropout_rng: Optional[np.random.Generator] = None,
    pool: Optional[Executor] = None,
) -> tuple[np.ndarray, list[dict]]:
    """Run the stack up to the logits, recording caches when training.  With
    a ``pool``, large gemms run half on its worker."""
    caches: list[dict] = []
    h = x
    params = model.params
    n_hidden = len(model.config.hidden_dims)
    rate = model.config.dropout
    for i in range(n_hidden):
        cache: dict = {"x": h}
        z = _matmul(h, params[f"w{i}"], pool) + params[f"b{i}"]
        z_bn, cache["bn"] = batchnorm_forward(z, params, i, train)
        cache["relu_mask"] = relu_mask = z_bn > 0.0
        h = z_bn * relu_mask
        if train and rate > 0.0:
            assert dropout_rng is not None
            cache["drop_mask"] = drop_mask = (dropout_rng.random(h.shape) >= rate) / (1.0 - rate)
            h = h * drop_mask
        caches.append(cache)
    caches.append({"x": h})
    logits = _matmul(h, params[f"w{n_hidden}"], pool) + params[f"b{n_hidden}"]
    return logits, caches


def loss_and_gradients(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    dropout_rng: Optional[np.random.Generator],
    weight_hook: Callable[[str, np.ndarray, np.ndarray], None],
    pool: Optional[Executor] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean KL loss over a batch, the gradients of the biases and batchnorm
    parameters, and each weight gradient handed to ``weight_hook``.

    Uses train-mode forward (batch statistics); caller controls dropout by
    passing a generator or a model with dropout 0.  The weight gradients
    are not formed: for each layer, top layer first,
    ``weight_hook(name, inputs, dz)`` is called once backprop has read
    weight ``name``, whose gradient is ``inputs.T @ dz``.  A non-finite
    loss returns before any hook call.  The gradient with respect to ``x``
    is not computed.  With a ``pool``, large gemms run half on its worker.
    """
    logits, caches = _forward_batch(model, x, train=True, dropout_rng=dropout_rng, pool=pool)
    probs = softmax(logits)
    loss = mean_kl(y, probs)
    grads: dict[str, np.ndarray] = {}
    if not math.isfinite(loss):
        return loss, grads
    n, params = x.shape[0], model.params
    dz = (probs - y) / n
    for i in range(len(model.config.hidden_dims), -1, -1):
        cache = caches[i]
        if "bn" in cache:
            if "drop_mask" in cache:
                dh = dh * cache["drop_mask"]
            dz_bn = dh * cache["relu_mask"]
            x_hat, inv_std = cache["bn"]["x_hat"], cache["bn"]["inv_std"]
            grads[f"bn{i}_gamma"] = (dz_bn * x_hat).sum(axis=0)
            grads[f"bn{i}_beta"] = dz_bn.sum(axis=0)
            dxhat = dz_bn * params[f"bn{i}_gamma"]
            dz = inv_std / n * (n * dxhat - dxhat.sum(axis=0) - x_hat * (dxhat * x_hat).sum(axis=0))
        grads[f"b{i}"] = dz.sum(axis=0)
        if i > 0:
            dh = _matmul(dz, params[f"w{i}"].T, pool)
        weight_hook(f"w{i}", cache["x"], dz)
    return loss, grads


def predict_proba(model: MlpModel, x: np.ndarray, pool: Optional[Executor] = None) -> np.ndarray:
    """Eval-mode class probabilities for a batch of feature vectors, on one
    BLAS thread.  With a ``pool``, large gemms run half on its worker."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise ValidationError(f"expected feature dim {model.input_dim}, got {x.shape[1]}")
    with _one_blas_thread():
        return softmax(_forward_batch(model, x, train=False, pool=pool)[0])


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
    held at one thread, so the head's bits depend on neither count.  Stops once mean validation KL has failed to improve
    for ``max(patience, 1)`` consecutive epochs and returns the snapshot from
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

    # The worker runs numpy and the closures above, never a public function of
    # this module: perfbench's tracer wraps those and keeps one span stack.
    errors = np.errstate(over="raise", invalid="raise", divide="raise")
    try:
        with _one_blas_thread(), _step_pool() as pool, errors:
            for epoch in range(cfg.max_epochs):
                order = rng.permutation(n)
                epoch_loss = 0.0
                for batch in _batches(n, cfg.batch_size, order):
                    xb, yb = x_train[batch], y_train[batch]
                    loss, grads = loss_and_gradients(model, xb, yb, dropout_rng, step_weight, pool)
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
