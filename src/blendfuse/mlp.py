"""From-scratch MLP classifier head trained with soft-label KL loss.

Architecture per hidden layer: affine -> batch normalization -> ReLU ->
inverted dropout, followed by a final affine into 6 logits and a softmax.
Training is plain mini-batch gradient descent with momentum, early-stopped
on mean validation KL with a patience counter, returning the
best-validation snapshot.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import N_EMOTIONS, EmotionDistribution, ValidationError
from .labels import mean_kl, softmax

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # fraction of the batch statistic folded into the running stats
DEFAULT_PATIENCE = 80
CHECKPOINT_VERSION = 1


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


@dataclass
class BatchNormState:
    """Learnable scale/shift plus running statistics for one layer."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def initial(cls, dim: int) -> "BatchNormState":
        return cls(
            gamma=np.ones(dim),
            beta=np.zeros(dim),
            running_mean=np.zeros(dim),
            running_var=np.ones(dim),
        )

    def copy(self) -> "BatchNormState":
        return BatchNormState(
            self.gamma.copy(),
            self.beta.copy(),
            self.running_mean.copy(),
            self.running_var.copy(),
        )


def batchnorm_forward(
    batch: np.ndarray, state: BatchNormState, mode: str
) -> tuple[np.ndarray, Optional[dict]]:
    """Normalize a batch; train mode uses batch statistics and updates the
    running ones, eval mode uses the running statistics.

    Returns the output and, in train mode, the cache needed for backprop.
    """
    x = np.asarray(batch, dtype=np.float64)
    if mode == "train":
        if x.shape[0] < 2:
            raise ValidationError("batchnorm needs at least 2 rows in train mode")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x - mean) * inv_std
        out = state.gamma * x_hat + state.beta
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
        return out, {"x_hat": x_hat, "inv_std": inv_std}
    if mode == "eval":
        x_hat = (x - state.running_mean) / np.sqrt(state.running_var + BN_EPS)
        return state.gamma * x_hat + state.beta, None
    raise ValidationError(f"unknown batchnorm mode {mode!r}")


def _batchnorm_backward(dout: np.ndarray, state: BatchNormState, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x_hat, inv_std = cache["x_hat"], cache["inv_std"]
    n = dout.shape[0]
    dgamma = (dout * x_hat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * state.gamma
    dx = inv_std / n * (n * dxhat - dxhat.sum(axis=0) - x_hat * (dxhat * x_hat).sum(axis=0))
    return dx, dgamma, dbeta


@dataclass
class MlpModel:
    """All parameters and state of the classifier head."""

    config: MlpConfig
    input_dim: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    batchnorms: list[BatchNormState]
    mode: str = "eval"

    @classmethod
    def initialize(cls, input_dim: int, config: MlpConfig) -> "MlpModel":
        rng = np.random.default_rng(config.seed)
        dims = [input_dim, *config.hidden_dims, config.output_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        bns = [BatchNormState.initial(h) for h in config.hidden_dims]
        return cls(config, input_dim, weights, biases, bns)

    def set_mode(self, mode: str) -> None:
        if mode not in ("train", "eval"):
            raise ValidationError(f"unknown mode {mode!r}")
        self.mode = mode

    def copy(self) -> "MlpModel":
        return MlpModel(
            self.config,
            self.input_dim,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [bn.copy() for bn in self.batchnorms],
            self.mode,
        )

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named references to every trainable array, in a fixed order."""
        params: list[tuple[str, np.ndarray]] = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params.append((f"w{i}", w))
            params.append((f"b{i}", b))
        for i, bn in enumerate(self.batchnorms):
            params.append((f"bn{i}_gamma", bn.gamma))
            params.append((f"bn{i}_beta", bn.beta))
        return params


def _forward_batch(
    model: MlpModel,
    x: np.ndarray,
    train: bool,
    dropout_rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, list[dict]]:
    """Run the stack up to the logits, recording caches when training."""
    caches: list[dict] = []
    h = x
    n_hidden = len(model.config.hidden_dims)
    rate = model.config.dropout
    for i in range(n_hidden):
        cache: dict = {"x": h}
        z = h @ model.weights[i] + model.biases[i]
        if train:
            z_bn, bn_cache = batchnorm_forward(z, model.batchnorms[i], "train")
            cache["bn"] = bn_cache
        else:
            z_bn, _ = batchnorm_forward(z, model.batchnorms[i], "eval")
        relu_mask = z_bn > 0.0
        h = z_bn * relu_mask
        cache["relu_mask"] = relu_mask
        if train and rate > 0.0:
            assert dropout_rng is not None
            keep = dropout_rng.random(h.shape) >= rate
            drop_mask = keep / (1.0 - rate)  # inverted dropout
            h = h * drop_mask
            cache["drop_mask"] = drop_mask
        caches.append(cache)
    caches.append({"x": h})
    logits = h @ model.weights[-1] + model.biases[-1]
    return logits, caches


def loss_and_gradients(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    dropout_rng: Optional[np.random.Generator] = None,
    weight_grads: Optional[dict[str, np.ndarray]] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean KL loss over a batch plus gradients for every parameter.

    Uses train-mode forward (batch statistics); caller controls dropout by
    passing a generator or a model with dropout 0.  ``weight_grads`` may map
    weight names (``w0``, ``w1``, ...) to arrays of the weights' shapes,
    which then receive those gradients and are returned in the dict.  The
    gradient with respect to ``x`` is not computed.
    """
    logits, caches = _forward_batch(model, x, train=True, dropout_rng=dropout_rng)
    probs = softmax(logits)
    loss = mean_kl(y, probs)
    n = x.shape[0]
    out = weight_grads or {}
    grads: dict[str, np.ndarray] = {}

    dlogits = (probs - y) / n
    head = len(model.weights) - 1
    grads[f"w{head}"] = np.matmul(caches[-1]["x"].T, dlogits, out=out.get(f"w{head}"))
    grads[f"b{head}"] = dlogits.sum(axis=0)
    dh = dlogits @ model.weights[-1].T

    for i in range(len(model.config.hidden_dims) - 1, -1, -1):
        cache = caches[i]
        if "drop_mask" in cache:
            dh = dh * cache["drop_mask"]
        dz_bn = dh * cache["relu_mask"]
        dz, dgamma, dbeta = _batchnorm_backward(dz_bn, model.batchnorms[i], cache["bn"])
        grads[f"bn{i}_gamma"] = dgamma
        grads[f"bn{i}_beta"] = dbeta
        grads[f"w{i}"] = np.matmul(cache["x"].T, dz, out=out.get(f"w{i}"))
        grads[f"b{i}"] = dz.sum(axis=0)
        if i > 0:
            dh = dz @ model.weights[i].T
    return loss, grads


def predict_proba(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities for a batch of feature vectors."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.input_dim:
        raise ValidationError(
            f"expected feature dim {model.input_dim}, got {x.shape[1]}"
        )
    logits, _ = _forward_batch(model, x, train=False)
    return softmax(logits)


def forward(model: MlpModel, x: Sequence[float]) -> EmotionDistribution:
    """Single-vector inference; requires eval mode (batch stats need N >= 2)."""
    if model.mode != "eval":
        raise ValidationError("single-vector forward requires eval mode")
    probs = predict_proba(model, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]
    # Guard against float residue before constructing the distribution.
    probs = probs / probs.sum()
    return EmotionDistribution(tuple(float(v) for v in probs))


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

    Stops once mean validation KL has failed to improve for
    ``max(patience, 1)`` consecutive epochs and returns the snapshot from
    the best validation epoch.
    """
    x_train, y_train = (np.asarray(a, dtype=np.float64) for a in train_set)
    x_val, y_val = (np.asarray(a, dtype=np.float64) for a in val_set)
    if x_train.ndim != 2 or x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValidationError("train and validation sets must be non-empty 2-d arrays")
    if x_train.shape[1] != x_val.shape[1]:
        raise ValidationError("train and validation feature dims differ")
    if x_train.shape[0] < 2:
        raise ValidationError("training needs at least 2 samples for batchnorm")

    model = MlpModel.initialize(x_train.shape[1], cfg)
    model.set_mode("train")
    rng = np.random.default_rng(cfg.seed + 1)
    dropout_rng = np.random.default_rng(cfg.seed + 2)
    velocity = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    weight_grads = {f"w{i}": np.empty_like(w) for i, w in enumerate(model.weights)}

    best: Optional[MlpModel] = None
    best_val = math.inf
    best_epoch = -1
    bad_epochs = 0
    log: list[TrainLogEntry] = []
    n = x_train.shape[0]

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for batch in _batches(n, cfg.batch_size, order):
            xb, yb = x_train[batch], y_train[batch]
            loss, grads = loss_and_gradients(model, xb, yb, dropout_rng, weight_grads)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}: {loss!r}")
            epoch_loss += loss * batch.size
            for name, arr in model.parameters():
                g, v = grads[name], velocity[name]
                g *= cfg.lr
                v *= cfg.momentum
                v -= g
                arr += v
        train_loss = epoch_loss / n

        val_probs = predict_proba(model, x_val)
        val_loss = mean_kl(y_val, val_probs)
        if not math.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}: {val_loss!r}")
        log.append(TrainLogEntry(epoch, train_loss, val_loss))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best = model.copy()
            best.set_mode("eval")
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(cfg.patience, 1):
                break

    assert best is not None
    return TrainResult(best, tuple(log), best_epoch, best_val)


# ---------------------------------------------------------------------------
# Checkpoints and training logs
# ---------------------------------------------------------------------------


def save_model(model: MlpModel, path: str | Path) -> None:
    """Write a checkpoint that round-trips parameters and running stats exactly."""
    arrays: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    for i, bn in enumerate(model.batchnorms):
        arrays[f"bn{i}_gamma"] = bn.gamma
        arrays[f"bn{i}_beta"] = bn.beta
        arrays[f"bn{i}_mean"] = bn.running_mean
        arrays[f"bn{i}_var"] = bn.running_var
    meta = {
        "version": CHECKPOINT_VERSION,
        "input_dim": model.input_dim,
        "config": {
            "hidden_dims": list(model.config.hidden_dims),
            "dropout": model.config.dropout,
            "output_dim": model.config.output_dim,
            "lr": model.config.lr,
            "momentum": model.config.momentum,
            "max_epochs": model.config.max_epochs,
            "patience": model.config.patience,
            "batch_size": model.config.batch_size,
            "seed": model.config.seed,
        },
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def load_model(path: str | Path) -> MlpModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {meta.get('version')!r}")
        cfg_dict = dict(meta["config"])
        cfg_dict["hidden_dims"] = tuple(cfg_dict["hidden_dims"])
        cfg = MlpConfig(**cfg_dict)
        n_layers = len(cfg.hidden_dims) + 1
        weights = [data[f"w{i}"].copy() for i in range(n_layers)]
        biases = [data[f"b{i}"].copy() for i in range(n_layers)]
        bns = [
            BatchNormState(
                data[f"bn{i}_gamma"].copy(),
                data[f"bn{i}_beta"].copy(),
                data[f"bn{i}_mean"].copy(),
                data[f"bn{i}_var"].copy(),
            )
            for i in range(len(cfg.hidden_dims))
        ]
    return MlpModel(cfg, int(meta["input_dim"]), weights, biases, bns, mode="eval")


def save_train_log(log: Sequence[TrainLogEntry], path: str | Path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    for e in log:
        lines.append(f"{e.epoch},{e.train_loss!r},{e.val_loss!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
