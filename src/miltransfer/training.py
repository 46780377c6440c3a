"""Supervised training loop: AdamW, per-iteration cosine decay, batch size 1
with class-weighted sampling, early stopping on the validation metric.

The recipe is fixed: lr 1e-4, weight decay 1e-5, at most 20 epochs with
patience 5 after a minimum of 10, and exactly 10 epochs when the dataset has
no validation split.  Identical (config, manifest, seed) reproduce bitwise
identical parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .bagdata import DatasetManifest, weighted_epoch_order
from .errors import DataError, NumericError
from .metrics import metric_fn
from .models import ForwardOutput, ModelConfig, ModelParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    max_epochs: int = 20
    min_epochs: int = 10
    patience: int = 5
    seed: int = 0
    aux_weight: float = 0.3

    def __post_init__(self):
        if self.lr <= 0:
            raise DataError("lr must be positive")
        if self.min_epochs > self.max_epochs:
            raise DataError("min_epochs must be <= max_epochs")
        if self.patience < 1:
            raise DataError("patience must be >= 1")


@dataclass
class AdamWState:
    m: ModelParams
    v: ModelParams
    step: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamWState":
        return cls(models.zeros_like_params(params), models.zeros_like_params(params))


@dataclass
class TrainResult:
    params: ModelParams
    history: list[dict] = field(default_factory=list)

    def best_val_metric(self):
        vals = [h["val_metric"] for h in self.history if h["val_metric"] is not None]
        return max(vals) if vals else None

    def history_jsonl(self) -> str:
        return "\n".join(json.dumps(h, sort_keys=True) for h in self.history) + "\n"


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr at step 0 to zero at total_steps."""
    if not 0 <= step <= total_steps:
        raise DataError(f"step {step} outside [0, {total_steps}]")
    return base_lr * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


def adamw_step(params: ModelParams, grads: ModelParams, state: AdamWState,
               lr: float, weight_decay: float) -> None:
    """One AdamW update in place: bias-corrected adaptive step plus
    decoupled weight decay (param -= lr * wd * param, applied separately)."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in layer {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p -= (lr * weight_decay) * p
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def compute_loss(output: ForwardOutput, label: int, n_classes: int,
                 aux_weight: float = 0.0) -> float:
    """Cross-entropy on the bag logits, plus the weighted auxiliary
    instance loss when the output carries aux logits."""
    loss, _ = models.cross_entropy(output.logits, label)
    if output.aux_logits is not None and aux_weight != 0.0:
        l_aux, _ = models.aux_loss(output.aux_logits, output.attention, label, n_classes)
        loss += aux_weight * l_aux
    return loss


def evaluate_split(cfg: ModelConfig, params: ModelParams, manifest: DatasetManifest,
                   split: str, features: dict[str, np.ndarray] | None = None):
    """Eval-mode metric over one split.

    Returns (metric_value, bag_ids, labels, values) where values are
    positive-class probabilities for auroc tasks and argmax predictions
    otherwise.
    """
    entries = manifest.split(split)
    if not entries:
        raise DataError(f"split {split!r} is empty")
    task = manifest.task
    bag_ids, labels, values = [], [], []
    for e in entries:
        x = features[e.bag_id] if features is not None else manifest.load_features(e)
        out = models.forward(params, cfg, x)
        if not np.isfinite(out.logits).all():
            raise NumericError(f"non-finite logits on {split} bag {e.bag_id!r}")
        if task.metric == "auroc":
            value = float(models.softmax(out.logits)[1])
        else:
            value = int(np.argmax(out.logits))
        bag_ids.append(e.bag_id)
        labels.append(e.label)
        values.append(value)
    fn = metric_fn(task.metric, task.n_classes)
    return fn(np.asarray(labels), np.asarray(values)), bag_ids, labels, values


def load_split_features(manifest: DatasetManifest, splits=("train", "val", "test")):
    """Feature cache keyed by bag_id; desk-scale datasets fit in memory."""
    cache = {}
    for tag in splits:
        for e in manifest.split(tag):
            cache[e.bag_id] = manifest.load_features(e)
    return cache


def train(cfg: ModelConfig, params: ModelParams, manifest: DatasetManifest,
          train_cfg: TrainConfig, features: dict[str, np.ndarray] | None = None) -> TrainResult:
    """Train on the manifest's train split, one optimizer step per bag.

    With a validation split: early stopping on the task metric (patience
    after min_epochs) and the best-validation parameters are returned.
    Without one: exactly 10 epochs, final parameters returned.
    """
    train_entries = manifest.split("train")
    if not train_entries:
        raise DataError("train split is empty")
    if features is None:
        features = load_split_features(manifest)
    labels = {e.bag_id: e.label for e in manifest.entries}

    has_val = manifest.has_val()
    planned_epochs = train_cfg.max_epochs if has_val else 10
    steps_per_epoch = len(train_entries)
    total_steps = planned_epochs * steps_per_epoch

    params = models.copy_params(params)
    state = AdamWState.zeros(params)
    aux_weight = train_cfg.aux_weight if cfg.arch == "auxmil" else 0.0

    best_metric = -math.inf
    best_params = None
    epochs_since_best = 0
    history: list[dict] = []
    global_step = 0

    for epoch in range(planned_epochs):
        order = weighted_epoch_order(manifest, steps_per_epoch,
                                     seed=_epoch_seed(train_cfg.seed, epoch))
        epoch_loss = 0.0
        lr = train_cfg.lr
        for bag_id in order:
            lr = cosine_lr(global_step, total_steps, train_cfg.lr)
            loss, grads, _ = models.loss_and_grads(
                params, cfg, features[bag_id], labels[bag_id],
                aux_weight=aux_weight, train_mode=True,
                dropout_seed=_step_seed(train_cfg.seed, global_step))
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at step {global_step} on bag {bag_id!r}")
            adamw_step(params, grads, state, lr, train_cfg.weight_decay)
            epoch_loss += loss
            global_step += 1

        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / steps_per_epoch,
            "val_metric": None,
            "lr": lr,
        }
        if has_val:
            val_metric, _, _, _ = evaluate_split(cfg, params, manifest, "val", features)
            record["val_metric"] = float(val_metric)
            if val_metric > best_metric:
                best_metric = val_metric
                best_params = models.copy_params(params)
                epochs_since_best = 0
            else:
                epochs_since_best += 1
        history.append(record)
        if has_val and epochs_since_best >= train_cfg.patience and epoch + 1 >= train_cfg.min_epochs:
            break

    final = best_params if best_params is not None else params
    return TrainResult(params=final, history=history)


def _epoch_seed(seed: int, epoch: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, 2 * epoch + 1])


def _step_seed(seed: int, global_step: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, 0x5EED, global_step])
