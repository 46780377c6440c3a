"""Supervised training loop: AdamW, per-iteration cosine decay, batch size 1
with class-weighted sampling, early stopping on the validation metric.

``TrainConfig`` holds the recipe.  Its defaults are lr 1e-4, weight decay
1e-5, and at most 20 epochs with patience 5 after a minimum of 10; an
experiment config may override each (``configs/demo.json`` uses lr 5e-4).
A dataset with no validation split trains exactly 10 epochs.

Sibling lockstep.  Jobs that differ only in their initial parameters
(init-siblings: pretrained, random and layer-reset starts on one target,
seed and K) visit the same bags in the same order, under the same cosine
schedule and the same dropout masks, because the epoch order and the step
seeds read only the manifest, seed, epoch and step.  ``train_group`` trains
them as one stack: one ``models.loss_and_grads`` and one ``adamw_step``
per step, each over all jobs.  ``train`` is the stack of one job.

Arena layout.  A ``ParamStack`` keeps parameters, gradients and both Adam
moments in one (J, P) buffer each.  Row j holds job j's P parameters,
layer after layer in ``param_schema`` order, and is byte for byte the
float32 blob of job j's MILC checkpoint.  ``models.layer_views`` cuts both
into layers: per-layer (J, *shape) views feed the model kernel, and the
same views of one row are that job's dict of arrays.

Bag features come only from the caller's cache, keyed by bag id
(``load_split_features``): the trainer and ``evaluate_split``, the one
scorer of every val and test split, read no file.

Early stopping stays per job.  A job that stops leaves the stack at its
epoch boundary with its best-validation snapshot; the others train on.

AdamW.  ``adamw_step`` runs its 16 ufuncs per block of ``ADAM_BLOCK``
(65,536) values of the flattened (J, P) buffers, so each block stays in
cache, and splits a stack of at least two blocks into one contiguous share
per worker of the package thread pool (``parallel``).  On the wide ABMIL
(P = 927,377), medians of 30 steps on a 2-vCPU host: at one thread the
whole buffer took 7.2 ms, 64K-value blocks 5.4 ms and 16K blocks 5.8 ms; two
shares took 3.5 ms at J=1 and 7.2 ms at J=2, against 6.5-7.1 and 15.7-16.0
ms whole.  The demo ABMIL (P = 2,657) is one block, run inline.

Determinism: the parameters' bytes are a function of the config, manifest,
seed and the numpy/BLAS build, and each job's bytes equal its solo run.
AdamW updates each value alone, so they do not depend on the blocks, the
shares or the pool's worker count.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, models, parallel
from .bagdata import SPLITS, DatasetManifest, read_feature_files, weighted_epoch_order
from .errors import ConfigError, DataError, NumericError, UndefinedMetricError
from .fileio import reraise_as
from .metrics import EvalResult
from .models import ModelConfig, ModelParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 65536  # values per block of an AdamW step


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
            raise ConfigError("lr must be positive")
        if not 0 <= self.min_epochs <= self.max_epochs or self.max_epochs < 1:
            raise ConfigError("need 0 <= min_epochs <= max_epochs and max_epochs >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        for key in ("weight_decay", "aux_weight"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")


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


class ParamStack:
    """Parameters, gradients and AdamW moments of J jobs, one (J, P)
    buffer each, columns laid out in ``layout`` order.

    ``layers`` and ``grad_layers`` are the per-layer (J, *shape) views of
    ``params`` and ``grads`` that the model kernel reads and accumulates
    into; ``names`` labels the rows in error messages.
    """

    def __init__(self, layout, params: np.ndarray, names=None):
        self.layout = [(name, tuple(shape)) for name, shape in layout]
        sizes = [math.prod(shape) for _, shape in self.layout]
        self.starts = [0, *np.cumsum(sizes).tolist()]
        self.names = list(range(len(params)) if names is None else names)
        self.step = 0
        self._set(params, np.zeros_like(params), np.zeros_like(params))

    @classmethod
    def from_params(cls, params_list: list[ModelParams], layout=None,
                    names=None) -> "ParamStack":
        """Stack copies of the given dicts; ``layout`` defaults to the first
        dict's (name, shape) order."""
        if layout is None:
            layout = [(name, p.shape) for name, p in params_list[0].items()]
        for j, params in enumerate(params_list):
            models.check_params(layout, params, f"job {j if names is None else names[j]}")
        flat = np.stack([np.concatenate([params[name].ravel() for name, _ in layout])
                         for params in params_list])
        return cls(layout, flat, names)

    def _set(self, params: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
        self.params, self.m, self.v = params, m, v
        self.grads = np.zeros_like(params)
        self._finite = np.empty(params.shape, dtype=bool)
        scratch = (np.empty_like(params), np.empty_like(params))
        flat = [buf.reshape(-1) for buf in (params, m, v, self.grads, *scratch)]
        # adamw_step's work: per share, each block's views of the six buffers
        self._adam_shares = [[tuple(buf[lo:min(lo + ADAM_BLOCK, stop)] for buf in flat)
                              for lo in range(start, stop, ADAM_BLOCK)]
                             for start, stop in _adam_share_edges(params.size)]
        self.layers = self.views(params)
        self.grad_layers = self.views(self.grads)

    def views(self, buf: np.ndarray) -> ModelParams:
        """Per-layer views of a (P,) row or a (J, P) buffer in this layout."""
        return models.layer_views(self.layout, buf)

    def layer_at(self, column: int) -> str:
        return self.layout[bisect.bisect_right(self.starts, column) - 1][0]

    def keep(self, rows: list[int]) -> None:
        """Drop every job not in ``rows``; the kept jobs' state is unchanged."""
        self.names = [self.names[r] for r in rows]
        self._set(self.params[rows], self.m[rows], self.v[rows])


def adamw_step(stack: ParamStack, lr: float, weight_decay: float) -> None:
    """One AdamW update of every job in place, from ``stack.grads``:
    bias-corrected adaptive step plus decoupled weight decay
    (param -= lr * wd * param, applied separately).

    The gradients are checked for non-finite values first, whole, so the
    error names the first bad (job, layer).  The update then runs its 16
    ufuncs per block of ``ADAM_BLOCK`` values of the flattened (J, P)
    buffers, writing into the stack's scratch, so each block stays in cache
    and a step allocates no P-sized temporaries.  A stack of at least two
    blocks is split into one contiguous share per worker of the thread pool
    (``parallel.run``).  Every value is updated alone, so the bytes do not
    depend on the blocks, the shares or the worker count.
    """
    g = stack.grads
    finite = np.isfinite(g, out=stack._finite)
    if not finite.all():
        job, column = divmod(int(np.argmin(finite)), g.shape[1])
        raise NumericError(f"non-finite gradient in layer {stack.layer_at(column)!r} "
                           f"of job {stack.names[job]}")
    stack.step += 1
    t = stack.step
    coeffs = (lr, weight_decay, 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)
    parallel.run(_adamw_blocks, stack._adam_shares, coeffs)


def _adam_share_edges(size: int):
    """(start, stop) of each contiguous share of ``size`` values: one per
    worker from two ``ADAM_BLOCK`` blocks on, else one; edges on 64-byte
    boundaries."""
    n = parallel.workers() if size >= 2 * ADAM_BLOCK else 1
    edges = [size * k // n // 16 * 16 for k in range(n)] + [size]
    return zip(edges, edges[1:])


def _adamw_blocks(blocks, coeffs) -> None:
    """``adamw_step``'s update of one share, block by block: each block is
    its (params, m, v, grads, scratch, scratch) views."""
    lr, weight_decay, bc1, bc2 = coeffs
    for p, m, v, g, a, b in blocks:
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        v += np.multiply(a, g, out=a)
        p -= np.multiply(p, lr * weight_decay, out=a)
        # p -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a


def evaluate_split(cfg: ModelConfig, params: ModelParams, manifest: DatasetManifest,
                   split: str, features: dict[str, np.ndarray], n_bootstrap: int = 0,
                   seed: int = 0) -> list[EvalResult]:
    """Eval-mode ``metrics.evaluate_records`` of each job on one split, on
    the cached ``features``: J results for a leading job axis J, else one.

    A result's values are positive-class probabilities for auroc tasks and
    argmax predictions otherwise, one per bag.  Its context is empty.  An
    undefined metric is an ``UndefinedMetricError`` naming task and split.
    """
    task = manifest.task
    entries, logits = [], []
    for e, out in models.eval_pass(params, cfg, manifest, split, features):
        entries.append(e)
        logits.append(out.logits)
    logits = np.stack(logits, axis=-2)
    if task.metric == "auroc":
        values = models.softmax(logits)[..., 1].astype(np.float64)
    else:
        values = np.argmax(logits, axis=-1)
    bag_ids, labels = [e.bag_id for e in entries], [e.label for e in entries]
    with reraise_as(UndefinedMetricError, f"task {task.task_id}, {split} split",
                    UndefinedMetricError):
        return [metrics.evaluate_records(task.metric, task.n_classes, bag_ids, labels, job_values,
                                         n_bootstrap=n_bootstrap, seed=seed)
                for job_values in values.reshape(-1, len(entries))]


def load_split_features(manifest: DatasetManifest):
    """Feature cache keyed by bag_id, every bag a read-only view of its
    mapped pack or of one copied buffer (``read_feature_files``)."""
    entries = [e for tag in SPLITS for e in manifest.split(tag)]
    mats = read_feature_files([manifest.feature_path(e) for e in entries],
                              [e.bag_id for e in entries])
    return {e.bag_id: x for e, x in zip(entries, mats)}


def train(cfg: ModelConfig, params: ModelParams, manifest: DatasetManifest,
          train_cfg: TrainConfig, features: dict[str, np.ndarray]) -> TrainResult:
    """Train on the manifest's train split, one optimizer step per bag, on
    the cached ``features``.

    With a validation split: early stopping on the task metric (patience
    after min_epochs) and the best-validation parameters are returned.
    Without one: exactly 10 epochs, final parameters returned.
    """
    return train_group(cfg, [params], manifest, train_cfg, features)[0]


def train_group(cfg: ModelConfig, starts: list[ModelParams], manifest: DatasetManifest,
                train_cfg: TrainConfig, features: dict[str, np.ndarray],
                names=None) -> list[TrainResult]:
    """``train`` for each of ``starts``, run as one stack in lockstep.

    Result j equals ``train(cfg, starts[j], manifest, train_cfg, features)``
    bit for bit.  ``names`` label the jobs in ``NumericError`` messages.
    """
    labels = {e.bag_id: e.label for e in manifest.entries}

    has_val = manifest.has_val()
    planned_epochs = train_cfg.max_epochs if has_val else 10
    steps_per_epoch = len(manifest.split("train"))  # a manifest always has train bags
    total_steps = planned_epochs * steps_per_epoch

    stack = ParamStack.from_params(starts, models.param_schema(cfg), names)

    jobs = list(range(len(starts)))  # the job in each stack row
    # best[j] is job j's result: its best-validation snapshot, or without a
    # val split its last epoch's parameters
    best = np.empty_like(stack.params)
    best_metric = [-math.inf] * len(jobs)
    epochs_since_best = [0] * len(jobs)
    histories: list[list[dict]] = [[] for _ in jobs]
    global_step = 0

    for epoch in range(planned_epochs):
        order = weighted_epoch_order(manifest, steps_per_epoch,
                                     seed=_epoch_seed(train_cfg.seed, epoch))
        epoch_loss = np.zeros(len(jobs))
        lr = train_cfg.lr
        for bag_id in order:
            lr = cosine_lr(global_step, total_steps, train_cfg.lr)
            stack.grads.fill(0.0)
            loss, _, _ = models.loss_and_grads(
                stack.layers, cfg, features[bag_id], labels[bag_id],
                aux_weight=train_cfg.aux_weight,
                dropout_seed=_step_seed(train_cfg.seed, global_step), grads=stack.grad_layers)
            if not np.isfinite(loss).all():
                job = stack.names[int(np.argmin(np.isfinite(loss)))]
                raise NumericError(f"non-finite loss at step {global_step} on bag {bag_id!r} "
                                   f"in job {job}")
            adamw_step(stack, lr, train_cfg.weight_decay)
            epoch_loss += loss
            global_step += 1

        val = ([r.value for r in evaluate_split(cfg, stack.layers, manifest, "val", features)]
               if has_val else None)
        stopped = []
        for r, j in enumerate(jobs):
            histories[j].append({
                "epoch": epoch,
                "train_loss": float(epoch_loss[r] / steps_per_epoch),
                "val_metric": None if val is None else val[r],
                "lr": lr,
            })
            if val is None or val[r] > best_metric[j]:
                best[j] = stack.params[r]
                if val is not None:
                    best_metric[j] = val[r]
                    epochs_since_best[j] = 0
            else:
                epochs_since_best[j] += 1
                if epochs_since_best[j] >= train_cfg.patience and epoch + 1 >= train_cfg.min_epochs:
                    stopped.append(r)
        if stopped:
            kept = [r for r in range(len(jobs)) if r not in stopped]
            jobs = [jobs[r] for r in kept]
            stack.keep(kept)
        if not jobs:
            break
    return [TrainResult(params=stack.views(params), history=history)
            for params, history in zip(best, histories)]


def _epoch_seed(seed: int, epoch: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, 2 * epoch + 1])


def _step_seed(seed: int, global_step: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, 0x5EED, global_step])
