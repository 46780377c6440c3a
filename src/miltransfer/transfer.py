"""Transfer protocols: checkpoint container, initialization from pretrained
weights, frozen slide-embedding extraction, KNN evaluation, progressive
layer reset, and finetuning.

A target model starts from a checkpoint and an init name: ``pretrained``,
``random`` or ``reset_<spec>`` (``RESET_SPECS``).  ``start`` is the one
place an init name becomes starting weights, and ``source_task`` the one
place it becomes the source task a result records.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import models, training
from .bagdata import DatasetManifest, TaskSpec
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    NumericError,
    ShapeMismatchError,
    VersionMismatchError,
)
from .fileio import atomic_open
from .metrics import EvalResult, evaluate_records
from .models import ModelConfig, ModelParams
from .training import TrainConfig, TrainResult

CHECKPOINT_MAGIC = b"MILC"
CHECKPOINT_VERSION = 1
HEADER_START = 13  # magic (4) + version (1) + u64 header length (8)

RESET_SPECS = ("attn", "lin3plus", "lin2plus", "all")
DISTANCES = ("euclidean", "cosine")


@dataclass
class Checkpoint:
    cfg: ModelConfig
    params: ModelParams
    pretrain_task_id: str = ""
    train_summary: dict = field(default_factory=dict)


def config_to_dict(cfg: ModelConfig) -> dict:
    d = asdict(cfg)
    d["fc_hidden_dims"] = list(d["fc_hidden_dims"])
    return d


def config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    d["fc_hidden_dims"] = tuple(d.get("fc_hidden_dims", ()))
    return ModelConfig(**d)


def config_digest(cfg: ModelConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checkpoint container: magic, version byte, u64 header length, JSON header,
# then one concatenated float32-LE blob
# ---------------------------------------------------------------------------

def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    schema = models.param_schema(ckpt.cfg)
    missing = [name for name, _ in schema if name not in ckpt.params]
    if missing:
        raise ShapeMismatchError(f"checkpoint params missing layers: {missing}")
    layers = []
    offset = 0
    blobs = []
    for name, shape in schema:
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f4")
        if arr.shape != shape:
            raise ShapeMismatchError(f"layer {name!r}: shape {arr.shape} != schema {shape}")
        raw = arr.tobytes()
        layers.append({"name": name, "shape": list(shape),
                       "offset": offset, "length": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "cfg": config_to_dict(ckpt.cfg),
        "cfg_digest": config_digest(ckpt.cfg),
        "pretrain_task_id": ckpt.pretrain_task_id,
        "train_summary": ckpt.train_summary,
        "layers": layers,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(b"".join(blobs))


def load_checkpoint(path: str | Path) -> Checkpoint:
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
    if len(data) < HEADER_START:
        raise CheckpointFormatError(f"{path}: truncated at {len(data)} bytes, inside the prefix")
    version = data[4]
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", data, 5)
    blob_start = HEADER_START + header_len
    if blob_start > len(data):
        raise CheckpointFormatError(
            f"{path}: header of {header_len} bytes overruns the {len(data)}-byte file")
    try:
        header = json.loads(data[HEADER_START:blob_start])
        cfg = config_from_dict(header["cfg"])
        layers = [(str(layer["name"]), tuple(int(d) for d in layer["shape"]),
                   int(layer["offset"]), int(layer["length"])) for layer in header["layers"]]
        header["format_version"]  # required; the prefix byte is the version read
        digest = header["cfg_digest"]
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise CheckpointFormatError(f"{path}: malformed header ({exc!r})") from exc
    if digest != config_digest(cfg):  # an edited cfg would load as another model
        raise CheckpointFormatError(f"{path}: cfg_digest {digest!r} does not match "
                                    f"the header's cfg")
    blob = data[blob_start:]

    schema = dict(models.param_schema(cfg))
    params: ModelParams = {}
    seen = set()
    for name, shape, start, length in layers:
        if name not in schema:
            raise ShapeMismatchError(f"{path}: layer {name!r} not in {cfg.arch} schema")
        if shape != schema[name]:
            raise ShapeMismatchError(
                f"{path}: layer {name!r} stored shape {shape} != config shape {schema[name]}")
        if length != int(np.prod(shape)) * 4 or not 0 <= start <= len(blob) - length:
            raise CheckpointFormatError(f"{path}: layer {name!r} has inconsistent extent")
        params[name] = np.frombuffer(blob[start:start + length], dtype="<f4").reshape(shape).copy()
        seen.add(name)
    missing = [name for name in schema if name not in seen]
    if missing:
        raise ShapeMismatchError(f"{path}: missing layers {missing}")
    return Checkpoint(cfg=cfg, params=params,
                      pretrain_task_id=header.get("pretrain_task_id", ""),
                      train_summary=header.get("train_summary", {}))


# ---------------------------------------------------------------------------
# initialization and layer reset
# ---------------------------------------------------------------------------

def _head_layers(cfg: ModelConfig) -> tuple[str, ...]:
    """Layers whose shape is tied to the task's class count."""
    if cfg.arch == "auxmil":
        return ("classifier.weight", "classifier.bias", "aux.head.weight", "aux.head.bias")
    return ("classifier.weight", "classifier.bias")


def init_from_pretrained(ckpt: Checkpoint, n_classes: int,
                         seed: int) -> tuple[ModelConfig, ModelParams]:
    """Copy every backbone layer from the checkpoint; the classifier head
    (and the aux head, whose shape is class-bound) is always freshly
    re-initialized for ``n_classes``, even when the counts match.
    """
    cfg = ckpt.cfg.retarget(n_classes)
    rng = np.random.default_rng(seed)
    heads = _head_layers(cfg)
    params: ModelParams = {}
    for name, shape in models.param_schema(cfg):
        if name in heads:
            params[name] = models.init_layer(rng, name, shape)
        else:
            src = ckpt.params.get(name)
            if src is None:
                raise ShapeMismatchError(
                    f"source checkpoint ({ckpt.cfg.arch}) lacks layer {name!r} "
                    f"required by {cfg.arch}")
            params[name] = src.copy()
    return cfg, params


def reset_layers(ckpt: Checkpoint, reset_spec: str, seed: int) -> ModelParams:
    """Replace the named pretrained layers with fresh initializer draws.

    ``attn``      attention layers only
    ``lin3plus``  third-and-later FC layers plus attention
    ``lin2plus``  second-and-later FC layers plus attention
    ``all``       every backbone layer (classifier heads excluded; they are
                  re-initialized downstream by init_from_pretrained)
    """
    if reset_spec not in RESET_SPECS:
        raise ConfigError(f"unknown reset spec {reset_spec!r}")
    cfg = ckpt.cfg
    if cfg.arch not in ("abmil", "auxmil"):
        raise ConfigError(f"reset_layers requires an attention-family model, got {cfg.arch}")
    n_fc = len(cfg.fc_dims()) - 1
    if reset_spec in ("lin2plus", "lin3plus") and n_fc < 3:
        raise ConfigError(f"reset spec {reset_spec!r} needs >= 3 FC layers, model has {n_fc}")

    heads = _head_layers(cfg)

    def selected(name: str) -> bool:
        if name in heads:
            return False
        if reset_spec == "all":
            return True
        if name.startswith("attn."):
            return True
        if name.startswith("fc."):
            idx = int(name.split(".")[1])
            if reset_spec == "lin3plus":
                return idx >= 2
            if reset_spec == "lin2plus":
                return idx >= 1
        return False

    rng = np.random.default_rng(seed)
    params: ModelParams = {}
    for name, shape in models.param_schema(cfg):
        if selected(name):
            params[name] = models.init_layer(rng, name, shape)
        else:
            params[name] = ckpt.params[name].copy()
    return params


def start(ckpt: Checkpoint, init: str, n_classes: int,
          seed: int) -> tuple[ModelConfig, ModelParams]:
    """Starting (config, parameters) of init ``init`` for a target with
    ``n_classes`` classes; an unknown name is a ``ConfigError``.

    ``random``        ``build_model`` of the checkpoint's architecture
    ``pretrained``    ``init_from_pretrained``
    ``reset_<spec>``  ``reset_layers`` with ``spec``, then as ``pretrained``
    """
    if init == "random":
        cfg = ckpt.cfg.retarget(n_classes)
        return cfg, models.build_model(cfg, seed=seed)
    if init.startswith("reset_"):
        spec = init.removeprefix("reset_")
        ckpt = Checkpoint(cfg=ckpt.cfg, params=reset_layers(ckpt, spec, seed))
    elif init != "pretrained":
        raise ConfigError(f"unknown init {init!r}: expected pretrained, random or reset_<spec>")
    return init_from_pretrained(ckpt, n_classes, seed)


def source_task(ckpt: Checkpoint, init: str) -> str:
    """The task an init's weights were pretrained on, as results record it."""
    return "random" if init == "random" else ckpt.pretrain_task_id


# ---------------------------------------------------------------------------
# frozen-embedding evaluation
# ---------------------------------------------------------------------------

def embed_bags(cfg: ModelConfig, params: ModelParams, manifest: DatasetManifest,
               split: str, features: dict[str, np.ndarray]):
    """Eval-mode slide embedding per bag, in manifest order.

    Returns (bag_ids, embeddings, labels).  Embeddings are float32 of shape
    (n_bags, embed_dim); parameters with a leading job axis J give
    (J, n_bags, embed_dim), row j equal to job j's unstacked call.
    """
    rows, bag_ids, labels = [], [], []
    for e, out in models.eval_pass(params, cfg, manifest, split, features):
        rows.append(np.asarray(out.embedding, dtype=np.float32))
        bag_ids.append(e.bag_id)
        labels.append(e.label)
    return bag_ids, np.stack(rows, axis=-2), np.asarray(labels, dtype=np.int64)


def knn_predict(train_embeddings: np.ndarray, train_labels: np.ndarray,
                query: np.ndarray, k: int, n_classes: int,
                distance: str = "euclidean"):
    """Per-query KNN vote.  Returns (predictions, positive-neighbor fraction).

    Neighbors are the k smallest distances, equal distances taken in train
    order.  Majority vote; ties between classes broken by summed inverse
    distance, then by the lower class index.

    Euclidean distance is ``sqrt(sum((q - t) ** 2))`` in the embeddings'
    dtype (float32 or float64; other dtypes are taken as float64).  It is
    found through one float64 Gram G = |q|^2 + |t|^2 - 2 q.t and computed
    exactly only on each query's candidates: the train points with

        G <= rho * (G_k + e) + e + 3 d eta,

    where G_k is the query's k-th smallest G, d the width, u and eta the
    unit roundoff and smallest subnormal of the dtype, and

    - gamma = (d+2) u / (1 - (d+2) u) bounds the relative rounding of the
      dtype's sum of d squared differences;
    - rho = (1+gamma) (1+u)^2 / ((1-gamma) (1-u)^2) adds the rounding of
      the square root;
    - e = (d+4) u64 (|q| + max |t|)^2 + d eta bounds the float64 Gram's
      rounding and underflow.

    Every point whose exact distance is at most the k-th smallest lies
    within that margin, so neighbors, ties and votes equal those of the
    exact distance to every train point.  The bound needs (d+2) u <= 1/5,
    which float32 meets for d below 3 million.  Queries where the squared
    distances could overflow the dtype take every point as a candidate.

    Cosine distance ``1 - cos`` is one matrix product over all points.
    """
    if k < 1:
        raise ConfigError(f"knn k must be >= 1, got {k}")
    train, query = (x if x.dtype in (np.float32, np.float64) else x.astype(np.float64)
                    for x in (np.asarray(train_embeddings), np.asarray(query)))
    train_labels = np.asarray(train_labels)
    if train.ndim != 2 or query.ndim != 2 or train.shape[1] != query.shape[1]:
        raise DataError(f"knn needs (n, d) train and (q, d) query embeddings, "
                        f"got {train.shape} and {query.shape}")
    if train_labels.shape != train.shape[:1]:
        raise DataError(f"{train_labels.shape} train labels for {train.shape[0]} embeddings")
    if k > train.shape[0]:
        raise DataError(f"k={k} exceeds {train.shape[0]} train embeddings")
    if train_labels.dtype.kind not in "biu" or not (
            0 <= train_labels.min() and train_labels.max() < n_classes):
        raise DataError(f"train labels must be integers in [0, {n_classes})")
    if not (np.isfinite(train).all() and np.isfinite(query).all()):
        raise NumericError("knn embeddings hold non-finite values")

    if distance == "euclidean":
        neighbors, dist = _euclidean_neighbors(train, query, k)
    elif distance == "cosine":
        qn = query / np.maximum(np.linalg.norm(query, axis=1, keepdims=True), 1e-12)
        tn = train / np.maximum(np.linalg.norm(train, axis=1, keepdims=True), 1e-12)
        d = 1.0 - qn @ tn.T
        neighbors = np.argsort(d, axis=1, kind="stable")[:, :k]
        dist = np.take_along_axis(d, neighbors, axis=1)
    else:
        raise ConfigError(f"unknown distance {distance!r}")
    return _vote(train_labels[neighbors], dist, n_classes)


def _euclidean_neighbors(train: np.ndarray, query: np.ndarray, k: int):
    """(q, k) indices and exact distances of each query's k nearest train
    points, by the Gram margin of ``knn_predict``."""
    dt = np.result_type(train, query)
    train, query = train.astype(dt, copy=False), query.astype(dt, copy=False)
    n_q, dim = query.shape
    t64, q64 = train.astype(np.float64, copy=False), query.astype(np.float64, copy=False)
    tt, qq = (t64 * t64).sum(axis=1), (q64 * q64).sum(axis=1)
    gram = qq[:, None] + tt[None, :] - 2.0 * (q64 @ t64.T)
    g_k = np.partition(gram, k - 1, axis=1)[:, k - 1]

    fin = np.finfo(dt)
    u, eta = fin.eps / 2, float(fin.smallest_subnormal)
    gamma = (dim + 2) * u / (1 - (dim + 2) * u)
    rho = (1 + gamma) * (1 + u) ** 2 / ((1 - gamma) * (1 - u) ** 2)
    err = ((dim + 4) * np.finfo(np.float64).eps / 2
           * (np.sqrt(qq) + np.sqrt(tt.max())) ** 2 + dim * eta)
    limit = rho * (g_k + err) + err + 3 * dim * eta
    limit[(1 + gamma) * (g_k + err) + dim * eta >= fin.max / 2] = np.inf
    qi, ti = np.nonzero(~(gram > limit[:, None]))

    # the exact expression, on the candidates only, in index order
    diff = query[qi]
    diff -= train[ti]
    diff **= 2
    dist = np.sqrt(np.maximum(diff.sum(-1), 0.0))
    # each query's candidates sorted by distance, then index; its first k
    order = np.lexsort((ti, dist, qi))
    counts = np.bincount(qi, minlength=n_q)
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return ti[pick], dist[pick]


def _vote(neighbor_labels: np.ndarray, dist: np.ndarray, n_classes: int):
    """Majority vote over (q, k) neighbor labels, ties by summed inverse
    distance, then by the lower class."""
    n_q = neighbor_labels.shape[0]
    votes = np.bincount((np.arange(n_q)[:, None] * n_classes + neighbor_labels).ravel(),
                        minlength=n_q * n_classes).reshape(n_q, n_classes)
    preds = votes.argmax(axis=1).astype(np.int64)
    for i in np.flatnonzero((votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1):
        tied = np.flatnonzero(votes[i] == votes[i].max())
        inv = np.zeros(n_classes)
        for c in tied:
            inv[c] = (1.0 / (dist[i][neighbor_labels[i] == c] + 1e-12)).sum()
        preds[i] = tied[inv[tied] == inv[tied].max()][0]
    return preds, (neighbor_labels == 1).mean(axis=1)


def knn_evaluate(train_embeddings, train_labels, test_embeddings, test_labels,
                 task: TaskSpec, k: int = 20, distance: str = "euclidean",
                 bag_ids=None, n_bootstrap: int = 1000, seed: int = 0,
                 context: dict | None = None) -> EvalResult:
    """Frozen-feature KNN transfer metric with bootstrap uncertainty.

    AUROC tasks score each bag by the fraction of its k neighbors in the
    positive class; other tasks use the majority-vote prediction.
    """
    preds, pos_fraction = knn_predict(np.asarray(train_embeddings),
                                      np.asarray(train_labels),
                                      np.asarray(test_embeddings), k,
                                      task.n_classes, distance)
    values = pos_fraction if task.metric == "auroc" else preds
    ids = list(bag_ids) if bag_ids is not None else [str(i) for i in range(len(preds))]
    ctx = {"protocol": "knn", "k": k, "distance": distance}
    ctx.update(context or {})
    return evaluate_records(task.metric, task.n_classes, ids, test_labels, values,
                            n_bootstrap=n_bootstrap, seed=seed, context=ctx)


# ---------------------------------------------------------------------------
# finetuning
# ---------------------------------------------------------------------------

def finetune(ckpt: Checkpoint, init: str, target: DatasetManifest, train_cfg: TrainConfig,
             features: dict[str, np.ndarray],
             n_bootstrap: int = 1000) -> tuple[TrainResult, EvalResult]:
    """Train ``start(ckpt, init, ...)`` on ``target`` and evaluate it on the
    test split; the stack of one of ``finetune_group``."""
    return finetune_group(ckpt, (init,), target, train_cfg, features, n_bootstrap)[0]


def finetune_group(ckpt: Checkpoint, inits: Sequence[str], target: DatasetManifest,
                   train_cfg: TrainConfig, features: dict[str, np.ndarray],
                   n_bootstrap: int = 1000) -> list[tuple[TrainResult, EvalResult]]:
    """``finetune`` for init-siblings, trained in lockstep as one stack
    (``training.train_group``).  Pair j equals ``finetune(ckpt, inits[j], ...)``."""
    task = target.task
    starts = [start(ckpt, init, task.n_classes, train_cfg.seed) for init in inits]
    cfg = starts[0][0]
    results = training.train_group(cfg, [params for _, params in starts], target, train_cfg,
                                   features, names=list(inits))
    _, bag_ids, labels, values = training.evaluate_split(
        cfg, models.stack_params([r.params for r in results]), target, "test", features)
    return [(result, evaluate_records(
        task.metric, task.n_classes, bag_ids, labels, job_values,
        n_bootstrap=n_bootstrap, seed=train_cfg.seed,
        context={"protocol": "finetune", "arch": cfg.arch, "init": init,
                 "source_task": source_task(ckpt, init), "target_task": task.task_id,
                 "seed": train_cfg.seed}))
        for init, result, job_values in zip(inits, results, values)]
