"""Reference computations the benchmark checks the program against.

Each oracle is written from the documented definition, in float64 where
arithmetic is involved, and calls nothing in ``miltransfer``:

* pairwise AUROC: the share of (positive, negative) pairs ranked correctly,
  ties counting one half;
* the bootstrap of an AUROC: ``n_bootstrap`` resamples of the bags drawn
  as ``default_rng(seed).integers(0, n, size=n)``, one-class draws skipped
  and counted, population std of the rest;
* brute-force KNN: exact distances, stable order (lower reference index
  first on equal distances), majority vote, class ties broken by summed
  inverse distance and then by the lower class index;
* the gated-attention ABMIL forward: FC stack with ReLU, tanh/sigmoid
  gating, softmax attention pooling, linear classifier;
* the job keys a transfer config implies, and the report figures over
  the distinct results;
* the MILC checkpoint header and its config digest.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

# Relative slack for "the k-th and (k+1)-th distances differ by more than
# float32 rounding": a float32 sum of squares over a few hundred terms is
# good to about 1e-6 relative; 1e-5 keeps well clear of it.
FLOAT32_REL_TOL = 1e-5
INV_DIST_EPS = 1e-12


def pairwise_auroc(labels, scores) -> float:
    """Mann-Whitney AUROC by enumerating every positive/negative pair."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("pairwise AUROC needs both classes")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def bootstrap_auroc(labels, scores, n_bootstrap: int, seed: int) -> tuple[float, int]:
    """(std, skipped) of the pairwise AUROC over bag resamples."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(labels)
    stats = []
    skipped = 0
    for _ in range(n_bootstrap):
        idx = rng.integers(0, n, size=n)
        if labels[idx].min() == labels[idx].max():
            skipped += 1
        else:
            stats.append(pairwise_auroc(labels[idx], scores[idx]))
    return float(np.std(stats)), skipped


def knn_bruteforce(ref, ref_labels, query, k: int, n_classes: int):
    """Euclidean KNN in float64, one query at a time.

    Returns (predictions, positive-neighbour fractions, decided), where
    ``decided[i]`` is False when float32 rounding could change query i's
    answer: its k-th and (k+1)-th distances lie within FLOAT32_REL_TOL, or
    its vote tie is settled by inverse-distance sums that close.
    """
    ref = np.asarray(ref, dtype=np.float64)
    ref_labels = np.asarray(ref_labels)
    query = np.asarray(query, dtype=np.float64)
    preds = np.zeros(len(query), dtype=np.int64)
    pos_frac = np.zeros(len(query))
    decided = np.ones(len(query), dtype=bool)
    for i, q in enumerate(query):
        dist = np.sqrt(((ref - q) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(len(ref)), dist))
        near = order[:k]
        if k < len(ref):
            dk, dk1 = dist[order[k - 1]], dist[order[k]]
            if dk1 - dk <= FLOAT32_REL_TOL * max(dk1, 1e-30):
                decided[i] = False
        lab = ref_labels[near]
        votes = np.bincount(lab, minlength=n_classes)
        tied = np.flatnonzero(votes == votes.max())
        if tied.size > 1:
            inv = np.array([(1.0 / (dist[near][lab == c] + INV_DIST_EPS)).sum() for c in tied])
            best = inv.max()
            if (np.abs(inv - best) <= FLOAT32_REL_TOL * best).sum() > 1:
                decided[i] = False
            tied = tied[inv == best]
        preds[i] = tied[0]
        pos_frac[i] = float((lab == 1).sum()) / k
    return preds, pos_frac, decided


def as_float64(params: dict) -> dict:
    return {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}


def abmil_forward64(params: dict, x, n_fc_layers: int):
    """Eval-mode gated-attention ABMIL in float64.

    Returns (pooled embedding, logits, attention weights, pre-softmax
    attention scores).
    """
    p = as_float64(params)
    h = np.asarray(x, dtype=np.float64)
    for i in range(n_fc_layers):
        h = np.maximum(h @ p[f"fc.{i}.weight"].T + p[f"fc.{i}.bias"], 0.0)
    gate_t = np.tanh(h @ p["attn.V.weight"].T + p["attn.V.bias"])
    gate_s = 1.0 / (1.0 + np.exp(-(h @ p["attn.U.weight"].T + p["attn.U.bias"])))
    scores = (gate_t * gate_s) @ p["attn.w.weight"][0] + p["attn.w.bias"][0]
    att = np.exp(scores - scores.max())
    att /= att.sum()
    pooled = att @ h
    logits = pooled @ p["classifier.weight"].T + p["classifier.bias"]
    return pooled, logits, att, scores


def instance_sample(bags, max_instances: int, seed: int) -> list[tuple[str, int]]:
    """(bag id, instance index) pairs for ``bags``, a list of (bag id, size)."""
    pairs = [(bag_id, j) for bag_id, size in bags for j in range(size)]
    if len(pairs) > max_instances:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(pairs), size=max_instances, replace=False))
        pairs = [pairs[i] for i in keep]
    return pairs


def job_keys(config: dict) -> set[tuple]:
    """Distinct (protocol, target, init, seed) keys that the ``transfer``,
    ``knn`` and ``reset`` commands imply for a config."""
    keys = set()
    inits = ["pretrained", "random"]
    resets = [f"reset_{s}" for s in config["protocol"].get("reset_specs", ["attn", "all"])]
    for target in config["data"]["targets"]:
        for seed in config["seeds"]:
            for init in inits + resets:
                keys.add(("finetune", target, init, seed))
            for init in inits:
                keys.add(("knn", target, init, seed))
    return keys


def result_key(result: dict) -> tuple:
    ctx = result["context"]
    return (ctx["protocol"], ctx["target_task"], ctx["init"], ctx["seed"])


def report_rows(results: list[dict]) -> dict[tuple, tuple[float, int]]:
    """(protocol, task, arch, init) -> (mean value, number of distinct results).

    Results that share a job key are one result: a repeated job is not a
    second run.
    """
    distinct = {}
    for r in results:
        distinct.setdefault(result_key(r), r)
    groups: dict[tuple, list[float]] = {}
    for r in distinct.values():
        ctx = r["context"]
        key = (ctx["protocol"], ctx["target_task"], ctx["arch"], ctx["init"])
        groups.setdefault(key, []).append(float(r["value"]))
    return {key: (float(np.mean(v)), len(v)) for key, v in groups.items()}


def milc_header(path: Path) -> dict:
    """JSON header of a MILC checkpoint: magic, version byte, u64 LE header
    length, header."""
    data = Path(path).read_bytes()
    if data[:4] != b"MILC":
        raise ValueError(f"{path}: bad magic")
    (n,) = struct.unpack_from("<Q", data, 5)
    return json.loads(data[13:13 + n])


def cfg_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
