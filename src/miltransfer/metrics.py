"""Evaluation metrics and bootstrap uncertainty.

All metrics are pure functions over per-bag records.  AUROC follows the
Mann-Whitney formulation (ties count one half); balanced accuracy averages
per-class recall over the classes present; quadratic weighted kappa uses
squared rank-distance weights.

Each metric is one kernel over 1-D records with optional ``(R, n)``
``counts``: row r holds how often each record occurs in resample r.  Without
counts a kernel returns a float and raises ``UndefinedMetricError`` where the
metric is undefined; with counts it returns one value per row, NaN where the
resample is undefined.  Counts are small integers, exact in float64, and so
is every total a kernel forms from them (a tie group's positives, a class's
hits, a confusion cell), so a row's value equals bit for bit the kernel's
value on that resample's records written out.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, NumericError, UndefinedMetricError
from .fileio import typed

# Index entries drawn per bootstrap block: 1 MB of int64 indices, so each
# per-block temporary stays near 1 MB whatever the record count.
_BLOCK_ELEMS = 1 << 17


def _records(a, b, counts, what: str):
    """Equal-length 1-D records, and ``counts`` as float64 rows (one row of ones if None)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise DataError(f"{what} must be equal-length vectors")
    w = np.ones((1, a.size)) if counts is None else np.asarray(counts, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != a.size:
        raise DataError(f"counts must have shape (R, {a.size}), got {w.shape}")
    return a, b, w


def _class_ids(x: np.ndarray, n_classes: int, what: str) -> np.ndarray:
    ids = x.astype(np.int64)
    if ((ids < 0) | (ids >= n_classes)).any():
        raise DataError(f"{what} must lie in [0, {n_classes})")
    return ids


def _onehot(ids: np.ndarray, k: int) -> np.ndarray:
    return (ids[:, None] == np.arange(k)).astype(np.float64)


def _finish(out: np.ndarray, counts, undefined: str):
    """The row values when counts were given; else the single value, or an error."""
    if counts is not None:
        return out
    if np.isnan(out[0]):
        raise UndefinedMetricError(undefined)
    return float(out[0])


def auroc(scores, labels, counts=None):
    """Probability that a random positive outranks a random negative.

    The scores are sorted once into tie groups.  Per row, the Mann-Whitney U
    sums each group's positives x (negatives below + half its negatives),
    exact half-integers, and returns U / (P*N).  Labels must be 0 or 1, and
    scores finite: a NaN would sort above every number.
    """
    s, y, w = _records(np.asarray(scores, dtype=np.float64), labels, counts,
                       "scores and labels")
    if not np.isin(y, (0, 1)).all():
        raise DataError("auroc labels must be 0 or 1")
    order = np.argsort(s)
    s, pos, w_t = s[order], (y[order] == 1)[:, None], w.T[order]  # records by score, x rows
    first = np.ones(s.size, dtype=bool)
    first[1:] = s[1:] != s[:-1]
    groups = np.flatnonzero(first)
    n_pos = np.add.reduceat(w_t * pos, groups, axis=0)
    n_neg = np.add.reduceat(w_t * ~pos, groups, axis=0)
    below = np.cumsum(n_neg, axis=0) - n_neg
    u = (n_pos * (below + n_neg / 2.0)).sum(axis=0)
    pairs = n_pos.sum(axis=0) * n_neg.sum(axis=0)
    out = np.full(w.shape[0], np.nan)
    ok = pairs > 0
    out[ok] = u[ok] / pairs[ok]
    return _finish(out, counts, "auroc needs both classes present")


def balanced_accuracy(preds, labels, n_classes: int, counts=None):
    """Mean per-class recall; classes absent from the labels are excluded."""
    p, y, w = _records(preds, labels, counts, "preds and labels")
    y = _class_ids(y, n_classes, "labels")
    onehot = _onehot(y, n_classes)
    total = w @ onehot
    hits = w @ (onehot * (p == y)[:, None])
    present = total > 0
    recall = hits / np.maximum(total, 1)
    # Rows with the same number of present classes are averaged together, so
    # each row's mean adds its recalls in class order, as np.mean of a list.
    count = present.sum(axis=1)
    out = np.full(w.shape[0], np.nan)  # a row with no records stays NaN
    for m in np.unique(count[count > 0]):
        rows = count == m
        out[rows] = recall[rows][present[rows]].reshape(-1, m).mean(axis=1)
    return _finish(out, counts, "balanced_accuracy needs at least one record")


def quadratic_weighted_kappa(preds, labels, n_classes: int, counts=None):
    """Cohen's kappa with (i-j)^2 / (C-1)^2 disagreement weights.

    Zero expected disagreement counts as perfect degenerate agreement (1.0).
    """
    p, y, w = _records(preds, labels, counts, "preds and labels")
    y = _class_ids(y, n_classes, "labels")
    p = _class_ids(p, n_classes, "preds")
    r, c2 = w.shape[0], n_classes * n_classes
    observed = (w @ _onehot(y * n_classes + p, c2)).reshape(r, n_classes, n_classes)
    n = observed.sum(axis=(1, 2))
    expected = (observed.sum(axis=2)[:, :, None] * observed.sum(axis=1)[:, None, :]
                / np.maximum(n, 1)[:, None, None])
    idx = np.arange(n_classes, dtype=np.float64)
    wt = (idx[:, None] - idx[None, :]) ** 2 / (n_classes - 1) ** 2
    denom = (wt * expected).reshape(r, c2).sum(axis=1)
    agree = (wt * observed).reshape(r, c2).sum(axis=1)
    out = np.ones(r)
    ok = denom != 0.0
    out[ok] = 1.0 - agree[ok] / denom[ok]
    out[n == 0] = np.nan
    return _finish(out, counts, "quadratic_weighted_kappa needs at least one record")


def metric_fn(metric: str, n_classes: int):
    """Callable (labels, values, counts=None) for a named task metric.

    ``values`` are scores for auroc and argmax predictions otherwise; like
    the kernels, it takes optional ``(R, n)`` resample counts.
    """
    if metric == "auroc":
        return lambda y, v, counts=None: auroc(v, y, counts)
    if metric == "balanced_accuracy":
        return lambda y, v, counts=None: balanced_accuracy(v, y, n_classes, counts)
    if metric == "quadratic_weighted_kappa":
        return lambda y, v, counts=None: quadratic_weighted_kappa(v, y, n_classes, counts)
    raise DataError(f"unknown metric {metric!r}")


def bootstrap(labels, values, fn, n_bootstrap: int = 1000, seed: int = 0):
    """Resample bags with replacement and return (mean, std, skipped).

    Resample indices come from ``default_rng(seed)`` as one row of n draws
    per resample, in blocks of rows.  One ``bincount`` turns a block into
    ``(R, n)`` per-record counts, and ``fn(labels, values, counts)`` returns
    one value per row, NaN where the metric is undefined (e.g. a one-class
    AUROC draw).  Such resamples are skipped and counted rather than
    imputed.  The counts are exact integers, so each row's value is the
    kernel's value on the resampled records.
    """
    n = len(labels)
    if n < 2:
        raise DataError("bootstrap needs at least 2 records")
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_ELEMS // n)
    kept = []
    skipped = 0
    for start in range(0, n_bootstrap, block):
        rows = min(block, n_bootstrap - start)
        keys = rng.integers(0, n, size=(rows, n)) + n * np.arange(rows)[:, None]
        counts = np.bincount(keys.ravel(), minlength=rows * n).reshape(rows, n)
        stats = np.asarray(fn(labels, values, counts), dtype=np.float64)
        if stats.shape != (rows,):
            raise DataError(f"bootstrap fn returned shape {stats.shape}, "
                            f"expected ({rows},): one value per resample")
        undefined = np.isnan(stats)
        skipped += int(undefined.sum())
        kept.append(stats[~undefined])
    arr = np.concatenate(kept) if kept else np.empty(0)
    if arr.size == 0:
        raise UndefinedMetricError("every bootstrap resample was degenerate")
    return float(arr.mean()), float(arr.std()), skipped


# the fields of a result file (``EvalResult.to_json``), with their types
RESULT_FIELDS = {"metric": str, "value": float, "std": float, "n_bootstrap": int,
                 "skipped": int, "bag_ids": tuple[str, ...], "labels": tuple[int, ...],
                 "scores": tuple[float, ...], "context": dict}


@dataclass
class EvalResult:
    metric_name: str
    value: float
    bootstrap_std: float
    n_bootstrap: int
    skipped: int
    bag_ids: list[str] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)  # metric input values
    context: dict = field(default_factory=dict)        # arch, task, init, seed...

    def to_json(self) -> str:
        d = asdict(self)  # two fields keep shorter names in the file
        d["metric"], d["std"] = d.pop("metric_name"), d.pop("bootstrap_std")
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, raw: str | dict) -> "EvalResult":
        """The result in ``to_json``'s text, or in that text parsed, typed
        field by field (``RESULT_FIELDS``); else a ``ConfigError`` naming
        the field."""
        d = typed(json.loads(raw) if isinstance(raw, str) else raw, dict, "the file")
        f = {key: typed(d.get(key), hint, key) for key, hint in RESULT_FIELDS.items()}
        return cls(f["metric"], f["value"], f["std"], f["n_bootstrap"], f["skipped"],
                   list(f["bag_ids"]), list(f["labels"]), list(f["scores"]), f["context"])


def evaluate_records(metric: str, n_classes: int, bag_ids, labels, values,
                     n_bootstrap: int = 1000, seed: int = 0,
                     context: dict | None = None) -> EvalResult:
    """Point estimate plus bootstrap std for per-bag records.

    Raises ``NumericError`` if any value is NaN or infinite.
    """
    fn = metric_fn(metric, n_classes)
    if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
        raise NumericError(f"{metric} inputs contain non-finite values")
    value = fn(np.asarray(labels), np.asarray(values))
    if len(labels) >= 2 and n_bootstrap > 0:
        _, std, skipped = bootstrap(labels, values, fn, n_bootstrap, seed)
    else:
        std, skipped = 0.0, 0
    return EvalResult(metric, float(value), std, n_bootstrap, skipped,
                      list(bag_ids), [int(x) for x in labels],
                      [float(x) for x in values], context or {})
