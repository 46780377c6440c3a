"""Evaluation metrics and bootstrap uncertainty.

All metrics are pure functions over per-bag records.  AUROC follows the
Mann-Whitney formulation (ties count one half); balanced accuracy averages
per-class recall over the classes present; quadratic weighted kappa uses
squared rank-distance weights.

Each metric is one kernel with an optional leading resample axis.  On 1-D
records it returns a float and raises ``UndefinedMetricError`` where the
metric is undefined; on 2-D records each row is one resample, the result is
one value per row, and NaN marks a row where the metric is undefined.
``bootstrap`` draws its resamples in blocks of rows and calls its ``fn`` once
per block on 2-D records whose rows are resamples; ``fn`` returns one value
per row, NaN for an undefined resample.  The point estimate and every
resample therefore share one kernel and the same arithmetic.
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


def _rows(a, b, what: str):
    """Equal-shape 1-D or 2-D records as 2-D arrays (rows are resamples)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise DataError(f"{what} must be equal-length vectors or equal-shape 2-D arrays")
    return np.atleast_2d(a), np.atleast_2d(b)


def _class_ids(x: np.ndarray, n_classes: int, what: str) -> np.ndarray:
    if x.shape[1] == 0:
        raise DataError("empty input")
    ids = x.astype(np.int64)
    if ids.min() < 0 or ids.max() >= n_classes:
        raise DataError(f"{what} must lie in [0, {n_classes})")
    return ids


def _finish(out: np.ndarray, ndim: int, undefined: str):
    """The row values for 2-D input; the single value, or an error, for 1-D."""
    if ndim == 2:
        return out
    if np.isnan(out[0]):
        raise UndefinedMetricError(undefined)
    return float(out[0])


def auroc(scores, labels):
    """Probability that a random positive outranks a random negative.

    Ranks are tie-averaged within each row (a tie group at sorted positions
    s..e gets rank (s+e)/2 + 1), so every rank is an exact half-integer and
    the result is the Mann-Whitney U over P*N with ties counting one half.
    Scores must be finite: a NaN would sort above every number.
    """
    ndim = np.ndim(scores)
    s, y = _rows(np.asarray(scores, dtype=np.float64), labels, "scores and labels")
    n_pos = (y == 1).sum(axis=1)
    n_neg = (y == 0).sum(axis=1)
    order = np.argsort(s, axis=1, kind="stable")
    s = np.take_along_axis(s, order, axis=1)
    pos = np.take_along_axis(y, order, axis=1) == 1
    n = s.shape[1]
    at = np.broadcast_to(np.arange(n), s.shape)
    first = np.ones(s.shape, dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    last = np.ones(s.shape, dtype=bool)
    last[:, :-1] = first[:, 1:]
    start = np.maximum.accumulate(np.where(first, at, 0), axis=1)
    end = np.minimum.accumulate(np.where(last, at, n - 1)[:, ::-1], axis=1)[:, ::-1]
    r_pos = np.where(pos, start + end + 2, 0).sum(axis=1) / 2.0  # twice the ranks: exact
    pairs = n_pos * n_neg
    out = np.full(s.shape[0], np.nan)
    ok = pairs > 0
    out[ok] = (r_pos[ok] - n_pos[ok] * (n_pos[ok] + 1) / 2.0) / pairs[ok]
    return _finish(out, ndim, "auroc needs both classes present")


def balanced_accuracy(preds, labels, n_classes: int):
    """Mean per-class recall; classes absent from the labels are excluded."""
    ndim = np.ndim(labels)
    p, y = _rows(preds, labels, "preds and labels")
    y = _class_ids(y, n_classes, "labels")
    r = y.shape[0]
    key = (np.arange(r)[:, None] * n_classes + y).ravel()
    total = np.bincount(key, minlength=r * n_classes).reshape(r, n_classes)
    hits = np.bincount(key[(p == y).ravel()], minlength=r * n_classes).reshape(r, n_classes)
    present = total > 0
    recall = hits / np.maximum(total, 1)
    # Rows with the same number of present classes are averaged together, so
    # each row's mean adds its recalls in class order, as np.mean of a list.
    count = present.sum(axis=1)
    out = np.empty(r)
    for m in np.unique(count):
        rows = count == m
        out[rows] = recall[rows][present[rows]].reshape(-1, m).mean(axis=1)
    return _finish(out, ndim, "balanced_accuracy is undefined")


def quadratic_weighted_kappa(preds, labels, n_classes: int):
    """Cohen's kappa with (i-j)^2 / (C-1)^2 disagreement weights.

    Zero expected disagreement counts as perfect degenerate agreement (1.0).
    """
    ndim = np.ndim(labels)
    p, y = _rows(preds, labels, "preds and labels")
    y = _class_ids(y, n_classes, "labels")
    p = _class_ids(p, n_classes, "preds")
    r, c2 = y.shape[0], n_classes * n_classes
    key = (np.arange(r)[:, None] * c2 + y * n_classes + p).ravel()
    observed = np.bincount(key, minlength=r * c2).reshape(r, n_classes, n_classes).astype(
        np.float64)
    n = observed.sum(axis=(1, 2))
    expected = (observed.sum(axis=2)[:, :, None] * observed.sum(axis=1)[:, None, :]
                / n[:, None, None])
    idx = np.arange(n_classes, dtype=np.float64)
    w = (idx[:, None] - idx[None, :]) ** 2 / (n_classes - 1) ** 2
    denom = (w * expected).reshape(r, c2).sum(axis=1)
    agree = (w * observed).reshape(r, c2).sum(axis=1)
    out = np.ones(r)
    ok = denom != 0.0
    out[ok] = 1.0 - agree[ok] / denom[ok]
    return _finish(out, ndim, "quadratic_weighted_kappa is undefined")


def metric_fn(metric: str, n_classes: int):
    """Callable (labels, values) for a named task metric.

    ``values`` are scores for auroc and argmax predictions otherwise.  Like
    the kernels, it takes 1-D records or 2-D rows of resampled records.
    """
    if metric == "auroc":
        return lambda labels, values: auroc(values, labels)
    if metric == "balanced_accuracy":
        return lambda labels, values: balanced_accuracy(values, labels, n_classes)
    if metric == "quadratic_weighted_kappa":
        return lambda labels, values: quadratic_weighted_kappa(values, labels, n_classes)
    raise DataError(f"unknown metric {metric!r}")


def bootstrap(labels, values, fn, n_bootstrap: int = 1000, seed: int = 0):
    """Resample bags with replacement and return (mean, std, skipped).

    Resample indices come from ``default_rng(seed)`` as one row of n draws
    per resample, in blocks of rows.  ``fn(labels[idx], values[idx])`` is
    called once per block on 2-D records whose rows are resamples, and
    returns one value per row, NaN where the metric is undefined (e.g. a
    one-class AUROC draw).  Such resamples are skipped and counted rather
    than imputed.
    """
    labels = np.asarray(labels)
    values = np.asarray(values)
    if labels.shape[0] < 2:
        raise DataError("bootstrap needs at least 2 records")
    rng = np.random.default_rng(seed)
    n = labels.shape[0]
    block = max(1, _BLOCK_ELEMS // n)
    kept = []
    skipped = 0
    for start in range(0, n_bootstrap, block):
        idx = rng.integers(0, n, size=(min(block, n_bootstrap - start), n))
        stats = np.asarray(fn(labels[idx], values[idx]), dtype=np.float64)
        if stats.shape != (idx.shape[0],):
            raise DataError(f"bootstrap fn returned shape {stats.shape}, "
                            f"expected ({idx.shape[0]},): one value per resample")
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
