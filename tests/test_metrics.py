import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from miltransfer import metrics
from miltransfer.errors import DataError, NumericError, UndefinedMetricError
from miltransfer.metrics import (
    auroc,
    balanced_accuracy,
    bootstrap,
    evaluate_records,
    quadratic_weighted_kappa,
)


# ---------------------------------------------------------------------------
# auroc
# ---------------------------------------------------------------------------

def test_auroc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert auroc(scores, labels) == 1.0
    assert auroc(scores, 1 - labels) == 0.0


def test_auroc_ties_half():
    # pairs: (0.6,0.6)->0.5, (0.6,0.4)->1, (0.4,0.6)->0, (0.4,0.4)->0.5  => 0.5
    scores = np.array([0.6, 0.4, 0.6, 0.4])
    labels = np.array([1, 0, 0, 1])
    assert auroc(scores, labels) == pytest.approx(0.5, abs=1e-12)


def test_auroc_single_class_error():
    with pytest.raises(UndefinedMetricError):
        auroc(np.array([0.1, 0.2]), np.array([1, 1]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_auroc_monotone_transform_invariant(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(30)
    labels = rng.integers(0, 2, 30)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    a = auroc(scores, labels)
    assert auroc(np.exp(scores * 2.0) + 5.0, labels) == pytest.approx(a, abs=1e-12)
    assert a + auroc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# balanced accuracy
# ---------------------------------------------------------------------------

def test_balanced_accuracy_examples():
    assert balanced_accuracy([0, 1, 2], [0, 1, 2], 3) == 1.0
    # recalls (1.0, 0.5) on a 4-sample vector
    assert balanced_accuracy([0, 0, 1, 0], [0, 0, 1, 1], 2) == pytest.approx(0.75)
    # constant predictor over balanced classes
    preds = [0] * 30
    labels = [0] * 10 + [1] * 10 + [2] * 10
    assert balanced_accuracy(preds, labels, 3) == pytest.approx(1 / 3)


def test_balanced_accuracy_excludes_absent_classes():
    assert balanced_accuracy([0, 1], [0, 1], 5) == 1.0


def test_balanced_accuracy_relabel_invariant():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 4, 50)
    preds = rng.integers(0, 4, 50)
    perm = np.array([2, 0, 3, 1])
    a = balanced_accuracy(preds, labels, 4)
    assert balanced_accuracy(perm[preds], perm[labels], 4) == pytest.approx(a, abs=1e-12)


# ---------------------------------------------------------------------------
# quadratic weighted kappa
# ---------------------------------------------------------------------------

def test_kappa_identity_and_reversal():
    assert quadratic_weighted_kappa([0, 1, 2], [0, 1, 2], 3) == 1.0
    assert quadratic_weighted_kappa([2, 1, 0], [0, 1, 2], 3) == pytest.approx(-1.0)


def test_kappa_degenerate_agreement():
    assert quadratic_weighted_kappa([1, 1, 1], [1, 1, 1], 3) == 1.0


def test_kappa_random_permutation_near_zero():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 4, 4000)
    preds = rng.permutation(labels)
    assert abs(quadratic_weighted_kappa(preds, labels, 4)) < 0.05


def test_kappa_symmetric():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 5, 60)
    preds = rng.integers(0, 5, 60)
    assert quadratic_weighted_kappa(preds, labels, 5) == pytest.approx(
        quadratic_weighted_kappa(labels, preds, 5), abs=1e-12)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_identical_records_zero_std():
    labels = np.array([0, 1] * 10)
    preds = labels.copy()
    fn = lambda y, v: (y == v).mean(axis=-1)
    mean, std, skipped = bootstrap(labels, preds, fn, n_bootstrap=200, seed=0)
    assert mean == 1.0 and std == 0.0 and skipped == 0


def test_bootstrap_deterministic():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 50)
    scores = rng.random(50)
    fn = lambda y, v: auroc(v, y)
    assert bootstrap(labels, scores, fn, 300, seed=42) == bootstrap(labels, scores, fn, 300, seed=42)


def test_bootstrap_accuracy_std_matches_binomial():
    rng = np.random.default_rng(2)
    labels = np.zeros(100, dtype=int)
    preds = (rng.random(100) < 0.5).astype(int)  # ~Bernoulli(0.5) accuracy
    fn = lambda y, v: (y == v).mean(axis=-1)
    _, std, _ = bootstrap(labels, preds, fn, n_bootstrap=1000, seed=3)
    assert abs(std - 0.05) < 0.015


def test_bootstrap_skips_degenerate_resamples():
    labels = np.array([1] * 19 + [0])
    scores = np.linspace(0, 1, 20)
    fn = lambda y, v: auroc(v, y)
    mean, std, skipped = bootstrap(labels, scores, fn, n_bootstrap=500, seed=5)
    assert skipped > 0
    assert 0.0 <= mean <= 1.0


def test_bootstrap_needs_two_records():
    with pytest.raises(DataError):
        bootstrap(np.array([1]), np.array([0.5]), lambda y, v: 1.0)


def test_evaluate_records_json_round_trip():
    res = evaluate_records("auroc", 2, ["a", "b", "c", "d"], [0, 1, 0, 1],
                           [0.1, 0.9, 0.3, 0.7], n_bootstrap=100, seed=0,
                           context={"arch": "abmil"})
    from miltransfer.metrics import EvalResult
    back = EvalResult.from_json(res.to_json())
    assert back.value == res.value
    assert back.metric_name == "auroc"
    assert back.context["arch"] == "abmil"


# ---------------------------------------------------------------------------
# batched bootstrap against the per-resample reference
# ---------------------------------------------------------------------------
# The reference is the per-record, per-resample implementation the batched
# kernels replaced.  All three metrics must match it bitwise: AUROC ranks are
# exact half-integers, recalls and kappa terms are formed by the same
# elementwise operations, and each row's sum runs over the same values in
# the same order as the reference's one-dimensional sum.

def _ref_auroc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auroc needs both classes present")
    r_pos = rankdata(scores)[labels == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _ref_balanced_accuracy(preds, labels, n_classes):
    recalls = [float((preds[labels == c] == c).mean())
               for c in range(n_classes) if (labels == c).any()]
    return float(np.mean(recalls))


def _ref_kappa(preds, labels, n_classes):
    observed = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(labels, preds):
        observed[int(t), int(p)] += 1
    observed = observed.astype(np.float64)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    idx = np.arange(n_classes, dtype=np.float64)
    w = (idx[:, None] - idx[None, :]) ** 2 / (n_classes - 1) ** 2
    denom = float((w * expected).sum())
    if denom == 0.0:
        return 1.0
    return float(1.0 - (w * observed).sum() / denom)


def _ref_bootstrap(labels, values, fn, n_bootstrap, seed):
    labels, values = np.asarray(labels), np.asarray(values)
    rng = np.random.default_rng(seed)
    n = labels.shape[0]
    stats, skipped = [], 0
    for _ in range(n_bootstrap):
        idx = rng.integers(0, n, size=n)
        try:
            stats.append(fn(labels[idx], values[idx]))
        except UndefinedMetricError:
            skipped += 1
    if not stats:
        raise UndefinedMetricError("every bootstrap resample was degenerate")
    arr = np.asarray(stats)
    return float(arr.mean()), float(arr.std()), skipped


def _same_outcome(batched, reference):
    """Both calls return bitwise-equal tuples, or both find every resample undefined."""
    try:
        want = reference()
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            batched()
        return
    assert batched() == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 60), levels=st.integers(1, 6),
       p_pos=st.sampled_from([0.03, 0.5, 0.97]), n_boot=st.integers(1, 400))
def test_bootstrap_auroc_matches_reference(seed, n, levels, p_pos, n_boot):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < p_pos).astype(np.int64)
    scores = rng.integers(0, levels, n) / levels  # heavy ties
    _same_outcome(lambda: bootstrap(labels, scores, lambda y, v: auroc(v, y), n_boot, seed),
                  lambda: _ref_bootstrap(labels, scores, lambda y, v: _ref_auroc(v, y),
                                         n_boot, seed))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 80), n_classes=st.integers(2, 16),
       n_boot=st.integers(1, 300), data=st.data())
def test_bootstrap_balanced_accuracy_matches_reference(seed, n, n_classes, n_boot, data):
    rng = np.random.default_rng(seed)
    used = data.draw(st.integers(1, n_classes))  # classes above `used` stay absent
    labels = rng.integers(0, used, n)
    preds = np.where(rng.random(n) < 0.6, labels, rng.integers(0, n_classes, n))
    ba = lambda y, v: balanced_accuracy(v, y, n_classes)
    ref = lambda y, v: _ref_balanced_accuracy(v, y, n_classes)
    assert ba(labels, preds) == ref(labels, preds)
    assert bootstrap(labels, preds, ba, n_boot, seed) == _ref_bootstrap(
        labels, preds, ref, n_boot, seed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 80), n_classes=st.integers(2, 9),
       n_boot=st.integers(1, 300), constant=st.booleans())
def test_bootstrap_kappa_matches_reference(seed, n, n_classes, n_boot, constant):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, n)
    preds = np.clip(labels + rng.integers(-1, 2, n), 0, n_classes - 1)
    if constant:  # zero expected disagreement in every resample
        labels[:] = labels[0]
        preds[:] = preds[0]
    qwk = lambda y, v: quadratic_weighted_kappa(v, y, n_classes)
    ref = lambda y, v: _ref_kappa(v, y, n_classes)
    assert qwk(labels, preds) == ref(labels, preds)
    assert bootstrap(labels, preds, qwk, n_boot, seed) == _ref_bootstrap(
        labels, preds, ref, n_boot, seed)


def test_bootstrap_blocks_draw_the_per_resample_stream(monkeypatch):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 7)
    scores = rng.random(7)
    seen = []
    fn = lambda y, v: (seen.append(v) or auroc(v, y))
    monkeypatch.setattr(metrics, "_BLOCK_ELEMS", 3 * 7)  # blocks of 3 resamples
    got = bootstrap(labels, scores, fn, 10, seed=4)
    assert [block.shape[0] for block in seen] == [3, 3, 3, 1]
    stream = np.random.default_rng(4)
    want = np.stack([scores[stream.integers(0, 7, size=7)] for _ in range(10)])
    assert np.array_equal(np.concatenate(seen), want)
    assert got == _ref_bootstrap(labels, scores, lambda y, v: _ref_auroc(v, y), 10, 4)


def test_two_record_one_class_is_undefined():
    with pytest.raises(UndefinedMetricError):
        evaluate_records("auroc", 2, ["a", "b"], [1, 1], [0.2, 0.7], n_bootstrap=50)
    with pytest.raises(UndefinedMetricError):
        bootstrap(np.array([1, 1]), np.array([0.2, 0.7]), lambda y, v: auroc(v, y), 50)


def test_bootstrap_fn_wrong_shape_is_data_error():
    labels = np.array([0, 1, 0, 1])
    preds = np.array([0, 1, 1, 1])
    with pytest.raises(DataError):
        bootstrap(labels, preds, lambda y, v: float((y == v).mean()), 20)
    with pytest.raises(DataError):
        bootstrap(labels, preds, lambda y, v: y == v, 20)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_records_rejects_non_finite_values(bad):
    with pytest.raises(NumericError):
        evaluate_records("auroc", 2, list("abcd"), [0, 1, 0, 1], [0.1, bad, 0.3, 0.7],
                         n_bootstrap=10)
