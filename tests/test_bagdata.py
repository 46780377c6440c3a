import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from miltransfer import bagdata
from miltransfer.bagdata import (
    DatasetManifest,
    ManifestEntry,
    SynthTaskConfig,
    TaskSpec,
    concept_prototypes,
    fewshot_sample,
    load_manifest,
    read_feature_file,
    synth_generate,
    weighted_epoch_order,
    write_feature_file,
)
from miltransfer.errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DimensionOverflowError,
    TruncatedPayloadError,
)
from miltransfer.metrics import auroc


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def test_single_value_file_layout(tmp_path):
    path = tmp_path / "one.milf"
    write_feature_file(np.array([[0.0]], dtype=np.float32), path)
    data = path.read_bytes()
    # 13-byte header + 16 bytes dims + 4 bytes payload
    assert len(data) == 33
    assert data[:4] == b"MILF"
    assert data[4] == 1
    assert data[5:13] == b"\x00" * 8
    assert read_feature_file(path).tolist() == [[0.0]]


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((17, 9)).astype(np.float32)
    path = tmp_path / "m.milf"
    write_feature_file(m, path)
    back = read_feature_file(path)
    assert back.dtype == np.float32
    assert np.array_equal(back.view(np.uint32), m.view(np.uint32))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_round_trip_property(tmp_path_factory, n, d, seed):
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8)).astype(np.float32)
    path = tmp_path_factory.mktemp("prop") / "m.milf"
    write_feature_file(m, path)
    assert np.array_equal(read_feature_file(path).view(np.uint32), m.view(np.uint32))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.milf"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(BadMagicError):
        read_feature_file(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.milf"
    write_feature_file(np.ones((4, 4), dtype=np.float32), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(TruncatedPayloadError):
        read_feature_file(path)


def test_dimension_overflow(tmp_path):
    import struct
    path = tmp_path / "huge.milf"
    header = b"MILF" + bytes([1]) + b"\x00" * 8 + struct.pack("<QQ", 2**62, 2**62)
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(DimensionOverflowError):
        read_feature_file(path)


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(DataError):
        write_feature_file(np.array([[np.nan]], dtype=np.float32), tmp_path / "x.milf")


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def write_csv(path, rows):
    lines = ["bag_id,path,label,split"] + [",".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_manifest_basic(tmp_path):
    csv = tmp_path / "manifest.csv"
    write_csv(csv, [("a", "a.milf", 0, "train"), ("b", "b.milf", 1, "train"),
                    ("c", "c.milf", 0, "test")])
    m = load_manifest(csv)
    assert len(m.split("train")) == 2
    assert m.task.n_classes == 2
    assert m.task.metric == "auroc"


def test_load_manifest_duplicate_bag_id(tmp_path):
    csv = tmp_path / "manifest.csv"
    write_csv(csv, [("a", "a.milf", 0, "train"), ("a", "b.milf", 1, "train")])
    with pytest.raises(DataError, match="duplicate"):
        load_manifest(csv)


def test_load_manifest_label_out_of_range(tmp_path):
    csv = tmp_path / "manifest.csv"
    write_csv(csv, [("a", "a.milf", 0, "train"), ("b", "b.milf", 2, "train")])
    task = TaskSpec("t", 2, ("neg", "pos"), "auroc")
    with pytest.raises(DataError, match="out of range"):
        load_manifest(csv, task)


def test_load_manifest_requires_train(tmp_path):
    csv = tmp_path / "manifest.csv"
    write_csv(csv, [("a", "a.milf", 0, "test"), ("b", "b.milf", 1, "test")])
    with pytest.raises(DataError, match="no train"):
        load_manifest(csv)


def test_missing_feature_file_reported_lazily(tmp_path):
    csv = tmp_path / "manifest.csv"
    write_csv(csv, [("a", "missing.milf", 0, "train"), ("b", "b.milf", 1, "train")])
    m = load_manifest(csv)  # no error at load time
    with pytest.raises(DataError, match="missing"):
        m.load_features(m.entries[0])


def test_taskspec_validation():
    with pytest.raises(ConfigError):
        TaskSpec("t", 3, ("a", "b", "c"), "auroc")  # auroc needs 2 classes
    with pytest.raises(ConfigError):
        TaskSpec("t", 2, ("a",), "auroc")  # wrong name count


def test_bag_type_and_load(tmp_path):
    x = np.ones((3, 4), dtype=np.float32)
    csv = tmp_path / "manifest.csv"
    write_feature_file(x, tmp_path / "b0.milf")
    write_csv(csv, [("b0", "b0.milf", 1, "train"), ("b1", "b0.milf", 0, "train")])
    m = load_manifest(csv)
    loaded = m.load_features(m.entries[0])
    assert loaded.dtype == np.float32 and loaded.tobytes() == x.tobytes()
    assert loaded.shape == (3, 4)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def make_manifest(counts, n_val=0, n_test=0):
    entries = []
    for c, n in enumerate(counts):
        for i in range(n):
            entries.append(ManifestEntry(f"c{c}_{i}", f"c{c}_{i}.milf", c, "train"))
    for i in range(n_val):
        entries.append(ManifestEntry(f"v{i}", f"v{i}.milf", 0, "val"))
    for i in range(n_test):
        entries.append(ManifestEntry(f"t{i}", f"t{i}.milf", 0, "test"))
    n_classes = len(counts)
    task = TaskSpec("toy", n_classes, tuple(f"class_{c}" for c in range(n_classes)),
                    "auroc" if n_classes == 2 else "balanced_accuracy")
    return DatasetManifest(task=task, entries=tuple(entries))


def test_fewshot_counts_and_purity():
    m = make_manifest([10, 12], n_val=3, n_test=4)
    sub = fewshot_sample(m, 4, seed=7)
    train = sub.split("train")
    assert len(train) == 8
    for c in range(2):
        assert sum(1 for e in train if e.label == c) == 4
    assert len(sub.split("val")) == 3 and len(sub.split("test")) == 4
    again = fewshot_sample(m, 4, seed=7)
    assert [e.bag_id for e in again.split("train")] == [e.bag_id for e in train]
    assert len({e.bag_id for e in train}) == 8


def test_fewshot_full_class_is_permutation():
    m = make_manifest([5, 5])
    sub = fewshot_sample(m, 5, seed=0)
    assert {e.bag_id for e in sub.split("train")} == {e.bag_id for e in m.split("train")}


def test_fewshot_insufficient_class_named():
    m = make_manifest([10, 3])
    with pytest.raises(DataError, match="class_1"):
        fewshot_sample(m, 4, seed=0)


def test_weighted_order_balances_classes():
    m = make_manifest([90, 10])
    order = weighted_epoch_order(m, 10_000, seed=5)
    n1 = sum(1 for b in order if b.startswith("c1"))
    # 3 sigma of Binomial(10000, 0.5)
    assert abs(n1 - 5000) <= 300
    # chi-square uniformity over classes at p > 0.001
    n0 = len(order) - n1
    chi2 = (n0 - 5000) ** 2 / 5000 + (n1 - 5000) ** 2 / 5000
    assert stats.chi2.sf(chi2, df=1) > 0.001


def test_weighted_order_single_class_uniform():
    entries = [ManifestEntry(f"b{i}", f"b{i}.milf", 0, "train") for i in range(5)]
    entries.append(ManifestEntry("b5", "b5.milf", 1, "train"))
    task = TaskSpec("t", 2, ("a", "b"), "auroc")
    m = DatasetManifest(task=task, entries=tuple(entries))
    order = weighted_epoch_order(m, 4000, seed=1)
    counts = {b: order.count(b) for b in {e.bag_id for e in entries[:5]}}
    # each of the 5 class-0 bags gets ~2000/5 = 400 draws
    for c in counts.values():
        assert 300 < c < 500


def test_weighted_order_deterministic():
    m = make_manifest([4, 4])
    assert weighted_epoch_order(m, 64, seed=9) == weighted_epoch_order(m, 64, seed=9)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def synth_cfg(**kw):
    base = dict(task_id="syn", feat_dim=12, n_concepts=6,
                concepts_per_class=((0,), (1,)), witness_rate=0.5,
                bag_size_range=(6, 10), noise_sigma=0.1, n_bags_per_class=10, seed=3)
    base.update(kw)
    return SynthTaskConfig(**base)


def test_zero_noise_witnesses_equal_prototype(tmp_path):
    cfg = synth_cfg(witness_rate=1.0, noise_sigma=0.0)
    m = synth_generate(cfg, tmp_path)
    protos = concept_prototypes(cfg.feat_dim, cfg.n_concepts, cfg.seed).astype(np.float32)
    for e in m.entries[:5]:
        x = m.load_features(e)
        target = protos[cfg.concepts_per_class[e.label][0]]
        assert np.allclose(x, target[None, :], atol=1e-6)


def test_bag_count(tmp_path):
    m = synth_generate(synth_cfg(n_bags_per_class=20), tmp_path)
    assert len(m.entries) == 40


def test_reproducible_bitwise(tmp_path):
    m1 = synth_generate(synth_cfg(), tmp_path / "a")
    m2 = synth_generate(synth_cfg(), tmp_path / "b")
    for e1, e2 in zip(m1.entries, m2.entries):
        x1, x2 = m1.load_features(e1), m2.load_features(e2)
        assert np.array_equal(x1.view(np.uint32), x2.view(np.uint32))


def test_shared_family_prototypes():
    a = concept_prototypes(12, 6, seed=3)
    b = concept_prototypes(12, 6, seed=3)
    assert np.array_equal(a, b)
    # orthonormal when feat_dim >= n_concepts
    assert np.allclose(a @ a.T, np.eye(6), atol=1e-10)
    # more concepts than dimensions: unit-norm rows, the same for the same seed
    c = concept_prototypes(4, 9, seed=3)
    assert c.shape == (9, 4)
    assert np.allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(c, concept_prototypes(4, 9, seed=3))
    assert not np.array_equal(c, concept_prototypes(4, 9, seed=4))


def test_config_validation():
    with pytest.raises(ConfigError):
        synth_cfg(concepts_per_class=((0,), (0,)))  # identical subsets
    with pytest.raises(ConfigError):
        synth_cfg(witness_rate=0.0)
    with pytest.raises(ConfigError):
        synth_cfg(concepts_per_class=((0,), (9,)))  # concept out of range
    with pytest.raises(ConfigError):
        synth_cfg(witness_rate=0.05, bag_size_range=(6, 10))  # 0.05*6 < 1


def test_background_required_when_witness_below_one(tmp_path):
    cfg = synth_cfg(n_concepts=2, concepts_per_class=((0,), (1,)), witness_rate=0.5)
    with pytest.raises(ConfigError, match="background"):
        synth_generate(cfg, tmp_path)


def test_bayes_oracle_auroc(tmp_path):
    """Nearest-prototype vote on raw instances separates classes nearly
    perfectly at low noise with orthogonal prototypes (brute-force scoring,
    independent of any model code)."""
    cfg = synth_cfg(task_id="oracle", feat_dim=16, n_concepts=8,
                    concepts_per_class=((0,), (1,)), witness_rate=0.4,
                    bag_size_range=(8, 14), noise_sigma=0.1,
                    n_bags_per_class=40, seed=21)
    m = synth_generate(cfg, tmp_path)
    protos = concept_prototypes(cfg.feat_dim, cfg.n_concepts, cfg.seed)
    p0, p1 = protos[0], protos[1]
    scores, labels = [], []
    for e in m.entries:
        x = m.load_features(e).astype(np.float64)
        d0 = ((x - p0) ** 2).sum(axis=1)
        d1 = ((x - p1) ** 2).sum(axis=1)
        # fraction of instances voting for class 1 among witness-like votes
        scores.append(float((d1 < d0).mean()))
        labels.append(e.label)
    assert auroc(np.array(scores), np.array(labels)) >= 0.99
