import math
import struct
import tracemalloc
from dataclasses import replace

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
    synth_bag,
    synth_generate,
    weighted_epoch_order,
    write_feature_file,
    write_feature_pack,
    write_manifest,
)
from miltransfer.errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DimensionOverflowError,
    FeatureFormatError,
    TruncatedPayloadError,
)
from miltransfer.metrics import auroc
from miltransfer.training import load_split_features


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


def test_read_feature_files_are_views_of_one_buffer(tmp_path):
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal(shape).astype(np.float32) for shape in ((3, 4), (1, 7), (5, 2))]
    paths = [tmp_path / f"{i}.milf" for i in range(len(mats))]
    for m, path in zip(mats, paths):
        write_feature_file(m, path)
    back = bagdata.read_feature_files(paths)
    assert all(x.base is back[0].base for x in back)
    for x, path in zip(back, paths):
        assert x.shape == read_feature_file(path).shape
        assert x.tobytes() == read_feature_file(path).tobytes()


def test_feature_file_changed_while_read_is_data_error(tmp_path, monkeypatch):
    path = tmp_path / "a.milf"
    write_feature_file(np.ones((2, 3), dtype=np.float32), path)
    read_index = bagdata.read_feature_index

    def index_then_grow(p):  # a row grows after the index has sized the cache
        index = read_index(p)
        write_feature_file(np.ones((3, 3), dtype=np.float32), path)
        return index

    monkeypatch.setattr(bagdata, "read_feature_index", index_then_grow)
    with pytest.raises(DataError, match="changed while it was read"):
        bagdata.read_feature_files([path])


# a 3-bag pack of 3 features: ids a, b and c hold 2, 1 and 3 rows
PACK_ROWS = {"a": 2, "b": 1, "c": 3}


def write_pack(path):
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((n, 3)).astype(np.float32) for n in PACK_ROWS.values()]
    write_feature_pack(list(PACK_ROWS), mats, path)
    return mats


def test_pack_layout_and_round_trip(tmp_path):
    path = tmp_path / "p.milf"
    mats = write_pack(path)
    data = path.read_bytes()
    assert data[:13] == b"MILF\x03" + b"\x00" * 8
    assert struct.unpack_from("<QQ", data, 13) == (3, 3)
    at = 29
    for bag_id, rows in PACK_ROWS.items():
        assert struct.unpack_from("<QQ", data, at) == (rows, 1)
        assert data[at + 16:at + 17] == bag_id.encode()
        at += 17
    assert at == _record(3) == 80  # the index ends; zero padding to the next multiple of 64
    assert data[at:128] == b"\x00" * 48
    assert data[128:] == b"".join(m.astype("<f4").tobytes() for m in mats)
    for bag_id, m in zip(PACK_ROWS, mats):
        back = read_feature_file(path, bag_id)
        assert back.dtype == np.float32 and back.tobytes() == m.tobytes()
        assert back.shape == m.shape


def payload_offset(data: bytes) -> int:
    """Where the rows of the pack ``data`` begin, found by walking its
    index; checks that only zero bytes pad the index to that offset."""
    at = 29
    for _ in range(struct.unpack_from("<Q", data, 13)[0]):
        at += 16 + struct.unpack_from("<Q", data, at + 8)[0]
    end = at + -at % 64
    assert data[at:end] == b"\x00" * (end - at)
    return end


@pytest.mark.parametrize("feat_dim", [32, 1024])
def test_generated_pack_is_version_3_with_aligned_rows(tmp_path, feat_dim):
    manifest = synth_generate(synth_cfg(feat_dim=feat_dim, n_bags_per_class=5), tmp_path)
    data = (tmp_path / "features.milf").read_bytes()
    assert data[4] == 3
    offset = payload_offset(data)
    assert offset % 64 == 0 and offset > 29
    features = load_split_features(manifest)
    assert len(data) - offset == sum(x.nbytes for x in features.values())
    rows = b"".join(features[e.bag_id].tobytes() for e in manifest.entries)
    assert data[offset:] == rows


def write_version_2_pack(bag_ids, mats, path):
    """A version-2 pack, which ``write_feature_pack`` no longer writes: the
    version-3 layout without the padding after the index."""
    header = b"MILF\x02" + b"\x00" * 8 + struct.pack("<QQ", len(mats), mats[0].shape[1])
    index = b"".join(struct.pack("<QQ", len(m), len(i.encode())) + i.encode()
                     for i, m in zip(bag_ids, mats))
    path.write_bytes(header + index + b"".join(m.astype("<f4").tobytes() for m in mats))


def test_version_2_pack_loads_bit_for_bit(tmp_path):
    mats = write_pack(tmp_path / "v3.milf")
    write_version_2_pack(list(PACK_ROWS), mats, tmp_path / "v2.milf")
    back = bagdata.read_feature_files([tmp_path / "v2.milf"] * 3, list(PACK_ROWS))
    assert [x.tobytes() for x in back] == [m.tobytes() for m in mats]
    assert [x.shape for x in back] == [m.shape for m in mats]
    # copied out of the unaligned file into one buffer, like version-1 files
    assert all(x.base is back[0].base and isinstance(x.base, np.ndarray) for x in back)
    assert not any(x.flags.writeable for x in back)
    v3 = bagdata.read_feature_files([tmp_path / "v3.milf"] * 3, list(PACK_ROWS))
    assert [x.tobytes() for x in back] == [x.tobytes() for x in v3]


def _record(i):
    """The byte offset of index record ``i`` in a ``write_pack`` pack."""
    return 29 + 17 * i


def _put(data: bytes, at: int, new: bytes) -> bytes:
    return data[:at] + new + data[at + len(new):]


# case -> (a ``write_pack`` pack's bytes -> the malformed bytes, the bag ids
# that manifest rows name, the error's class, what it names beside the file)
PACK_DEFECTS = {
    "truncated_in_header": (lambda d: d[:20], "abc", TruncatedPayloadError, ""),
    "truncated_in_index": (lambda d: d[:_record(2) + 7], "abc", TruncatedPayloadError, ""),
    "truncated_in_payload": (lambda d: d[:-4], "abc", TruncatedPayloadError, "bag 'c'"),
    "appended_bytes": (lambda d: d + b"\x00" * 4, "abc", TruncatedPayloadError,
                       "expected exactly"),
    "duplicate_bag_id": (lambda d: _put(d, _record(1) + 16, b"a"), "abc", FeatureFormatError,
                         "bag 'a'"),
    "bag_id_not_utf8": (lambda d: _put(d, _record(2) + 16, b"\xff"), "abc", FeatureFormatError,
                        "index record 2"),
    "rows_2_62": (lambda d: _put(d, _record(1), struct.pack("<Q", 2**62)), "abc",
                  DimensionOverflowError, "bag 'b'"),
    "bag_not_in_pack": (lambda d: d, "abz", DataError, "bag 'z'"),
    "padding_not_zero": (lambda d: _put(d, _record(3) + 5, b"\x01"), "abc", FeatureFormatError,
                         "padding"),
}


def write_malformed_pack(task_dir, case):
    """A task directory whose ``manifest.csv`` names the bags of ``case``'s
    pack; returns the pack's path."""
    corrupt, ids, _, _ = PACK_DEFECTS[case]
    path = task_dir / "features.milf"
    write_pack(path)
    path.write_bytes(corrupt(path.read_bytes()))
    write_csv(task_dir / "manifest.csv",
              [(bag_id, "features.milf", i % 2, "train") for i, bag_id in enumerate(ids)])
    return path


@pytest.mark.parametrize("case", sorted(PACK_DEFECTS))
def test_malformed_pack_names_the_file_and_bag(tmp_path, case):
    path = write_malformed_pack(tmp_path, case)
    manifest = load_manifest(tmp_path / "manifest.csv")
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as info:
            load_split_features(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, _, error, named = PACK_DEFECTS[case]
    assert type(info.value) is error
    assert str(path) in str(info.value) and named in str(info.value)
    assert peak < 1 << 20  # refused from the index, before the cache is allocated


def test_every_truncation_of_a_pack_is_a_format_error(tmp_path):
    path = tmp_path / "p.milf"
    write_pack(path)
    data = path.read_bytes()
    assert data[4] == 3
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(FeatureFormatError, match=str(path)):
            bagdata.read_feature_files([path] * 3, list(PACK_ROWS))


def _generated_pack_and_v1_files(root):
    """A generated task, and a manifest of the same rows whose bags were
    written from the same ``synth_bag`` outputs as one version-1 file each."""
    cfg = synth_cfg(n_bags_per_class=6)
    pack = synth_generate(cfg, root / "pack")
    protos = concept_prototypes(cfg.feat_dim, cfg.n_concepts, cfg.seed)
    (root / "v1").mkdir()
    entries = []
    for e in pack.entries:
        write_feature_file(synth_bag(cfg, protos, e.label, int(e.bag_id[-4:])),
                           root / "v1" / f"{e.bag_id}.milf")
        entries.append(ManifestEntry(e.bag_id, f"{e.bag_id}.milf", e.label, e.split))
    write_manifest(pack.with_entries(entries), root / "v1" / "manifest.csv")
    return pack, load_manifest(root / "v1" / "manifest.csv")


def _cache_bytes(features):
    return {bag_id: (x.shape, x.tobytes()) for bag_id, x in features.items()}


def file_map(x):
    """The mapped file that the array ``x`` is a view of."""
    while isinstance(x, np.ndarray):
        x = x.base
    return x.obj


def test_pack_cache_equals_per_bag_files_cache(tmp_path):
    pack, v1 = _generated_pack_and_v1_files(tmp_path)
    assert {e.path for e in pack.entries} == {"features.milf"}
    from_pack, from_v1 = load_split_features(pack), load_split_features(v1)
    assert list(from_pack) == list(from_v1)
    assert _cache_bytes(from_pack) == _cache_bytes(from_v1)
    # the version-1 rows are copied into one buffer, in cache order; the
    # pack's bags, views of its one map, hold the same bytes in that order
    v1_bags, pack_bags = list(from_v1.values()), list(from_pack.values())
    assert all(x.base is v1_bags[0].base for x in v1_bags)
    assert v1_bags[0].base.tobytes() == b"".join(x.tobytes() for x in pack_bags)
    assert all(file_map(x) is file_map(pack_bags[0]) for x in pack_bags)
    for e in pack.entries:
        assert pack.load_features(e).tobytes() == from_v1[e.bag_id].tobytes()


def test_manifest_may_mix_packs_and_per_bag_files(tmp_path):
    pack, v1 = _generated_pack_and_v1_files(tmp_path)
    mixed = [e if i % 2 else replace(e, path=str(tmp_path / "pack" / "features.milf"))
             for i, e in enumerate(v1.entries)]
    write_manifest(v1.with_entries(mixed), tmp_path / "v1" / "mixed.csv")
    mixed = load_manifest(tmp_path / "v1" / "mixed.csv")
    assert len({mixed.feature_path(e) for e in mixed.entries}) == len(mixed.entries) // 2 + 1
    assert _cache_bytes(load_split_features(mixed)) == _cache_bytes(load_split_features(pack))


def test_manifest_may_mix_all_three_layouts(tmp_path):
    pack, v1 = _generated_pack_and_v1_files(tmp_path)
    features = load_split_features(pack)
    write_version_2_pack(list(features), list(features.values()), tmp_path / "v2.milf")
    mixed = [replace(e, path=[str(tmp_path / "pack" / "features.milf"), e.path,
                              str(tmp_path / "v2.milf")][i % 3])
             for i, e in enumerate(v1.entries)]
    write_manifest(v1.with_entries(mixed), tmp_path / "v1" / "mixed.csv")
    mixed = load_manifest(tmp_path / "v1" / "mixed.csv")
    assert _cache_bytes(load_split_features(mixed)) == _cache_bytes(features)


def test_pack_cache_holds_no_private_copy(tmp_path):
    cfg = synth_cfg(feat_dim=1024, n_bags_per_class=40, bag_size_range=(24, 40),
                    witness_rate=1.0)
    manifest = synth_generate(cfg, tmp_path)
    assert (tmp_path / "features.milf").stat().st_size >= 8 << 20
    tracemalloc.start()
    try:
        features = load_split_features(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    mapped = file_map(next(iter(features.values())))
    whole = np.frombuffer(mapped, np.uint8)
    for x in features.values():
        assert not x.flags.writeable and file_map(x) is mapped
        assert np.shares_memory(x, whole)
    with pytest.raises(ValueError):
        x[0, 0] = 0.0


def test_held_cache_keeps_its_values_when_the_task_is_generated_again(tmp_path):
    cfg = synth_cfg(n_bags_per_class=6)
    manifest = synth_generate(cfg, tmp_path)
    held = load_split_features(manifest)
    before = _cache_bytes(held)
    again = synth_generate(replace(cfg, seed=cfg.seed + 1), tmp_path)
    assert _cache_bytes(held) == before
    fresh = load_split_features(again)
    assert list(fresh) == list(held) and _cache_bytes(fresh) != before
    protos = concept_prototypes(cfg.feat_dim, cfg.n_concepts, cfg.seed + 1)
    for e in again.entries:
        want = synth_bag(replace(cfg, seed=cfg.seed + 1), protos, e.label, int(e.bag_id[-4:]))
        assert fresh[e.bag_id].tobytes() == want.tobytes()


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


def test_inferred_task_is_named_after_its_directory(tmp_path, monkeypatch):
    csv = tmp_path / "src16" / "manifest.csv"
    csv.parent.mkdir()
    write_csv(csv, [("a", "a.milf", 0, "train"), ("b", "b.milf", 1, "train")])
    assert load_manifest(csv).task.task_id == "src16"
    monkeypatch.chdir(csv.parent)
    assert load_manifest("manifest.csv").task.task_id == "src16"


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


def _non_utf8_manifest(tmp_path):
    (tmp_path / "manifest.csv").write_bytes(b"bag_id,path,label,split\n\xff,a.milf,0,train\n")
    return lambda: load_manifest(tmp_path / "manifest.csv")


def _oversized_manifest_field(tmp_path):
    write_csv(tmp_path / "manifest.csv", [('"' + "x" * 200_000 + '"', "a.milf", 0, "train")])
    return lambda: load_manifest(tmp_path / "manifest.csv")


def _feature_path_with_nul(tmp_path):
    write_csv(tmp_path / "manifest.csv",
              [("a", "a\0b.milf", 0, "train"), ("b", "b.milf", 1, "train")])
    m = load_manifest(tmp_path / "manifest.csv")
    return lambda: m.load_features(m.entries[0])


def _cached_feature_path_with_nul(tmp_path):
    return lambda: bagdata.read_feature_files([tmp_path / "a\0b.milf"])


def _feature_path_is_a_directory(tmp_path):
    write_csv(tmp_path / "manifest.csv",
              [("a", "bags", 0, "train"), ("b", "b.milf", 1, "train")])
    (tmp_path / "bags").mkdir()
    m = load_manifest(tmp_path / "manifest.csv")
    return lambda: m.load_features(m.entries[0])


def _manifest_labelled(label):
    """A manifest whose second label is ``label``, which ``int()`` would take."""
    def make(tmp_path):
        (tmp_path / "manifest.csv").write_bytes(
            f"bag_id,path,label,split\na,a.milf,0,train\nb,b.milf,{label},train\n".encode())
        return lambda: load_manifest(tmp_path / "manifest.csv")
    return make


def _malformed_pack(case):
    def make(tmp_path):
        write_malformed_pack(tmp_path, case)
        m = load_manifest(tmp_path / "manifest.csv")
        return lambda: [m.load_features(e) for e in m.entries]
    return make


# case -> a reader of an input that cannot be read or decoded, given tmp_path
UNREADABLE_INPUTS = {
    "manifest_label_plus_sign": _manifest_labelled("+1"),
    "manifest_label_underscore": _manifest_labelled("0_1"),
    "manifest_label_arabic_indic_digit": _manifest_labelled("\u0661"),
    "manifest_not_utf8": _non_utf8_manifest,
    "manifest_field_over_csv_limit": _oversized_manifest_field,
    "feature_path_is_a_directory": _feature_path_is_a_directory,
    "feature_path_with_nul": _feature_path_with_nul,
    "cached_feature_path_with_nul": _cached_feature_path_with_nul,
    **{f"pack_{case}": _malformed_pack(case) for case in PACK_DEFECTS},
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_inputs_are_data_errors(tmp_path, case):
    read = UNREADABLE_INPUTS[case](tmp_path)
    with pytest.raises(DataError):
        read()


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


def test_background_required_when_witness_below_one():
    # refused when the config is built, before any bag or directory is made
    with pytest.raises(ConfigError, match="background"):
        synth_cfg(n_concepts=2, concepts_per_class=((0,), (1,)), witness_rate=0.5)
    synth_cfg(n_concepts=2, concepts_per_class=((0,), (1,)), witness_rate=1.0)


def test_task_path_holding_a_file_is_a_config_error(tmp_path):
    (tmp_path / "syn").write_bytes(b"previous")
    with pytest.raises(ConfigError, match="cannot create directory .*syn"):
        synth_generate(synth_cfg(), tmp_path / "syn")
    assert (tmp_path / "syn").read_bytes() == b"previous"


def _reference_synth_bag(cfg, protos, label, bag_index):
    """``synth_bag`` as one out-of-place expression, cast after the gather."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA6, label, bag_index]))
    lo, hi = cfg.bag_size_range
    size = int(rng.integers(lo, hi + 1))
    n_wit = math.ceil(cfg.witness_rate * size)
    concept_ids = np.concatenate([
        rng.choice(np.array(cfg.concepts_per_class[label]), size=n_wit, replace=True),
        rng.choice(np.array(cfg.background_concepts()), size=size - n_wit, replace=True)
        if size > n_wit else np.array([], dtype=np.int64),
    ])
    x = protos[concept_ids] + cfg.noise_sigma * rng.standard_normal((size, cfg.feat_dim))
    x = x[rng.permutation(size)]
    return x.astype(np.float32)


@pytest.mark.parametrize("kw", [{}, dict(witness_rate=1.0, noise_sigma=0.0),
                                dict(feat_dim=4, n_concepts=9, noise_sigma=2.5, seed=11),
                                dict(feat_dim=1024, noise_sigma=0.3 / 32, bag_size_range=(1, 48),
                                     witness_rate=1.0)])
def test_synth_bag_matches_reference_bitwise(kw):
    cfg = synth_cfg(**kw)
    protos = concept_prototypes(cfg.feat_dim, cfg.n_concepts, cfg.seed)
    for label in range(cfg.n_classes):
        for i in range(cfg.n_bags_per_class):
            got = synth_bag(cfg, protos, label, i)
            want = _reference_synth_bag(cfg, protos, label, i)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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
