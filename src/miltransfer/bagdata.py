"""Bag datasets: binary feature files, CSV manifests, samplers, and a
synthetic concept-bag generator for desk-scale experiments.

A dataset is a directory with ``manifest.csv`` (header
``bag_id,path,label,split``), a ``task.json`` describing the task, and the
feature files its rows name.  Feature files are a fixed little-endian binary
format (magic ``MILF``) of float32 rows, ``feat_dim`` values each, in one of
three layouts told apart by the version byte:

- version 1, one bag: ``n_instances x feat_dim`` rows;
- version 2, a feature pack: an index of bags (row count and ``bag_id``
  each), then every bag's rows in index order;
- version 3, an aligned feature pack: version 2 with zero bytes after the
  index up to the next 64-byte boundary, so every bag's rows sit on float32
  boundaries in the file.

``write_feature_file`` writes version 1 and ``write_feature_pack`` version
3; all three are read.  A version-3 bag is read as a read-only view of its
pack mapped into memory; the rows of the other two, off float32 boundaries,
are copied into one buffer.

A manifest row names its bag's file; rows that name one pack share it and
find their rows under their ``bag_id``, while a version-1 file is one
unnamed bag, whatever ``bag_id`` its row gives.  ``synth_generate`` writes
one pack per task, ``features.milf``, which every row of its manifest names.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import struct
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DimensionOverflowError,
    FeatureFormatError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .fileio import (atomic_open, make_dirs, map_input, open_input, read_input, read_json,
                     reraise_as, section)

FEATURE_MAGIC = b"MILF"
FEATURE_VERSION = 1
UNALIGNED_PACK_VERSION = 2  # read, no longer written
PACK_VERSION = 3
_PACK_ALIGN = 64  # a version-3 pack's payload starts at a multiple of this
FEATURE_PACK = "features.milf"  # the pack synth_generate writes in each task directory
_HEADER_LEN = 13  # magic(4) + version(1) + reserved(8)
_DIMS_LEN = 16    # two u64: v1 n_instances, a pack's bag count; then feat_dim
_RECORD_LEN = 16  # a pack's index record: u64 rows, u64 id length, then the id
# declared payload must fit in a signed 64-bit byte count
_MAX_PAYLOAD_BYTES = 2**63 - 1

SPLITS = ("train", "val", "test")
METRICS = ("auroc", "balanced_accuracy", "quadratic_weighted_kappa")


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def _float32_rows(features, feat_dim: int | None = None) -> np.ndarray:
    """``features`` as contiguous little-endian float32 rows, checked for shape
    (and width ``feat_dim``, if given) and finiteness."""
    arr = np.asarray(features)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"feature matrix must be 2-d and non-empty, got shape {arr.shape}")
    if feat_dim is not None and arr.shape[1] != feat_dim:
        raise DataError(f"feature matrix is {arr.shape[1]} wide, the pack {feat_dim}")
    if not np.isfinite(arr).all():
        raise DataError("feature matrix contains non-finite values")
    return np.ascontiguousarray(arr, dtype="<f4")


def _header(version: int, count: int, feat_dim: int) -> bytes:
    return FEATURE_MAGIC + bytes([version]) + b"\x00" * 8 + struct.pack("<QQ", count, feat_dim)


def write_feature_file(features: np.ndarray, path: str | Path) -> None:
    """Write a float32 instance-feature matrix to ``path`` as one bag.

    Layout (version 1): bytes 0-3 magic ``MILF``; byte 4 version; bytes 5-12
    reserved zeros; bytes 13-20 n_instances (u64 LE); bytes 21-28 feat_dim
    (u64 LE); then ``n*d`` float32 LE values, row-major.
    """
    arr = _float32_rows(features)
    with atomic_open(path, "wb") as fh:
        fh.write(_header(FEATURE_VERSION, *arr.shape))
        fh.write(arr.data)


def write_feature_pack(bag_ids, bags, path: str | Path) -> None:
    """Write the float32 matrices ``bags``, one per id of ``bag_ids`` and in
    that order, to ``path`` as one feature pack, holding one bag at a time.

    Layout (version 3): the version-1 header with the bag count in place of
    n_instances; one index record per bag: rows (u64 LE), id length (u64
    LE), the UTF-8 ``bag_id``; zero bytes up to the next multiple of 64;
    then each bag's float32 LE rows in index order.  The index is reserved
    first and its row counts, like feat_dim, filled in once every bag is
    written.
    """
    ids = [bag_id.encode("utf-8") for bag_id in bag_ids]
    if not ids or len(set(ids)) != len(ids):
        raise DataError(f"{path}: a feature pack needs at least one bag and distinct ids")
    index_len = _HEADER_LEN + _DIMS_LEN + sum(_RECORD_LEN + len(i) for i in ids)
    rows, feat_dim = [], None
    with atomic_open(path, "wb") as fh:
        fh.write(b"\x00" * (index_len + -index_len % _PACK_ALIGN))
        for x in bags:
            arr = _float32_rows(x, feat_dim)
            rows.append(arr.shape[0])
            feat_dim = arr.shape[1]
            fh.write(arr.data)
        if len(rows) != len(ids):
            raise DataError(f"{path}: {len(rows)} bags for {len(ids)} bag ids")
        fh.seek(0)
        fh.write(_header(PACK_VERSION, len(ids), feat_dim) + b"".join(
            struct.pack("<QQ", n, len(i)) + i for n, i in zip(rows, ids)))


@dataclass(frozen=True)
class FeatureIndex:
    """A feature file's header and index, checked against its length
    ``size``: ``bags`` maps each bag id to its (rows, byte offset), in file
    order; a version-1 file holds one bag, under the id None."""
    version: int
    size: int
    feat_dim: int
    bags: dict

    def locate(self, bag_id: str | None, path) -> tuple[int, int]:
        """(rows, byte offset) of ``bag_id``; any id names a version-1 file's bag."""
        key = None if None in self.bags else bag_id
        if key not in self.bags:
            raise DataError(f"{path}: holds no bag {bag_id!r}")
        return self.bags[key]


def _index_record(fh, size: int, path, i: int, count: int) -> tuple[str, int]:
    """The (bag id, rows) of a pack's ``i``-th index record, read from ``fh``."""
    record = fh.read(_RECORD_LEN)
    if len(record) == _RECORD_LEN:
        rows, id_len = struct.unpack("<QQ", record)
        raw = fh.read(id_len) if id_len <= size - fh.tell() else b""
        if len(raw) == id_len:
            try:
                return raw.decode("utf-8"), rows
            except UnicodeDecodeError as exc:
                raise FeatureFormatError(
                    f"{path}: index record {i}: bag id is not UTF-8") from exc
    raise TruncatedPayloadError(f"{path}: index record {i} of {count} is cut short")


def read_feature_index(path: str | Path) -> FeatureIndex:
    """The header and index of the feature file at ``path``, checked against
    its length."""
    with open_input(path, "feature file", DataError) as (fh, size):
        head = fh.read(_HEADER_LEN + _DIMS_LEN)
        if head[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
            raise BadMagicError(f"{path}: not a feature file (bad magic)")
        if len(head) < _HEADER_LEN + _DIMS_LEN:
            raise TruncatedPayloadError(f"{path}: file too short for header")
        version = head[4]
        if version not in (FEATURE_VERSION, UNALIGNED_PACK_VERSION, PACK_VERSION):
            raise VersionMismatchError(f"{path}: unsupported feature format version {version}")
        count, d = struct.unpack_from("<QQ", head, _HEADER_LEN)
        records = ([(None, count)] if version == FEATURE_VERSION
                   else [_index_record(fh, size, path, i, count) for i in range(count)])
        if version == PACK_VERSION:
            pad = -fh.tell() % _PACK_ALIGN
            padding = fh.read(pad)
            if len(padding) < pad:
                raise TruncatedPayloadError(f"{path}: the padding after the index is cut short")
            if any(padding):
                raise FeatureFormatError(f"{path}: the padding after the index is not zero")
        bags, start = {}, fh.tell()
        offset = start
        for bag_id, n in records:
            where = path if bag_id is None else f"{path}: bag {bag_id!r}"
            if bag_id in bags:
                raise FeatureFormatError(f"{where} repeats in the index")
            if n == 0 or d == 0 or n * d * 4 > _MAX_PAYLOAD_BYTES:
                raise DimensionOverflowError(f"{where}: invalid dimensions {n}x{d}")
            if offset + n * d * 4 > size:
                raise TruncatedPayloadError(f"{where}: payload holds {max(0, size - offset)} "
                                            f"bytes, {n * d * 4} required for {n}x{d}")
            bags[bag_id] = (n, offset)
            offset += n * d * 4
        if offset < size:
            raise TruncatedPayloadError(f"{path}: payload holds {size - start} bytes, "
                                        f"expected exactly {offset - start}")
        return FeatureIndex(version, size, d, bags)


def read_feature_file(path: str | Path, bag_id: str | None = None) -> np.ndarray:
    """The rows of bag ``bag_id`` in the feature file at ``path`` (written by
    :func:`write_feature_file` or :func:`write_feature_pack`); ``bag_id`` may
    be left out for a version-1 file."""
    return read_feature_files([path], [bag_id])[0]


def read_feature_files(paths, bag_ids=None) -> list[np.ndarray]:
    """The rows of bag ``bag_ids[i]`` in the feature file ``paths[i]``, for
    every i (``bag_ids`` may be left out for version-1 files).

    Each distinct file's index is read once, then the file is mapped into
    memory once.  A version-3 pack's bags are views of its map: the cache
    holds no copy of them, and costs resident memory only for the pages a
    caller touches.  The rows of version-1 files and version-2 packs are
    copied into one float32 buffer, whose bags are views of it, and their
    maps closed.

    Every returned bag is read-only.  A mapped pack holds one file
    descriptor until the last of its bags is collected.  Truncating a mapped
    pack in place would kill the reading process with SIGBUS; no writer in
    this package does so, since every write replaces its file atomically.
    """
    bag_ids = [None] * len(paths) if bag_ids is None else list(bag_ids)
    requests: dict = {}
    for i, path in enumerate(paths):
        requests.setdefault(path, []).append(i)
    indexes = {path: read_feature_index(path) for path in requests}
    spans = [indexes[path].locate(bag_id, path) for path, bag_id in zip(paths, bag_ids)]
    shapes = [(rows, indexes[path].feat_dim) for path, (rows, _) in zip(paths, spans)]
    counts = [0 if indexes[path].version == PACK_VERSION else rows * d
              for path, (rows, d) in zip(paths, shapes)]
    buf, starts = np.empty(sum(counts), "<f4"), np.cumsum([0, *counts])
    mats = [None] * len(paths)
    for path, wanted in requests.items():
        mapped = map_input(path, "feature file", DataError, indexes[path].size)
        if indexes[path].version == PACK_VERSION:  # rows on float32 boundaries
            for i in wanted:
                mats[i] = np.frombuffer(mapped, "<f4", math.prod(shapes[i]),
                                        spans[i][1]).reshape(shapes[i])
        else:
            with mapped:
                for i in wanted:
                    buf[starts[i]:starts[i] + counts[i]] = np.frombuffer(
                        mapped, "<f4", counts[i], spans[i][1])
                    mats[i] = buf[starts[i]:starts[i] + counts[i]].reshape(shapes[i])
    for x in mats:
        x.flags.writeable = False
    return mats


# ---------------------------------------------------------------------------
# tasks and manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    n_classes: int
    class_names: tuple[str, ...]
    metric: str

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"task {self.task_id}: n_classes must be >= 2")
        if len(self.class_names) != self.n_classes:
            raise ConfigError(
                f"task {self.task_id}: {len(self.class_names)} class names for "
                f"{self.n_classes} classes"
            )
        if self.metric not in METRICS:
            raise ConfigError(f"task {self.task_id}: unknown metric {self.metric!r}")
        if self.metric == "auroc" and self.n_classes != 2:
            raise ConfigError(f"task {self.task_id}: auroc requires exactly 2 classes")


def default_metric(n_classes: int) -> str:
    return "auroc" if n_classes == 2 else "balanced_accuracy"


@dataclass(frozen=True)
class ManifestEntry:
    bag_id: str
    path: str
    label: int
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    task: TaskSpec
    entries: tuple[ManifestEntry, ...]
    root: Path = field(default_factory=Path)

    def __post_init__(self):
        seen: set[str] = set()
        has_train = False
        for e in self.entries:
            if e.bag_id in seen:
                raise DataError(f"duplicate bag_id {e.bag_id!r}")
            seen.add(e.bag_id)
            if not 0 <= e.label < self.task.n_classes:
                raise DataError(
                    f"bag {e.bag_id!r}: label {e.label} out of range for "
                    f"{self.task.n_classes}-class task {self.task.task_id!r}"
                )
            if e.split not in SPLITS:
                raise DataError(f"bag {e.bag_id!r}: unknown split {e.split!r}")
            has_train = has_train or e.split == "train"
        if not has_train:
            raise DataError(f"task {self.task.task_id!r}: manifest has no train entries")

    def split(self, tag: str) -> tuple[ManifestEntry, ...]:
        return tuple(e for e in self.entries if e.split == tag)

    def has_val(self) -> bool:
        return any(e.split == "val" for e in self.entries)

    def feature_path(self, entry: ManifestEntry) -> Path:
        path = Path(entry.path)
        return path if path.is_absolute() else self.root / path

    def load_features(self, entry: ManifestEntry) -> np.ndarray:
        return read_feature_file(self.feature_path(entry), entry.bag_id)

    def class_counts(self, split_tag: str = "train") -> np.ndarray:
        counts = np.zeros(self.task.n_classes, dtype=np.int64)
        for e in self.split(split_tag):
            counts[e.label] += 1
        return counts

    def with_entries(self, entries) -> "DatasetManifest":
        return replace(self, entries=tuple(entries))


def load_manifest(path: str | Path, task: TaskSpec | None = None) -> DatasetManifest:
    """Load a ``bag_id,path,label,split`` CSV manifest.

    When ``task`` is omitted, a ``task.json`` next to the CSV is used if
    present, otherwise the task is inferred from the labels (which must
    then be contiguous from 0) and named after the CSV's directory.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_input(path, "manifest", DataError, "utf-8"),
                                    newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"manifest {path} is empty")
        if [h.strip() for h in header] != ["bag_id", "path", "label", "split"]:
            raise DataError(f"manifest {path}: expected header bag_id,path,label,split")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"manifest {path}:{lineno}: expected 4 fields")
            bag_id, fpath, label_s, split_tag = (c.strip() for c in row)
            if not re.fullmatch(r"-?[0-9]+", label_s):  # int() also takes "+1", "0_0", "١"
                raise DataError(f"manifest {path}:{lineno}: non-integer label {label_s!r}")
            rows.append(ManifestEntry(bag_id, fpath, int(label_s), split_tag))
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise DataError(f"manifest {path}: {exc}") from exc

    if task is None:
        sidecar = path.parent / "task.json"
        if sidecar.exists():
            with reraise_as(DataError, f"task spec {sidecar}"):
                task = section(TaskSpec, read_json(sidecar, "task spec", DataError), "task")
        else:
            labels = sorted({r.label for r in rows})
            if not rows:
                raise DataError(f"manifest {path} has no rows")
            if labels != list(range(len(labels))):
                raise DataError(
                    f"manifest {path}: labels {labels} are not contiguous from 0; "
                    "provide an explicit TaskSpec"
                )
            n = len(labels)
            task = TaskSpec(path.absolute().parent.name, n,
                            tuple(f"class_{i}" for i in range(n)), default_metric(n))
    return DatasetManifest(task=task, entries=tuple(rows), root=path.parent)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "path", "label", "split"])
        for e in manifest.entries:
            writer.writerow([e.bag_id, e.path, e.label, e.split])
    with atomic_open(path.parent / "task.json") as fh:
        fh.write(json.dumps(asdict(manifest.task), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def fewshot_sample(manifest: DatasetManifest, k: int, seed: int) -> DatasetManifest:
    """Keep exactly ``k`` train bags per class, sampled without replacement.

    Validation and test entries pass through unchanged.  Pure function of
    (manifest, k, seed).
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    train = manifest.split("train")
    keep: set[str] = set()
    for c in range(manifest.task.n_classes):
        members = [e for e in train if e.label == c]
        if len(members) < k:
            raise DataError(
                f"class {manifest.task.class_names[c]!r} has {len(members)} train bags, "
                f"{k} required"
            )
        chosen = rng.choice(len(members), size=k, replace=False)
        keep.update(members[i].bag_id for i in chosen)
    entries = [e for e in manifest.entries if e.split != "train" or e.bag_id in keep]
    return manifest.with_entries(entries)


def weighted_epoch_order(manifest: DatasetManifest, epoch_len: int,
                         seed: int | np.random.SeedSequence) -> list[str]:
    """Class-weighted bag order: draw with replacement, p(bag) proportional
    to the inverse size of its class, so the expected class distribution
    is uniform."""
    train = manifest.split("train")  # never empty: a manifest needs a train bag
    counts = manifest.class_counts("train")
    weights = np.array([1.0 / counts[e.label] for e in train])
    probs = weights / weights.sum()
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(train), size=epoch_len, replace=True, p=probs)
    return [train[i].bag_id for i in idx]


# ---------------------------------------------------------------------------
# synthetic concept-bag generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthTaskConfig:
    task_id: str
    feat_dim: int
    n_concepts: int
    concepts_per_class: tuple[tuple[int, ...], ...]  # class index -> concept subset
    witness_rate: float
    bag_size_range: tuple[int, int]
    noise_sigma: float
    n_bags_per_class: int
    seed: int
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if self.feat_dim < 1 or self.n_concepts < 1 or self.n_bags_per_class < 1:
            raise ConfigError("feat_dim, n_concepts and n_bags_per_class must be positive")
        if len(self.concepts_per_class) < 2:
            raise ConfigError("need at least 2 classes")
        for c, subset in enumerate(self.concepts_per_class):
            if not subset:
                raise ConfigError(f"class {c} has an empty concept subset")
            for kcon in subset:
                if not 0 <= kcon < self.n_concepts:
                    raise ConfigError(f"class {c}: concept index {kcon} out of range")
        sets = [frozenset(s) for s in self.concepts_per_class]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] == sets[j]:
                    raise ConfigError(f"classes {i} and {j} share the same concept subset")
        if not 0.0 < self.witness_rate <= 1.0:
            raise ConfigError("witness_rate must be in (0, 1]")
        lo, hi = self.bag_size_range
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad bag_size_range {self.bag_size_range}")
        if self.witness_rate * lo < 1.0:
            raise ConfigError("witness_rate * min bag size must be >= 1")
        # synth_bag draws size - ceil(witness_rate * size) background instances
        if self.witness_rate < 1.0 and not self.background_concepts() and any(
                size > math.ceil(self.witness_rate * size) for size in range(lo, hi + 1)):
            raise ConfigError(f"task {self.task_id!r}: witness_rate < 1 needs background "
                              "concepts, but every concept is assigned to a class")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if min(self.split_fractions) < 0 or abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigError("split_fractions must be >= 0 and sum to 1")

    @property
    def n_classes(self) -> int:
        return len(self.concepts_per_class)

    def background_concepts(self) -> tuple[int, ...]:
        return tuple(self.concept_pools[1].tolist())

    @cached_property
    def concept_pools(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The concept ids ``synth_bag`` draws from: each class's, then the
        background's (those of no class), built once per config."""
        used = set().union(*self.concepts_per_class)
        return (tuple(np.array(subset) for subset in self.concepts_per_class),
                np.array([k for k in range(self.n_concepts) if k not in used], dtype=np.int64))


def concept_prototypes(feat_dim: int, n_concepts: int, seed: int) -> np.ndarray:
    """Unit-norm concept prototypes, drawn once per task family.

    Depends only on (feat_dim, n_concepts, seed), so tasks that share these
    share instance-level structure.  When feat_dim >= n_concepts the
    prototypes are mutually orthogonal (QR of a Gaussian draw).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9907]))
    g = rng.standard_normal((feat_dim, max(n_concepts, 1)))
    if feat_dim >= n_concepts:
        q, r = np.linalg.qr(g)
        # fix signs so the draw is a deterministic function of g
        q = q * np.sign(np.diag(r))
        protos = q[:, :n_concepts].T
    else:
        protos = rng.standard_normal((n_concepts, feat_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    return np.ascontiguousarray(protos)


def synth_bag(cfg: SynthTaskConfig, protos: np.ndarray, label: int,
              bag_index: int) -> np.ndarray:
    """One synthetic bag: witnesses from the class concepts, the remainder
    from the background pool, Gaussian noise around each prototype."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBA6, label, bag_index]))
    lo, hi = cfg.bag_size_range
    size = int(rng.integers(lo, hi + 1))
    n_wit = math.ceil(cfg.witness_rate * size)
    class_pools, background = cfg.concept_pools
    concept_ids = np.concatenate([
        rng.choice(class_pools[label], size=n_wit, replace=True),
        rng.choice(background, size=size - n_wit, replace=True) if size > n_wit
        else np.array([], dtype=np.int64),
    ])
    x = rng.standard_normal((size, cfg.feat_dim))
    x *= cfg.noise_sigma
    x += protos[concept_ids]
    return x.astype(np.float32)[rng.permutation(size)]


def synth_generate(cfg: SynthTaskConfig, out_dir: str | Path) -> DatasetManifest:
    """Generate a synthetic task under ``out_dir``: one feature pack,
    ``features.milf``, written one bag at a time, and the manifest whose
    rows all name it.  Bitwise reproducible for a given config."""
    out_dir = Path(out_dir)
    make_dirs(f"synthetic task {cfg.task_id!r}", out_dir)
    protos = concept_prototypes(cfg.feat_dim, cfg.n_concepts, cfg.seed)

    n = cfg.n_bags_per_class
    train_n = max(1, round(cfg.split_fractions[0] * n))
    val_n = round(cfg.split_fractions[1] * n)
    bags = [(c, i) for c in range(cfg.n_classes) for i in range(n)]
    entries = []
    for c, i in bags:
        if i < train_n:
            split_tag = "train"
        elif i < train_n + val_n:
            split_tag = "val"
        else:
            split_tag = "test"
        entries.append(ManifestEntry(f"{cfg.task_id}_c{c:02d}_b{i:04d}", FEATURE_PACK, c,
                                     split_tag))
    write_feature_pack([e.bag_id for e in entries],
                       (synth_bag(cfg, protos, c, i) for c, i in bags), out_dir / FEATURE_PACK)

    task = TaskSpec(
        task_id=cfg.task_id,
        n_classes=cfg.n_classes,
        class_names=tuple(f"class_{c}" for c in range(cfg.n_classes)),
        metric=default_metric(cfg.n_classes),
    )
    manifest = DatasetManifest(task=task, entries=tuple(entries), root=out_dir)
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest
