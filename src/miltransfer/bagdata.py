"""Bag datasets: binary feature files, CSV manifests, samplers, and a
synthetic concept-bag generator for desk-scale experiments.

A dataset is a directory with ``manifest.csv`` (header
``bag_id,path,label,split``), a ``task.json`` describing the task, and one
feature file per bag.  Feature files are a fixed little-endian binary
format (magic ``MILF``) holding one float32 matrix of shape
``n_instances x feat_dim``.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    DataError,
    DimensionOverflowError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .fileio import atomic_open

FEATURE_MAGIC = b"MILF"
FEATURE_VERSION = 1
_HEADER_LEN = 13  # magic(4) + version(1) + reserved(8)
_DIMS_LEN = 16    # two u64
# declared payload must fit in a signed 64-bit byte count
_MAX_PAYLOAD_BYTES = 2**63 - 1

SPLITS = ("train", "val", "test")
METRICS = ("auroc", "balanced_accuracy", "quadratic_weighted_kappa")


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def write_feature_file(features: np.ndarray, path: str | Path) -> None:
    """Write a float32 instance-feature matrix to ``path``.

    Layout: bytes 0-3 magic ``MILF``; byte 4 version; bytes 5-12 reserved
    zeros; bytes 13-20 n_instances (u64 LE); bytes 21-28 feat_dim (u64 LE);
    then ``n*d`` float32 LE values, row-major.
    """
    arr = np.asarray(features)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"feature matrix must be 2-d and non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("feature matrix contains non-finite values")
    arr = np.ascontiguousarray(arr, dtype="<f4")
    n, d = arr.shape
    with atomic_open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(bytes([FEATURE_VERSION]))
        fh.write(b"\x00" * 8)
        fh.write(struct.pack("<QQ", n, d))
        fh.write(arr.tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a feature matrix written by :func:`write_feature_file`."""
    data = Path(path).read_bytes()
    if len(data) < len(FEATURE_MAGIC) or data[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise BadMagicError(f"{path}: not a feature file (bad magic)")
    if len(data) < _HEADER_LEN + _DIMS_LEN:
        raise TruncatedPayloadError(f"{path}: file too short for header")
    version = data[4]
    if version != FEATURE_VERSION:
        raise VersionMismatchError(f"{path}: unsupported feature format version {version}")
    n, d = struct.unpack_from("<QQ", data, _HEADER_LEN)
    if n == 0 or d == 0 or n * d * 4 > _MAX_PAYLOAD_BYTES:
        raise DimensionOverflowError(f"{path}: invalid dimensions {n}x{d}")
    payload = data[_HEADER_LEN + _DIMS_LEN:]
    expected = n * d * 4
    if len(payload) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, {expected} required for {n}x{d}"
        )
    if len(payload) > expected:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(payload)} bytes, expected exactly {expected}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(n, d).copy()


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

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "n_classes": self.n_classes,
            "class_names": list(self.class_names),
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TaskSpec":
        return cls(d["task_id"], int(d["n_classes"]), tuple(d["class_names"]), d["metric"])


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

    def load_features(self, entry: ManifestEntry) -> np.ndarray:
        path = Path(entry.path)
        if not path.is_absolute():
            path = self.root / path
        if not path.exists():
            raise DataError(f"bag {entry.bag_id!r}: feature file {path} missing")
        return read_feature_file(path)

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
    then be contiguous from 0).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest {path} does not exist")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"manifest {path} is empty") from None
        if [h.strip() for h in header] != ["bag_id", "path", "label", "split"]:
            raise DataError(f"manifest {path}: expected header bag_id,path,label,split")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"manifest {path}:{lineno}: expected 4 fields")
            bag_id, fpath, label_s, split_tag = (c.strip() for c in row)
            try:
                label = int(label_s)
            except ValueError:
                raise DataError(f"manifest {path}:{lineno}: non-integer label {label_s!r}") from None
            rows.append(ManifestEntry(bag_id, fpath, label, split_tag))

    if task is None:
        sidecar = path.parent / "task.json"
        if sidecar.exists():
            try:
                task = TaskSpec.from_dict(json.loads(sidecar.read_text()))
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{sidecar}: malformed task spec ({exc!r})") from exc
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
            task = TaskSpec(path.stem, n, tuple(f"class_{i}" for i in range(n)),
                            default_metric(n))
    return DatasetManifest(task=task, entries=tuple(rows), root=path.parent)


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "path", "label", "split"])
        for e in manifest.entries:
            writer.writerow([e.bag_id, e.path, e.label, e.split])
    with atomic_open(path.parent / "task.json") as fh:
        fh.write(json.dumps(manifest.task.to_dict(), indent=2, sort_keys=True) + "\n")


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
    train = manifest.split("train")
    if not train:
        raise DataError("train split is empty")
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
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if min(self.split_fractions) < 0 or abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigError("split_fractions must be >= 0 and sum to 1")

    @property
    def n_classes(self) -> int:
        return len(self.concepts_per_class)

    def background_concepts(self) -> tuple[int, ...]:
        used = set()
        for subset in self.concepts_per_class:
            used.update(subset)
        return tuple(k for k in range(self.n_concepts) if k not in used)


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
    class_concepts = np.array(cfg.concepts_per_class[label])
    background = np.array(cfg.background_concepts())
    if size > n_wit and background.size == 0:
        raise ConfigError(
            f"task {cfg.task_id!r}: witness_rate < 1 needs background concepts, "
            "but every concept is assigned to a class"
        )
    concept_ids = np.concatenate([
        rng.choice(class_concepts, size=n_wit, replace=True),
        rng.choice(background, size=size - n_wit, replace=True) if size > n_wit
        else np.array([], dtype=np.int64),
    ])
    x = protos[concept_ids] + cfg.noise_sigma * rng.standard_normal((size, cfg.feat_dim))
    x = x[rng.permutation(size)]
    return x.astype(np.float32)


def synth_generate(cfg: SynthTaskConfig, out_dir: str | Path) -> DatasetManifest:
    """Generate feature files plus manifest for a synthetic task under
    ``out_dir``.  Bitwise reproducible for a given config."""
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    protos = concept_prototypes(cfg.feat_dim, cfg.n_concepts, cfg.seed)

    n = cfg.n_bags_per_class
    train_n = max(1, round(cfg.split_fractions[0] * n))
    val_n = round(cfg.split_fractions[1] * n)
    entries = []
    for c in range(cfg.n_classes):
        for i in range(n):
            bag_id = f"{cfg.task_id}_c{c:02d}_b{i:04d}"
            rel = f"features/{bag_id}.milf"
            write_feature_file(synth_bag(cfg, protos, c, i), out_dir / rel)
            if i < train_n:
                split_tag = "train"
            elif i < train_n + val_n:
                split_tag = "val"
            else:
                split_tag = "test"
            entries.append(ManifestEntry(bag_id, rel, c, split_tag))

    task = TaskSpec(
        task_id=cfg.task_id,
        n_classes=cfg.n_classes,
        class_names=tuple(f"class_{c}" for c in range(cfg.n_classes)),
        metric=default_metric(cfg.n_classes),
    )
    manifest = DatasetManifest(task=task, entries=tuple(entries), root=out_dir)
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest
