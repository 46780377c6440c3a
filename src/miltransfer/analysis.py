"""Representation analysis: activation capture and SVCCA layer stability.

Bag features come only from the caller's cache, keyed by bag id
(``training.load_split_features``); nothing here reads a feature file.
Activations are the ``ForwardOutput.activations`` that ``models.eval_pass``
already computes (``fc.{i}`` post-ReLU, ``attn`` pre-softmax score), the
layers that ``models.activation_layers`` names.  The
pass yields them as views into its tile outputs, so ``capture_activations``
copies each sampled instance's row out as its bag goes by.  Only the bags
that hold sampled instances are packed into tiles, and a bag's rows do not
depend on which other bags share its tile: a subsample's rows equal the
same rows of a full capture, bit for bit.

SVCCA works on one Gram matrix.  It centers Z = [X | Y], the two activation
matrices (n samples by widths w_x and w_y) side by side, and forms Z'Z once;
X'X, Y'Y and X'Y are its blocks.  Each self-Gram's eigendecomposition
X'X = V S^2 V' gives a side's principal directions, and each side keeps the
smallest set of them holding the requested share of S^2.  The canonical
correlations are the singular values of S_x^-1 V_x' (X'Y) V_y S_y^-1, which
equals U_x'U_y for the left singular vectors U = X V S^-1.  No n-row basis
is built.  The mean canonical correlation is reported on a 0-100 scale.

Bytes.  A report is a function of the config, manifest, seed and the
numpy/BLAS build.  Z'Z is a symmetric rank-k update, and the step after it
multiplies only width-sized matrices, so on OpenBLAS 0.3.31 a report on
layers of 1 to 48 units (each width tried), 52, 64 or 100 keeps its bits
at 1 and 2 BLAS threads, where a general X'Y product over the n samples
does not.  Wider layers can still move in the last digits with the
thread count: the Gram at some widths (49, 50, 63, 65), the products of the
kept directions at 128 to 192, and ``eigh`` and ``svd`` from 256 units up.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import models
from .bagdata import DatasetManifest
from .errors import ConfigError, DataError, NumericError
from .models import ModelConfig, ModelParams
from .transfer import Checkpoint

DEFAULT_SAMPLE_BUDGET = 5000
SAMPLE_SPLIT = "test"  # the split whose instances are captured and compared


@dataclass
class ActivationDump:
    layer_name: str
    matrix: np.ndarray            # ([J,] n_samples, layer_width) float32
    sample_ids: list[str]


@dataclass
class StabilityReport:
    layers: list[dict] = field(default_factory=list)  # {name, mean, std, n_components}
    n_samples: int = 0
    model_tag: str = ""
    sample_description: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def sample_instances(manifest: DatasetManifest, split: str, max_instances: int,
                     seed: int, features: dict[str, np.ndarray]) -> list[tuple[str, int]]:
    """Deterministic subsample of up to max_instances (bag, instance) pairs
    across a split, in manifest order.  An empty split gives no pairs.

    The split's instances are numbered bag after bag; the sorted draw of
    ``max_instances`` numbers is mapped to its bags through the bags' start
    numbers, so no list of every pair is built."""
    bag_ids = [e.bag_id for e in manifest.split(split)]
    starts = np.cumsum([0] + [features[bag_id].shape[0] for bag_id in bag_ids])
    total = int(starts[-1])
    idx = (np.sort(np.random.default_rng(seed).choice(total, max_instances, replace=False))
           if total > max_instances else np.arange(total))
    bags = np.searchsorted(starts, idx, side="right") - 1
    return [(bag_ids[b], j) for b, j in zip(bags.tolist(), (idx - starts[bags]).tolist())]


def capture_activations(cfg: ModelConfig, params: ModelParams,
                        manifest: DatasetManifest, layer_names: list[str],
                        max_instances: int = DEFAULT_SAMPLE_BUDGET, seed: int = 0, *,
                        features: dict[str, np.ndarray], pairs=None) -> list[ActivationDump]:
    """Per-instance activations for the named layers on a seeded instance
    subsample of the test split.

    ``fc.{i}`` captures the post-ReLU layer output; ``attn`` captures the
    pre-softmax attention score (width 1), which stays comparable across
    bags of different sizes.  Only the bags that hold sampled instances
    are forwarded.  Parameters with a leading job axis J give each dump a
    leading J axis.
    """
    known = models.activation_layers(cfg)
    for name in layer_names:
        if name not in known:
            raise ConfigError(f"unknown activation layer {name!r}; available: {known}")
    if pairs is None:
        pairs = sample_instances(manifest, SAMPLE_SPLIT, max_instances, seed, features)

    by_bag: dict[str, list[int]] = {}
    for bag_id, j in pairs:
        by_bag.setdefault(bag_id, []).append(j)
    ends = dict(zip(by_bag, np.cumsum([len(inst_idx) for inst_idx in by_bag.values()])))
    # each bag's rows are written in place, at its ``by_bag`` position
    mats: list[np.ndarray] = []
    for e, out in models.eval_pass(params, cfg, manifest, SAMPLE_SPLIT, features,
                                   bag_ids=by_bag):
        idx, end = by_bag[e.bag_id], ends.pop(e.bag_id)
        for k, name in enumerate(layer_names):
            act = out.activations[name]
            if k == len(mats):
                mats.append(np.empty((*act.shape[:-2], len(pairs), act.shape[-1]), np.float32))
            mats[k][..., end - len(idx):end, :] = act[..., idx, :]
    if ends:
        raise DataError(f"sampled bags {list(ends)} are not in the {SAMPLE_SPLIT!r} split")
    order = [f"{bag_id}:{j}" for bag_id, inst_idx in by_bag.items() for j in inst_idx]
    return [ActivationDump(name, mat, order) for name, mat in zip(layer_names, mats)]


# ---------------------------------------------------------------------------
# SVCCA
# ---------------------------------------------------------------------------

def _principal_directions(gram: np.ndarray, n_samples: int, variance_keep: float):
    """Kept eigenvectors V and singular values S of a centered activation
    matrix with Gram ``gram``, largest first.

    Rank counts the eigenvalues above lambda_max * max(n_samples, width) *
    eps(float64), the rounding level of a Gram formed and decomposed in
    float64.  As singular values that is S > S_max * sqrt(max(n, w) * eps).
    Of those, the smallest leading set whose share of sum(S^2) reaches
    ``variance_keep`` is kept.
    """
    lam, vec = np.linalg.eigh(gram)
    lam, vec = lam[::-1], vec[:, ::-1]
    if lam.size == 0 or lam[0] <= 0.0:
        return vec[:, :0], lam[:0]
    lam = lam[lam > lam[0] * max(n_samples, gram.shape[0]) * np.finfo(np.float64).eps]
    if variance_keep >= 1.0:
        keep = lam.size
    else:
        energy = np.cumsum(lam) / np.sum(lam)
        keep = int(np.searchsorted(energy, variance_keep) + 1)
    return vec[:, :keep], np.sqrt(lam[:keep])


def svcca(x: np.ndarray, y: np.ndarray, variance_keep: float = 0.99):
    """Mean canonical correlation between two activation spaces, 0-100.

    Returns (mean, per-component correlations), largest first.  Width-1
    inputs reduce to 100 * |Pearson r|.  Rank-0 (constant) input yields 0.
    The method and its rank tolerance are in the module docstring and
    ``_principal_directions``.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DataError("svcca needs two (n_samples x width) matrices with equal n_samples")
    n, wx = x.shape
    if n <= max(wx, y.shape[1]):
        raise DataError(f"svcca needs n_samples > max width, got n={n}, "
                        f"widths ({wx}, {y.shape[1]})")
    z = np.concatenate([x, y], axis=1, dtype=np.float64)  # the one copy, centered in place
    if not np.isfinite(z).all():
        raise NumericError("svcca activations hold non-finite values")
    z -= z.mean(axis=0)
    gram = z.T @ z
    del z  # the n-row copy is freed before the decompositions run
    vx, sx = _principal_directions(gram[:wx, :wx], n, variance_keep)
    vy, sy = _principal_directions(gram[wx:, wx:], n, variance_keep)
    if sx.size == 0 or sy.size == 0:
        return 0.0, np.zeros(0)
    m = (vx.T @ gram[:wx, wx:] @ vy) / np.outer(sx, sy)
    corrs = np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)
    return float(100.0 * corrs.mean()), corrs


def layer_stability_report(before: Checkpoint, after_params: ModelParams,
                           manifest: DatasetManifest,
                           layer_names: list[str] | None = None,
                           max_instances: int = DEFAULT_SAMPLE_BUDGET,
                           seed: int = 0, variance_keep: float = 0.99, model_tag: str = "", *,
                           features: dict[str, np.ndarray]) -> StabilityReport:
    """SVCCA between each layer's activations under the checkpoint weights
    and under ``after_params``, on an identical instance sample, both
    captured in one pass as a stack of two."""
    cfg = before.cfg
    models.check_params(models.param_schema(cfg), after_params, "after-params")
    if layer_names is None:
        layer_names = models.activation_layers(cfg)
    pairs = sample_instances(manifest, SAMPLE_SPLIT, max_instances, seed, features)
    layers = []
    # no name holds the stacked parameters, so they are freed before SVCCA runs
    for dump in capture_activations(cfg, models.stack_params([before.params, after_params]),
                                    manifest, layer_names, features=features, pairs=pairs):
        mean, comps = svcca(dump.matrix[0], dump.matrix[1], variance_keep)
        layers.append({
            "name": dump.layer_name,
            "mean": mean,
            "std": float(100.0 * comps.std()) if comps.size else 0.0,
            "n_components": int(comps.size),
        })
    return StabilityReport(layers=layers, n_samples=len(pairs), model_tag=model_tag,
                           sample_description=f"{SAMPLE_SPLIT} split, seed {seed}")
