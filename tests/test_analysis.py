import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miltransfer import (
    Checkpoint,
    ModelConfig,
    build_model,
    capture_activations,
    layer_stability_report,
    svcca,
)
from miltransfer.analysis import sample_instances
from miltransfer.errors import ConfigError, DataError, NumericError
from miltransfer.models import forward, softmax, stack_params
from miltransfer.transfer import embed_bags, reset_layers


# ---------------------------------------------------------------------------
# svcca
# ---------------------------------------------------------------------------

def test_svcca_self_similarity_is_100():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 8))
    before = x.copy()
    mean, comps = svcca(x, x)
    assert mean == pytest.approx(100.0, abs=1e-6)
    assert np.allclose(comps, 1.0, atol=1e-9)
    assert np.array_equal(x, before)  # svcca centers copies, not its inputs


def test_svcca_width_one_is_abs_pearson():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((300, 1))
    y = -0.6 * x + 0.4 * rng.standard_normal((300, 1))
    r = np.corrcoef(x.ravel(), y.ravel())[0, 1]
    mean, comps = svcca(x, y)
    assert mean == pytest.approx(100.0 * abs(r), abs=1e-6)
    assert comps.size == 1
    assert float(100.0 * comps.std()) == 0.0


def test_svcca_independent_random_low():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2000, 10))
    y = rng.standard_normal((2000, 10))
    mean, _ = svcca(x, y)
    assert mean < 15.0


def test_svcca_symmetric():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400, 6))
    y = rng.standard_normal((400, 9))
    assert svcca(x, y)[0] == pytest.approx(svcca(y, x)[0], abs=1e-6)


def test_svcca_invariance_under_invertible_maps():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((600, 7))
    a = rng.standard_normal((7, 7)) + 3 * np.eye(7)
    mean, _ = svcca(x, x @ a, variance_keep=1.0)
    assert mean == pytest.approx(100.0, abs=1e-4)


def test_svcca_rank_zero_guard():
    x = np.ones((100, 3))
    y = np.random.default_rng(0).standard_normal((100, 3))
    mean, comps = svcca(x, y)
    assert mean == 0.0 and comps.size == 0


def test_svcca_requires_enough_samples():
    with pytest.raises(DataError):
        svcca(np.zeros((5, 6)), np.zeros((5, 4)))


def test_svcca_range():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal((300, 5))
        y = x @ rng.standard_normal((5, 4)) + 0.5 * rng.standard_normal((300, 4))
        mean, comps = svcca(x, y)
        assert 0.0 <= mean <= 100.0
        assert ((comps >= 0) & (comps <= 1)).all()


def test_svcca_non_finite_is_numeric_error():
    x = np.random.default_rng(6).standard_normal((50, 3))
    y = x.copy()
    y[7, 1] = np.nan
    with pytest.raises(NumericError):
        svcca(x, y)
    with pytest.raises(NumericError):
        svcca(np.where(x > 1.5, np.inf, x), x)


# ---------------------------------------------------------------------------
# Gram-matrix SVCCA against the SVD reference
# ---------------------------------------------------------------------------
# The reference truncates each side with a thin SVD of the n x w activations
# and whitens the truncated covariances.  The Gram form squares the condition
# number of what it decomposes, so results agree to a tolerance, not bitwise.

def _ref_svd_truncate(x, variance_keep):
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    tiny = s.max() * max(x.shape) * np.finfo(np.float64).eps if s.size else 0.0
    rank = int((s > tiny).sum())
    if rank == 0:
        return np.zeros((x.shape[0], 0))
    s = s[:rank]
    if variance_keep >= 1.0:
        keep = rank
    else:
        energy = np.cumsum(s ** 2) / np.sum(s ** 2)
        keep = int(np.searchsorted(energy, variance_keep) + 1)
    return u[:, :keep] * s[:keep]


def _ref_inv_sqrt(mat):
    w, v = np.linalg.eigh(mat)
    w = np.maximum(w, w.max() * 1e-12 if w.size else 0.0)
    return v @ np.diag(1.0 / np.sqrt(w)) @ v.T


def _ref_svcca(x, y, variance_keep=0.99):
    n = x.shape[0]
    xr = _ref_svd_truncate(x - x.mean(axis=0), variance_keep)
    yr = _ref_svd_truncate(y - y.mean(axis=0), variance_keep)
    if xr.shape[1] == 0 or yr.shape[1] == 0:
        return 0.0, np.zeros(0)
    m = (_ref_inv_sqrt(xr.T @ xr / (n - 1)) @ (xr.T @ yr / (n - 1))
         @ _ref_inv_sqrt(yr.T @ yr / (n - 1)))
    corrs = np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)
    return float(100.0 * corrs.mean()), corrs


def _svcca_case(kind, rng, n, wx, wy):
    x = rng.standard_normal((n, wx)) * rng.uniform(0.1, 10.0, wx)
    if kind == "identical":
        return x, x.copy()
    if kind == "rank_deficient":  # both sides span at most two shared directions
        z = rng.standard_normal((n, 2))
        return z @ rng.standard_normal((2, wx)), z @ rng.standard_normal((2, wy))
    if kind == "width_one":
        return x[:, :1], 0.7 * x[:, :1] + rng.standard_normal((n, 1))
    return x, x @ rng.standard_normal((wx, wy)) + rng.standard_normal((n, wy))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(12, 150), wx=st.integers(1, 8),
       wy=st.integers(1, 8), kind=st.sampled_from(
           ["mixed", "identical", "rank_deficient", "width_one"]),
       variance_keep=st.sampled_from([0.99, 1.0]))
def test_svcca_matches_svd_reference(seed, n, wx, wy, kind, variance_keep):
    x, y = _svcca_case(kind, np.random.default_rng(seed), n, wx, wy)
    mean, comps = svcca(x, y, variance_keep)
    want_mean, want_comps = _ref_svcca(x, y, variance_keep)
    assert comps.shape == want_comps.shape
    assert abs(mean - want_mean) <= 1e-9
    assert np.abs(comps - want_comps).max(initial=0.0) <= 1e-9


# ---------------------------------------------------------------------------
# activation capture
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def abmil_setup(tmp_path_factory):
    from miltransfer import SynthTaskConfig, synth_generate
    from miltransfer.training import load_split_features
    cfg = SynthTaskConfig(
        task_id="act", feat_dim=12, n_concepts=5, concepts_per_class=((0,), (1,)),
        witness_rate=0.5, bag_size_range=(6, 12), noise_sigma=0.2,
        n_bags_per_class=20, seed=2)
    manifest = synth_generate(cfg, tmp_path_factory.mktemp("act"))
    model_cfg = ModelConfig("abmil", in_dim=12, embed_dim=10, n_classes=2, attn_dim=6)
    params = build_model(model_cfg, seed=0)
    return model_cfg, params, manifest, load_split_features(manifest)


def test_capture_widths(abmil_setup):
    cfg, params, manifest, feats = abmil_setup
    dumps = capture_activations(cfg, params, manifest, ["fc.0", "attn"],
                                max_instances=50, seed=0, features=feats)
    assert dumps[0].matrix.shape == (50, 10)   # embed_dim
    assert dumps[1].matrix.shape == (50, 1)    # pre-softmax score
    assert dumps[0].sample_ids == dumps[1].sample_ids


def test_capture_all_instances_when_budget_large(abmil_setup):
    cfg, params, manifest, feats = abmil_setup
    total = sum(feats[e.bag_id].shape[0] for e in manifest.split("test"))
    dumps = capture_activations(cfg, params, manifest, ["fc.0"],
                                max_instances=10_000, seed=0, features=feats)
    assert dumps[0].matrix.shape[0] == total
    assert len(set(dumps[0].sample_ids)) == total


def test_capture_seeded_sample_ids(abmil_setup):
    cfg, params, manifest, feats = abmil_setup
    a = capture_activations(cfg, params, manifest, ["attn"], max_instances=30,
                            seed=7, features=feats)
    b = capture_activations(cfg, params, manifest, ["attn"], max_instances=30,
                            seed=7, features=feats)
    assert a[0].sample_ids == b[0].sample_ids


def test_capture_is_the_forward_activations(abmil_setup):
    """One FC layer: fc.0 is relu(x W^T + b), and attn holds the scores
    whose softmax is the forward's attention, at every sampled instance."""
    cfg, params, manifest, feats = abmil_setup
    assert cfg.fc_hidden_dims == ()
    full = capture_activations(cfg, params, manifest, ["fc.0", "attn"],
                               max_instances=10_000, seed=0, features=feats)
    sub = capture_activations(cfg, params, manifest, ["fc.0", "attn"],
                              max_instances=40, seed=3, features=feats)
    row_of = {sample_id: i for i, sample_id in enumerate(full[0].sample_ids)}
    w, b = params["fc.0.weight"], params["fc.0.bias"]
    for e in manifest.split("test"):
        x = feats[e.bag_id]
        rows = [row_of[f"{e.bag_id}:{j}"] for j in range(len(x))]
        np.testing.assert_allclose(full[0].matrix[rows], np.maximum(x @ w.T + b, 0.0),
                                   rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(softmax(full[1].matrix[rows, 0]),
                                   forward(params, cfg, x).attention, rtol=1e-6, atol=1e-7)
    rows = [row_of[sample_id] for sample_id in sub[0].sample_ids]
    for dump_sub, dump_full in zip(sub, full):
        assert dump_sub.matrix.tobytes() == dump_full.matrix[rows].tobytes()


def test_stacked_capture_equals_solo_captures(abmil_setup):
    cfg, params, manifest, feats = abmil_setup
    param_sets = [params, build_model(cfg, seed=1)]
    stacked = capture_activations(cfg, stack_params(param_sets), manifest, ["fc.0", "attn"],
                                  max_instances=40, seed=3, features=feats)
    for j, solo_params in enumerate(param_sets):
        solo = capture_activations(cfg, solo_params, manifest, ["fc.0", "attn"],
                                   max_instances=40, seed=3, features=feats)
        for dump, want in zip(stacked, solo):
            assert dump.sample_ids == want.sample_ids
            assert dump.matrix[j].tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("reader", ["embed_bags"])
def test_nonfinite_forward_names_the_bag(abmil_setup, reader):
    cfg, params, manifest, feats = abmil_setup
    bad = {name: value.copy() for name, value in params.items()}
    bad["attn.w.bias"][:] = np.nan
    first = manifest.split("test")[0].bag_id
    with pytest.raises(NumericError, match=f"test bag {first!r}"):
        embed_bags(cfg, bad, manifest, "test", feats)


def _ref_sample_instances(manifest, split, max_instances, seed, features):
    """List every (bag, instance) pair of the split, then draw from the list."""
    pairs = [(e.bag_id, j) for e in manifest.split(split)
             for j in range(features[e.bag_id].shape[0])]
    if len(pairs) > max_instances:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(len(pairs), size=max_instances, replace=False))
        pairs = [pairs[i] for i in idx]
    return pairs


@pytest.mark.parametrize("seed", range(4))
def test_sample_instances_equals_enumerate_then_choose(abmil_setup, seed):
    """Budgets below, at and above the split's instance count, over random
    bag sizes with an empty bag among them."""
    _, _, manifest, _ = abmil_setup
    bags = manifest.split("test")
    sizes = np.random.default_rng(seed).integers(1, 30, len(bags))
    sizes[seed % len(bags)] = 0
    features = {e.bag_id: np.zeros((size, 1), np.float32) for e, size in zip(bags, sizes)}
    total = sum(f.shape[0] for f in features.values())
    for budget in (1, total // 3, total - 1, total, total + 7):
        got = sample_instances(manifest, "test", budget, seed, features)
        assert got == _ref_sample_instances(manifest, "test", budget, seed, features)
        assert all(type(j) is int for _, j in got)


def test_capture_unknown_layer(abmil_setup):
    cfg, params, manifest, feats = abmil_setup
    with pytest.raises(ConfigError, match="unknown"):
        capture_activations(cfg, params, manifest, ["fc.9"], features=feats)


# ---------------------------------------------------------------------------
# stability report
# ---------------------------------------------------------------------------

def test_stability_identical_params_scores_100(abmil_setup):
    cfg, params, manifest, feats = abmil_setup
    ckpt = Checkpoint(cfg=cfg, params=params)
    report = layer_stability_report(ckpt, params, manifest, max_instances=200,
                                    seed=0, features=feats)
    for layer in report.layers:
        assert layer["mean"] == pytest.approx(100.0, abs=1e-6)
    assert {l["name"] for l in report.layers} == {"fc.0", "attn"}
    # width-1 layer reports exactly zero component std
    attn = next(l for l in report.layers if l["name"] == "attn")
    assert attn["std"] == 0.0 and attn["n_components"] == 1


def test_stability_reset_attention_within_independence_null(abmil_setup):
    """A full reset produces an attention score statistically indistinguishable
    from an independent random draw: its similarity to the original must lie
    inside the Monte-Carlo null of independently initialized attention modules
    evaluated on the same samples."""
    cfg, params, manifest, feats = abmil_setup
    ckpt = Checkpoint(cfg=cfg, params=params)
    fresh = reset_layers(ckpt, "all", seed=123)
    report = layer_stability_report(ckpt, fresh, manifest, layer_names=["attn"],
                                    max_instances=400, seed=0, features=feats)
    observed = report.layers[0]["mean"]

    null = []
    for draw in range(20):
        a = build_model(cfg, seed=1000 + 2 * draw)
        b = build_model(cfg, seed=1001 + 2 * draw)
        rep = layer_stability_report(Checkpoint(cfg=cfg, params=a), b, manifest,
                                     layer_names=["attn"], max_instances=400,
                                     seed=0, features=feats)
        null.append(rep.layers[0]["mean"])
    assert observed <= max(null) + 1e-9
    # and far below self-similarity
    assert observed < 99.0


def test_stability_report_json(abmil_setup):
    cfg, params, manifest, feats = abmil_setup
    ckpt = Checkpoint(cfg=cfg, params=params)
    report = layer_stability_report(ckpt, params, manifest, max_instances=100,
                                    seed=0, features=feats)
    import json
    total = sum(feats[e.bag_id].shape[0] for e in manifest.split("test"))
    payload = json.loads(report.to_json())
    assert payload["n_samples"] == min(100, total)
    assert all({"name", "mean", "std", "n_components"} <= set(l) for l in payload["layers"])
