from dataclasses import replace

import numpy as np
import pytest

from conftest import random_bag, tiny_configs
from miltransfer import ModelConfig, build_model, forward, param_count
from miltransfer.errors import ConfigError, DataError
from miltransfer.models import activation_layers, head_layers, param_schema, softmax


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_arch_field_validation():
    with pytest.raises(ConfigError):
        ModelConfig("abmil", in_dim=8, embed_dim=8, n_classes=2)  # missing attn_dim
    with pytest.raises(ConfigError):
        ModelConfig("mean", in_dim=8, embed_dim=8, n_classes=2, attn_dim=4)
    with pytest.raises(ConfigError):
        ModelConfig("transformer", in_dim=8, embed_dim=8, n_classes=2)  # missing n_layers
    with pytest.raises(ConfigError):
        ModelConfig("transformer", in_dim=8, embed_dim=9, n_classes=2, n_layers=1)  # heads
    with pytest.raises(ConfigError):
        ModelConfig("mean", in_dim=8, embed_dim=8, n_classes=2, n_layers=2)
    with pytest.raises(ConfigError):
        ModelConfig("nope", in_dim=8, embed_dim=8, n_classes=2)
    # hidden widths are integers, never truncated or parsed into one
    for hidden in ((2.9,), ("4",), (True,), (4, 2.0)):
        with pytest.raises(ConfigError, match="fc_hidden_dims"):
            ModelConfig("mean", in_dim=8, embed_dim=8, n_classes=2, fc_hidden_dims=hidden)
    cfg = ModelConfig("mean", in_dim=8, embed_dim=8, n_classes=2,
                      fc_hidden_dims=[np.int64(4), 3])
    assert cfg.fc_hidden_dims == (4, 3) and type(cfg.fc_hidden_dims[0]) is int


# ---------------------------------------------------------------------------
# construction / parameter counts
# ---------------------------------------------------------------------------

def test_build_matches_schema(tiny_cfg):
    params = build_model(tiny_cfg, seed=0)
    schema = param_schema(tiny_cfg)
    assert list(params) == [name for name, _ in schema]
    for name, shape in schema:
        assert params[name].shape == shape
        assert params[name].dtype == np.float32
    assert sum(p.size for p in params.values()) == param_count(tiny_cfg)


HEADS = {
    "mean": ("classifier.weight", "classifier.bias"),
    "max": ("classifier.weight", "classifier.bias"),
    "abmil": ("classifier.weight", "classifier.bias"),
    "auxmil": ("classifier.weight", "classifier.bias", "aux.head.weight", "aux.head.bias"),
    "transformer": ("classifier.weight", "classifier.bias"),
}
ACTIVATIONS = {
    "mean": ["fc.0"],
    "max": ["fc.0"],
    "abmil": ["fc.0", "attn"],
    "auxmil": ["fc.0", "attn"],
    "transformer": ["fc.0"],
}


@pytest.mark.parametrize("arch", sorted(tiny_configs()))
def test_head_and_activation_layers(arch):
    cfg = tiny_configs()[arch]
    assert head_layers(cfg) == HEADS[arch]
    assert activation_layers(cfg) == ACTIVATIONS[arch]
    # the names are the forward's own: its activations, in order
    assert list(forward(build_model(cfg, seed=0), cfg, random_bag(cfg)).activations) == \
        ACTIVATIONS[arch]
    deeper = replace(cfg, fc_hidden_dims=(5, 4))
    assert activation_layers(deeper) == ["fc.0", "fc.1", "fc.2", *ACTIVATIONS[arch][1:]]


def test_build_deterministic(tiny_cfg):
    a = build_model(tiny_cfg, seed=5)
    b = build_model(tiny_cfg, seed=5)
    c = build_model(tiny_cfg, seed=6)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_statistics():
    cfg = ModelConfig("abmil", in_dim=256, embed_dim=128, n_classes=2, attn_dim=64)
    params = build_model(cfg, seed=0)
    w = params["fc.0.weight"]
    sigma = np.sqrt(2.0 / 256)
    assert np.abs(w).max() <= 2 * sigma + 1e-6  # truncated at 2 sigma
    assert abs(w.std() - sigma * 0.88) < sigma * 0.1  # truncation shrinks std ~12%
    assert np.all(params["fc.0.bias"] == 0.0)


def test_param_count_monotone_in_hidden_dims():
    base = dict(arch="abmil", in_dim=64, embed_dim=32, n_classes=2, attn_dim=16)
    counts = [param_count(ModelConfig(fc_hidden_dims=h, **base))
              for h in [(), (32,), (64,), (64, 32), (64, 64)]]
    assert counts == sorted(counts)
    assert len(set(counts)) == len(counts)


def test_abmil_reference_counts():
    # five Table A1 rows (see test_acceptance) that the construction reproduces exactly
    rows = [
        (920_195, 512, 384, ()),
        (164_611, 128, 128, ()),
        (5_249_027, 512, 512, (2048, 1024)),
        (591_747, 384, 256, ()),
        (1_445_507, 512, 384, (512, 512)),
    ]
    for expected, embed, attn, hidden in rows:
        cfg = ModelConfig("abmil", in_dim=1024, embed_dim=embed, n_classes=2,
                          attn_dim=attn, fc_hidden_dims=hidden)
        assert param_count(cfg) == expected


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------

def test_attention_simplex(tiny_cfg):
    params = build_model(tiny_cfg, seed=1)
    for n in (1, 2, 7):
        out = forward(params, tiny_cfg, random_bag(tiny_cfg, n=n, seed=n))
        assert out.attention.shape == (n,)
        assert out.attention.min() >= 0
        assert abs(out.attention.sum() - 1.0) <= 1e-5
        assert np.isfinite(out.logits).all()
        assert out.logits.shape == (tiny_cfg.n_classes,)
        assert out.embedding.shape == (tiny_cfg.embed_dim,)


def test_permutation_invariance(tiny_cfg):
    params = build_model(tiny_cfg, seed=2)
    x = random_bag(tiny_cfg, n=9, seed=3)
    rng = np.random.default_rng(0)
    perm = rng.permutation(9)
    out1 = forward(params, tiny_cfg, x)
    out2 = forward(params, tiny_cfg, x[perm])
    assert np.allclose(out1.logits, out2.logits, rtol=1e-5, atol=1e-6)
    assert np.allclose(out1.attention[perm], out2.attention, rtol=1e-4, atol=1e-6)


def test_mean_identical_instances_equal_single():
    cfg = ModelConfig("mean", in_dim=8, embed_dim=6, n_classes=2)
    params = build_model(cfg, seed=0)
    row = random_bag(cfg, n=1, seed=1)
    stacked = np.repeat(row, 5, axis=0)
    out1 = forward(params, cfg, row)
    out5 = forward(params, cfg, stacked)
    assert np.allclose(out1.logits, out5.logits, atol=1e-6)


def test_max_selects_higher_positive_logit():
    cfg = ModelConfig("max", in_dim=8, embed_dim=6, n_classes=2)
    params = build_model(cfg, seed=4)
    x = random_bag(cfg, n=2, seed=5)
    out = forward(params, cfg, x)
    per_instance = [forward(params, cfg, x[i:i + 1]) for i in range(2)]
    pos = [float(o.logits[1]) for o in per_instance]
    best = int(np.argmax(pos))
    assert np.allclose(out.logits, per_instance[best].logits, atol=1e-6)
    assert out.attention[best] == 1.0 and out.attention[1 - best] == 0.0


def test_auxmil_aux_logits_shape():
    cfg = ModelConfig("auxmil", in_dim=8, embed_dim=6, n_classes=3, attn_dim=4)
    params = build_model(cfg, seed=0)
    out = forward(params, cfg, random_bag(cfg, n=5))
    assert out.aux_logits.shape == (5, 4)  # n_classes + 1


# ---------------------------------------------------------------------------
# attention examples
# ---------------------------------------------------------------------------

def test_attention_single_instance_is_one(tiny_cfg):
    params = build_model(tiny_cfg, seed=0)
    att = forward(params, tiny_cfg, random_bag(tiny_cfg, n=1)).attention
    assert att.shape == (1,)
    assert att[0] == pytest.approx(1.0, abs=1e-6)


def test_attention_zero_w_uniform():
    cfg = ModelConfig("abmil", in_dim=8, embed_dim=6, n_classes=2, attn_dim=4)
    params = build_model(cfg, seed=0)
    params["attn.w.weight"][:] = 0.0
    params["attn.w.bias"][:] = 0.0
    att = forward(params, cfg, random_bag(cfg, n=6)).attention
    assert np.allclose(att, 1 / 6, atol=1e-7)


def test_attention_duplicated_instance_equal():
    cfg = ModelConfig("abmil", in_dim=8, embed_dim=6, n_classes=2, attn_dim=4)
    params = build_model(cfg, seed=3)
    x = random_bag(cfg, n=4, seed=7)
    x[2] = x[0]
    att = forward(params, cfg, x).attention
    assert abs(att[0] - att[2]) <= 1e-6


# ---------------------------------------------------------------------------
# dropout / error handling
# ---------------------------------------------------------------------------

def test_eval_mode_deterministic(tiny_cfg):
    params = build_model(tiny_cfg, seed=0)
    x = random_bag(tiny_cfg, n=4)
    out1, out2 = forward(params, tiny_cfg, x), forward(params, tiny_cfg, x)
    assert np.array_equal(out1.logits, out2.logits)


def test_dropout_seeded(tiny_cfg):
    params = build_model(tiny_cfg, seed=0)
    x = random_bag(tiny_cfg, n=6)
    a = forward(params, tiny_cfg, x, dropout_seed=11)
    b = forward(params, tiny_cfg, x, dropout_seed=11)
    c = forward(params, tiny_cfg, x, dropout_seed=12)
    assert np.array_equal(a.logits, b.logits)
    assert not np.array_equal(a.logits, c.logits)


def test_forward_input_errors(tiny_cfg):
    params = build_model(tiny_cfg, seed=0)
    with pytest.raises(DataError):
        forward(params, tiny_cfg, np.zeros((3, tiny_cfg.in_dim + 1), dtype=np.float32))
    bad = random_bag(tiny_cfg, n=3)
    bad[1, 0] = np.nan
    with pytest.raises(DataError):
        forward(params, tiny_cfg, bad)


def test_softmax_probabilities():
    z = np.array([1e4, -1e4, 0.0])
    p = softmax(z)
    assert np.isfinite(p).all() and abs(p.sum() - 1) < 1e-12


def test_transformer_no_ff_variant():
    cfg = ModelConfig("transformer", in_dim=8, embed_dim=8, n_classes=2, n_layers=1)
    params = build_model(cfg, seed=0)
    assert not any("ff1" in k or "norm2" in k for k in params)
    out = forward(params, cfg, random_bag(cfg, n=3))
    assert abs(out.attention.sum() - 1.0) <= 1e-5
