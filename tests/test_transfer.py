import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bag
from miltransfer import (
    Checkpoint,
    ModelConfig,
    TaskSpec,
    TrainConfig,
    build_model,
    embed_bags,
    finetune,
    init_from_pretrained,
    knn_evaluate,
    load_checkpoint,
    reset_layers,
    save_checkpoint,
    train,
)
from miltransfer.errors import (
    CheckpointFormatError,
    ConfigError,
    DataError,
    NumericError,
    ShapeMismatchError,
    VersionMismatchError,
)
from miltransfer.models import param_schema
from miltransfer.transfer import CHECKPOINT_VERSION, config_digest, knn_predict, start


@pytest.fixture
def abmil_ckpt():
    cfg = ModelConfig("abmil", in_dim=16, embed_dim=12, n_classes=4, attn_dim=8,
                      fc_hidden_dims=(14, 13))
    params = build_model(cfg, seed=9)
    # emulate a trained checkpoint: biases move away from their zero init
    rng = np.random.default_rng(99)
    for name, v in params.items():
        if name.endswith(".bias"):
            params[name] = v + rng.standard_normal(v.shape).astype(np.float32) * 0.1
    return Checkpoint(cfg=cfg, params=params, pretrain_task_id="src")


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path, abmil_ckpt):
    path = tmp_path / "m.milc"
    save_checkpoint(abmil_ckpt, path)
    back = load_checkpoint(path)
    assert back.cfg == abmil_ckpt.cfg
    assert back.pretrain_task_id == "src"
    for k, v in abmil_ckpt.params.items():
        assert np.array_equal(back.params[k].view(np.uint32), v.view(np.uint32))


def test_checkpoint_tampered_shape(tmp_path, abmil_ckpt):
    path = tmp_path / "m.milc"
    save_checkpoint(abmil_ckpt, path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 5)
    header = json.loads(raw[13:13 + header_len])
    header["layers"][0]["shape"] = [1, 1]
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:5] + struct.pack("<Q", len(new_header)) + new_header
                     + raw[13 + header_len:])
    with pytest.raises(ShapeMismatchError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path, abmil_ckpt):
    path = tmp_path / "m.milc"
    save_checkpoint(abmil_ckpt, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def _edit_header(edit):
    """A corruption that rewrites the JSON header through ``edit``."""
    def corrupt(raw: bytes) -> bytes:
        (n,) = struct.unpack_from("<Q", raw, 5)
        header = json.dumps(edit(json.loads(raw[13:13 + n])), sort_keys=True).encode()
        return raw[:5] + struct.pack("<Q", len(header)) + header + raw[13 + n:]
    return corrupt


def _drop_offset(header):
    del header["layers"][0]["offset"]
    return header


MALFORMED_CHECKPOINTS = {
    **{f"cut_at_{n}": (lambda raw, n=n: raw[:n]) for n in range(4, 13)},
    "header_without_cfg": _edit_header(lambda h: {k: v for k, v in h.items() if k != "cfg"}),
    "header_without_layers": _edit_header(
        lambda h: {k: v for k, v in h.items() if k != "layers"}),
    "layer_without_offset": _edit_header(_drop_offset),
    "unknown_cfg_field": _edit_header(lambda h: {**h, "cfg": {**h["cfg"], "bogus": 1}}),
    "layers_not_a_list": _edit_header(lambda h: {**h, "layers": 7}),
    "header_is_a_list": _edit_header(lambda h: [h]),
    "header_without_format_version": _edit_header(
        lambda h: {k: v for k, v in h.items() if k != "format_version"}),
    "header_length_past_eof": lambda raw: raw[:5] + struct.pack("<Q", len(raw)) + raw[13:],
    "header_without_cfg_digest": _edit_header(
        lambda h: {k: v for k, v in h.items() if k != "cfg_digest"}),
    # an edited cfg would otherwise load as a different model
    "stale_cfg_digest": _edit_header(lambda h: {**h, "cfg": {**h["cfg"], "dropout_ff": 0.2}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_is_format_error(tmp_path, abmil_ckpt, case):
    path = tmp_path / "m.milc"
    save_checkpoint(abmil_ckpt, path)
    path.write_bytes(MALFORMED_CHECKPOINTS[case](path.read_bytes()))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_header_keys(tmp_path, abmil_ckpt):
    path = tmp_path / "m.milc"
    save_checkpoint(abmil_ckpt, path)
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 5)
    header = json.loads(raw[13:13 + n])
    assert header["format_version"] == CHECKPOINT_VERSION
    assert "created_at" not in header
    # headers written before the timestamp key was dropped still load
    path.write_bytes(_edit_header(lambda h: {**h, "created_at": ""})(raw))
    back = load_checkpoint(path)
    assert back.cfg == abmil_ckpt.cfg and back.pretrain_task_id == "src"


def test_mean_checkpoint_into_abmil_names_missing_layers(tmp_path):
    cfg = ModelConfig("mean", in_dim=16, embed_dim=12, n_classes=2)
    ckpt = Checkpoint(cfg=cfg, params=build_model(cfg, seed=0))
    target = TaskSpec("t", 2, ("a", "b"), "auroc")
    abmil = Checkpoint(
        cfg=ModelConfig("abmil", in_dim=16, embed_dim=12, n_classes=2, attn_dim=8),
        params=ckpt.params, pretrain_task_id="mean_src")
    with pytest.raises(ShapeMismatchError, match="attn"):
        init_from_pretrained(abmil, target.n_classes, seed=0)


def test_config_digest_stable(abmil_ckpt):
    assert config_digest(abmil_ckpt.cfg) == config_digest(abmil_ckpt.cfg)
    other = ModelConfig("abmil", in_dim=16, embed_dim=12, n_classes=4, attn_dim=9,
                        fc_hidden_dims=(14, 13))
    assert config_digest(other) != config_digest(abmil_ckpt.cfg)


# ---------------------------------------------------------------------------
# init_from_pretrained
# ---------------------------------------------------------------------------

def test_init_from_pretrained_copies_backbone(abmil_ckpt):
    cfg, params = init_from_pretrained(abmil_ckpt, 2, seed=1)
    assert cfg.n_classes == 2
    assert params["classifier.weight"].shape == (2, 12)
    for name, _ in param_schema(cfg):
        if name.startswith("classifier."):
            continue
        assert np.array_equal(params[name], abmil_ckpt.params[name]), name


def test_classifier_reinit_even_when_classes_match(abmil_ckpt):
    cfg, params = init_from_pretrained(abmil_ckpt, 4, seed=1)
    assert cfg.n_classes == 4
    assert not np.array_equal(params["classifier.weight"],
                              abmil_ckpt.params["classifier.weight"])


def test_random_start_equals_direct_training(easy_task, easy_features, tiny_abmil):
    tcfg = TrainConfig(seed=4, lr=1e-3, max_epochs=3, min_epochs=1, patience=1)
    source = Checkpoint(cfg=tiny_abmil.retarget(3), params=build_model(tiny_abmil.retarget(3), 0))
    result, eval_result = finetune(source, "random", easy_task, tcfg, easy_features,
                                   n_bootstrap=0)
    direct = train(tiny_abmil, build_model(tiny_abmil, seed=4), easy_task, tcfg, easy_features)
    for k in direct.params:
        assert np.array_equal(result.params[k], direct.params[k])
    assert eval_result.context["init"] == eval_result.context["source_task"] == "random"


def _bytes(params):
    return {name: p.tobytes() for name, p in params.items()}


@pytest.mark.parametrize("init", ["pretrained", "random", "reset_attn", "reset_all"])
def test_start_equals_the_direct_construction(abmil_ckpt, init):
    cfg, params = start(abmil_ckpt, init, 2, seed=6)
    assert cfg == abmil_ckpt.cfg.retarget(2)
    if init == "random":
        want = build_model(cfg, seed=6)
    else:
        src = abmil_ckpt
        if init != "pretrained":
            reset = reset_layers(src, init.removeprefix("reset_"), seed=6)
            src = Checkpoint(cfg=src.cfg, params=reset)
        want = init_from_pretrained(src, 2, seed=6)[1]
    assert list(params) == [name for name, _ in param_schema(cfg)]
    assert _bytes(params) == _bytes(want)


@pytest.mark.parametrize("init", ["bogus", "reset_bogus", "Pretrained", "reset_"])
def test_start_rejects_unknown_init(abmil_ckpt, init):
    with pytest.raises(ConfigError):
        start(abmil_ckpt, init, 2, seed=0)


@pytest.mark.parametrize("init", ["pretrained", "reset_attn", "reset_all", "random"])
def test_start_from_auxmil_redraws_both_heads(init):
    """A 5-class auxmil source into a 2-class target: the classifier and the
    aux head (one row per class plus "other") are drawn fresh at the
    target's shapes, and the backbone is copied or reset as the init says."""
    src_cfg = ModelConfig("auxmil", in_dim=16, embed_dim=12, n_classes=5, attn_dim=8,
                          fc_hidden_dims=(14,))
    rng = np.random.default_rng(99)
    src = Checkpoint(cfg=src_cfg, pretrain_task_id="src", params={
        name: v + rng.standard_normal(v.shape).astype(np.float32) * 0.1
        for name, v in build_model(src_cfg, seed=9).items()})
    cfg, params = start(src, init, 2, seed=6)
    assert cfg == src_cfg.retarget(2)
    heads = {"classifier.weight": (2, 12), "classifier.bias": (2,),
             "aux.head.weight": (3, 12), "aux.head.bias": (3,)}
    assert list(params) == [name for name, _ in param_schema(cfg)]
    for name, shape in heads.items():
        assert params[name].shape == shape, name
        if name.endswith(".bias"):
            assert not params[name].any(), name
        else:  # the truncated-normal draw, not a slice of the source head
            assert 0 < np.abs(params[name]).max() <= 2 * np.sqrt(2.0 / 12), name
            assert not np.isin(params[name], src.params[name]).any(), name
    reset = {"pretrained": (), "reset_attn": ("attn.",), "reset_all": ("fc.", "attn."),
             "random": ("fc.", "attn.")}[init]
    for name, _ in param_schema(cfg):
        if name not in heads:
            copied = np.array_equal(params[name], src.params[name])
            assert copied != name.startswith(reset), name


# ---------------------------------------------------------------------------
# embed_bags
# ---------------------------------------------------------------------------

def test_embed_mean_identical_instances():
    cfg = ModelConfig("mean", in_dim=6, embed_dim=5, n_classes=2)
    params = build_model(cfg, seed=0)
    x = random_bag(cfg, n=1, seed=2)
    bag = np.repeat(x, 4, axis=0)
    from miltransfer.models import forward
    emb = forward(params, cfg, bag).embedding
    expected = np.maximum(x[0] @ params["fc.0.weight"].T + params["fc.0.bias"], 0.0)
    assert np.allclose(emb, expected, atol=1e-6)


def test_embed_bags_shapes_and_invariance(easy_task, easy_features, tiny_abmil):
    params = build_model(tiny_abmil, seed=0)
    ids, emb, labels = embed_bags(tiny_abmil, params, easy_task, "test", easy_features)
    assert emb.shape == (len(ids), tiny_abmil.embed_dim)
    assert len(labels) == len(ids)
    # per-bag permutation invariance
    e0 = easy_task.split("test")[0]
    x = easy_features[e0.bag_id]
    from miltransfer.models import forward
    rng = np.random.default_rng(1)
    emb1 = forward(params, tiny_abmil, x).embedding
    emb2 = forward(params, tiny_abmil, x[rng.permutation(len(x))]).embedding
    assert np.allclose(emb1, emb2, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# knn
# ---------------------------------------------------------------------------

def test_knn_k1_coincident_point():
    train_emb = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    train_y = np.array([0, 1, 0])
    preds, _ = knn_predict(train_emb, train_y, np.array([[5.0, 5.0]]), k=1, n_classes=2)
    assert preds[0] == 1


def test_knn_single_class_train():
    rng = np.random.default_rng(0)
    train_emb = rng.standard_normal((10, 3))
    train_y = np.ones(10, dtype=np.int64)
    test_emb = rng.standard_normal((6, 3))
    preds, _ = knn_predict(train_emb, train_y, test_emb, k=5, n_classes=3)
    assert (preds == 1).all()
    from miltransfer.metrics import balanced_accuracy
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert balanced_accuracy(preds, labels, 3) == pytest.approx(1 / 3)


def test_knn_separated_blobs_auroc_one():
    # blobs 10 sigma apart; brute-force neighbor check via exact distances
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 4))
    b = rng.standard_normal((40, 4)) + 10.0
    train_emb = np.vstack([a[:30], b[:30]])
    train_y = np.array([0] * 30 + [1] * 30)
    test_emb = np.vstack([a[30:], b[30:]])
    test_y = np.array([0] * 10 + [1] * 10)
    task = TaskSpec("blobs", 2, ("a", "b"), "auroc")
    res = knn_evaluate(train_emb, train_y, test_emb, test_y, task, k=20, n_bootstrap=0)
    assert res.value == 1.0


def test_knn_rotation_invariant():
    rng = np.random.default_rng(5)
    train_emb = rng.standard_normal((30, 6))
    train_y = rng.integers(0, 2, 30)
    test_emb = rng.standard_normal((12, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    p1, f1 = knn_predict(train_emb, train_y, test_emb, k=5, n_classes=2)
    p2, f2 = knn_predict(train_emb @ q.T, train_y, test_emb @ q.T, k=5, n_classes=2)
    assert np.array_equal(p1, p2)
    assert np.allclose(f1, f2)


def test_knn_k_too_large():
    with pytest.raises(DataError):
        knn_predict(np.zeros((3, 2)), np.zeros(3, dtype=int), np.zeros((1, 2)),
                    k=4, n_classes=2)


# ---------------------------------------------------------------------------
# Gram-matrix KNN against the broadcast reference
# ---------------------------------------------------------------------------
# The reference is the whole-query broadcast with a per-query vote loop that
# the Gram form replaced.  Neighbors, predictions and positive fractions must
# match it bitwise: the Gram only chooses candidates, whose distances are then
# the reference's own expression.

def _ref_knn_predict(train_embeddings, train_labels, query, k, n_classes,
                     distance="euclidean"):
    if distance == "euclidean":
        d = np.sqrt(np.maximum(
            ((query[:, None, :] - train_embeddings[None, :, :]) ** 2).sum(-1), 0.0))
    else:
        qn = query / np.maximum(np.linalg.norm(query, axis=1, keepdims=True), 1e-12)
        tn = train_embeddings / np.maximum(
            np.linalg.norm(train_embeddings, axis=1, keepdims=True), 1e-12)
        d = 1.0 - qn @ tn.T
    preds = np.zeros(query.shape[0], dtype=np.int64)
    pos_fraction = np.zeros(query.shape[0])
    for i in range(query.shape[0]):
        order = np.argsort(d[i], kind="stable")[:k]
        neigh_labels = train_labels[order]
        votes = np.bincount(neigh_labels, minlength=n_classes)
        tied = np.flatnonzero(votes == votes.max())
        if tied.size > 1:
            inv = np.zeros(n_classes)
            for c in tied:
                inv[c] = (1.0 / (d[i][order][neigh_labels == c] + 1e-12)).sum()
            tied = tied[inv[tied] == inv[tied].max()]
        preds[i] = tied[0]
        pos_fraction[i] = (neigh_labels == 1).mean()
    return preds, pos_fraction


def _knn_case(kind, rng, n, q, dim, dtype):
    """(train, query) embeddings of one kind of hard case."""
    if kind == "ties":  # small integer grid: many exactly equal distances
        train = rng.integers(-2, 3, (n, dim)).astype(dtype)
        query = rng.integers(-2, 3, (q, dim)).astype(dtype)
    elif kind == "duplicates":  # repeated train points, queries on top of some
        base = rng.standard_normal((max(1, n // 3), dim)).astype(dtype)
        train = base[rng.integers(0, len(base), n)]
        query = np.concatenate([train[rng.integers(0, n, q // 2)],
                                rng.standard_normal((q - q // 2, dim)).astype(dtype)])
    elif kind == "ulp":  # copies of one point, coordinates one float32 ulp apart
        point = rng.standard_normal(dim).astype(np.float32)
        steps = rng.integers(-1, 2, (n, dim))
        train = np.where(steps > 0, np.nextafter(point, np.float32(np.inf)),
                         np.where(steps < 0, np.nextafter(point, np.float32(-np.inf)), point))
        train = train.astype(dtype)
        query = (point + rng.choice([0.0, 1e-3, 1.0], (q, 1))
                 * rng.standard_normal((q, dim))).astype(dtype)
    else:
        train = rng.standard_normal((n, dim)).astype(dtype)
        query = rng.standard_normal((q, dim)).astype(dtype)
    return train, query


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), q=st.integers(0, 12),
       dim=st.integers(1, 16), n_classes=st.integers(2, 4),
       kind=st.sampled_from(["random", "ties", "duplicates", "ulp"]),
       dtype=st.sampled_from([np.float32, np.float64]),
       distance=st.sampled_from(["euclidean", "cosine"]), data=st.data())
def test_knn_matches_broadcast_reference(seed, n, q, dim, n_classes, kind, dtype,
                                         distance, data):
    rng = np.random.default_rng(seed)
    train_emb, query = _knn_case(kind, rng, n, q, dim, dtype)
    train_y = rng.integers(0, n_classes, n)
    k = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="k")
    preds, pos = knn_predict(train_emb, train_y, query, k, n_classes, distance)
    want_preds, want_pos = _ref_knn_predict(train_emb, train_y, query, k, n_classes,
                                            distance)
    assert preds.dtype == want_preds.dtype and np.array_equal(preds, want_preds)
    assert pos.tobytes() == want_pos.tobytes()


def test_knn_k_equals_n_on_wide_float32():
    rng = np.random.default_rng(11)
    train_emb = rng.standard_normal((40, 512)).astype(np.float32)
    train_y = rng.integers(0, 2, 40)
    query = rng.standard_normal((9, 512)).astype(np.float32)
    for k in (1, 20, 40):
        got = knn_predict(train_emb, train_y, query, k, 2)
        want = _ref_knn_predict(train_emb, train_y, query, k, 2)
        assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()
    preds, pos = knn_predict(train_emb, train_y, query[:0], 6, 2)
    assert preds.shape == (0,) and pos.shape == (0,)


def test_knn_float32_rounding_ties_keep_train_order():
    # three points one ulp apart along x; seen from 1000 away along y their
    # float32 squared distances round to one value, so train order picks the
    # neighbor, while the float64 Gram alone would pick the nearest, index 2
    point = np.float32(0.3)
    train_emb = np.array([[np.nextafter(point, np.float32(-1)), 0.0], [point, 0.0],
                          [np.nextafter(point, np.float32(1)), 0.0]], dtype=np.float32)
    train_y = np.array([0, 0, 1])
    query = np.array([[point + np.float32(1.0), 1000.0]], dtype=np.float32)
    preds, pos = knn_predict(train_emb, train_y, query, k=1, n_classes=2)
    assert preds.tolist() == [0] and pos.tolist() == [0.0]
    assert np.array_equal(preds, _ref_knn_predict(train_emb, train_y, query, 1, 2)[0])


KNN_BAD_INPUTS = {
    "width_mismatch": (DataError, lambda t, y, q: (t, y, q[:, :3])),
    "label_too_large": (DataError, lambda t, y, q: (t, np.where(y == 1, 5, y), q)),
    "label_negative": (DataError, lambda t, y, q: (t, y - 1, q)),
    "label_count": (DataError, lambda t, y, q: (t, y[:-1], q)),
    "nan_train": (NumericError, lambda t, y, q: (np.where(t > 1.0, np.nan, t), y, q)),
    "inf_query": (NumericError, lambda t, y, q: (t, y, np.where(q > 1.0, np.inf, q))),
}


@pytest.mark.parametrize("case", sorted(KNN_BAD_INPUTS))
def test_knn_rejects_bad_inputs(case):
    rng = np.random.default_rng(2)
    train_emb = rng.standard_normal((12, 4)).astype(np.float32)
    train_y = rng.integers(0, 2, 12)
    query = rng.standard_normal((5, 4)).astype(np.float32)
    error, corrupt = KNN_BAD_INPUTS[case]
    with pytest.raises(error):
        knn_predict(*corrupt(train_emb, train_y, query), k=3, n_classes=2)


def test_knn_cosine_switch():
    rng = np.random.default_rng(6)
    train_emb = rng.standard_normal((25, 4))
    train_y = rng.integers(0, 2, 25)
    test_emb = rng.standard_normal((5, 4))
    p_euc, _ = knn_predict(train_emb, train_y, test_emb, k=5, n_classes=2)
    p_cos, _ = knn_predict(train_emb, train_y, test_emb, k=5, n_classes=2,
                           distance="cosine")
    assert p_euc.shape == p_cos.shape  # both defined; values may differ


# ---------------------------------------------------------------------------
# reset_layers
# ---------------------------------------------------------------------------

def test_reset_attn_only(abmil_ckpt):
    params = reset_layers(abmil_ckpt, "attn", seed=3)
    for name in params:
        if name.startswith("attn."):
            assert not np.array_equal(params[name], abmil_ckpt.params[name]), name
        else:
            assert np.array_equal(params[name], abmil_ckpt.params[name]), name


def test_reset_all_backbone(abmil_ckpt):
    params = reset_layers(abmil_ckpt, "all", seed=3)
    for name in params:
        if name.startswith("classifier."):
            assert np.array_equal(params[name], abmil_ckpt.params[name])
        else:
            assert not np.array_equal(params[name], abmil_ckpt.params[name]), name


def test_reset_lin2plus_pattern(abmil_ckpt):
    # 3 FC layers: fc.0 preserved, fc.1 fc.2 and attn reset
    params = reset_layers(abmil_ckpt, "lin2plus", seed=3)
    assert np.array_equal(params["fc.0.weight"], abmil_ckpt.params["fc.0.weight"])
    for name in ("fc.1.weight", "fc.2.weight", "attn.V.weight", "attn.U.weight",
                 "attn.w.weight"):
        assert not np.array_equal(params[name], abmil_ckpt.params[name]), name


def test_reset_lin3plus_pattern(abmil_ckpt):
    params = reset_layers(abmil_ckpt, "lin3plus", seed=3)
    assert np.array_equal(params["fc.0.weight"], abmil_ckpt.params["fc.0.weight"])
    assert np.array_equal(params["fc.1.weight"], abmil_ckpt.params["fc.1.weight"])
    assert not np.array_equal(params["fc.2.weight"], abmil_ckpt.params["fc.2.weight"])


def test_reset_requires_depth():
    cfg = ModelConfig("abmil", in_dim=8, embed_dim=6, n_classes=2, attn_dim=4)
    ckpt = Checkpoint(cfg=cfg, params=build_model(cfg, seed=0))
    with pytest.raises(ConfigError, match="3 FC layers"):
        reset_layers(ckpt, "lin2plus", seed=0)
    with pytest.raises(ConfigError):
        reset_layers(ckpt, "bogus", seed=0)


def test_reset_deterministic(abmil_ckpt):
    a = reset_layers(abmil_ckpt, "attn", seed=5)
    b = reset_layers(abmil_ckpt, "attn", seed=5)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_reset_all_draws_match_fresh_init_distribution(abmil_ckpt):
    """reset all goes through the same initializer as build_model: per-layer
    spread matches a fresh draw of the same architecture."""
    reset = reset_layers(abmil_ckpt, "all", seed=11)
    fresh = build_model(abmil_ckpt.cfg, seed=12)
    for name in reset:
        if name.startswith("classifier.") or name.endswith(".bias"):
            continue
        a, b = reset[name].std(), fresh[name].std()
        assert abs(a - b) < 0.35 * max(a, b), name
        assert np.abs(reset[name]).max() <= 2.0 * np.sqrt(2.0 / reset[name].shape[-1]) + 1e-6


# ---------------------------------------------------------------------------
# finetune plumbing
# ---------------------------------------------------------------------------

def test_finetune_from_pretrained_records_context(easy_task, easy_features, tiny_abmil):
    src = Checkpoint(cfg=tiny_abmil.retarget(3), params=build_model(tiny_abmil.retarget(3), seed=1),
                     pretrain_task_id="pretask")
    tcfg = TrainConfig(seed=0, lr=1e-3, max_epochs=2, min_epochs=1, patience=1)
    _, eval_result = finetune(src, "pretrained", easy_task, tcfg, easy_features, n_bootstrap=50)
    assert eval_result.context["init"] == "pretrained"
    assert eval_result.context["source_task"] == "pretask"
    assert eval_result.context["target_task"] == easy_task.task.task_id
    assert 0.0 <= eval_result.value <= 1.0
