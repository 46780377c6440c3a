import math

import numpy as np
import pytest

from conftest import random_bag
from miltransfer import ModelConfig, TrainConfig, build_model, cosine_lr, forward, train
from miltransfer.bagdata import DatasetManifest
from miltransfer.errors import ConfigError, DataError, NumericError
from miltransfer.models import aux_loss, cross_entropy, loss_and_grads, zeros_like_params
from miltransfer.training import ParamStack, adamw_step, evaluate_split


# ---------------------------------------------------------------------------
# cosine schedule
# ---------------------------------------------------------------------------

def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 1e-4) == pytest.approx(1e-4)
    assert cosine_lr(100, 100, 1e-4) == pytest.approx(0.0, abs=1e-20)
    assert cosine_lr(50, 100, 1e-4) == pytest.approx(5e-5)


def test_cosine_out_of_range():
    with pytest.raises(DataError):
        cosine_lr(101, 100, 1e-4)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def make_params():
    return {"w": np.array([1.0, -2.0, 3.0]), "b": np.array([0.5])}


def adamw(params, grads, lr, weight_decay):
    """One ``adamw_step`` on a one-job stack of hand-made dicts; returns
    the updated parameters."""
    stack = ParamStack.from_params([params])
    for name, g in grads.items():
        stack.grad_layers[name][0] = g
    adamw_step(stack, lr, weight_decay)
    return stack.views(stack.params[0])


def test_adamw_zero_grad_zero_decay_identity():
    params = make_params()
    before = {k: v.copy() for k, v in params.items()}
    params = adamw(params, zeros_like_params(params), lr=1e-3, weight_decay=0.0)
    assert all(np.array_equal(params[k], before[k]) for k in params)


def test_adamw_first_step_is_signed():
    params = {"w": np.zeros(3)}
    grads = {"w": np.array([0.5, -2.0, 1e-3])}
    params = adamw(params, grads, lr=1e-3, weight_decay=0.0)
    # bias-corrected first step equals -lr * sign(g) up to O(eps)
    assert np.allclose(params["w"], -1e-3 * np.sign(grads["w"]), rtol=1e-4)


def test_adamw_decoupled_decay():
    params = make_params()
    before = {k: v.copy() for k, v in params.items()}
    params = adamw(params, zeros_like_params(params), lr=1e-4, weight_decay=1e-5)
    for k in params:
        assert np.allclose(params[k], before[k] * (1 - 1e-9), rtol=1e-15)


def test_adamw_nonfinite_gradient_names_layer():
    params = make_params()
    grads = zeros_like_params(params)
    grads["b"][0] = np.inf
    with pytest.raises(NumericError, match="'b'"):
        adamw(params, grads, 1e-3, 0.0)


# ---------------------------------------------------------------------------
# the training loss, from loss_and_grads
# ---------------------------------------------------------------------------

def logit_model(bias):
    """A float64 abmil whose logits equal ``bias`` on every bag."""
    cfg = ModelConfig("abmil", in_dim=8, embed_dim=6, n_classes=len(bias), attn_dim=4)
    params = build_model(cfg, seed=0, dtype=np.float64)
    params["classifier.weight"][:] = 0.0
    params["classifier.bias"][:] = bias
    return cfg, params


def test_loss_uniform_logits_ln2():
    cfg, params = logit_model([0.0, 0.0])
    loss, _, _ = loss_and_grads(params, cfg, random_bag(cfg), 0)
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_loss_vanishes_with_margin():
    losses = []
    for m in (1.0, 5.0, 20.0):
        cfg, params = logit_model([m, 0.0])
        losses.append(loss_and_grads(params, cfg, random_bag(cfg), 0)[0])
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < 1e-8


def test_auxmil_zero_weight_matches_abmil_loss():
    cfg = ModelConfig("auxmil", in_dim=8, embed_dim=6, n_classes=2, attn_dim=4)
    params = build_model(cfg, seed=0)
    x = random_bag(cfg, n=5, seed=1)
    out = forward(params, cfg, x)
    plain = float(cross_entropy(out.logits, 1)[0])
    loss0, _, _ = loss_and_grads(params, cfg, x, 1, aux_weight=0.0)
    assert plain == pytest.approx(loss0, abs=1e-9)


def test_loss_and_grads_matches_forward_loss_with_aux():
    cfg = ModelConfig("auxmil", in_dim=8, embed_dim=6, n_classes=3, attn_dim=4)
    params = build_model(cfg, seed=2)
    x = random_bag(cfg, n=12, seed=3)
    out = forward(params, cfg, x)
    expected = (float(cross_entropy(out.logits, 2)[0])
                + 0.3 * float(aux_loss(out.aux_logits, out.attention, 2, 3)[0]))
    actual, _, _ = loss_and_grads(params, cfg, x, 2, aux_weight=0.3)
    assert actual == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_no_val_runs_exactly_ten_epochs(easy_task, easy_features, tiny_abmil):
    no_val = easy_task.with_entries([e for e in easy_task.entries if e.split != "val"])
    params = build_model(tiny_abmil, seed=0)
    result = train(tiny_abmil, params, no_val, TrainConfig(seed=0), easy_features)
    assert len(result.history) == 10
    assert all(h["val_metric"] is None for h in result.history)


def test_train_runs_to_max_epochs_when_improving(easy_task, easy_features, tiny_abmil):
    # patience can never trigger when every epoch improves; emulate by
    # max_epochs < min window so early stopping cannot fire
    params = build_model(tiny_abmil, seed=0)
    cfg = TrainConfig(seed=0, max_epochs=4, min_epochs=4, patience=99)
    result = train(tiny_abmil, params, easy_task, cfg, easy_features)
    assert len(result.history) == 4


def test_train_deterministic_bitwise(easy_task, easy_features, tiny_abmil, quick_train_cfg):
    p1 = train(tiny_abmil, build_model(tiny_abmil, seed=1), easy_task,
               quick_train_cfg, easy_features).params
    p2 = train(tiny_abmil, build_model(tiny_abmil, seed=1), easy_task,
               quick_train_cfg, easy_features).params
    for k in p1:
        assert np.array_equal(p1[k].view(np.uint32), p2[k].view(np.uint32))


def test_checkpoint_on_best(easy_task, easy_features, tiny_abmil):
    cfg = TrainConfig(seed=3, lr=1e-3, max_epochs=8, min_epochs=2, patience=3)
    result = train(tiny_abmil, build_model(tiny_abmil, seed=3), easy_task, cfg, easy_features)
    best = max(h["val_metric"] for h in result.history)
    val = evaluate_split(tiny_abmil, result.params, easy_task, "val", easy_features)[0].value
    assert val == pytest.approx(best, abs=1e-9)


def test_evaluate_split_rejects_non_finite_logits(easy_task, easy_features, tiny_abmil):
    params = build_model(tiny_abmil, seed=0)
    params["classifier.bias"][1] = np.nan
    with pytest.raises(NumericError):
        evaluate_split(tiny_abmil, params, easy_task, "val", easy_features)


def test_training_loss_decreases(easy_task, easy_features, tiny_abmil):
    result = train(tiny_abmil, build_model(tiny_abmil, seed=0), easy_task,
                   TrainConfig(seed=0, lr=1e-3), easy_features)
    losses = [h["train_loss"] for h in result.history]
    assert losses[min(9, len(losses) - 1)] < losses[0]


def test_trained_model_separates_easy_task(easy_task, easy_features, tiny_abmil):
    result = train(tiny_abmil, build_model(tiny_abmil, seed=0), easy_task,
                   TrainConfig(seed=0, lr=1e-3), easy_features)
    val = evaluate_split(tiny_abmil, result.params, easy_task, "val", easy_features)[0].value
    assert val >= 0.99


def test_history_jsonl_shape(easy_task, easy_features, tiny_abmil, quick_train_cfg):
    result = train(tiny_abmil, build_model(tiny_abmil, seed=0), easy_task,
                   quick_train_cfg, easy_features)
    import json
    lines = result.history_jsonl().strip().split("\n")
    assert len(lines) == len(result.history)
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "train_loss", "val_metric", "lr"}


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(min_epochs=30, max_epochs=20)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError, match="weight_decay"):
        TrainConfig(weight_decay=-1.0)
    with pytest.raises(ConfigError, match="aux_weight"):
        TrainConfig(aux_weight=-0.1)
