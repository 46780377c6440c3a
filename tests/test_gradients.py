"""Finite-difference validation of the analytic gradients, per architecture.

Central differences with h = 1e-4 in float64; every parameter coordinate
must match within 1e-4 relative error.
"""

import numpy as np
import pytest

from conftest import kernel_configs
from miltransfer import ModelConfig, build_model
from miltransfer.models import loss_and_grads

H = 1e-4
TOL = 1e-4


def fd_worst_error(cfg, n_instances=3, aux_weight=0.0, dropout_seed=None, seed=0):
    rng = np.random.default_rng(seed)
    params = {k: v.astype(np.float64) for k, v in build_model(cfg, seed=seed).items()}
    x = rng.standard_normal((n_instances, cfg.in_dim))
    label = cfg.n_classes - 1
    kwargs = dict(aux_weight=aux_weight, dropout_seed=dropout_seed)
    _, grads, _ = loss_and_grads(params, cfg, x, label, **kwargs)
    worst = 0.0
    for name, p in params.items():
        flat = p.ravel()
        analytic = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            lp, _, _ = loss_and_grads(params, cfg, x, label, **kwargs)
            flat[i] = orig - H
            lm, _, _ = loss_and_grads(params, cfg, x, label, **kwargs)
            flat[i] = orig
            fd = (lp - lm) / (2 * H)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-3)
            worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("name", sorted(kernel_configs()))
def test_gradients_eval_mode(name):
    cfg = kernel_configs()[name]
    aux = 0.3 if cfg.arch == "auxmil" else 0.0
    assert fd_worst_error(cfg, aux_weight=aux) < TOL


@pytest.mark.parametrize("name", sorted(kernel_configs()))
def test_gradients_with_dropout(name):
    cfg = kernel_configs()[name]
    aux = 0.3 if cfg.arch == "auxmil" else 0.0
    assert fd_worst_error(cfg, aux_weight=aux, dropout_seed=123) < TOL


def test_gradients_deep_fc_stack():
    cfg = ModelConfig("abmil", in_dim=8, embed_dim=4, n_classes=2, attn_dim=4,
                      fc_hidden_dims=(6, 5))
    assert fd_worst_error(cfg) < TOL


def test_gradients_transformer_no_ff():
    cfg = ModelConfig("transformer", in_dim=8, embed_dim=8, n_classes=2, n_layers=1)
    assert fd_worst_error(cfg) < TOL
