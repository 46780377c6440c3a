"""The tiled eval pass.

``models.eval_pass`` runs the row-wise layers over fixed-height tiles of a
split's concatenated instances and the bag-mixing layers per bag.  These
tests shrink the tile so that bags straddle tiles and chunks hold one or
several bags, and check the invariants that hold by construction: a bag's
outputs depend only on the parameters and that bag, and they agree with
the per-bag training kernel to float32 rounding.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import tiny_configs
from miltransfer import build_model, loss_and_grads, models
from miltransfer.errors import DataError
from miltransfer.models import eval_pass, forward, stack_params

# 8: every bag of 9-16 rows spans two tiles; 20: one or two whole bags per
# chunk; 512: the whole split in one chunk
TILE_ROWS = (8, 20, 512)


def wide(name):
    """A tiny config on the 16-d easy task."""
    return replace(tiny_configs()[name], in_dim=16)


def outputs(params, cfg, manifest, features, bag_ids=None):
    """bag id -> the pass's output fields, copied out of the tiles."""
    got = {}
    for e, out in eval_pass(params, cfg, manifest, "test", features, bag_ids=bag_ids):
        got[e.bag_id] = fields(out)
    return got


def fields(out):
    return {"logits": out.logits, "embedding": out.embedding, "attention": out.attention,
            **{f"act:{name}": a for name, a in out.activations.items()}}


def assert_bitwise(got, want, where):
    assert got.keys() == want.keys(), where
    for name in want:
        assert got[name].dtype == want[name].dtype, f"{where}: {name}"
        assert got[name].tobytes() == want[name].tobytes(), f"{where}: {name}"


@pytest.mark.parametrize("tile", TILE_ROWS)
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(tiny_configs()))
def test_tiled_pass_invariants(name, n_jobs, tile, easy_task, easy_features, monkeypatch):
    monkeypatch.setattr(models, "EVAL_TILE_ROWS", tile)
    cfg = wide(name)
    solos = [build_model(cfg, seed=s) for s in (3, 4)[:n_jobs]]
    params = solos[0] if n_jobs == 1 else stack_params(solos)
    full = outputs(params, cfg, easy_task, easy_features)
    entries = easy_task.split("test")

    # (a) each stack row is its solo pass
    if n_jobs > 1:
        for j, solo in enumerate(solos):
            for bag_id, want in outputs(solo, cfg, easy_task, easy_features).items():
                assert_bitwise({k: v[j] for k, v in full[bag_id].items()}, want,
                               f"job {j} bag {bag_id}")

    # (b) a subset pass, and the one-bag forward, equal the full pass
    subset = {e.bag_id for e in entries[1::3]}
    part = outputs(params, cfg, easy_task, easy_features, bag_ids=subset)
    assert list(part) == [e.bag_id for e in entries if e.bag_id in subset]
    for bag_id, got in part.items():
        assert_bitwise(got, full[bag_id], f"subset bag {bag_id}")
    e = entries[-1]
    assert_bitwise(fields(forward(params, cfg, easy_features[e.bag_id])), full[e.bag_id],
                   f"forward bag {e.bag_id}")

    # (c) the per-bag training kernel agrees to float32 rounding, and
    # (d) attention stays on the simplex
    for e in entries:
        got = full[e.bag_id]
        want = fields(loss_and_grads(params, cfg, easy_features[e.bag_id], e.label)[2])
        assert got.keys() == want.keys()
        moved = [k for k in want if got[k].tobytes() != want[k].tobytes()]
        for k in want:
            np.testing.assert_allclose(
                got[k], want[k], rtol=1e-5, atol=1e-6,
                err_msg=f"bag {e.bag_id} field {k}; not bitwise equal: {moved}")
        att = got["attention"]
        assert att.min() >= 0.0
        np.testing.assert_allclose(att.sum(axis=-1), 1.0, atol=1e-5)


@pytest.mark.parametrize("name", sorted(tiny_configs()))
def test_eval_pass_never_reaches_the_per_bag_kernel(name, easy_task, easy_features,
                                                    monkeypatch):
    def per_bag(*args, **kwargs):
        raise AssertionError("eval_pass ran the per-bag kernel")

    monkeypatch.setattr(models, "_forward_cached", per_bag)
    monkeypatch.setattr(models, "forward", per_bag)
    monkeypatch.setattr(models, "EVAL_TILE_ROWS", 20)
    cfg = wide(name)
    for params in (build_model(cfg, seed=0), stack_params([build_model(cfg, seed=s)
                                                           for s in (0, 1)])):
        got = list(eval_pass(params, cfg, easy_task, "test", easy_features))
        assert len(got) == len(easy_task.split("test"))


@pytest.mark.parametrize("bad", ["nan", "narrow"])
def test_malformed_bag_names_split_and_bag(bad, easy_task, easy_features, tiny_abmil):
    params = build_model(tiny_abmil, seed=0)
    bag = easy_task.split("val")[2].bag_id
    x = easy_features[bag].copy()
    if bad == "nan":
        x[1, 3] = np.nan
        message = f"val bag {bag!r} features contain non-finite values"
    else:
        x = x[:, :-1]
        message = f"val bag {bag!r} feature dim 15 does not match model in_dim 16"
    features = {**easy_features, bag: x}
    with pytest.raises(DataError, match=re.escape(message)):
        list(eval_pass(params, tiny_abmil, easy_task, "val", features))
