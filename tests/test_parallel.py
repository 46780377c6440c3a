"""The thread pool: wide synthetic bags and wide AdamW steps run on it, and
their bytes equal an inline run's at any worker count."""

import os
import signal
import time
import warnings

import numpy as np
import pytest

from miltransfer import bagdata, parallel
from miltransfer.bagdata import FEATURE_PACK, SynthTaskConfig, synth_generate
from miltransfer.models import ModelConfig, build_model, loss_and_grads, param_schema
from miltransfer.training import (
    ADAM_BLOCK,
    ParamStack,
    TrainConfig,
    adamw_step,
    load_split_features,
    train_group,
)


def wide_task_cfg(**kw):
    """A task whose mean bag holds 36 x 512 >= 2^14 values: drawn on the pool."""
    base = dict(task_id="wide", feat_dim=512, n_concepts=6,
                concepts_per_class=((0,), (1,)), witness_rate=0.5,
                bag_size_range=(24, 48), noise_sigma=0.1, n_bags_per_class=8, seed=3,
                split_fractions=(0.5, 0.25, 0.25))
    base.update(kw)
    return SynthTaskConfig(**base)


# an ABMIL of P = 131,618 >= 2 x ADAM_BLOCK: its steps run on the pool at J = 1
WIDE_ABMIL = ModelConfig("abmil", in_dim=512, embed_dim=256, n_classes=2, attn_dim=8)


def with_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "workers", lambda: n)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_generates_a_wide_task_after_the_pool_ran(tmp_path, monkeypatch):
    """The parent's pool threads do not exist in a forked child: the child
    makes its own pool rather than queueing work that nothing runs."""
    with_workers(monkeypatch, 2)
    cfg = wide_task_cfg()
    synth_generate(cfg, tmp_path / "parent")
    pid = os.fork()
    if pid == 0:  # the child: leave through os._exit whatever happens
        code = 1
        try:
            synth_generate(cfg, tmp_path / "child")
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish generating within 60 s")
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert ((tmp_path / "child" / FEATURE_PACK).read_bytes()
            == (tmp_path / "parent" / FEATURE_PACK).read_bytes())


def overflowing_stack():
    """A one-job stack of 2 x ADAM_BLOCK + 7 values whose last gradient
    overflows v's float32 update; at two workers it is in the pool's share."""
    stack = ParamStack.from_params([{"w": np.zeros(2 * ADAM_BLOCK + 7, np.float32)}])
    stack.grads[0, -1] = 1e30
    return stack


@pytest.mark.parametrize("n_workers", [1, 2])
def test_shares_keep_the_callers_numpy_error_state(monkeypatch, n_workers):
    with_workers(monkeypatch, n_workers)
    stack = overflowing_stack()
    assert len(stack._adam_shares) == n_workers
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        adamw_step(stack, 1e-3, 0.0)

    stack = overflowing_stack()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # cli.main's state: a non-finite value is a NumericError, not a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            adamw_step(stack, 1e-3, 0.0)
    assert np.isinf(stack.v[0, -1])


def test_wide_pack_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    packs = {}
    for n_workers in (1, 2):
        with_workers(monkeypatch, n_workers)
        synth_generate(wide_task_cfg(), tmp_path / str(n_workers))
        packs[n_workers] = (tmp_path / str(n_workers) / FEATURE_PACK).read_bytes()
    assert packs[1] == packs[2]


@pytest.fixture(scope="module")
def wide_task(tmp_path_factory):
    manifest = synth_generate(wide_task_cfg(), tmp_path_factory.mktemp("wide"))
    return manifest, load_split_features(manifest)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_wide_training_bytes_do_not_depend_on_the_worker_count(wide_task, monkeypatch,
                                                               n_jobs):
    """Params, m and v after several steps, and ``train_group``'s results,
    are bitwise equal inline and in one share per worker."""
    manifest, features = wide_task
    starts = [build_model(WIDE_ABMIL, seed=j) for j in range(n_jobs)]
    train_cfg = TrainConfig(lr=1e-3, max_epochs=2, min_epochs=1, patience=1, seed=0)
    out = {}
    for n_workers in (1, 2):
        with_workers(monkeypatch, n_workers)
        stack = ParamStack.from_params(starts, param_schema(WIDE_ABMIL))
        assert len(stack._adam_shares) == n_workers
        for e in manifest.split("train")[:5]:
            stack.grads.fill(0.0)
            loss_and_grads(stack.layers, WIDE_ABMIL, features[e.bag_id], e.label,
                           grads=stack.grad_layers)
            adamw_step(stack, 1e-3, 1e-5)
        results = train_group(WIDE_ABMIL, starts, manifest, train_cfg, features)
        out[n_workers] = [stack.params.tobytes(), stack.m.tobytes(), stack.v.tobytes()] + [
            b"".join(r.params[name].tobytes() for name in sorted(r.params)) for r in results]
    assert out[1] == out[2]


def test_writer_stays_within_2_x_workers_plus_1_bags_of_the_draws(tmp_path, monkeypatch):
    with_workers(monkeypatch, 2)
    draws, lags = [], []
    real_bag, real_write = bagdata.synth_bag, bagdata.write_feature_pack

    def counted_bag(*args):
        draws.append(args[2:])
        return real_bag(*args)

    def counted_write(bag_ids, bags, path):
        def pulled():
            for written, x in enumerate(bags):
                lags.append(len(draws) - written)
                yield x
        real_write(bag_ids, pulled(), path)

    monkeypatch.setattr(bagdata, "synth_bag", counted_bag)
    monkeypatch.setattr(bagdata, "write_feature_pack", counted_write)
    cfg = wide_task_cfg(n_bags_per_class=12)
    synth_generate(cfg, tmp_path)
    assert len(lags) == len(draws) == 24
    assert 2 <= max(lags) <= 2 * 2 + 1
