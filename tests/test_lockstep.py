"""Init-siblings trained in lockstep on one stacked parameter arena.

A stack of J jobs must give each job exactly the bytes of its solo run:
the model kernel per step, and the trainer over whole runs, early stopping
included.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import kernel_configs, random_bag, tiny_configs
from miltransfer import SynthTaskConfig, TrainConfig, build_model, synth_generate, train
from miltransfer.errors import NumericError
from miltransfer.models import forward, loss_and_grads, param_schema, stack_params
from miltransfer.training import ParamStack, evaluate_split, load_split_features, train_group
from miltransfer.transfer import (
    Checkpoint,
    embed_bags,
    finetune_group,
    save_checkpoint,
)


def output_bytes(out):
    """Every field of a ForwardOutput, as bytes."""
    fields = {"logits": out.logits, "embedding": out.embedding, "attention": out.attention,
              "aux_logits": out.aux_logits,
              **{f"act:{name}": a for name, a in out.activations.items()}}
    return {name: None if a is None else (a.dtype, a.tobytes()) for name, a in fields.items()}


def stacked(cfg, params_list):
    """The trainer's arena: strided (J, *shape) views of one (J, P) buffer."""
    return ParamStack.from_params(params_list, param_schema(cfg))


@pytest.mark.parametrize("name", sorted(tiny_configs()))
def test_arena_row_is_the_checkpoint_blob(name, tmp_path):
    cfg = tiny_configs()[name]
    params = build_model(cfg, seed=0)
    path = tmp_path / "m.milc"
    save_checkpoint(Checkpoint(cfg=cfg, params=params), path)
    row = stacked(cfg, [build_model(cfg, seed=1), params]).params[1]
    assert path.read_bytes().endswith(row.astype("<f4").tobytes())


# no bag size, nor a bag size plus the class token, equals a tiny layer
# width (1, 2, 3, 4, 5, 6, 7, 8, 12, 24); at 10 and 14 the auxmil top-8 and
# bottom-8 sets overlap, at 17 they do not
@pytest.mark.parametrize("n", [10, 14, 17])
@pytest.mark.parametrize("dropout_seed", [None, 17], ids=["eval", "dropout"])
@pytest.mark.parametrize("name", sorted(kernel_configs()))
def test_stacked_loss_and_grads_equal_solo_bitwise(name, dropout_seed, n):
    """Also: ``forward`` is the kernel's output, bit for bit, solo and stacked."""
    cfg = kernel_configs()[name]
    starts = [build_model(cfg, seed=s) for s in (3, 4, 5)]
    x = random_bag(cfg, n=n, seed=n)
    kwargs = dict(aux_weight=0.3 if cfg.arch == "auxmil" else 0.0, dropout_seed=dropout_seed)
    stack = stacked(cfg, starts)
    losses, grads, out = loss_and_grads(stack.layers, cfg, x, 1, grads=stack.grad_layers, **kwargs)
    assert losses.shape == (3,)
    assert (output_bytes(forward(stack.layers, cfg, x, dropout_seed=dropout_seed))
            == output_bytes(out))
    for j, params in enumerate(starts):
        loss, solo, solo_out = loss_and_grads(params, cfg, x, 1, **kwargs)
        assert (output_bytes(forward(params, cfg, x, dropout_seed=dropout_seed))
                == output_bytes(solo_out))
        assert losses[j] == loss
        for layer in solo:
            assert grads[layer][j].tobytes() == solo[layer].tobytes(), layer
        assert out.logits[j].tobytes() == solo_out.logits.tobytes()
        assert out.embedding[j].tobytes() == solo_out.embedding.tobytes()
        assert out.attention[j].tobytes() == solo_out.attention.tobytes()


@pytest.mark.parametrize("name", sorted(tiny_configs()))
def test_stacked_embed_bags_equal_solo_bitwise(name, easy_task, easy_features):
    cfg = replace(tiny_configs()[name], in_dim=16)
    params = [build_model(cfg, seed=s) for s in (3, 4)]
    ids, emb, labels = embed_bags(cfg, stack_params(params), easy_task, "test", easy_features)
    assert emb.shape == (2, len(ids), cfg.embed_dim)
    for j, solo in enumerate(params):
        solo_ids, solo_emb, solo_labels = embed_bags(cfg, solo, easy_task, "test", easy_features)
        assert ids == solo_ids and labels.tobytes() == solo_labels.tobytes()
        assert emb[j].tobytes() == solo_emb.tobytes()


@pytest.mark.parametrize("name", sorted(tiny_configs()))
def test_stacked_evaluate_split_equals_solo(name, easy_task, easy_features):
    """Each job's test result from a stack of three, bootstrap and all, is
    its solo call's."""
    cfg = replace(tiny_configs()[name], in_dim=16)
    params = [build_model(cfg, seed=s) for s in (3, 4, 5)]
    results = evaluate_split(cfg, stack_params(params), easy_task, "test", easy_features,
                             n_bootstrap=50, seed=2)
    assert len(results) == len(params)
    for result, solo in zip(results, params):
        [solo_result] = evaluate_split(cfg, solo, easy_task, "test", easy_features,
                                       n_bootstrap=50, seed=2)
        assert result.to_json() == solo_result.to_json()


@pytest.fixture(scope="module")
def noisy_task(tmp_path_factory):
    """A hard 2-class task on which siblings stop early at different epochs."""
    cfg = SynthTaskConfig(
        task_id="noisy", feat_dim=16, n_concepts=6, concepts_per_class=((0,), (1,)),
        witness_rate=0.3, bag_size_range=(5, 19), noise_sigma=0.5, n_bags_per_class=20,
        seed=3)
    manifest = synth_generate(cfg, tmp_path_factory.mktemp("noisy"))
    return manifest, load_split_features(manifest)


def test_siblings_stopping_apart_match_solo_runs(noisy_task, tiny_abmil):
    manifest, features = noisy_task
    cfg = tiny_abmil
    tcfg = TrainConfig(lr=3e-3, max_epochs=5, min_epochs=2, patience=1, seed=4)
    starts = [build_model(cfg, seed=s) for s in (1, 2, 3)]
    group = train_group(cfg, starts, manifest, tcfg, features)
    solo = [train(cfg, params, manifest, tcfg, features) for params in starts]
    assert len({len(r.history) for r in solo}) > 1, "siblings must stop at different epochs"
    for g, s in zip(group, solo):
        assert g.history == s.history
        for layer in s.params:
            assert g.params[layer].tobytes() == s.params[layer].tobytes(), layer


def test_nonfinite_sibling_gradient_names_init_and_layer(easy_task, easy_features, tiny_abmil,
                                                         monkeypatch):
    from miltransfer import training

    real = training.models.loss_and_grads

    def poisoned(*args, **kwargs):
        loss, grads, out = real(*args, **kwargs)
        grads["attn.U.weight"][1, 0, 0] = np.nan  # the second sibling only
        return loss, grads, out

    monkeypatch.setattr(training.models, "loss_and_grads", poisoned)
    source = Checkpoint(cfg=tiny_abmil, params=build_model(tiny_abmil, seed=0))
    tcfg = TrainConfig(lr=1e-3, max_epochs=1, min_epochs=1, patience=1, seed=0)
    with pytest.raises(NumericError, match=r"'attn\.U\.weight' of job random"):
        finetune_group(source, ("pretrained", "random", "reset_attn"), easy_task, tcfg,
                       easy_features, n_bootstrap=10)
