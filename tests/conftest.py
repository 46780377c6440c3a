import numpy as np
import pytest

from miltransfer import ModelConfig, SynthTaskConfig, TrainConfig, synth_generate
from miltransfer.training import load_split_features


@pytest.fixture(scope="session")
def easy_task(tmp_path_factory):
    """Small 2-class task with near-noiseless witnesses; trains in seconds."""
    cfg = SynthTaskConfig(
        task_id="easy", feat_dim=16, n_concepts=6,
        concepts_per_class=((0,), (1,)),
        witness_rate=0.5, bag_size_range=(8, 16), noise_sigma=0.05,
        n_bags_per_class=40, seed=11)
    root = tmp_path_factory.mktemp("easy_task")
    manifest = synth_generate(cfg, root)
    return manifest


@pytest.fixture(scope="session")
def easy_features(easy_task):
    return load_split_features(easy_task)


@pytest.fixture(scope="session")
def tiny_abmil():
    return ModelConfig("abmil", in_dim=16, embed_dim=16, n_classes=2, attn_dim=8)


@pytest.fixture
def quick_train_cfg():
    return TrainConfig(lr=1e-3, max_epochs=6, min_epochs=2, patience=2, seed=0)


def tiny_configs():
    """One small config per architecture, for parametrized contract tests."""
    return {
        "mean": ModelConfig("mean", in_dim=8, embed_dim=6, n_classes=2),
        "max": ModelConfig("max", in_dim=8, embed_dim=6, n_classes=2),
        "abmil": ModelConfig("abmil", in_dim=8, embed_dim=6, n_classes=3, attn_dim=4),
        "auxmil": ModelConfig("auxmil", in_dim=8, embed_dim=6, n_classes=3, attn_dim=4),
        "transformer": ModelConfig("transformer", in_dim=8, embed_dim=8, n_classes=2,
                                   n_layers=2, encoder_hidden_dim=12),
    }


def kernel_configs():
    """``tiny_configs`` plus the kernel branches they miss: max's multiclass
    selection, a 3-layer FC stack and stacked blocks without feed-forward."""
    return {
        **tiny_configs(),
        "max_3class": ModelConfig("max", in_dim=8, embed_dim=6, n_classes=3),
        "auxmil_3fc": ModelConfig("auxmil", in_dim=8, embed_dim=6, n_classes=3, attn_dim=4,
                                  fc_hidden_dims=(7, 5)),
        "transformer_noff": ModelConfig("transformer", in_dim=8, embed_dim=8, n_classes=2,
                                        n_layers=2),
    }


@pytest.fixture(params=sorted(tiny_configs()))
def tiny_cfg(request):
    return tiny_configs()[request.param]


def random_bag(cfg: ModelConfig, n: int = 5, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, cfg.in_dim)).astype(np.float32)
