"""Weakly-supervised multiple-instance-learning aggregators with
supervised pretraining and transfer evaluation."""

from .bagdata import (
    DatasetManifest,
    ManifestEntry,
    SynthTaskConfig,
    TaskSpec,
    concept_prototypes,
    fewshot_sample,
    load_manifest,
    read_feature_file,
    synth_generate,
    weighted_epoch_order,
    write_feature_file,
    write_manifest,
)
from .models import (
    ForwardOutput,
    ModelConfig,
    build_model,
    forward,
    loss_and_grads,
    param_count,
    param_schema,
)
from .training import TrainConfig, TrainResult, adamw_step, cosine_lr, train
from .transfer import (
    Checkpoint,
    embed_bags,
    finetune,
    init_from_pretrained,
    knn_evaluate,
    load_checkpoint,
    reset_layers,
    save_checkpoint,
)
from .analysis import (
    ActivationDump,
    StabilityReport,
    capture_activations,
    layer_stability_report,
    svcca,
)
from .metrics import (
    EvalResult,
    auroc,
    balanced_accuracy,
    bootstrap,
    evaluate_records,
    quadratic_weighted_kappa,
)

__version__ = "0.1.0"
