"""Experiment CLI.

Every command reads one JSON experiment config (``config_version: 1``; see
``configs/demo.json``), writes its results under ``<output_dir>/results/``
and appends a deterministic run log.  ``load_config`` parses the file once
into a frozen ``ExperimentConfig`` and checks every section, whether or not
the command reads it; an unknown key is an error, and so is a repeated
entry of seeds, data.targets, protocol.k_shots, protocol.reset_specs or
the synthetic task ids.  Keys, with defaults:

    output_dir, seeds   required; ``--out`` and ``--seed`` override them
    data        root, pretrain, targets: required by the commands that read them
    model       ``ModelConfig``'s fields but n_classes, which the task gives
    train       ``TrainConfig``'s fields but seed, which each job sets
    protocol    n_bootstrap 1000, knn_k 20, distance "euclidean",
                k_shots [4, 16, 32], reset_specs ["attn", "all"],
                max_instances 5000, variance_keep 0.99, scale_rows []
                (objects of model fields that override the model section)
    synthetic   feat_dim, n_concepts, witness_rate, bag_size_range [16, 32],
                noise_sigma and seed, shared by its tasks: objects of
                task_id, concepts_per_class, n_bags_per_class and
                split_fractions [0.6, 0.2, 0.2]

``generate`` writes each synthetic task as three files under
``data.root/<task_id>/``: one feature pack, ``features.milf``, that every
row of its ``manifest.csv`` names, the manifest and ``task.json``.
``pretrain`` trains one checkpoint per seed of the model
``<arch>_<pretrain task>`` and registers it in the zoo as ``<model>_s<seed>``.
The grid commands are job lists over targets x seeds x inits, run by one
executor (``run_jobs``) on the zoo checkpoint of each job's (model, seed):

    transfer     finetune x {pretrained, random}
    knn          frozen-embedding KNN x {pretrained, random}
    fewshot      finetune x {pretrained, random}, per K in protocol.k_shots
    svcca        finetune, then per-layer SVCCA x {pretrained, random}
    reset        finetune x {reset_<spec>} for spec in protocol.reset_specs
    scale-sweep  per protocol.scale_rows row: pretrain the model
                 ``<arch>_<pretrain task>_p<n_params>``, then finetune x
                 {pretrained, random} from its checkpoints; two rows that
                 name one model are a config error

A job's init is ``pretrained``, ``random`` or ``reset_<spec>``.
``transfer.start`` is the one place an init name becomes starting weights,
and ``transfer.source_task`` the one place it becomes the recorded source
task; only ``knn`` bypasses ``start``, embedding the checkpoint itself,
head included, for ``pretrained``.  Jobs that share (model, target, seed,
k_shot) differ only in their init.  These init-siblings train in lockstep as
one parameter stack (``transfer.train_siblings``): ``transfer``, ``fewshot``,
``svcca`` and each ``scale-sweep`` row stack two jobs, and ``reset`` stacks
one job per reset spec.  ``knn`` trains nothing; its two siblings are
embedded as one stack per split (``transfer.embed_bags``).  A sibling's
result equals the one its solo run would write, byte for byte.  Result and
checkpoint bytes are a function of the config, manifest, seed and the
numpy/BLAS build; an SVCCA report on a layer more than 48 units wide can
also depend on the BLAS thread count (``analysis``).

Each job writes ``<tag>_<arch>_<target>_<init>_s<seed>.json``, where the
tag is the command name (``fewshot<K>``, ``scale<n_params>``); ``run_jobs``
alone records the job in a result: protocol, model, arch, target_task,
init, seed, source_task and, for few-shot, k_shot.  ``reset`` writes no
un-reset run: its baseline is ``transfer``'s pretrained result.  ``report``
averages every result within one (protocol, k_shot, task, arch, model, init)
into ``report.json`` and ``report.csv`` (columns protocol, k_shot, task,
arch, model, init, mean, n_runs), with pretrained-minus-random deltas taken
within one (protocol, K, task, model) as ``<protocol><K>/<task>/<model>``
and averaged over tasks as ``<protocol><K>/<model>``.  A result whose key is
missing or mistyped, such as one written before results named their model,
is a data error.
Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.  An
input file that cannot be read or decoded is a data error, or a config
error when it is the config itself.  An undefined metric (AUROC on one
class) is a data error naming the task and split.  A directory under
output_dir or data.root that cannot be created is a config error naming
that key, and an output file that cannot be written (``fileio`` does every
write) one naming the file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import analysis, models, training, transfer
from .bagdata import (
    DatasetManifest,
    SynthTaskConfig,
    fewshot_sample,
    load_manifest,
    synth_generate,
)
from .errors import ConfigError, DataError, NumericError
from .fileio import (append_text, atomic_open, exclusive_lock, make_dirs, read_json,
                     reraise_as, section, typed, typed_fields)
from .metrics import EvalResult
from .models import ModelConfig
from .training import TrainConfig
from .transfer import Checkpoint, config_digest

CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# the experiment config: parsed once into one frozen dataclass per section
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataConfig:
    root: Path | None = None
    pretrain: str | None = None
    targets: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolConfig:
    n_bootstrap: int = 1000
    knn_k: int = 20
    distance: str = "euclidean"
    k_shots: tuple[int, ...] = (4, 16, 32)
    reset_specs: tuple[str, ...] = ("attn", "all")
    max_instances: int = analysis.DEFAULT_SAMPLE_BUDGET
    variance_keep: float = 0.99
    scale_rows: tuple[ModelConfig, ...] = ()  # the model section, each row's keys replaced

    def __post_init__(self):
        for key, minimum in (("n_bootstrap", 0), ("knn_k", 1), ("max_instances", 1)):
            if getattr(self, key) < minimum:
                raise ConfigError(f"{key} must be >= {minimum}, got {getattr(self, key)}")
        if min(self.k_shots, default=1) < 1:
            raise ConfigError(f"k_shots must be >= 1, got {list(self.k_shots)}")
        if self.distance not in transfer.DISTANCES:
            raise ConfigError(f"distance {self.distance!r} is not one of {transfer.DISTANCES}")
        if not set(self.reset_specs) <= set(transfer.RESET_SPECS):
            raise ConfigError(f"reset_specs {self.reset_specs} not in "
                              f"{tuple(transfer.RESET_SPECS)}")
        if not 0.0 < self.variance_keep <= 1.0:
            raise ConfigError(f"variance_keep must be in (0, 1], got {self.variance_keep}")


@dataclass(frozen=True)
class ExperimentConfig:
    output_dir: Path
    seeds: tuple[int, ...]
    data: DataConfig = DataConfig()
    model: ModelConfig | None = None      # 2 classes; retarget() to a task's
    train: TrainConfig = TrainConfig()    # seed 0; each job replace()s it
    protocol: ProtocolConfig = ProtocolConfig()
    synthetic: tuple[SynthTaskConfig, ...] = ()

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-empty and >= 0, got {list(self.seeds)}")
        # a repeated entry would write its results, or its task, twice to one path
        for key, values in (("seeds[{}]", self.seeds), ("data.targets[{}]", self.data.targets),
                            ("protocol.k_shots[{}]", self.protocol.k_shots),
                            ("protocol.reset_specs[{}]", self.protocol.reset_specs),
                            ("synthetic.tasks[{}].task_id",
                             [task.task_id for task in self.synthetic])):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{key.format(i)} repeats "
                                      f"{key.format(values.index(value))}: {value!r}")


# synthetic's own keys, shared by its tasks; a task holds the other fields
SYNTH_SHARED = ("feat_dim", "n_concepts", "witness_rate", "bag_size_range", "noise_sigma", "seed")


def load_config(path: str | Path) -> ExperimentConfig:
    """The experiment config at ``path``; every section parsed and checked once."""
    raw = read_json(path, "config", ConfigError)
    if not isinstance(raw, dict) or raw.pop("config_version", None) != CONFIG_VERSION:
        raise ConfigError(f"config {path}: expected an object with config_version {CONFIG_VERSION}")
    data, model, train, protocol, synthetic = (
        raw.pop(key, {}) for key in ("data", "model", "train", "protocol", "synthetic"))
    protocol = dict(typed(protocol, dict, "protocol"))
    rows = typed(protocol.pop("scale_rows", []), tuple[dict, ...], "protocol.scale_rows")
    synthetic = dict(typed(synthetic, dict, "synthetic"))
    tasks = typed(synthetic.pop("tasks", []), tuple[dict, ...], "synthetic.tasks")
    shared = {"bag_size_range": (16, 32),
              **typed_fields(SynthTaskConfig, synthetic, "synthetic", SYNTH_SHARED)}
    task_keys = [f.name for f in fields(SynthTaskConfig) if f.name not in SYNTH_SHARED]
    return section(
        ExperimentConfig, raw, "", keys=("output_dir", "seeds"),
        data=section(DataConfig, data, "data"),
        model=None if model == {} else section(ModelConfig, model, "model", n_classes=2),
        train=section(TrainConfig, train, "train", seed=0),
        protocol=section(ProtocolConfig, protocol, "protocol", scale_rows=tuple(
            section(ModelConfig, {**model, **row}, f"protocol.scale_rows[{i}]", n_classes=2)
            for i, row in enumerate(rows))),
        synthetic=tuple(section(SynthTaskConfig, task, f"synthetic.tasks[{i}]", task_keys,
                                **shared) for i, task in enumerate(tasks)))


def required(value, key: str):
    """``value``, or a ``ConfigError`` naming ``key`` when it is unset."""
    if not value:
        raise ConfigError(f"{key} is required for this command")
    return value


def task_manifest(cfg: ExperimentConfig, task_id: str) -> DatasetManifest:
    return load_manifest(required(cfg.data.root, "data.root") / task_id / "manifest.csv")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

class Workspace:
    def __init__(self, out_dir: Path, zoo_path: Path | None):
        self.out = Path(out_dir)
        self.results = self.out / "results"
        self.checkpoints = self.out / "checkpoints"
        self.logs = self.out / "logs"
        self.zoo_path = Path(zoo_path) if zoo_path else self.out / "zoo.json"

    def prepare(self):
        make_dirs("output_dir", self.out, self.results, self.checkpoints, self.logs)
        make_dirs("--zoo", self.zoo_path.parent)

    def write_result(self, name: str, result: EvalResult | analysis.StabilityReport) -> Path:
        path = self.results / f"{name}.json"
        with atomic_open(path) as fh:
            fh.write(result.to_json() + "\n")
        return path

    def log_run(self, command: str, cfg: ExperimentConfig, outputs: list[str]):
        entry = {
            "command": command,
            "seeds": cfg.seeds,
            "outputs": sorted(outputs),
        }
        append_text(self.logs / f"{command}.jsonl", json.dumps(entry, sort_keys=True) + "\n")


def _zoo_read(path: Path) -> dict:
    if not path.exists():
        return {"entries": []}
    zoo = read_json(path, "zoo", DataError)
    with reraise_as(DataError, f"zoo {path}"):
        entries = typed(typed(zoo, dict, "zoo").get("entries"), tuple[dict, ...], "entries")
        for i, entry in enumerate(entries):
            typed(entry.get("name"), str, f"entries[{i}].name")
    return zoo


def zoo_update(path: Path, entry: dict):
    """Insert or replace a zoo entry under an exclusive advisory lock."""
    with exclusive_lock(path.with_suffix(".lock")):
        zoo = _zoo_read(path)
        zoo["entries"] = [e for e in zoo["entries"] if e["name"] != entry["name"]]
        zoo["entries"].append(entry)
        zoo["entries"].sort(key=lambda e: e["name"])
        with atomic_open(path) as fh:
            json.dump(zoo, fh, indent=2, sort_keys=True)
            fh.write("\n")


def zoo_lookup(path: Path, name: str) -> Checkpoint:
    for entry in _zoo_read(path)["entries"]:
        if entry["name"] == name:
            with reraise_as(DataError, f"zoo {path}: entry {name!r}"):
                ckpt_path, digest = (typed(entry.get(key), str, key)
                                     for key in ("checkpoint", "cfg_digest"))
            ckpt = transfer.load_checkpoint(ckpt_path)
            if config_digest(ckpt.cfg) != digest:
                raise DataError(f"zoo entry {name!r}: digest does not match checkpoint header")
            return ckpt
    raise DataError(f"zoo entry {name!r} not found in {path}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    root = required(cfg.data.root, "data.root")
    outputs = []
    for task_cfg in required(cfg.synthetic, "synthetic.tasks"):
        make_dirs("data.root", root / task_cfg.task_id)
        manifest = synth_generate(task_cfg, root / task_cfg.task_id)
        outputs.append(str(root / task_cfg.task_id / "manifest.csv"))
        print(f"generated {task_cfg.task_id}: {len(manifest.entries)} bags "
              f"({task_cfg.n_classes} classes)")
    return outputs


def model_name(cfg: ExperimentConfig, mcfg: ModelConfig | None) -> str:
    """``<arch>_<pretrain task>``: the name of ``mcfg`` pretrained on ``data.pretrain``."""
    return f"{required(mcfg, 'model').arch}_{required(cfg.data.pretrain, 'data.pretrain')}"


def zoo_name(model: str, seed: int) -> str:
    """The zoo entry, and checkpoint file stem, of ``model`` pretrained with ``seed``."""
    return f"{model}_s{seed}"


def _pretrain(cfg: ExperimentConfig, ws: Workspace, mcfg: ModelConfig, model: str,
              manifest: DatasetManifest, features) -> list[str]:
    """Pretrain ``mcfg`` once per seed and register each checkpoint as ``model``'s."""
    outputs = []
    for seed in cfg.seeds:
        name = zoo_name(model, seed)
        params = models.build_model(mcfg, seed=seed)
        result = training.train(mcfg, params, manifest, replace(cfg.train, seed=seed), features)
        [eval_result] = training.evaluate_split(mcfg, result.params, manifest, "test", features,
                                                cfg.protocol.n_bootstrap, seed)
        eval_result.context.update(protocol="pretrain", model=model, arch=mcfg.arch,
                                   init="scratch", source_task=manifest.task.task_id,
                                   target_task=manifest.task.task_id, seed=seed)
        ckpt = Checkpoint(cfg=mcfg, params=result.params, pretrain_task_id=manifest.task.task_id,
                          train_summary={"seed": seed, "epochs": len(result.history),
                                         "best_val": result.best_val_metric()})
        ckpt_path = ws.checkpoints / f"{name}.milc"
        transfer.save_checkpoint(ckpt, ckpt_path)
        with atomic_open(ws.checkpoints / f"{name}.history.jsonl") as fh:
            fh.write(result.history_jsonl())
        ws.write_result(f"pretrain_{name}", eval_result)
        zoo_update(ws.zoo_path, {
            "name": name,
            "arch": mcfg.arch,
            "cfg_digest": config_digest(mcfg),
            "pretrain_task_id": manifest.task.task_id,
            "checkpoint": str(ckpt_path),
            "eval_summary": {"metric": eval_result.metric_name,
                             "value": eval_result.value, "std": eval_result.bootstrap_std},
        })
        outputs.append(str(ckpt_path))
        print(f"pretrained {name}: test {eval_result.metric_name}="
              f"{eval_result.value:.4f} ({len(result.history)} epochs)")
    return outputs


def _pretrain_data(cfg: ExperimentConfig) -> tuple[DatasetManifest, dict]:
    manifest = task_manifest(cfg, required(cfg.data.pretrain, "data.pretrain"))
    return manifest, training.load_split_features(manifest)


def cmd_pretrain(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    manifest, features = _pretrain_data(cfg)
    mcfg = required(cfg.model, "model").retarget(manifest.task.n_classes)
    return _pretrain(cfg, ws, mcfg, model_name(cfg, mcfg), manifest, features)


# ---------------------------------------------------------------------------
# the transfer grid: one job list per command, one executor
# ---------------------------------------------------------------------------

INITS = ("pretrained", "random")


@dataclass(frozen=True)
class Job:
    protocol: str               # finetune | knn | svcca
    model: str                  # model_name(), plus _p<n_params> for a scale row
    target: str
    init: str                   # pretrained | random | reset_<spec>
    seed: int
    k_shot: int | None = None


def grid(cfg: ExperimentConfig, protocol: str, inits, k_shots=(None,)) -> list[Job]:
    targets = required(cfg.data.targets, "data.targets")
    model = model_name(cfg, cfg.model)
    return [Job(protocol, model, target, init, seed, k)
            for target in targets for k in k_shots for seed in cfg.seeds for init in inits]


def _run_finetune(cfg: ExperimentConfig, jobs: list[Job], ckpt: Checkpoint,
                  target: DatasetManifest, features) -> list[EvalResult]:
    k_shot, seed = jobs[0].k_shot, jobs[0].seed
    if k_shot is not None:
        target = fewshot_sample(target, k_shot, seed)
    return [res for _, res in transfer.finetune_group(
        ckpt, [job.init for job in jobs], target, replace(cfg.train, seed=seed), features,
        n_bootstrap=cfg.protocol.n_bootstrap)]


def _run_knn(cfg: ExperimentConfig, jobs: list[Job], ckpt: Checkpoint,
             target: DatasetManifest, features) -> list[EvalResult]:
    proto = cfg.protocol
    # the checkpoint's own config and head, not init_from_pretrained's fresh
    # one: under max pooling the classifier picks the embedded instance
    params = models.stack_params([
        ckpt.params if job.init == "pretrained"
        else transfer.start(ckpt, job.init, ckpt.cfg.n_classes, job.seed)[1] for job in jobs])
    _, train_emb, train_y = transfer.embed_bags(ckpt.cfg, params, target, "train", features)
    test_ids, test_emb, test_y = transfer.embed_bags(ckpt.cfg, params, target, "test", features)
    return [transfer.knn_evaluate(
        train_emb[j], train_y, test_emb[j], test_y, target.task, k=proto.knn_k,
        distance=proto.distance, bag_ids=test_ids, n_bootstrap=proto.n_bootstrap, seed=job.seed)
        for j, job in enumerate(jobs)]


def _run_svcca(cfg: ExperimentConfig, jobs: list[Job], ckpt: Checkpoint,
               target: DatasetManifest, features) -> list[analysis.StabilityReport]:
    proto = cfg.protocol
    seed = jobs[0].seed
    start_cfg, starts, results = transfer.train_siblings(
        ckpt, [job.init for job in jobs], target, replace(cfg.train, seed=seed), features)
    return [analysis.layer_stability_report(
        Checkpoint(cfg=start_cfg, params=start), result.params, target,
        max_instances=proto.max_instances,
        seed=seed, variance_keep=proto.variance_keep, features=features,
        model_tag=f"{job.model}_{job.target}_{job.init}_s{seed}")
        for job, start, result in zip(jobs, starts, results)]


RUNNERS = {"finetune": _run_finetune, "knn": _run_knn, "svcca": _run_svcca}


def _summary(result) -> str:
    if isinstance(result, EvalResult):
        return f"{result.metric_name}={result.value:.4f}"
    return " ".join(f"{layer['name']}={layer['mean']:.1f}" for layer in result.layers)


def run_jobs(cfg: ExperimentConfig, ws: Workspace, tag: str, jobs: list[Job]) -> list[str]:
    """Run ``jobs`` in order and write one result per job.

    Consecutive jobs that share (protocol, model, target, seed, k_shot) are
    init-siblings and go to their runner together, which trains them as
    one stack; the ``grid`` order puts siblings next to each other.  Each
    (model, seed) checkpoint is read from the zoo once.  A target's manifest
    and features are read once per run of consecutive jobs on it, which the
    ``grid`` order makes once per target.  Each result is then given its
    whole job identity here, and only here.
    """
    checkpoint = cache(lambda model, seed: zoo_lookup(ws.zoo_path, zoo_name(model, seed)))
    loaded_target, target, features = None, None, None
    outputs = []
    for (protocol, model, target_id, seed, k_shot), siblings in itertools.groupby(
            jobs, key=lambda job: (job.protocol, job.model, job.target, job.seed, job.k_shot)):
        siblings = list(siblings)
        if target_id != loaded_target:
            target = task_manifest(cfg, target_id)
            features = None  # the previous target's cache dies before the next is read
            features = training.load_split_features(target)
            loaded_target = target_id
        ckpt = checkpoint(model, seed)
        results = RUNNERS[protocol](cfg, siblings, ckpt, target, features)
        prefix = tag if k_shot is None else f"{tag}{k_shot}"
        for job, result in zip(siblings, results):
            if isinstance(result, EvalResult):
                result.context.update(
                    protocol=protocol, model=model, arch=ckpt.cfg.arch, target_task=target_id,
                    init=job.init, seed=seed, source_task=transfer.source_task(ckpt, job.init),
                    **({} if k_shot is None else {"k_shot": k_shot}))
            name = f"{prefix}_{ckpt.cfg.arch}_{target_id}_{job.init}_s{seed}"
            outputs.append(str(ws.write_result(name, result)))
            print(f"{prefix} {ckpt.cfg.arch} -> {target_id} [{job.init}, seed {seed}]: "
                  f"{_summary(result)}")
    return outputs


def cmd_transfer(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    return run_jobs(cfg, ws, "transfer", grid(cfg, "finetune", INITS))


def cmd_knn(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    return run_jobs(cfg, ws, "knn", grid(cfg, "knn", INITS))


def cmd_fewshot(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    k_shots = required(cfg.protocol.k_shots, "protocol.k_shots")
    return run_jobs(cfg, ws, "fewshot", grid(cfg, "finetune", INITS, k_shots))


def cmd_svcca(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    return run_jobs(cfg, ws, "svcca", grid(cfg, "svcca", INITS))


def cmd_reset(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    # the un-reset baseline is transfer's finetune/pretrained job
    specs = required(cfg.protocol.reset_specs, "protocol.reset_specs")
    return run_jobs(cfg, ws, "reset", grid(cfg, "finetune", [f"reset_{s}" for s in specs]))


def cmd_scale_sweep(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    rows = required(cfg.protocol.scale_rows, "protocol.scale_rows")
    manifest, features = _pretrain_data(cfg)
    mcfgs = [row.retarget(manifest.task.n_classes) for row in rows]
    sizes = [models.param_count(mcfg) for mcfg in mcfgs]
    names = [f"{model_name(cfg, mcfg)}_p{n_params}" for mcfg, n_params in zip(mcfgs, sizes)]
    for i, model in enumerate(names):  # equal names would share checkpoints and results
        if names.index(model) != i:
            raise ConfigError(f"protocol.scale_rows[{names.index(model)}] and "
                              f"protocol.scale_rows[{i}] both name model {model}")
    outputs = []
    for mcfg, n_params, model in zip(mcfgs, sizes, names):
        # each row's jobs name the checkpoints that _pretrain registers
        jobs = grid(replace(cfg, model=mcfg), "finetune", INITS)
        outputs += _pretrain(cfg, ws, mcfg, model, manifest, features)
        outputs += run_jobs(cfg, ws, f"scale{n_params}", [replace(j, model=model) for j in jobs])
    return outputs


REPORT_KEYS = ("protocol", "k_shot", "task", "arch", "model", "init")
# the result context field each report key reads, with its type
RESULT_KEY = {"protocol": str, "k_shot": int | None, "target_task": str, "arch": str,
              "model": str, "init": str}


def _read_result(path: Path) -> tuple[tuple, float] | None:
    """A result file's report key and value, typed; None for an SVCCA report."""
    with reraise_as(DataError, f"result {path}"):
        d = typed(read_json(path, "result", DataError), dict, "the file")
        if "layers" in d:
            return None
        result = EvalResult.from_json(d)
        key = tuple(typed(result.context.get(k), hint, f"context.{k}")
                    for k, hint in RESULT_KEY.items())
        return key, result.value


def cmd_report(cfg: ExperimentConfig, ws: Workspace) -> list[str]:
    # one group per REPORT_KEYS: no mean mixes protocols, K values or models
    groups: dict[tuple, list[float]] = {}
    for path in sorted(ws.results.glob("*.json")):
        read = _read_result(path)
        if read is not None:
            groups.setdefault(read[0], []).append(read[1])
    if not groups:
        raise DataError(f"no evaluation results found under {ws.results}")

    table = []
    # k_shot None (a full-data run) sorts before every K
    for key in sorted(groups, key=lambda key: (key[0], key[1] or 0, key[2:])):
        row = dict(zip(REPORT_KEYS, key))
        row.update(mean=float(np.mean(groups[key])), n_runs=len(groups[key]))
        table.append(row)

    # deltas recomputed from the raw per-run values, never cached arithmetic
    deltas = {}
    gaps: dict[str, list[float]] = {}
    for (protocol, k_shot, task, arch, model, init), values in groups.items():
        base = groups.get((protocol, k_shot, task, arch, model, "random"))
        if init != "pretrained" or not base:
            continue
        label = protocol if k_shot is None else f"{protocol}{k_shot}"
        delta = float(np.mean(values) - np.mean(base))
        deltas[f"{label}/{task}/{model}"] = delta
        gaps.setdefault(f"{label}/{model}", []).append(delta)
    average = {key: float(np.mean(g)) for key, g in sorted(gaps.items())}

    report = {"rows": table, "deltas": dict(sorted(deltas.items())), "average_delta": average,
              "n_results": sum(map(len, groups.values()))}
    report_path = ws.out / "report.json"
    with atomic_open(report_path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    csv_path = ws.out / "report.csv"
    with atomic_open(csv_path) as fh:
        fh.write(",".join(REPORT_KEYS) + ",mean,n_runs\n")
        for row in table:
            cells = ("" if row[key] is None else row[key] for key in REPORT_KEYS)
            fh.write(",".join(map(str, cells)) + f",{row['mean']:.6f},{row['n_runs']}\n")
    for key, delta in sorted(deltas.items()):
        print(f"delta {key}: {delta:+.4f}")
    print(f"report written to {report_path}")
    return [str(report_path), str(csv_path)]


COMMANDS = {
    "generate": cmd_generate,
    "pretrain": cmd_pretrain,
    "transfer": cmd_transfer,
    "knn": cmd_knn,
    "fewshot": cmd_fewshot,
    "svcca": cmd_svcca,
    "reset": cmd_reset,
    "scale-sweep": cmd_scale_sweep,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="miltransfer",
                                     description="MIL transfer experiment harness")
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--out", default=None, help="override config output_dir")
    parser.add_argument("--zoo", default=None, help="zoo manifest path")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seeds=(args.seed,))
        if args.out:
            cfg = replace(cfg, output_dir=Path(args.out))
        ws = Workspace(cfg.output_dir, Path(args.zoo) if args.zoo else None)
        ws.prepare()
        # each non-finite value raises a NumericError; numpy's warnings only echo it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            outputs = COMMANDS[args.command](cfg, ws)
        ws.log_run(args.command, cfg, outputs)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
