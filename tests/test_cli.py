import builtins
import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import miltransfer
from miltransfer import fileio, training, transfer
from miltransfer.bagdata import load_manifest, write_feature_file, write_manifest
from miltransfer.cli import load_config, main, zoo_update
from miltransfer.errors import ConfigError
from miltransfer.metrics import EvalResult
from miltransfer.training import load_split_features
from test_bagdata import PACK_DEFECTS, write_malformed_pack, write_pack


def base_config(root, out):
    return {
        "config_version": 1,
        "output_dir": str(out),
        "seeds": [0],
        "data": {"root": str(root), "pretrain": "pre4", "targets": ["tgt"]},
        "synthetic": {
            "feat_dim": 12, "n_concepts": 8, "witness_rate": 0.4,
            "bag_size_range": [6, 12], "noise_sigma": 0.15, "seed": 5,
            "tasks": [
                {"task_id": "pre4", "n_bags_per_class": 12,
                 "concepts_per_class": [[0], [1], [2], [3]]},
                {"task_id": "tgt", "n_bags_per_class": 60,
                 "concepts_per_class": [[0], [2]]},
            ],
        },
        "model": {"arch": "abmil", "in_dim": 12, "embed_dim": 10, "attn_dim": 6},
        "train": {"lr": 1e-3, "max_epochs": 1, "min_epochs": 1, "patience": 1},
        "protocol": {"n_bootstrap": 8, "knn_k": 5, "k_shots": [4, 16, 32],
                     "reset_specs": ["attn", "all"]},
    }


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate + pretrain once; commands under test reuse the workspace."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg = base_config(tmp / "data", tmp / "runs")
    cfg_path = write_config(tmp, cfg)
    assert main(["--config", cfg_path, "generate"]) == 0
    assert main(["--config", cfg_path, "pretrain"]) == 0
    return tmp, cfg, cfg_path


def test_generate_wrote_tasks(pipeline):
    """Each task is one feature pack that every manifest row names, the
    manifest and its task spec: three files, whatever its bag count."""
    tmp, cfg, _ = pipeline
    for task_id in ("pre4", "tgt"):
        task_dir = tmp / "data" / task_id
        assert sorted(p.name for p in task_dir.iterdir()) == [
            "features.milf", "manifest.csv", "task.json"]
        assert {e.path for e in load_manifest(task_dir / "manifest.csv").entries} == {
            "features.milf"}


def test_pretrain_wrote_checkpoint_zoo_and_result(pipeline):
    tmp, cfg, _ = pipeline
    out = tmp / "runs"
    assert (out / "checkpoints" / "abmil_pre4_s0.milc").exists()
    zoo = json.loads((out / "zoo.json").read_text())
    assert [e["name"] for e in zoo["entries"]] == ["abmil_pre4_s0"]
    res = EvalResult.from_json((out / "results" / "pretrain_abmil_pre4_s0.json").read_text())
    assert res.metric_name == "balanced_accuracy"


def test_transfer_writes_pretrained_and_random_pair(pipeline):
    tmp, cfg, cfg_path = pipeline
    assert main(["--config", cfg_path, "transfer"]) == 0
    out = tmp / "runs" / "results"
    names = {p.name for p in out.glob("transfer_*.json")}
    assert names == {"transfer_abmil_tgt_pretrained_s0.json",
                     "transfer_abmil_tgt_random_s0.json"}
    res = EvalResult.from_json((out / "transfer_abmil_tgt_pretrained_s0.json").read_text())
    assert res.context["init"] == "pretrained"
    assert res.context["source_task"] == "pre4"


def test_knn_command(pipeline):
    tmp, cfg, cfg_path = pipeline
    assert main(["--config", cfg_path, "knn"]) == 0
    out = tmp / "runs" / "results"
    assert (out / "knn_abmil_tgt_pretrained_s0.json").exists()
    assert (out / "knn_abmil_tgt_random_s0.json").exists()


def test_fewshot_produces_k_by_seed_grid(tmp_path):
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    cfg["seeds"] = [0, 1, 2, 3, 4]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "generate"]) == 0
    assert main(["--config", cfg_path, "pretrain"]) == 0
    assert main(["--config", cfg_path, "fewshot"]) == 0
    results = list((tmp_path / "runs" / "results").glob("fewshot*_*.json"))
    per_init = {"pretrained": 0, "random": 0}
    for p in results:
        res = EvalResult.from_json(p.read_text())
        per_init[res.context["init"]] += 1
        assert res.context["k_shot"] in (4, 16, 32)
    # 3 K values x 5 seeds = 15 per (arch, init)
    assert per_init == {"pretrained": 15, "random": 15}


def test_reset_command(pipeline):
    tmp, cfg, cfg_path = pipeline
    assert main(["--config", cfg_path, "reset"]) == 0
    out = tmp / "runs" / "results"
    kinds = set()
    for p in out.glob("reset_abmil_tgt_*.json"):
        kinds.add(EvalResult.from_json(p.read_text()).context["init"])
    assert kinds == {"reset_attn", "reset_all"}


def test_svcca_command(pipeline):
    tmp, cfg, cfg_path = pipeline
    assert main(["--config", cfg_path, "svcca"]) == 0
    out = tmp / "runs" / "results"
    report = json.loads((out / "svcca_abmil_tgt_pretrained_s0.json").read_text())
    assert any(l["name"] == "attn" for l in report["layers"])


def test_report_aggregates_and_computes_delta(pipeline):
    tmp, cfg, cfg_path = pipeline
    assert main(["--config", cfg_path, "report"]) == 0
    report = json.loads((tmp / "runs" / "report.json").read_text())
    rows = {(r["protocol"], r["k_shot"], r["task"], r["init"]): r for r in report["rows"]}
    for protocol in ("finetune", "knn"):
        pre = rows[(protocol, None, "tgt", "pretrained")]
        rand = rows[(protocol, None, "tgt", "random")]
        # one run per seed: knn and reset results stay out of the finetune rows
        assert pre["n_runs"] == rand["n_runs"] == len(cfg["seeds"])
        delta = pre["mean"] - rand["mean"]
        assert report["deltas"][f"{protocol}/tgt/abmil_pre4"] == pytest.approx(delta)
        assert report["average_delta"][f"{protocol}/abmil_pre4"] == pytest.approx(delta)
    transfer = EvalResult.from_json(
        (tmp / "runs" / "results" / "transfer_abmil_tgt_pretrained_s0.json").read_text())
    assert rows[("finetune", None, "tgt", "pretrained")]["mean"] == transfer.value
    assert rows[("finetune", None, "tgt", "reset_attn")]["n_runs"] == len(cfg["seeds"])
    lines = (tmp / "runs" / "report.csv").read_text().splitlines()
    assert lines[0] == "protocol,k_shot,task,arch,model,init,mean,n_runs"
    assert len(lines) == len(report["rows"]) + 1


def test_report_empty_results_is_data_error(tmp_path):
    cfg = base_config(tmp_path / "data", tmp_path / "empty_runs")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "report"]) == 3


GOOD_CONTEXT = {"protocol": "finetune", "target_task": "tgt", "arch": "abmil",
                "model": "abmil_pre4", "init": "pretrained", "seed": 0}


def _result_bytes(**changes) -> bytes:
    res = EvalResult("auroc", 0.75, 0.01, 8, 0, ["b0"], [1], [0.75], dict(GOOD_CONTEXT))
    d = json.loads(res.to_json())
    d.update(changes)
    return json.dumps(d).encode()


def _context_bytes(**changes) -> bytes:
    """A result whose context is the good one with ``changes`` (None drops a key)."""
    context = {**GOOD_CONTEXT, **changes}
    return _result_bytes(context={k: v for k, v in context.items() if v is not None})


# case -> (bytes of results/bad.json, None for none or DIRECTORY for a
# directory of that name, expected exit code, the field the error names
# besides the file)
DIRECTORY = "directory"
REPORT_INPUTS = {
    "directory": (DIRECTORY, 3, ""),
    "nested_too_deep": (b"[" * 100_000, 3, ""),
    "list": (b"[]", 3, ""),
    "not_utf8": (b"\xff\xfe\x00 not json", 3, ""),
    "context_list": (_result_bytes(context=[]), 3, ""),
    "truncated": (_result_bytes()[:40], 3, ""),
    "no_metric": (b'{"value": 0.5}', 3, "metric"),
    "value_string": (_result_bytes(value="x"), 3, "value"),
    "value_null": (_result_bytes(value=None), 3, "value"),
    "init_list": (_context_bytes(init=["a"]), 3, "context.init"),
    "k_shot_string": (_context_bytes(k_shot="4"), 3, "context.k_shot"),
    "no_model": (_context_bytes(model=None), 3, "model"),
    "only_good_and_svcca": (None, 0, ""),
}


@pytest.mark.parametrize("case", sorted(REPORT_INPUTS))
def test_report_malformed_result_is_data_error(tmp_path, capsys, case):
    bad, want, field = REPORT_INPUTS[case]
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    results = tmp_path / "runs" / "results"
    results.mkdir(parents=True)
    (results / "good.json").write_bytes(_result_bytes())
    # an SVCCA report is not an evaluation result; report skips it
    (results / "svcca.json").write_text(json.dumps({"layers": [], "n_samples": 0}))
    if bad == DIRECTORY:
        (results / "bad.json").mkdir()
    elif bad is not None:
        (results / "bad.json").write_bytes(bad)
    capsys.readouterr()
    assert main(["--config", write_config(tmp_path, cfg), "report"]) == want
    err = capsys.readouterr().err
    if want:
        assert err.startswith("data error: result ") and "bad.json" in err
        assert field in err and "Traceback" not in err
    else:
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        assert report["n_results"] == 1


def _without_concepts(cfg):
    del cfg["synthetic"]["tasks"][0]["concepts_per_class"]


def _repeated_task(cfg):
    cfg["synthetic"]["tasks"][1]["task_id"] = cfg["synthetic"]["tasks"][0]["task_id"]


def _negative_split_fraction(cfg):
    cfg["synthetic"]["tasks"][1]["split_fractions"] = [1.2, -0.1, -0.1]


def _without_background(cfg):
    # pre4's classes take all four concepts; its witness_rate 0.4 leaves
    # background instances in every bag
    cfg["synthetic"]["n_concepts"] = 4


# case -> (the key the error names, edit of a valid config that makes it
# malformed); ``generate`` reads none of data.pretrain, data.targets, train or
# protocol, but every section is checked
CONFIG_SHAPE_ERRORS = {
    "seeds_int": ("seeds", lambda cfg: cfg.update(seeds=3)),
    "model_list": ("model", lambda cfg: cfg.update(model=[])),
    "data_list": ("data", lambda cfg: cfg.update(data=[])),
    "train_list": ("train", lambda cfg: cfg.update(train=[])),
    "synthetic_list": ("synthetic", lambda cfg: cfg.update(synthetic=[])),
    "knn_k_string": ("protocol.knn_k", lambda cfg: cfg["protocol"].update(knn_k="5")),
    "k_shots_string": ("protocol.k_shots", lambda cfg: cfg["protocol"].update(k_shots="abc")),
    "fc_hidden_dims_int": ("model.fc_hidden_dims",
                           lambda cfg: cfg["model"].update(fc_hidden_dims=5)),
    "task_without_concepts": ("synthetic.tasks[0].concepts_per_class", _without_concepts),
    "output_dir_int": ("output_dir", lambda cfg: cfg.update(output_dir=5)),
    "data_root_int": ("data.root", lambda cfg: cfg["data"].update(root=5)),
    "output_dir_nul": ("output_dir", lambda cfg: cfg.update(output_dir="runs\0x")),
    "data_root_nul": ("data.root", lambda cfg: cfg["data"].update(root="data\0x")),
    "data_pretrain_int": ("data.pretrain", lambda cfg: cfg["data"].update(pretrain=5)),
    "data_targets_string": ("data.targets", lambda cfg: cfg["data"].update(targets="tgt")),
    "variance_keep_string": ("protocol.variance_keep",
                             lambda cfg: cfg["protocol"].update(variance_keep="x")),
    "bag_size_range_int": ("synthetic.bag_size_range",
                           lambda cfg: cfg["synthetic"].update(bag_size_range=5)),
    "lr_zero": ("lr", lambda cfg: cfg["train"].update(lr=0)),
    "patience_zero": ("patience", lambda cfg: cfg["train"].update(patience=0)),
    "min_epochs_above_max": ("min_epochs",
                             lambda cfg: cfg["train"].update(min_epochs=3, max_epochs=2)),
    "misspelt_protocol_key": ("protocol.knn_kk", lambda cfg: cfg["protocol"].update(knn_kk=3)),
    "max_epochs_zero": ("max_epochs",
                        lambda cfg: cfg["train"].update(max_epochs=0, min_epochs=0)),
    "weight_decay_negative": ("weight_decay",
                              lambda cfg: cfg["train"].update(weight_decay=-1.0)),
    "aux_weight_negative": ("aux_weight", lambda cfg: cfg["train"].update(aux_weight=-0.5)),
    "split_fraction_negative": ("split_fractions", _negative_split_fraction),
    "synthetic_seed_negative": ("seed", lambda cfg: cfg["synthetic"].update(seed=-1)),
    "seeds_repeated": ("seeds[1] repeats seeds[0]", lambda cfg: cfg.update(seeds=[0, 0])),
    "targets_repeated": ("data.targets[1] repeats data.targets[0]",
                         lambda cfg: cfg["data"].update(targets=["tgt", "tgt"])),
    "k_shots_repeated": ("protocol.k_shots[2] repeats protocol.k_shots[0]",
                         lambda cfg: cfg["protocol"].update(k_shots=[4, 16, 4])),
    "reset_specs_repeated": ("protocol.reset_specs[1] repeats protocol.reset_specs[0]",
                             lambda cfg: cfg["protocol"].update(reset_specs=["attn", "attn"])),
    "task_id_repeated": ("synthetic.tasks[1].task_id repeats synthetic.tasks[0].task_id",
                         _repeated_task),
    "task_without_background": ("synthetic.tasks[0]", _without_background),
}


@pytest.mark.parametrize("case", ["top_level_list", *sorted(CONFIG_SHAPE_ERRORS)])
def test_config_shape_errors_are_config_errors(tmp_path, capsys, case):
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    if case == "top_level_list":
        cfg, key = [cfg], "object"
    else:
        key, edit = CONFIG_SHAPE_ERRORS[case]
        edit(cfg)
    capsys.readouterr()
    assert main(["--config", write_config(tmp_path, cfg), "generate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "Traceback" not in err
    assert not err.startswith("config error: config:")  # "config" is named once
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("key, command", [("output_dir", "generate"), ("output_dir", "report"),
                                          ("data.root", "generate"), ("--zoo", "pretrain")])
def test_config_dir_naming_a_file_is_a_config_error(tmp_path, capsys, key, command):
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    argv = ["--config", write_config(tmp_path, cfg), command]
    if key == "--zoo":  # the zoo's parent is a file: refused before any training
        assert main(argv[:2] + ["generate"]) == 0
        (tmp_path / "afile").write_text("a file")
        argv = ["--zoo", str(tmp_path / "afile" / "zoo.json")] + argv
    else:
        Path(cfg[key] if key == "output_dir" else cfg["data"]["root"]).write_text("a file")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: cannot create directory ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.rglob("*.milc"))


def _as_json(value):
    """A typed config value in its JSON form."""
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return str(value) if isinstance(value, Path) else value


def _assert_section(section, raw: dict, skip=()):
    """Every field of ``section`` holds ``raw``'s value, or its default."""
    for f in fields(section):
        if f.name in skip:
            continue
        want = raw[f.name] if f.name in raw else _as_json(f.default)
        assert _as_json(getattr(section, f.name)) == want, f.name


def test_shipped_config_loads_with_its_values_and_defaults():
    path = Path(__file__).parents[1] / "configs" / "demo.json"
    raw = json.loads(path.read_text())
    cfg = load_config(path)
    assert _as_json(cfg.output_dir) == raw["output_dir"]
    assert _as_json(cfg.seeds) == raw["seeds"]
    _assert_section(cfg.data, raw["data"])
    _assert_section(cfg.model, raw["model"], skip=("n_classes",))
    _assert_section(cfg.train, raw["train"])
    _assert_section(cfg.protocol, raw["protocol"])
    shared = {k: v for k, v in raw["synthetic"].items() if k != "tasks"}
    assert [task.task_id for task in cfg.synthetic] == [
        task["task_id"] for task in raw["synthetic"]["tasks"]]
    for task, raw_task in zip(cfg.synthetic, raw["synthetic"]["tasks"]):
        _assert_section(task, {**shared, **raw_task})


def test_scale_sweep(tmp_path):
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    cfg["protocol"]["scale_rows"] = [
        {"embed_dim": 8, "attn_dim": 4}, {"embed_dim": 12, "attn_dim": 6}]
    cfg["synthetic"]["tasks"][1]["n_bags_per_class"] = 12
    cfg_path = write_config(tmp_path, cfg)
    assert main(["--config", cfg_path, "generate"]) == 0
    assert main(["--config", cfg_path, "scale-sweep"]) == 0
    results = list((tmp_path / "runs" / "results").glob("scale*_*.json"))
    assert len(results) == 4  # 2 rows x 1 target x 2 inits x 1 seed
    pretrains = list((tmp_path / "runs" / "results").glob("pretrain_*_p*_s0.json"))
    assert len(pretrains) == 2  # one per scale row, named by param count


def test_report_keeps_scale_rows_apart(tmp_path):
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    cfg["seeds"] = [0, 1]
    cfg["protocol"]["scale_rows"] = [
        {"embed_dim": 8, "attn_dim": 4}, {"embed_dim": 12, "attn_dim": 6}]
    cfg["synthetic"]["tasks"][1]["n_bags_per_class"] = 12
    cfg_path = write_config(tmp_path, cfg)
    for command in ("generate", "pretrain", "transfer", "scale-sweep", "report"):
        assert main(["--config", cfg_path, command]) == 0, command
    report = json.loads((tmp_path / "runs" / "report.json").read_text())
    keys = [(row["protocol"], row["task"], row["model"], row["init"]) for row in report["rows"]]
    assert len(keys) == len(set(keys))
    for row in report["rows"]:
        # one model's runs, one per seed: no mean mixes checkpoints
        assert row["n_runs"] == len(cfg["seeds"]), row
    models = {}
    for protocol, _, model, _ in keys:
        models.setdefault(protocol, set()).add(model)
    # the grid's model and one per scale row, each pretrained and finetuned
    assert len(models["pretrain"]) == 3 and "abmil_pre4" in models["pretrain"]
    assert models["finetune"] == models["pretrain"]
    assert set(report["deltas"]) == {f"finetune/tgt/{model}" for model in models["finetune"]}


def test_scale_rows_with_one_name_are_config_errors(pipeline, tmp_path, capsys):
    tmp, cfg, _ = pipeline
    cfg = json.loads(json.dumps(cfg))
    # dropout changes no parameter count, so both rows would be abmil_pre4_p<n>
    cfg["protocol"]["scale_rows"] = [{"dropout_ff": 0.0}, {"embed_dim": 8},
                                     {"dropout_ff": 0.5}]
    argv = ["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
            "--zoo", str(tmp_path / "zoo.json")]
    capsys.readouterr()
    assert main(argv + ["scale-sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "scale_rows[0]" in err and "scale_rows[2]" in err
    # raised before any training: nothing pretrained, registered or evaluated
    assert not list((tmp_path / "out").rglob("*.*")) and not (tmp_path / "zoo.json").exists()


@pytest.mark.parametrize("rows", [[[1]], [{"fc_hidden_dims": 5}],
                                  [{"fc_hidden_dims": ["8"]}], {"embed_dim": 8}])
def test_scale_rows_shape_errors_are_config_errors(tmp_path, capsys, rows):
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    cfg["protocol"]["scale_rows"] = rows
    capsys.readouterr()
    assert main(["--config", write_config(tmp_path, cfg), "scale-sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_missing_config_is_config_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "report"]) == 2


def test_config_directory_is_config_error(tmp_path, capsys):
    capsys.readouterr()
    assert main(["--config", str(tmp_path), "report"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config ") and "Traceback" not in err


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "report"]) == 2


def test_wrong_version_is_config_error(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"config_version": 2, "output_dir": "x", "seeds": [1]}))
    assert main(["--config", str(path), "report"]) == 2


def test_zoo_digest_mismatch_is_data_error(pipeline, tmp_path):
    tmp, cfg, _ = pipeline
    zoo_path = tmp / "runs" / "zoo.json"
    zoo = json.loads(zoo_path.read_text())
    tampered = tmp_path / "zoo_bad.json"
    zoo["entries"][0]["cfg_digest"] = "0" * 16
    tampered.write_text(json.dumps(zoo))
    cfg2 = dict(cfg)
    cfg_path = write_config(tmp_path, cfg2)
    assert main(["--config", cfg_path, "--zoo", str(tampered), "transfer"]) == 3


def test_zoo_without_the_entry_names_it(pipeline, tmp_path, capsys):
    tmp, cfg, cfg_path = pipeline
    zoo = json.loads((tmp / "runs" / "zoo.json").read_text())
    zoo["entries"] = [e for e in zoo["entries"] if e["name"] != "abmil_pre4_s0"]
    other = tmp_path / "zoo_other.json"
    other.write_text(json.dumps(zoo))
    argv = ["--config", cfg_path, "--out", str(tmp_path / "out"), "--zoo", str(other)]
    capsys.readouterr()
    assert main(argv + ["knn"]) == 3
    assert "zoo entry 'abmil_pre4_s0' not found" in capsys.readouterr().err


def test_non_finite_loss_exits_4(pipeline, tmp_path, capsys):
    tmp, cfg, _ = pipeline
    bad = json.loads(json.dumps(cfg))
    bad["train"]["lr"] = 1e30
    argv = ["--config", write_config(tmp_path, bad), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["pretrain"]) == 4
    # the NumericError line is the whole report: numpy adds no RuntimeWarning
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numeric failure: non-finite loss at step 1 on bag ")
    assert err.rstrip().endswith("in job 0") and "Traceback" not in err
    assert not list((tmp_path / "out").glob("checkpoints/*.milc"))


def test_seed_override(pipeline, tmp_path):
    tmp, cfg, _ = pipeline
    cfg2 = json.loads(json.dumps(cfg))
    cfg_path = write_config(tmp_path, cfg2)
    assert main(["--config", cfg_path, "--seed", "7", "pretrain"]) == 0
    assert (tmp / "runs" / "checkpoints" / "abmil_pre4_s7.milc").exists()
    assert (tmp / "runs" / "checkpoints" / "abmil_pre4_s7.history.jsonl").exists()


def test_transfer_idempotent_results(pipeline):
    tmp, cfg, cfg_path = pipeline
    out = tmp / "runs" / "results" / "transfer_abmil_tgt_pretrained_s0.json"
    assert main(["--config", cfg_path, "transfer"]) == 0
    first = out.read_bytes()
    assert main(["--config", cfg_path, "transfer"]) == 0
    assert out.read_bytes() == first


def test_pretrain_checkpoints_are_byte_identical(pipeline, tmp_path):
    _, _, cfg_path = pipeline
    for out in ("a", "b"):
        assert main(["--config", cfg_path, "--out", str(tmp_path / out), "pretrain"]) == 0
    name = "checkpoints/abmil_pre4_s0.milc"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_truncated_zoo_checkpoint_is_data_error(pipeline, tmp_path):
    tmp, cfg, cfg_path = pipeline
    zoo = json.loads((tmp / "runs" / "zoo.json").read_text())
    entry = zoo["entries"][0]
    cut = tmp_path / "cut.milc"
    cut.write_bytes(open(entry["checkpoint"], "rb").read(8))
    entry["checkpoint"] = str(cut)
    bad_zoo = tmp_path / "zoo_cut.json"
    bad_zoo.write_text(json.dumps(zoo))
    argv = ["--config", cfg_path, "--out", str(tmp_path / "out"), "--zoo", str(bad_zoo)]
    assert main(argv + ["transfer"]) == 3


def test_knn_k_zero_is_config_error(pipeline, tmp_path):
    tmp, cfg, _ = pipeline
    bad = json.loads(json.dumps(cfg))
    bad["protocol"]["knn_k"] = 0
    argv = ["--config", write_config(tmp_path, bad), "--out", str(tmp_path / "out"),
            "--zoo", str(tmp / "runs" / "zoo.json")]
    assert main(argv + ["knn"]) == 2
    assert not list((tmp_path / "out").glob("results/knn_*"))


def test_negative_n_bootstrap_is_config_error(pipeline, tmp_path):
    tmp, cfg, _ = pipeline
    bad = json.loads(json.dumps(cfg))
    bad["protocol"]["n_bootstrap"] = -1
    argv = ["--config", write_config(tmp_path, bad), "--out", str(tmp_path / "out"),
            "--zoo", str(tmp / "runs" / "zoo.json")]
    assert main(argv + ["knn"]) == 2
    assert not list((tmp_path / "out").glob("results/knn_*"))


@pytest.mark.parametrize("command, key", [("fewshot", "k_shots"), ("reset", "reset_specs")])
def test_empty_protocol_grid_is_config_error(pipeline, tmp_path, capsys, command, key):
    tmp, cfg, _ = pipeline
    bad = json.loads(json.dumps(cfg))
    bad["protocol"][key] = []
    argv = ["--config", write_config(tmp_path, bad), "--out", str(tmp_path / "out"),
            "--zoo", str(tmp / "runs" / "zoo.json")]
    capsys.readouterr()
    assert main(argv + [command]) == 2
    assert f"protocol.{key}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("results/*"))


def _drop_checkpoint(good: bytes) -> bytes:
    zoo = json.loads(good)
    del zoo["entries"][0]["checkpoint"]
    return json.dumps(zoo).encode()


def _zoo_checkpoint(edit):
    """A corruption that sets the first zoo entry's checkpoint to ``edit(checkpoint)``."""
    def corrupt(good: bytes) -> bytes:
        zoo = json.loads(good)
        zoo["entries"][0]["checkpoint"] = edit(zoo["entries"][0]["checkpoint"])
        return json.dumps(zoo).encode()
    return corrupt


def _task_json(**changes):
    """A corruption that sets ``changes`` in task.json."""
    return lambda good: json.dumps({**json.loads(good), **changes}).encode()


# case -> (the file it corrupts, its corrupted bytes from the good ones)
PARSE_FAILURES = {
    "zoo_truncated": ("zoo", lambda good: good[: len(good) // 2]),
    "zoo_not_json": ("zoo", lambda good: b"\xff\xfe\x00 not json"),
    "zoo_empty_object": ("zoo", lambda good: b"{}"),
    "zoo_list": ("zoo", lambda good: b"[]"),
    "zoo_entry_without_checkpoint": ("zoo", _drop_checkpoint),
    "zoo_checkpoint_missing": ("zoo", _zoo_checkpoint(lambda path: path + ".missing")),
    "zoo_checkpoint_int": ("zoo", _zoo_checkpoint(lambda path: 7)),
    "zoo_checkpoint_directory": ("zoo", _zoo_checkpoint(lambda path: str(Path(path).parent))),
    "task_json_truncated": ("task", lambda good: good[: len(good) // 2]),
    "task_json_list": ("task", lambda good: b"[]"),
    "task_json_n_classes_float": ("task", _task_json(n_classes=2.9)),
    "task_json_n_classes_string": ("task", _task_json(n_classes="2")),
    "task_json_class_names_string": ("task", _task_json(class_names="ab")),
    "task_json_task_id_int": ("task", _task_json(task_id=7)),
    "task_json_unknown_metric": ("task", _task_json(metric="accuracy")),
}


@pytest.mark.parametrize("case", sorted(PARSE_FAILURES))
def test_zoo_and_task_json_parse_failures_are_data_errors(pipeline, tmp_path, capsys, case):
    tmp, cfg, _ = pipeline
    which, corrupt = PARSE_FAILURES[case]
    cfg = json.loads(json.dumps(cfg))
    zoo = tmp_path / "zoo.json"
    zoo.write_bytes((tmp / "runs" / "zoo.json").read_bytes())
    if which == "zoo":
        zoo.write_bytes(corrupt(zoo.read_bytes()))
    else:
        shutil.copytree(tmp / "data" / "tgt", tmp_path / "data" / "tgt")
        sidecar = tmp_path / "data" / "tgt" / "task.json"
        sidecar.write_bytes(corrupt(sidecar.read_bytes()))
        cfg["data"]["root"] = str(tmp_path / "data")
    argv = ["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
            "--zoo", str(zoo)]
    capsys.readouterr()
    assert main(argv + ["transfer"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err


class _PartialFile:
    """A file whose first write stores half of its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _atomic_writes(pipeline, tmp_path):
    """case -> (path, write of the previous file, write of a different one)."""
    tmp, cfg, _ = pipeline
    manifest = load_manifest(tmp / "data" / "tgt" / "manifest.csv")
    features = load_split_features(manifest)
    bag, csv_dir = tmp_path / "bag.milf", tmp_path / "m"
    csv_dir.mkdir()

    def pretrain(epochs):
        c = json.loads(json.dumps(cfg))
        c["train"].update(max_epochs=epochs, min_epochs=epochs)
        argv = ["--config", write_config(tmp_path, c), "--out", str(tmp_path / "runs"),
                "--zoo", str(tmp_path / "zoo.json"), "pretrain"]
        return lambda: main(argv)

    other_task = replace(manifest, task=replace(manifest.task, task_id="other"))
    return {
        "feature_file": (bag, lambda: write_feature_file(np.ones((2, 3)), bag),
                         lambda: write_feature_file(np.zeros((4, 3)), bag)),
        "manifest_csv": (csv_dir / "manifest.csv",
                         lambda: write_manifest(manifest, csv_dir / "manifest.csv"),
                         lambda: write_manifest(manifest.with_entries(manifest.entries[:5]),
                                                csv_dir / "manifest.csv")),
        "task_json": (csv_dir / "task.json",
                      lambda: write_manifest(manifest, csv_dir / "manifest.csv"),
                      lambda: write_manifest(other_task, csv_dir / "manifest.csv")),
        "history_jsonl": (tmp_path / "runs" / "checkpoints" / "abmil_pre4_s0.history.jsonl",
                          pretrain(1), pretrain(2)),
    }


@pytest.mark.parametrize("case", ["feature_file", "manifest_csv", "task_json", "history_jsonl"])
def test_failed_write_keeps_previous_file(pipeline, tmp_path, monkeypatch, capsys, case):
    path, write_previous, write_new = _atomic_writes(pipeline, tmp_path)[case]
    write_previous()
    before = path.read_bytes()

    def partial_open(file, *args, **kwargs):
        fh = builtins.open(file, *args, **kwargs)
        return _PartialFile(fh) if Path(file).name.startswith(f".{path.name}.") else fh

    monkeypatch.setattr(fileio, "open", partial_open, raising=False)
    capsys.readouterr()
    if case == "history_jsonl":  # written by main, which exits 2 naming the file
        assert write_new() == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{path}: cannot write (disk full)" in err
    else:
        with pytest.raises(ConfigError, match="cannot write \\(disk full\\)"):
            write_new()
    assert path.read_bytes() == before
    assert not [p for p in tmp_path.rglob("*.tmp")]


# case -> (command, the output path under tmp_path that a directory blocks)
UNWRITABLE_OUTPUTS = {
    "result": ("knn", "runs/results/knn_abmil_tgt_pretrained_s0.json"),
    "report_csv": ("report", "runs/report.csv"),
    "checkpoint": ("pretrain", "runs/checkpoints/abmil_pre4_s0.milc"),
    "history_jsonl": ("pretrain", "runs/checkpoints/abmil_pre4_s0.history.jsonl"),
    "run_log": ("report", "runs/logs/report.jsonl"),
    "zoo_lock": ("pretrain", "runs/zoo.lock"),
    "features": ("generate", "data/pre4/features.milf"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_is_a_config_error(pipeline, tmp_path, capsys, case):
    tmp, cfg, _ = pipeline
    command, blocked = UNWRITABLE_OUTPUTS[case]
    cfg = json.loads(json.dumps(cfg))
    cfg["output_dir"] = str(tmp_path / "runs")
    path = tmp_path / blocked
    if command == "generate":
        cfg["data"]["root"] = str(tmp_path / "data")
    path.mkdir(parents=True)
    kept = path / "kept"
    kept.write_bytes(b"previous")
    if command == "knn":
        shutil.copy(tmp / "runs" / "zoo.json", tmp_path / "runs" / "zoo.json")
    if command == "report":
        (tmp_path / "runs" / "results").mkdir(parents=True)
        (tmp_path / "runs" / "results" / "good.json").write_bytes(_result_bytes())
    capsys.readouterr()
    assert main(["--config", write_config(tmp_path, cfg), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
    assert kept.read_bytes() == b"previous"
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("command", ["transfer", "knn"])
def test_one_class_test_split_is_a_data_error(pipeline, tmp_path, capsys, command):
    """AUROC on a test split of class 0 alone is undefined: one data error
    line that names the task and the split."""
    tmp, cfg, _ = pipeline
    task_dir = tmp_path / "data" / "tgt"
    shutil.copytree(tmp / "data" / "tgt", task_dir)
    manifest = load_manifest(task_dir / "manifest.csv")
    write_manifest(manifest.with_entries(
        [e for e in manifest.entries if e.split != "test" or e.label == 0]),
        task_dir / "manifest.csv")
    cfg = json.loads(json.dumps(cfg))
    cfg["data"]["root"] = str(tmp_path / "data")
    capsys.readouterr()
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "runs"),
                 "--zoo", str(tmp / "runs" / "zoo.json"), command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: task tgt, test ") and err.count("\n") == 1
    assert "auroc needs both classes present" in err and "Traceback" not in err
    assert not list((tmp_path / "runs" / "results").iterdir())


def test_zoo_update_failure_keeps_previous_zoo(tmp_path):
    path = tmp_path / "zoo.json"
    zoo_update(path, {"name": "a", "checkpoint": "a.milc"})
    before = path.read_bytes()
    # "b" sorts after "a", so the dump fails part-way through the file
    with pytest.raises(TypeError):
        zoo_update(path, {"name": "b", "checkpoint": object()})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["zoo.json", "zoo.lock"]


class _CrashingOs:
    """``os`` as ``fileio`` sees it, counting each ``replace``, the commit of
    an atomic write; the ``k``-th (none for 0) fails as a full disk would."""

    def __init__(self, k: int = 0):
        self.k, self.commits, self.failed = k, 0, None

    def replace(self, src, dst):
        self.commits += 1
        if self.commits == self.k:
            self.failed = Path(dst)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        os.replace(src, dst)

    def __getattr__(self, name):
        return getattr(os, name)


CRASH_COMMANDS = ("generate", "pretrain", "transfer", "report")


def _tree_files(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def crash_tree(tmp_path_factory):
    """A tiny tree run uninterrupted in ``work/``: the config, the tree as
    each command found it, each command's commit count and the final files."""
    tmp = tmp_path_factory.mktemp("crash")
    work = tmp / "work"
    cfg = base_config(work / "data", work / "runs")
    cfg["synthetic"]["tasks"][1]["n_bags_per_class"] = 20
    cfg_path = write_config(tmp, cfg)
    work.mkdir()
    before, commits = {}, {}
    for command in CRASH_COMMANDS:
        before[command] = tmp / f"before_{command}"
        shutil.copytree(work, before[command])
        counter = _CrashingOs()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "os", counter)
            assert main(["--config", cfg_path, command]) == 0, command
        commits[command] = counter.commits
    return work, cfg_path, before, commits, _tree_files(work)


@pytest.mark.parametrize("command", CRASH_COMMANDS)
def test_crash_at_any_commit_leaves_only_finished_files(crash_tree, monkeypatch, capsys,
                                                        command):
    """A command whose k-th atomic write fails at its commit exits 2 with
    one line naming the file, and leaves no temp file; every file it leaves
    is byte for byte the uninterrupted tree's, and the failed file holds
    what it held before the command.  Each run restarts from the tree the
    command found, in the same directory, so every path agrees.  Every
    commit of each command fails once: generate commits three files per
    task."""
    work, cfg_path, before, commits, finished = crash_tree
    n = commits[command]
    assert n > 0
    for k in range(1, n + 1):
        shutil.rmtree(work)
        shutil.copytree(before[command], work)
        crash = _CrashingOs(k)
        monkeypatch.setattr(fileio, "os", crash)
        capsys.readouterr()
        assert main(["--config", cfg_path, command]) == 2, k
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, (k, err)
        assert f"{crash.failed}: cannot write (" in err, (k, err)
        assert not list(work.rglob("*.tmp")), k
        left = _tree_files(work)
        assert [name for name, data in left.items() if finished.get(name) != data] == [], k
        failed = crash.failed.relative_to(work)
        assert left.get(failed) == _tree_files(before[command]).get(failed), k


def _pretrain_on_pack(tmp_path, case, data=None):
    """``pretrain`` on a data root whose pretrain task is ``case``'s malformed
    pack, its bytes replaced by ``data`` if given; returns the exit code."""
    cfg = base_config(tmp_path / "data", tmp_path / "runs")
    task_dir = tmp_path / "data" / "pre4"
    shutil.rmtree(task_dir, ignore_errors=True)
    task_dir.mkdir(parents=True)
    path = write_malformed_pack(task_dir, case)
    if data is not None:
        path.write_bytes(data)
    return main(["--config", write_config(tmp_path, cfg), "pretrain"])


@pytest.mark.parametrize("case", sorted(PACK_DEFECTS))
def test_malformed_pack_exits_3_naming_it(tmp_path, capsys, case):
    capsys.readouterr()
    assert _pretrain_on_pack(tmp_path, case) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {tmp_path / 'data' / 'pre4' / 'features.milf'}: ")
    assert PACK_DEFECTS[case][3] in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_every_truncated_pack_exits_3(tmp_path, capsys):
    write_pack(tmp_path / "whole.milf")
    data = (tmp_path / "whole.milf").read_bytes()
    for n in range(len(data)):
        capsys.readouterr()
        assert _pretrain_on_pack(tmp_path, "truncated_in_payload", data[:n]) == 3, n
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'data' / 'pre4' / 'features.milf'}: ")
        assert err.count("\n") == 1 and "Traceback" not in err, (n, err)


GRID_COMMANDS = ("transfer", "knn", "reset", "fewshot")


@pytest.fixture(scope="module")
def two_target_grid(tmp_path_factory):
    """Two seeds x two targets through transfer, knn, reset, fewshot and
    report, counting checkpoint loads per command."""
    tmp = tmp_path_factory.mktemp("grid")
    cfg = base_config(tmp / "data", tmp / "runs")
    cfg["seeds"] = [0, 1]
    cfg["data"]["targets"] = ["tgt", "tgt2"]
    cfg["synthetic"]["tasks"][1]["n_bags_per_class"] = 40
    cfg["synthetic"]["tasks"].append(
        {"task_id": "tgt2", "n_bags_per_class": 40, "concepts_per_class": [[1], [3]]})
    cfg["protocol"]["k_shots"] = [4, 16]
    cfg_path = write_config(tmp, cfg)
    assert main(["--config", cfg_path, "generate"]) == 0
    assert main(["--config", cfg_path, "pretrain"]) == 0
    loads = {}
    original = transfer.load_checkpoint
    for command in GRID_COMMANDS:
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "load_checkpoint",
                       lambda path: calls.append(path) or original(path))
            assert main(["--config", cfg_path, command]) == 0
        loads[command] = Counter(calls)
    assert main(["--config", cfg_path, "report"]) == 0
    return tmp, cfg, loads


def test_grid_writes_each_job_key_once(two_target_grid):
    tmp, cfg, _ = two_target_grid
    keys = Counter()
    for prefix in ("transfer", "knn", "reset"):
        for path in (tmp / "runs" / "results").glob(f"{prefix}_*.json"):
            ctx = EvalResult.from_json(path.read_text()).context
            keys[(ctx["protocol"], ctx["target_task"], ctx["init"], ctx["seed"])] += 1
    expected = {(protocol, target, init, seed)
                for target in cfg["data"]["targets"] for seed in cfg["seeds"]
                for protocol, inits in (
                    ("finetune", ("pretrained", "random", "reset_attn", "reset_all")),
                    ("knn", ("pretrained", "random")))
                for init in inits}
    assert set(keys) == expected
    assert set(keys.values()) == {1}


def test_checkpoint_loaded_once_per_seed_per_command(two_target_grid):
    _, cfg, loads = two_target_grid
    for command in GRID_COMMANDS:
        assert len(loads[command]) == len(cfg["seeds"]), command
        assert set(loads[command].values()) == {1}, command


def test_report_keeps_fewshot_k_rows_apart(two_target_grid):
    tmp, cfg, _ = two_target_grid
    report = json.loads((tmp / "runs" / "report.json").read_text())
    rows = {(r["protocol"], r["k_shot"], r["task"], r["init"]): r for r in report["rows"]}
    for target in cfg["data"]["targets"]:
        for k in (None, *cfg["protocol"]["k_shots"]):
            pre = rows[("finetune", k, target, "pretrained")]
            rand = rows[("finetune", k, target, "random")]
            assert pre["n_runs"] == rand["n_runs"] == len(cfg["seeds"])
            label = "finetune" if k is None else f"finetune{k}"
            assert report["deltas"][f"{label}/{target}/abmil_pre4"] == pytest.approx(
                pre["mean"] - rand["mean"])
    assert set(report["average_delta"]) == {
        "finetune/abmil_pre4", "finetune4/abmil_pre4", "finetune16/abmil_pre4",
        "knn/abmil_pre4"}


def test_grid_commands_are_byte_deterministic(two_target_grid, tmp_path):
    """The ``two_target_grid`` commands, re-run on a second data root and
    output directory, write every file byte for byte again once those two
    paths are normalised."""
    tmp, cfg, _ = two_target_grid
    cfg = json.loads(json.dumps(cfg))
    cfg["data"]["root"], cfg["output_dir"] = str(tmp_path / "data"), str(tmp_path / "runs")
    cfg_path = write_config(tmp_path, cfg)
    for command in ("generate", "pretrain", *GRID_COMMANDS, "report"):
        assert main(["--config", cfg_path, command]) == 0, command
    for root in ("data", "runs"):
        first, second = tmp / root, tmp_path / root
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        for name in files:
            got = (second / name).read_bytes().replace(str(tmp_path).encode(), str(tmp).encode())
            assert got == (first / name).read_bytes(), name


def test_run_jobs_drops_the_previous_feature_cache(two_target_grid, tmp_path, monkeypatch):
    """A command over two targets holds one feature cache at a time: the
    first target's cache is dead when the second one's load starts."""
    tmp, _, _ = two_target_grid

    class Cache(dict):  # a plain dict cannot be weakly referenced
        pass

    caches, alive_at_load = [], []
    original = training.load_split_features

    def load(manifest):
        alive_at_load.append([ref() is not None for ref in caches])
        cache = Cache(original(manifest))
        caches.append(weakref.ref(cache))
        return cache

    monkeypatch.setattr(training, "load_split_features", load)
    assert main(["--config", str(tmp / "config.json"), "--out", str(tmp_path / "runs"),
                 "--zoo", str(tmp / "runs" / "zoo.json"), "knn"]) == 0
    assert alive_at_load == [[], [False]]


THREAD_TREE = """
import sys
from miltransfer.cli import main
for command in sys.argv[2:]:
    if main(["--config", sys.argv[1], command]) != 0:
        sys.exit(f"{command} failed")
"""


def test_cli_tree_bytes_do_not_depend_on_blas_threads(tmp_path):
    """One tree with 512-d inputs and layers at most 64 wide, run in two
    interpreters at 1 and at 2 BLAS threads, writes every result and
    checkpoint byte for byte again.  SVCCA reads X'Y from the Gram of
    [X | Y]: a general X'Y product changes its bits with the thread count."""
    commands = ("generate", "pretrain", "transfer", "knn", "svcca", "reset", "report")
    src = str(Path(miltransfer.__file__).parents[1])
    procs = {}
    for threads in (1, 2):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        cfg = base_config(root / "data", root / "runs")
        cfg["synthetic"].update(feat_dim=512, bag_size_range=[20, 41])
        # 1,208 test instances: on OpenBLAS a 32- or 64-wide X'Y gemm over that
        # many rows changes its bits with the thread count (over 1,184 it
        # happens not to)
        cfg["synthetic"]["tasks"][1].update(n_bags_per_class=40,
                                            split_fractions=[0.3, 0.2, 0.5])
        cfg["model"].update(in_dim=512, embed_dim=32, attn_dim=16, fc_hidden_dims=[64])
        cfg["train"].update(max_epochs=2, min_epochs=1)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
               **{f"{lib}_NUM_THREADS": str(threads) for lib in ("OPENBLAS", "OMP", "MKL")}}
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", THREAD_TREE, write_config(root, cfg), *commands],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    digests = {}
    for threads, proc in procs.items():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err.decode()
        runs = tmp_path / f"threads{threads}" / "runs"
        digests[threads] = {
            str(path.relative_to(runs)): hashlib.sha256(path.read_bytes()).hexdigest()
            for sub in ("results", "checkpoints") for path in sorted((runs / sub).iterdir())}
    assert sorted(digests[1]) == sorted(digests[2])
    assert any(name.startswith("results/svcca_") for name in digests[1])
    assert [name for name in digests[1] if digests[1][name] != digests[2][name]] == []
