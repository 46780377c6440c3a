"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup``, runs one round
of timed work in ``run_round``, and checks that round's outputs in
``check`` against the oracles in ``oracles.py``.  ``check`` returns the
number of operations the round attempted and the number that failed, and
raises ``CheckFailed`` when an output is wrong in a way the benchmark does
not expect.

The package is called through its module attributes (``training.train``,
not a name imported from it), so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from miltransfer import analysis, bagdata, cli, models, training, transfer

import oracles

N_CONCEPTS = 24
PC16_CLASSES = tuple((c,) for c in range(16))
# the demo config's target partitions of the 16 pretraining concepts
TARGET_PARTITIONS = (
    (tuple(range(8)), tuple(range(8, 16))),
    (tuple(range(0, 16, 2)), tuple(range(1, 16, 2))),
    ((0, 1, 2, 3, 12, 13, 14, 15), (4, 5, 6, 7, 8, 9, 10, 11)),
)
# every schedule here is 1-2 epochs, so the step is larger than the
# 20-epoch recipe's 5e-4; test scores then sit well clear of chance
LR = 2e-3
# 1024-d features keep the 32-d tasks' per-instance signal-to-noise ratio:
# the noise norm grows with sqrt(feat_dim) while prototypes stay unit norm
WIDE_NOISE = 0.3 * math.sqrt(32 / 1024)


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def wide_abmil(n_classes: int) -> models.ModelConfig:
    """ABMIL at the Table A1 widths."""
    return models.ModelConfig("abmil", in_dim=1024, embed_dim=512, n_classes=n_classes,
                              attn_dim=384, dropout_ff=0.1, dropout_input=0.0)


def synth(root: Path, task_id: str, seed: int, concepts, n_per_class: int,
          feat_dim: int = 32, noise: float = 0.3, fractions=(0.6, 0.2, 0.2),
          witness_rate: float = 0.3):
    cfg = bagdata.SynthTaskConfig(
        task_id=task_id, feat_dim=feat_dim, n_concepts=N_CONCEPTS,
        concepts_per_class=concepts, witness_rate=witness_rate, bag_size_range=(24, 48),
        noise_sigma=noise, n_bags_per_class=n_per_class, seed=seed,
        split_fractions=fractions)
    return bagdata.synth_generate(cfg, root / task_id)


def wide_task(root: Path, seed: int):
    """The 16-class concept task with 1024-d features that the wide
    checkpoint is trained on: 48 train, 64 val and 208 test bags."""
    return synth(root, "w16", seed, PC16_CLASSES, 20, feat_dim=1024, noise=WIDE_NOISE,
                 fractions=(0.15, 0.2, 0.65))


def check_params(cfg, params) -> None:
    schema = models.param_schema(cfg)
    require(sorted(params) == sorted(name for name, _ in schema),
            f"{cfg.arch}: parameter names differ from param_schema")
    for name, shape in schema:
        require(params[name].shape == shape, f"{name}: shape {params[name].shape} != {shape}")
        require(np.isfinite(params[name]).all(), f"{name}: non-finite values")


def check_embeddings(cfg, params, features: dict, bag_ids, embeddings) -> None:
    """Compare the program's embeddings with the float64 forward on the given bags."""
    n_fc = len(cfg.fc_dims()) - 1
    for emb, bag_id in zip(embeddings, bag_ids):
        pooled = oracles.abmil_forward64(params, features[bag_id], n_fc)[0]
        scale = max(1.0, float(np.abs(pooled).max()))
        require(np.allclose(emb, pooled, rtol=1e-4, atol=1e-5 * scale),
                f"embedding of {bag_id}: max error {float(np.abs(emb - pooled).max()):.3g}")


def check_eval_result(r: dict, seed: int) -> None:
    """An AUROC result's value, bootstrap std and skipped count against the
    benchmark's own pairwise AUROC and bootstrap over its stored records."""
    auc = oracles.pairwise_auroc(r["labels"], r["scores"])
    require(abs(auc - r["value"]) <= 1e-9, f"AUROC {r['value']} != pairwise {auc}")
    std, skipped = oracles.bootstrap_auroc(r["labels"], r["scores"], r["n_bootstrap"], seed)
    require(r["skipped"] == skipped, f"bootstrap skipped {r['skipped']} != {skipped}")
    require(abs(r["std"] - std) <= 1e-9, f"bootstrap std {r['std']} != {std}")


def check_results(results: list[dict], config: dict) -> list[dict]:
    """Check a transfer grid's result files; returns the distinct results.

    Results that share a job key must be identical, every result must pass
    ``check_eval_result``, and the keys must be exactly those the config
    implies."""
    by_key: dict[tuple, dict] = {}
    for r in results:
        key = oracles.result_key(r)
        require(by_key.setdefault(key, r) == r, f"results for {key} differ")
    for key, r in by_key.items():
        try:
            check_eval_result(r, r["context"]["seed"])
        except CheckFailed as exc:
            raise CheckFailed(f"{key}: {exc}") from None
    expected = oracles.job_keys(config)
    require(set(by_key) == expected,
            f"job keys: missing {sorted(expected - set(by_key))}, "
            f"unexpected {sorted(set(by_key) - expected)}")
    return list(by_key.values())


def report_matches(rows: list[dict], results: list[dict]) -> bool:
    """Every report row names its protocol and matches the benchmark's mean
    and run count over the distinct results of its (protocol, task, arch,
    init)."""
    want = oracles.report_rows(results)
    got = {}
    for row in rows:
        if "protocol" not in row:
            return False
        got[(row["protocol"], row["task"], row["arch"], row["init"])] = (row["mean"], row["n_runs"])
    return got.keys() == want.keys() and all(
        abs(got[k][0] - want[k][0]) <= 1e-12 and got[k][1] == want[k][1] for k in want)


# ---------------------------------------------------------------------------
# transfer-cli: the CLI's transfer grid, in-process
# ---------------------------------------------------------------------------

COMMANDS = ("transfer", "knn", "reset", "report")


class TransferCli:
    """``miltransfer`` commands on a config shaped like configs/demo.json."""

    EPOCHS = 2

    def __init__(self, seed: int):
        self.seed = seed

    def _config(self, root: Path) -> dict:
        tasks = [{"task_id": "pc16", "n_bags_per_class": 125,
                  "concepts_per_class": [list(c) for c in PC16_CLASSES]}]
        tasks += [{"task_id": f"tgt_{i}", "n_bags_per_class": 100,
                   "concepts_per_class": [list(p) for p in parts],
                   "split_fractions": [0.5, 0.25, 0.25]}
                  for i, parts in enumerate(TARGET_PARTITIONS)]
        return {
            "config_version": 1,
            "output_dir": str(root / "pretrain"),
            "seeds": [self.seed],
            "data": {"root": str(root / "data"), "pretrain": "pc16",
                     "targets": ["tgt_0", "tgt_1", "tgt_2"]},
            "synthetic": {"feat_dim": 32, "n_concepts": N_CONCEPTS, "witness_rate": 0.3,
                          "bag_size_range": [24, 48], "noise_sigma": 0.3,
                          "seed": self.seed, "tasks": tasks},
            "model": {"arch": "abmil", "in_dim": 32, "embed_dim": 32, "attn_dim": 16,
                      "fc_hidden_dims": [], "dropout_ff": 0.1, "dropout_input": 0.0},
            "train": {"lr": LR, "weight_decay": 1e-5, "max_epochs": self.EPOCHS,
                      "min_epochs": self.EPOCHS, "patience": 5},
            "protocol": {"n_bootstrap": 1000, "knn_k": 20, "distance": "euclidean",
                         "reset_specs": ["attn", "all"]},
        }

    def _main(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--config", str(self.config_path), *argv])

    def setup(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True)
        self.config = self._config(root)
        self.config_path = root / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        for command in ("generate", "pretrain"):
            rc = self._main(command)
            require(rc == 0, f"miltransfer {command} exited {rc}")
        self.zoo = root / "pretrain" / "zoo.json"
        self.ckpt_sha = {e["checkpoint"]: _sha256(e["checkpoint"])
                         for e in json.loads(self.zoo.read_text())["entries"]}
        self.n_round = 0
        self.verified = None

    def run_round(self) -> dict:
        out_dir = self.root / f"round{self.n_round}"
        self.n_round += 1
        codes = {}
        for command in COMMANDS:
            codes[command] = self._main("--out", str(out_dir), "--zoo", str(self.zoo), command)
        return {"dir": out_dir, "codes": codes}

    def check(self, out: dict) -> tuple[int, int]:
        try:
            return self._check(out)
        finally:
            shutil.rmtree(out["dir"], ignore_errors=True)

    def _check(self, out: dict) -> tuple[int, int]:
        for command, rc in out["codes"].items():
            require(rc == 0, f"miltransfer {command} exited {rc}")
        results = [json.loads(path.read_text())
                   for path in sorted((out["dir"] / "results").glob("*.json"))]
        # a later round that repeats the verified results exactly is verified
        if self.verified is None or results != self.verified[0]:
            self.verified = (results, check_results(results, self.config))
        out["distinct"] = self.verified[1]
        for entry in json.loads(self.zoo.read_text())["entries"]:
            path = entry["checkpoint"]
            ckpt = transfer.load_checkpoint(path)
            check_params(ckpt.cfg, ckpt.params)
            require(oracles.cfg_digest(oracles.milc_header(path)["cfg"]) == entry["cfg_digest"],
                    f"zoo entry {entry['name']}: digest does not match its checkpoint")
            require(_sha256(path) == self.ckpt_sha[path], f"{path} changed after set-up")
        rows = json.loads((out["dir"] / "report.json").read_text())["rows"]
        return len(COMMANDS), 0 if report_matches(rows, results) else 1

    def summary(self, out: dict) -> dict[str, float]:
        return {"test_score_mean": float(np.mean(
            [r["value"] for r in out["distinct"] if r["context"]["protocol"] == "finetune"]))}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# frozen-eval: embeddings, KNN and SVCCA of a wide-ABMIL checkpoint
# ---------------------------------------------------------------------------

# layer_stability_report's default instance budget
SVCCA_BUDGET = 5000
# the program captures attention scores in float32 before its float64
# SVCCA; on the 0-100 scale that rounding moved the result by under 1e-6
SVCCA_ATTN_TOL = 1e-4


def check_knn(ref, ref_labels, query, k: int, preds, pos) -> None:
    """Binary KNN predictions and positive-neighbour fractions against the
    float64 brute force, on every query clear of float32 rounding."""
    want_preds, want_pos, decided = oracles.knn_bruteforce(ref, ref_labels, query, k, 2)
    require(decided.mean() >= 0.9, f"only {decided.sum()} of {len(decided)} KNN queries "
                                   "are clear of float32 rounding")
    require((preds[decided] == want_preds[decided]).all(), "KNN predictions differ")
    require(np.abs(pos[decided] - want_pos[decided]).max() <= 1e-12,
            "KNN positive-neighbour fractions differ")


def attn_svcca(cfg, before, after, features: dict, bags, max_instances: int,
               seed: int) -> float:
    """SVCCA of the width-1 attention layer: 100 |Pearson r| of the float64
    pre-softmax scores under the two weight sets, on the documented
    instance sample of ``bags`` (a list of (bag id, size))."""
    pairs = oracles.instance_sample(bags, max_instances, seed)
    n_fc = len(cfg.fc_dims()) - 1
    cols = []
    for params in (before, after):
        p64 = oracles.as_float64(params)
        scores = {b: oracles.abmil_forward64(p64, features[b], n_fc)[3] for b, _ in bags}
        cols.append([scores[b][j] for b, j in pairs])
    return 100.0 * abs(float(np.corrcoef(cols[0], cols[1])[0, 1]))


def check_stability(layers: list[dict], want_attn: float) -> None:
    """An attention reset's SVCCA report: 100 for the unchanged fc.0 and the
    oracle's value for attn."""
    means = {layer["name"]: layer["mean"] for layer in layers}
    require(set(means) == {"fc.0", "attn"}, f"SVCCA layers {sorted(means)}")
    require(abs(means["fc.0"] - 100.0) <= 1e-6,
            f"SVCCA of the unchanged fc.0 is {means['fc.0']!r}, not 100")
    require(abs(means["attn"] - want_attn) <= SVCCA_ATTN_TOL,
            f"SVCCA of attn is {means['attn']!r}, float64 oracle {want_attn!r}")


class FrozenEval:
    """Frozen evaluation of a wide ABMIL on a 2-class 1024-d target with
    800 reference and 200 query bags; the KNN broadcast temporary is
    200 x 800 x 512 float32, 328 MB."""

    K = 20

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: Path) -> None:
        source = wide_task(root, self.seed)
        cfg = wide_abmil(16)
        # one epoch at half the usual rate: a partly trained checkpoint keeps
        # the KNN AUROC below its ceiling of 1
        tcfg = training.TrainConfig(lr=LR / 2, max_epochs=1, min_epochs=1, patience=5,
                                    seed=self.seed)
        result = training.train(cfg, models.build_model(cfg, seed=self.seed), source, tcfg,
                                training.load_split_features(source))
        self.saved = transfer.Checkpoint(cfg=cfg, params=result.params, pretrain_task_id="w16")
        self.ckpt_path = root / "wide.milc"
        transfer.save_checkpoint(self.saved, self.ckpt_path)
        # two or three witnesses per bag
        self.target = synth(root, "wtgt", self.seed, TARGET_PARTITIONS[0], 500,
                            feat_dim=1024, noise=WIDE_NOISE, fractions=(0.8, 0.0, 0.2),
                            witness_rate=0.05)
        self.features = training.load_split_features(self.target)
        self.verified = None

    def run_round(self) -> dict:
        ckpt = transfer.load_checkpoint(self.ckpt_path)
        ref = transfer.embed_bags(ckpt.cfg, ckpt.params, self.target, "train", self.features)
        query = transfer.embed_bags(ckpt.cfg, ckpt.params, self.target, "test", self.features)
        knn = transfer.knn_evaluate(ref[1], ref[2], query[1], query[2], self.target.task,
                                    k=self.K, distance="euclidean", bag_ids=query[0],
                                    n_bootstrap=1000, seed=self.seed)
        reset = transfer.reset_layers(ckpt, "attn", self.seed)
        stability = analysis.layer_stability_report(ckpt, reset, self.target,
                                                    seed=self.seed, features=self.features)
        return {"ckpt": ckpt, "ref": ref, "query": query, "knn": knn, "reset": reset,
                "stability": stability}

    def check(self, out: dict) -> tuple[int, int]:
        ckpt = out["ckpt"]
        require(ckpt.cfg == self.saved.cfg, "loaded checkpoint config differs")
        for name, value in self.saved.params.items():
            require(ckpt.params[name].dtype == np.float32
                    and ckpt.params[name].tobytes() == value.astype("<f4").tobytes(),
                    f"loaded {name} is not bit-identical to the saved checkpoint")
        ref_emb, q_emb = out["ref"][1], out["query"][1]
        # a later round that repeats the verified outputs bit for bit is verified
        digest = hashlib.sha256(b"".join(
            [ref_emb.tobytes(), q_emb.tobytes()]
            + [out["reset"][name].tobytes() for name in sorted(out["reset"])]
            + [json.dumps([out["knn"].to_json(), out["stability"].to_json()]).encode()]
        )).hexdigest()
        if digest != self.verified:
            self._check_outputs(out)
            self.verified = digest
        return 4, 0

    def _check_outputs(self, out: dict) -> None:
        ckpt = out["ckpt"]
        (ref_ids, ref_emb, ref_y), (q_ids, q_emb, q_y) = out["ref"], out["query"]
        for ids, emb in ((ref_ids, ref_emb), (q_ids, q_emb)):
            pick = np.linspace(0, len(ids) - 1, 8).astype(int)
            check_embeddings(ckpt.cfg, ckpt.params, self.features, [ids[i] for i in pick],
                             emb[pick])

        preds, pos = transfer.knn_predict(ref_emb, ref_y, q_emb, self.K, 2)
        check_knn(ref_emb, ref_y, q_emb, self.K, preds, pos)
        knn = json.loads(out["knn"].to_json())
        require(np.array_equal(np.asarray(knn["scores"]), pos), "knn_evaluate scores differ")
        require(knn["labels"] == q_y.tolist(), "knn_evaluate labels differ")
        try:
            check_eval_result(knn, self.seed)
        except CheckFailed as exc:
            raise CheckFailed(f"KNN result: {exc}") from None

        test_bags = [(e.bag_id, len(self.features[e.bag_id])) for e in self.target.split("test")]
        want = attn_svcca(ckpt.cfg, ckpt.params, out["reset"], self.features, test_bags,
                          SVCCA_BUDGET, self.seed)
        check_stability(out["stability"].layers, want)

    def summary(self, out: dict) -> dict[str, float]:
        return {"test_score_mean": float(out["knn"].value)}


WORKLOADS = {"transfer-cli": TransferCli, "frozen-eval": FrozenEval}
