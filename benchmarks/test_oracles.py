"""Tests of the benchmark's own oracles.

Run with ``python3 -m pytest benchmarks`` from the repository root.  The
oracles are checked on cases worked out by hand and against the program,
and each check a workload runs is fed a deliberately wrong answer that it
must reject.  No test measures time.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from miltransfer import analysis, bagdata, metrics, models, transfer  # noqa: E402


# ---------------------------------------------------------------------------
# pairwise AUROC
# ---------------------------------------------------------------------------

def test_pairwise_auroc_by_hand():
    # positives 0.35 and 0.8 against negatives 0.1 and 0.4: 3 of 4 pairs won
    assert oracles.pairwise_auroc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == 0.75
    # a tie counts one half
    assert oracles.pairwise_auroc([0, 1], [0.5, 0.5]) == 0.5
    assert oracles.pairwise_auroc([0, 0, 1], [0.2, 0.5, 0.5]) == 0.75
    with pytest.raises(ValueError):
        oracles.pairwise_auroc([1, 1], [0.2, 0.3])


def _tied_records(seed=0, n=60):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    scores = np.round(rng.random(n), 1)  # coarse scores force ties
    return labels, scores


def test_pairwise_auroc_matches_program_on_ties():
    labels, scores = _tied_records()
    assert abs(oracles.pairwise_auroc(labels, scores) - metrics.auroc(scores, labels)) <= 1e-12


def test_bootstrap_auroc_by_hand():
    # every two-class draw of two bags is one of each, ranked correctly
    std, skipped = oracles.bootstrap_auroc([0, 1], [0.1, 0.9], 50, 7)
    draws = np.random.default_rng(7).integers(0, 2, size=(50, 2))
    assert std == 0.0 and skipped == int((draws[:, 0] == draws[:, 1]).sum()) > 0


def _eval_result(labels, scores, seed, context=None) -> dict:
    res = metrics.evaluate_records("auroc", 2, [str(i) for i in range(len(labels))], labels,
                                   scores, n_bootstrap=200, seed=seed, context=context)
    return json.loads(res.to_json())


def test_eval_result_check_accepts_program_and_rejects_perturbed():
    labels, scores = _tied_records(n=12)  # small, so some draws are one-class
    r = _eval_result(labels, scores, 3)
    assert r["skipped"] > 0
    workloads.check_eval_result(r, 3)
    for field, delta in (("value", 0.01), ("std", 1e-6), ("skipped", 1)):
        with pytest.raises(workloads.CheckFailed):
            workloads.check_eval_result({**r, field: r[field] + delta}, 3)
    with pytest.raises(workloads.CheckFailed):  # another seed draws other resamples
        workloads.check_eval_result(r, 4)


# ---------------------------------------------------------------------------
# brute-force KNN
# ---------------------------------------------------------------------------

def test_knn_majority_and_positive_fraction():
    ref = np.array([[0.0], [1.0], [2.0], [10.0]])
    labels = np.array([1, 1, 0, 0])
    preds, pos, decided = oracles.knn_bruteforce(ref, labels, np.array([[0.2]]), 3, 2)
    assert preds.tolist() == [1] and pos.tolist() == [2 / 3] and decided.all()


def test_knn_exact_distance_ties_keep_lower_index():
    # references 1 and 2 are duplicates at the same distance as reference 0
    ref = np.array([[1.0], [-1.0], [-1.0], [5.0]])
    labels = np.array([0, 1, 0, 1])
    preds, pos, decided = oracles.knn_bruteforce(ref, labels, np.array([[0.0]]), 2, 2)
    # stable order takes references 0 and 1: one vote each, equal inverse
    # distances, so the lower class wins
    assert preds.tolist() == [0] and pos.tolist() == [0.5]
    # the 2nd and 3rd distances tie exactly, so float32 could order them either way
    assert not decided[0]


def test_knn_vote_tie_broken_by_inverse_distance():
    ref = np.array([[3.0], [-1.0], [4.0], [-2.0]])
    labels = np.array([0, 1, 0, 1])
    preds, _, decided = oracles.knn_bruteforce(ref, labels, np.array([[0.0]]), 4, 2)
    # two votes each; class 1 sits nearer (1/1 + 1/2 > 1/3 + 1/4)
    assert preds.tolist() == [1] and decided.all()


def test_knn_duplicated_points_count_once_each():
    ref = np.array([[0.0, 0.0]] * 3 + [[3.0, 0.0]] * 2)
    labels = np.array([1, 1, 1, 0, 0])
    preds, pos, _ = oracles.knn_bruteforce(ref, labels, np.array([[2.9, 0.0]]), 4, 2)
    # the two class-0 duplicates come first, then two of the class-1 copies
    assert pos.tolist() == [0.5] and preds.tolist() == [0]


def test_knn_oracle_matches_program_and_rejects_flipped_label():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal((120, 16)).astype(np.float32)
    labels = rng.integers(0, 2, 120)
    query = rng.standard_normal((40, 16)).astype(np.float32)
    preds, pos = transfer.knn_predict(ref, labels, query, 7, 2)
    workloads.check_knn(ref, labels, query, 7, preds, pos)
    decided = oracles.knn_bruteforce(ref, labels, query, 7, 2)[2]
    i = int(np.flatnonzero(decided)[0])
    flipped = preds.copy()
    flipped[i] = 1 - flipped[i]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_knn(ref, labels, query, 7, flipped, pos)
    shifted = pos.copy()
    shifted[i] += 1 / 7
    with pytest.raises(workloads.CheckFailed):
        workloads.check_knn(ref, labels, query, 7, preds, shifted)


# ---------------------------------------------------------------------------
# float64 ABMIL forward
# ---------------------------------------------------------------------------

def _tiny_abmil():
    cfg = models.ModelConfig("abmil", in_dim=6, embed_dim=5, n_classes=3, attn_dim=4,
                             fc_hidden_dims=(7,))
    return cfg, models.build_model(cfg, seed=3)


def test_abmil_forward64_single_and_repeated_instance():
    cfg, params = _tiny_abmil()
    x = np.random.default_rng(2).standard_normal((1, 6))
    h = np.maximum(x @ params["fc.0.weight"].T.astype(np.float64) + params["fc.0.bias"], 0)
    h = np.maximum(h @ params["fc.1.weight"].T.astype(np.float64) + params["fc.1.bias"], 0)
    pooled, logits, att, _ = oracles.abmil_forward64(params, x, 2)
    # one instance takes all the attention, so the embedding is its FC output
    assert att.tolist() == [1.0]
    assert np.allclose(pooled, h[0], rtol=0, atol=1e-12)
    assert np.allclose(logits, h[0] @ params["classifier.weight"].T.astype(np.float64)
                       + params["classifier.bias"], rtol=0, atol=1e-12)
    # identical instances share the attention equally
    _, _, att2, _ = oracles.abmil_forward64(params, np.vstack([x, x]), 2)
    assert np.allclose(att2, [0.5, 0.5], rtol=0, atol=1e-15)


def test_abmil_forward64_matches_program_and_rejects_perturbed_embedding():
    cfg, params = _tiny_abmil()
    rng = np.random.default_rng(4)
    features = {f"b{i}": rng.standard_normal((5 + i, 6)).astype(np.float32) for i in range(4)}
    ids = sorted(features)
    emb = np.stack([models.forward(params, cfg, features[b]).embedding for b in ids])
    workloads.check_embeddings(cfg, params, features, ids, emb)
    emb[2, 1] += 0.01
    with pytest.raises(workloads.CheckFailed):
        workloads.check_embeddings(cfg, params, features, ids, emb)


# ---------------------------------------------------------------------------
# instance sample and the attention layer's SVCCA
# ---------------------------------------------------------------------------

def test_instance_sample_by_hand():
    bags = [("a", 2), ("b", 3)]
    assert oracles.instance_sample(bags, 5, 0) == [("a", 0), ("a", 1), ("b", 0), ("b", 1),
                                                   ("b", 2)]
    keep = np.sort(np.random.default_rng(9).choice(5, size=3, replace=False))
    everything = oracles.instance_sample(bags, 5, 0)
    assert oracles.instance_sample(bags, 3, 9) == [everything[i] for i in keep]


def test_attn_svcca_matches_program_and_rejects_perturbed(tmp_path):
    task = bagdata.synth_generate(bagdata.SynthTaskConfig(
        task_id="t", feat_dim=8, n_concepts=4, concepts_per_class=((0,), (1,)),
        witness_rate=0.3, bag_size_range=(4, 8), noise_sigma=0.3, n_bags_per_class=10,
        seed=5, split_fractions=(0.5, 0.0, 0.5)), tmp_path / "t")
    features = {e.bag_id: task.load_features(e) for e in task.entries}
    cfg = models.ModelConfig("abmil", in_dim=8, embed_dim=6, n_classes=2, attn_dim=4)
    ckpt = transfer.Checkpoint(cfg=cfg, params=models.build_model(cfg, seed=1),
                               pretrain_task_id="t")
    reset = transfer.reset_layers(ckpt, "attn", 2)
    budget = 40  # fewer than the test split's instances, so the sample draws
    report = analysis.layer_stability_report(ckpt, reset, task, max_instances=budget,
                                             seed=3, features=features)
    bags = [(e.bag_id, len(features[e.bag_id])) for e in task.split("test")]
    assert sum(n for _, n in bags) > budget
    want = workloads.attn_svcca(cfg, ckpt.params, reset, features, bags, budget, 3)
    workloads.check_stability(report.layers, want)
    for attn in (want + 0.01, 100.0, 0.0):
        layers = [dict(layer, mean=attn) if layer["name"] == "attn" else layer
                  for layer in report.layers]
        with pytest.raises(workloads.CheckFailed):
            workloads.check_stability(layers, want)


# ---------------------------------------------------------------------------
# job keys and report figures
# ---------------------------------------------------------------------------

CONFIG = {"seeds": [0, 1], "data": {"targets": ["t0", "t1"]},
          "protocol": {"reset_specs": ["attn", "all"]}}


def _result(protocol, target, init, seed, value, arch="abmil"):
    return {"value": value, "context": {"protocol": protocol, "target_task": target,
                                        "init": init, "seed": seed, "arch": arch}}


def _grid_results(config) -> list[dict]:
    """One program-made result per job key the config implies."""
    labels, scores = _tied_records(n=16)
    return [_eval_result(labels, scores, key[3], _result(*key, None)["context"])
            for key in sorted(oracles.job_keys(config))]


def test_job_keys_enumerate_each_distinct_job_once():
    keys = oracles.job_keys(CONFIG)
    # per target and seed: 4 finetune inits and 2 KNN inits
    assert len(keys) == 2 * 2 * 6
    assert ("finetune", "t1", "reset_attn", 0) in keys
    assert ("knn", "t0", "random", 1) in keys
    assert ("knn", "t0", "reset_attn", 1) not in keys


def test_result_check_needs_every_key_once():
    results = _grid_results(CONFIG)
    distinct = workloads.check_results(results + [results[0]], CONFIG)  # a repeat is fine
    assert len(distinct) == len(results)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_results(results[1:], CONFIG)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_results(results + [{**results[0], "value": results[0]["value"] + 0.01}],
                                CONFIG)
    stray = {**results[0], "context": {**results[0]["context"], "init": "reset_lin2plus"}}
    with pytest.raises(workloads.CheckFailed):
        workloads.check_results(results + [stray], CONFIG)


def test_report_rows_count_a_repeated_job_once():
    results = [_result("finetune", "t0", "pretrained", 0, 0.8),
               _result("finetune", "t0", "pretrained", 0, 0.8),  # the reset repeat
               _result("finetune", "t0", "pretrained", 1, 0.6),
               _result("knn", "t0", "pretrained", 0, 0.7)]
    rows = oracles.report_rows(results)
    assert rows[("finetune", "t0", "abmil", "pretrained")] == (pytest.approx(0.7), 2)
    assert rows[("knn", "t0", "abmil", "pretrained")] == (0.7, 1)
    good = [{"protocol": p, "task": t, "arch": a, "init": i, "mean": m, "n_runs": n}
            for (p, t, a, i), (m, n) in rows.items()]
    assert workloads.report_matches(good, results)
    # today's grouping by (task, arch, init): one row of 4 runs with mean 0.725
    today = [{"task": "t0", "arch": "abmil", "init": "pretrained", "mean": 0.725, "n_runs": 4}]
    assert not workloads.report_matches(today, results)
    recounted = [dict(r, n_runs=r["n_runs"] + 1) if r["protocol"] == "finetune" else r
                 for r in good]
    assert not workloads.report_matches(recounted, results)


# ---------------------------------------------------------------------------
# the metric tables agree with BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = {f"{layer}.{stat}": tracing.STATS[stat]
                 for layer, stats in tracing.REPORTED.items() for stat in stats}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer
