"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 5-8 run the shared-concept synthetic suite: a 16-class pretraining
task (2,000 bags) and three 2-class targets (200 bags each) whose classes
are 8-vs-8 partitions of the pretraining concepts.  All runs are seeded, so
the suite is deterministic end to end.
"""

import numpy as np
import pytest
from scipy import stats

from miltransfer import (
    Checkpoint,
    ModelConfig,
    SynthTaskConfig,
    TaskSpec,
    TrainConfig,
    build_model,
    fewshot_sample,
    knn_evaluate,
    load_checkpoint,
    read_feature_file,
    save_checkpoint,
    svcca,
    synth_generate,
    train,
    write_feature_file,
)
from miltransfer import analysis, training, transfer
from miltransfer.metrics import auroc, balanced_accuracy, bootstrap, quadratic_weighted_kappa
from miltransfer.transfer import finetune_group

from test_gradients import fd_worst_error

# ---------------------------------------------------------------------------
# shared synthetic suite (frozen constants)
# ---------------------------------------------------------------------------

FEAT_DIM = 32
N_CONCEPTS = 24
FAMILY_SEED = 7
SUITE_LR = 5e-4       # desk-scale recipe; see decisions ledger
FEWSHOT_LR = 1.5e-2
SEEDS = (0, 1, 2, 3, 4)

TARGET_PARTITIONS = (
    (tuple(range(8)), tuple(range(8, 16))),
    (tuple(range(0, 16, 2)), tuple(range(1, 16, 2))),
    ((0, 1, 2, 3, 12, 13, 14, 15), (4, 5, 6, 7, 8, 9, 10, 11)),
)

ABMIL_CFG = ModelConfig("abmil", in_dim=FEAT_DIM, embed_dim=32, n_classes=16,
                        attn_dim=16, dropout_ff=0.1, dropout_input=0.0)
TX_CFG = ModelConfig("transformer", in_dim=FEAT_DIM, embed_dim=32, n_classes=16,
                     n_layers=2, dropout_ff=0.1, dropout_input=0.0)


def _report(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion} ({name}): {status}  {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def _make_task(root, task_id, cpc, n_per_class, wit, noise, sizes, fractions):
    cfg = SynthTaskConfig(
        task_id=task_id, feat_dim=FEAT_DIM, n_concepts=N_CONCEPTS,
        concepts_per_class=cpc, witness_rate=wit, bag_size_range=sizes,
        noise_sigma=noise, n_bags_per_class=n_per_class, seed=FAMILY_SEED,
        split_fractions=fractions)
    return synth_generate(cfg, root / task_id)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    pretrain = _make_task(root, "pc16", tuple((c,) for c in range(16)), 125,
                          wit=0.3, noise=0.3, sizes=(24, 48), fractions=(0.6, 0.2, 0.2))
    targets = [
        _make_task(root, f"tgt_{i}", cpc, 100, wit=0.1, noise=0.3,
                   sizes=(28, 56), fractions=(0.5, 0.25, 0.25))
        for i, cpc in enumerate(TARGET_PARTITIONS)
    ]
    pre_features = training.load_split_features(pretrain)
    target_features = [training.load_split_features(t) for t in targets]
    return {
        "pretrain": pretrain,
        "targets": targets,
        "pre_features": pre_features,
        "target_features": target_features,
    }


def _pretrain(suite, cfg):
    result = train(cfg, build_model(cfg, seed=0), suite["pretrain"],
                   TrainConfig(seed=0, lr=SUITE_LR), suite["pre_features"])
    return Checkpoint(cfg=cfg, params=result.params,
                      pretrain_task_id=suite["pretrain"].task.task_id)


@pytest.fixture(scope="module")
def abmil_ckpt(suite):
    return _pretrain(suite, ABMIL_CFG)


@pytest.fixture(scope="module")
def tx_ckpt(suite):
    return _pretrain(suite, TX_CFG)


ABMIL_INITS = ("pretrained", "random", "reset_attn", "reset_all")


@pytest.fixture(scope="module")
def abmil_runs(suite, abmil_ckpt):
    """(target index, seed) -> init -> (TrainResult, EvalResult) of the ABMIL
    finetunes at ``SUITE_LR`` that criteria 5, 7 and 8 share: every init of
    one target and seed trains once, as one sibling stack."""
    memo = {}

    def runs(t, seed):
        if (t, seed) not in memo:
            group = finetune_group(abmil_ckpt, ABMIL_INITS, suite["targets"][t],
                                   TrainConfig(seed=seed, lr=SUITE_LR),
                                   suite["target_features"][t], n_bootstrap=0)
            memo[t, seed] = dict(zip(ABMIL_INITS, group))
        return memo[t, seed]
    return runs


def _finetune_pair(ckpt, target, features, seed, lr):
    pre, rand = finetune_group(ckpt, ("pretrained", "random"), target,
                               TrainConfig(seed=seed, lr=lr), features, n_bootstrap=0)
    return pre[1].value, rand[1].value


# ---------------------------------------------------------------------------
# criterion 1: architecture fidelity (Table A1 parameter counts, tolerance 0)
# ---------------------------------------------------------------------------

TABLE_A1_ROWS = [
    (5_249_027, 512, 512, (2048, 1024)),
    (3_084_931, 512, 384, (1280, 768)),
    (1_445_507, 512, 384, (512, 512)),
    (920_195, 512, 384, ()),
    (591_747, 384, 256, ()),
    (394_755, 256, 256, ()),
    (164_611, 128, 128, ()),
]

# Two rows as transcribed here contradict the gated-attention ABMIL itself, so
# they are held out of the exact paper comparison until the appendix table is
# available to check them against:
# - Parity: with every width and attn_dim even, each FC term b(a+1) and the
#   classifier term 2(e+1) are even, while the gated attention contributes
#   d(2e+3)+1, which is odd. Every such 2-class ABMIL therefore has an odd
#   count; 6,837,292 is even.
# - One wrong field: the count is linear in in_dim, each hidden width, embed,
#   attn and n_classes. The built counts fall short by 2,544 and 210,985, and
#   no single field's per-unit step divides either gap (row 1: 2048, 2561,
#   3073, 2305, 1537, 1795, 1027, 513; row 2: 2048, 2305, 2817, 1793, 1795,
#   1027, 513), so no single mis-transcribed number explains either row.
# - Nearby configs: no config with in_dim 1024, 2 classes, embed 512, attn in
#   {256, 384, 512} and 0-4 hidden layers of widths in multiples of 128 up to
#   4096 gives either count exactly.
# Their width tuples still go through the independent layer-list count below.
TABLE_A1_UNRESOLVED = [
    (8_530_675, 512, 512, (2048, 1536, 1024, 768)),
    (6_837_292, 512, 512, (2048, 1280, 768)),
]


def _abmil_count_from_layers(in_dim, hidden, embed, attn, n_classes):
    """Parameter count of a gated-attention ABMIL, written out layer by layer."""
    dims = [in_dim, *hidden, embed]
    fc = sum(a * b + b for a, b in zip(dims, dims[1:]))  # Linear a->b
    gated_attention = attn * (2 * embed + 3) + 1        # V, U: e->d; w: d->1
    classifier = n_classes * (embed + 1)
    return fc + gated_attention + classifier


def test_criterion_1_architecture_fidelity():
    mismatches = []
    for row in TABLE_A1_ROWS + TABLE_A1_UNRESOLVED:
        expected, embed, attn, hidden = row
        cfg = ModelConfig("abmil", in_dim=1024, embed_dim=embed, n_classes=2,
                          attn_dim=attn, fc_hidden_dims=hidden)
        n_built = sum(p.size for p in build_model(cfg, 0).values())
        n_layers = _abmil_count_from_layers(1024, hidden, embed, attn, 2)
        if n_built != n_layers:
            mismatches.append(f"{hidden}/{embed}/{attn} builds {n_built:,}, "
                              f"layer list gives {n_layers:,}")
        if row in TABLE_A1_ROWS and n_built != expected:
            mismatches.append(f"{expected:,} row -> {n_built:,} ({n_built - expected:+,})")
    n_rows, n_all = len(TABLE_A1_ROWS), len(TABLE_A1_ROWS) + len(TABLE_A1_UNRESOLVED)
    parked = ", ".join(f"{expected:,}" for expected, *_ in TABLE_A1_UNRESOLVED)
    _report(1, "architecture fidelity", not mismatches,
            f"{n_rows}/{n_rows} Table A1 rows exact and {n_all}/{n_all} builds match the "
            f"layer-list count; rows {parked} parked as unresolved" if not mismatches else
            f"mismatched: {'; '.join(mismatches)}")


# ---------------------------------------------------------------------------
# criterion 2: gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_correctness():
    configs = {
        "mean": ModelConfig("mean", in_dim=8, embed_dim=4, n_classes=2),
        "max": ModelConfig("max", in_dim=8, embed_dim=4, n_classes=2),
        "abmil": ModelConfig("abmil", in_dim=8, embed_dim=4, n_classes=2, attn_dim=4),
        "auxmil": ModelConfig("auxmil", in_dim=8, embed_dim=4, n_classes=2, attn_dim=4),
        "transformer": ModelConfig("transformer", in_dim=8, embed_dim=8, n_classes=2,
                                   n_layers=1, encoder_hidden_dim=16),
    }
    worst = {}
    for name, cfg in configs.items():
        aux = 0.3 if cfg.arch == "auxmil" else 0.0
        worst[name] = fd_worst_error(cfg, n_instances=3, aux_weight=aux)
    ok = all(w < 1e-4 for w in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _report(2, "gradient correctness", ok, f"worst relative errors: {detail}")


# ---------------------------------------------------------------------------
# criterion 3: metric oracles (brute force, tolerance 1e-9)
# ---------------------------------------------------------------------------

def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(1234)
    n = 1000

    scores = rng.random(n)
    tie_mask = rng.random(n) < 0.3
    scores[tie_mask] = np.round(scores[tie_mask], 1)  # force ties
    labels = rng.integers(0, 2, n)
    pos, neg = scores[labels == 1], scores[labels == 0]
    cmp = (pos[:, None] > neg[None, :]).astype(np.float64)
    cmp += 0.5 * (pos[:, None] == neg[None, :])
    brute_auroc = float(cmp.mean())
    err_a = abs(auroc(scores, labels) - brute_auroc)

    n_classes = 5
    y = rng.integers(0, n_classes, n)
    p = rng.integers(0, n_classes, n)
    recalls = []
    for c in range(n_classes):
        hits = sum(1 for yi, pi in zip(y, p) if yi == c and pi == c)
        total = sum(1 for yi in y if yi == c)
        if total:
            recalls.append(hits / total)
    err_b = abs(balanced_accuracy(p, y, n_classes) - sum(recalls) / len(recalls))

    observed = [[0] * n_classes for _ in range(n_classes)]
    for yi, pi in zip(y, p):
        observed[yi][pi] += 1
    w = [[(i - j) ** 2 / (n_classes - 1) ** 2 for j in range(n_classes)]
         for i in range(n_classes)]
    row = [sum(observed[i]) for i in range(n_classes)]
    col = [sum(observed[i][j] for i in range(n_classes)) for j in range(n_classes)]
    num = sum(w[i][j] * observed[i][j] for i in range(n_classes) for j in range(n_classes))
    den = sum(w[i][j] * row[i] * col[j] / n for i in range(n_classes) for j in range(n_classes))
    brute_kappa = 1.0 - num / den
    err_k = abs(quadratic_weighted_kappa(p, y, n_classes) - brute_kappa)

    ok = err_a <= 1e-9 and err_b <= 1e-9 and err_k <= 1e-9
    _report(3, "metric oracles", ok,
            f"auroc err={err_a:.2e}, bal-acc err={err_b:.2e}, kappa err={err_k:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: SVCCA properties
# ---------------------------------------------------------------------------

def test_criterion_4_svcca_properties():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((800, 9))
    self_mean, _ = svcca(x, x)
    ok_self = abs(self_mean - 100.0) <= 1e-6

    u = rng.standard_normal((500, 1))
    v = 0.8 * u + 0.3 * rng.standard_normal((500, 1))
    pearson = abs(np.corrcoef(u.ravel(), v.ravel())[0, 1])
    w1_mean, w1_comps = svcca(u, v)
    ok_w1 = (abs(w1_mean - 100.0 * pearson) <= 1e-6
             and w1_comps.size == 1 and float(w1_comps.std()) == 0.0)

    a = rng.standard_normal((9, 9)) + 2.0 * np.eye(9)
    inv_mean, _ = svcca(x, x @ a, variance_keep=1.0)
    ok_inv = abs(inv_mean - 100.0) <= 1e-4

    ok = ok_self and ok_w1 and ok_inv
    _report(4, "svcca properties", ok,
            f"self={self_mean:.8f}, width-1 |pearson| err="
            f"{abs(w1_mean - 100 * pearson):.2e}, invertible-map={inv_mean:.6f}")


# ---------------------------------------------------------------------------
# criterion 5: transfer benefit (directional, ABMIL + Transformer)
# ---------------------------------------------------------------------------

def _one_sided_p(gaps):
    t, p_two = stats.ttest_rel(gaps, np.zeros_like(gaps))
    return p_two / 2 if t > 0 else 1 - p_two / 2


@pytest.mark.slow
def test_criterion_5_transfer_benefit(suite, abmil_runs, tx_ckpt):
    gaps = {"abmil": [], "transformer": []}
    for t, (target, features) in enumerate(zip(suite["targets"], suite["target_features"])):
        for seed in SEEDS:
            runs = abmil_runs(t, seed)
            gaps["abmil"].append(runs["pretrained"][1].value - runs["random"][1].value)
            pre, rand = _finetune_pair(tx_ckpt, target, features, seed, SUITE_LR)
            gaps["transformer"].append(pre - rand)
    results = {}
    for name, g in gaps.items():
        g = np.asarray(g)
        results[name] = (float(g.mean()), _one_sided_p(g), int((g > 0).sum()))
    ok = all(mean > 0 and p < 0.1 for mean, p, _ in results.values())
    detail = "; ".join(
        f"{k}: mean gap {m:+.3f}, {npos}/15 positive, one-sided p={p:.4f}"
        for k, (m, p, npos) in results.items())
    _report(5, "transfer benefit", ok, detail)


# ---------------------------------------------------------------------------
# criterion 6: few-shot gap ordering (ABMIL)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_fewshot_ordering(suite, abmil_ckpt):
    wins = 0
    per_seed = []
    for seed in SEEDS:
        gap_at = {}
        for k in (4, 32):
            gaps = []
            for target, features in zip(suite["targets"], suite["target_features"]):
                sub = fewshot_sample(target, k, seed)
                pre, rand = _finetune_pair(abmil_ckpt, sub, features, seed, FEWSHOT_LR)
                gaps.append(pre - rand)
            gap_at[k] = float(np.mean(gaps))
        win = gap_at[4] > gap_at[32]
        wins += win
        per_seed.append(f"s{seed}: {gap_at[4]:+.3f} vs {gap_at[32]:+.3f}")
    _report(6, "few-shot ordering", wins >= 4,
            f"gap@4 > gap@32 in {wins}/5 seeds ({'; '.join(per_seed)})")


# ---------------------------------------------------------------------------
# criterion 7: reset ordering (monotone degradation)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_reset_ordering(suite, abmil_runs):
    values = {"full": [], "attn": [], "all": []}
    for t in range(len(suite["targets"])):
        for seed in SEEDS:
            runs = abmil_runs(t, seed)
            for cond, init in (("full", "pretrained"), ("attn", "reset_attn"),
                               ("all", "reset_all")):
                values[cond].append(runs[init][1].value)
    mean = {c: 100.0 * float(np.mean(v)) for c, v in values.items()}
    ok = (mean["full"] >= mean["attn"] - 1.0) and (mean["attn"] >= mean["all"] - 1.0)
    _report(7, "reset ordering", ok,
            f"full={mean['full']:.1f} >= reset-attn={mean['attn']:.1f} >= "
            f"reset-all={mean['all']:.1f} (tolerance 1.0 point)")


# ---------------------------------------------------------------------------
# criterion 8: stability ordering (attention-layer SVCCA)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_stability_ordering(suite, abmil_ckpt, abmil_runs):
    target = suite["targets"][0]
    features = suite["target_features"][0]
    wins = 0
    per_seed = []
    for seed in SEEDS:
        score = {}
        for init in ("pretrained", "random"):
            start_cfg, start_params = transfer.start(abmil_ckpt, init, target.task.n_classes,
                                                     seed)
            trained, _ = abmil_runs(0, seed)[init]
            report = analysis.layer_stability_report(
                Checkpoint(cfg=start_cfg, params=start_params), trained.params,
                target, layer_names=["attn"], max_instances=2000, seed=seed,
                features=features)
            score[init] = report.layers[0]["mean"]
        win = score["pretrained"] > score["random"]
        wins += win
        per_seed.append(f"s{seed}: {score['pretrained']:.1f} vs {score['random']:.1f}")
    _report(8, "stability ordering", wins >= 4,
            f"pretrained > random in {wins}/5 seeds ({'; '.join(per_seed)})")


# ---------------------------------------------------------------------------
# criterion 9: format round-trips and determinism
# ---------------------------------------------------------------------------

def test_criterion_9_roundtrips_and_determinism(tmp_path):
    checks = []

    rng = np.random.default_rng(0)
    m = rng.standard_normal((33, 17)).astype(np.float32)
    write_feature_file(m, tmp_path / "f.milf")
    back = read_feature_file(tmp_path / "f.milf")
    checks.append(("feature round-trip", np.array_equal(back.view(np.uint32),
                                                        m.view(np.uint32))))

    cfg = SynthTaskConfig(task_id="det", feat_dim=12, n_concepts=5,
                          concepts_per_class=((0,), (1,)), witness_rate=0.5,
                          bag_size_range=(6, 10), noise_sigma=0.1,
                          n_bags_per_class=12, seed=4)
    manifest = synth_generate(cfg, tmp_path / "det")
    features = training.load_split_features(manifest)
    model_cfg = ModelConfig("abmil", in_dim=12, embed_dim=8, n_classes=2, attn_dim=4)
    tcfg = TrainConfig(seed=2, lr=1e-3, max_epochs=3, min_epochs=1, patience=1)

    paths = []
    for run in range(2):
        result = train(model_cfg, build_model(model_cfg, seed=2), manifest, tcfg, features)
        ckpt = Checkpoint(cfg=model_cfg, params=result.params, pretrain_task_id="det")
        path = tmp_path / f"run{run}.milc"
        save_checkpoint(ckpt, path)
        paths.append(path)
    checks.append(("identical training runs -> identical checkpoint bytes",
                   paths[0].read_bytes() == paths[1].read_bytes()))

    loaded = load_checkpoint(paths[0])
    resaved = tmp_path / "resave.milc"
    save_checkpoint(loaded, resaved)
    checks.append(("checkpoint round-trip bytes",
                   resaved.read_bytes() == paths[0].read_bytes()))

    emb = rng.standard_normal((40, 6))
    lab = rng.integers(0, 2, 40)
    q_emb = rng.standard_normal((10, 6))
    q_lab = rng.integers(0, 2, 10)
    task = TaskSpec("knn", 2, ("a", "b"), "auroc")
    r1 = knn_evaluate(emb, lab, q_emb, q_lab, task, k=5, n_bootstrap=200, seed=3)
    r2 = knn_evaluate(emb, lab, q_emb, q_lab, task, k=5, n_bootstrap=200, seed=3)
    checks.append(("knn deterministic", (r1.value, r1.bootstrap_std) ==
                   (r2.value, r2.bootstrap_std)))

    fn = lambda y, v, counts: auroc(v, y, counts)
    scores = rng.random(40)
    checks.append(("bootstrap deterministic",
                   bootstrap(lab, scores, fn, 300, seed=9) ==
                   bootstrap(lab, scores, fn, 300, seed=9)))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{name}: {'ok' if passed else 'FAILED'}" for name, passed in checks)
    _report(9, "round-trips and determinism", ok, detail)
