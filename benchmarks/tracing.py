"""Spans around calls into the package's layers, from outside the package.

A traced run replaces module attributes with timing wrappers.  A name
bound by ``from ... import`` is wrapped where callers look it up: for
example ``weighted_epoch_order`` inside ``training`` and
``evaluate_records`` inside ``transfer``.  The CLI dispatches through its
``COMMANDS`` table, so that table is patched too.

Spans stay in memory as ``[name, start, end, parent, phase, extra]`` and
are written out when the run ends.  Per-layer metrics come from the spans
of the last set-up plus the timed rounds divided by the round count, so a
``calls`` figure is per (set-up + one round) and repeats exactly between
runs of equal work.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from pathlib import Path

# span name -> the (module, attribute) places callers look the function up
LAYERS = {
    "bagdata.synth_generate": (("bagdata", "synth_generate"), ("cli", "synth_generate")),
    "bagdata.read_feature_file": (("bagdata", "read_feature_file"),),
    "bagdata.weighted_epoch_order": (("training", "weighted_epoch_order"),),
    "models.loss_and_grads": (("models", "loss_and_grads"),),
    "models.forward": (("models", "forward"),),
    "models.build_model": (("models", "build_model"),),
    "training.adamw_step": (("training", "adamw_step"),),
    "training.train": (("training", "train"),),
    "training.evaluate_split": (("training", "evaluate_split"),),
    "training.load_split_features": (("training", "load_split_features"),),
    "transfer.finetune": (("transfer", "finetune"),),
    "transfer.load_checkpoint": (("transfer", "load_checkpoint"),),
    "transfer.save_checkpoint": (("transfer", "save_checkpoint"),),
    "transfer.embed_bags": (("transfer", "embed_bags"),),
    "transfer.knn_predict": (("transfer", "knn_predict"),),
    "transfer.knn_evaluate": (("transfer", "knn_evaluate"),),
    "metrics.evaluate_records": (("metrics", "evaluate_records"), ("transfer", "evaluate_records")),
    "metrics.bootstrap": (("metrics", "bootstrap"),),
    "analysis.capture_activations": (("analysis", "capture_activations"),),
    "analysis.svcca": (("analysis", "svcca"),),
    "cli.cmd_transfer": (("cli", "cmd_transfer"),),
    "cli.cmd_knn": (("cli", "cmd_knn"),),
    "cli.cmd_reset": (("cli", "cmd_reset"),),
    "cli.cmd_report": (("cli", "cmd_report"),),
    "cli.zoo_lookup": (("cli", "zoo_lookup"),),
}

# stat -> (unit, better)
STATS = {
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "us_per_call": ("us", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "peak_alloc_mb": ("MB", "lower"),
    "resamples_per_s": ("1/s", "higher"),
    "bags_per_s": ("bags/s", "higher"),
    "queries_per_s": ("queries/s", "higher"),
}

# the per-layer metrics a traced run prints: layer -> its stats
REPORTED = {
    "bagdata.synth_generate": ("s",),
    "bagdata.read_feature_file": ("calls", "s"),
    "training.load_split_features": ("s",),
    "bagdata.weighted_epoch_order": ("s",),
    "models.loss_and_grads": ("calls", "us_per_call"),
    "models.forward": ("calls", "us_per_call"),
    "models.build_model": ("s",),
    "training.adamw_step": ("calls", "us_per_call"),
    "training.train": ("calls", "self_s"),
    "training.evaluate_split": ("calls", "s"),
    "transfer.finetune": ("calls", "s", "distinct_ratio"),
    "transfer.load_checkpoint": ("calls", "s"),
    "transfer.save_checkpoint": ("s",),
    "transfer.embed_bags": ("s", "bags_per_s"),
    "transfer.knn_predict": ("s", "peak_alloc_mb"),
    "transfer.knn_evaluate": ("queries_per_s",),
    "metrics.evaluate_records": ("calls", "s"),
    "metrics.bootstrap": ("resamples_per_s",),
    "analysis.capture_activations": ("s",),
    "analysis.svcca": ("s",),
    "cli.cmd_transfer": ("s",),
    "cli.cmd_knn": ("s",),
    "cli.cmd_reset": ("s",),
    "cli.cmd_report": ("s",),
    "cli.zoo_lookup": ("calls",),
}


def _finetune_key(plan, train_cfg, *args, **kwargs):
    init = "random" if plan.source is None else (plan.reset_spec or "pretrained")
    return [plan.target.task.task_id, init, train_cfg.seed]


def _bootstrap_resamples(labels, values, fn, n_bootstrap=1000, *args, **kwargs):
    return n_bootstrap


def _bag_count(cfg, params, manifest, split, *args, **kwargs):
    return len(manifest.split(split))


def _query_count(train_embeddings, train_labels, test_embeddings, *args, **kwargs):
    return len(test_embeddings)


# span name -> what a span records from the call's arguments; a "<x>_per_s"
# stat is the sum of these over the sum of the span durations
EXTRA = {"transfer.finetune": _finetune_key, "metrics.bootstrap": _bootstrap_resamples,
         "transfer.embed_bags": _bag_count, "transfer.knn_evaluate": _query_count}


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.phase = ""
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    def install(self, package) -> None:
        """Wrap every function in LAYERS inside ``package``'s modules."""
        wrapped = {}
        for name, places in LAYERS.items():
            for mod_name, attr in places:
                module = getattr(package, mod_name)
                original = getattr(module, attr)
                if original not in wrapped:
                    wrapped[original] = self._wrap(name, original)
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped[original])
        commands = package.cli.COMMANDS
        for key, fn in list(commands.items()):
            if fn in wrapped:
                self._undo.append((commands, key, fn))
                commands[key] = wrapped[fn]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRA.get(name)
        measure_alloc = name == "transfer.knn_predict"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase,
                   extra_fn(*args, **kwargs) if extra_fn else None]
            stack.append(len(spans))
            spans.append(rec)
            if measure_alloc:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                if measure_alloc:
                    rec[5] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()
        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase, extra in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self._t0, "end": end - self._t0,
                    "parent": parent, "workload": self.workload, "phase": phase,
                    "extra": extra}) + "\n")

    def layer_metrics(self, setup_phase: str, round_phases: list[str]) -> dict[str, float]:
        """Per-layer stats over one set-up plus one average timed round."""
        weight = {setup_phase: 1.0}
        weight.update({p: 1.0 / len(round_phases) for p in round_phases})
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, phase, extra in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        acc = {name: {"setup_calls": 0, "round_calls": 0, "s": 0.0, "self_s": 0.0,
                      "durations": [], "extras": []}
               for name in REPORTED}
        for idx, (name, start, end, parent, phase, extra) in enumerate(self.spans):
            w = weight.get(phase)
            if w is None:
                continue
            a = acc[name]
            a["setup_calls" if phase == setup_phase else "round_calls"] += 1
            a["s"] += w * (end - start)
            a["self_s"] += w * (end - start - child_s[idx])
            a["durations"].append(end - start)
            a["extras"].append(extra)
        out = {}
        for name, stats in REPORTED.items():
            a = acc[name]
            for stat in stats:
                out[f"{name}.{stat}"] = _stat(stat, a, len(round_phases))
        return out


def _stat(stat: str, a: dict, n_rounds: int) -> float:
    if stat == "calls":
        per_round, rest = divmod(a["round_calls"], n_rounds)
        return a["setup_calls"] + (per_round if rest == 0 else a["round_calls"] / n_rounds)
    if stat in ("s", "self_s"):
        return a[stat]
    if not a["durations"]:
        return 0.0
    if stat == "us_per_call":
        return statistics.median(a["durations"]) * 1e6
    if stat == "distinct_ratio":
        keys = [json.dumps(e) for e in a["extras"]]
        # one round's keys: the set-up runs no finetune
        return len(set(keys)) / (len(keys) / n_rounds) if keys else 0.0
    if stat == "peak_alloc_mb":
        return max(a["extras"])
    if stat.endswith("_per_s"):
        return sum(a["extras"]) / sum(a["durations"])
    raise KeyError(stat)
