"""Spans around calls into the hcdval layers, recorded from outside the library.

The tracer replaces library functions with timing wrappers on the exact names
their callers look up (a function imported into another module is a separate
name there, so each patch site below is one lookup path). Every call records a
span: name, start, end and the index of the enclosing span. Spans stay in
memory; ``write`` dumps them once the run is over, and ``layer_metrics`` folds
them into per-layer totals, where a span's self time is its duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict

# (span name, module, attribute path inside the module)
PATCH_SITES = (
    ("encoder.train_linear_encoder", "hcdval", "train_linear_encoder"),
    ("encoder.fd_gradient", "hcdval.encoder", "fd_gradient"),
    ("hierarchy.build_tree", "hcdval", "build_tree"),
    ("hierarchy.balanced_split", "hcdval.hierarchy", "balanced_split"),
    ("hierarchy.balanced_split", "hcdval.streaming", "balanced_split"),
    ("hierarchy.tree_copy", "hcdval.hierarchy", "HierarchyTree.copy"),
    ("hcdv.run_hcdv", "hcdval", "run_hcdv"),
    ("hcdv.run_hcdv", "hcdval.streaming", "run_hcdv"),
    ("shapley.exact_shapley", "hcdval.hcdv", "exact_shapley"),
    ("shapley.monte_carlo_shapley", "hcdval.hcdv", "monte_carlo_shapley"),
    ("shapley.monte_carlo_shapley", "hcdval.streaming", "monte_carlo_shapley"),
    ("shapley.independent_player_estimate", "hcdval.streaming", "independent_player_estimate"),
    ("shapley.value_of_mask", "hcdval.shapley", "CoalitionGame.value_of_mask"),
    ("shapley.value_of_ids", "hcdval.shapley", "CoalitionGame.value_of_ids"),
    ("utility.evaluate", "hcdval.utility", "CharacteristicFn.evaluate"),
    ("utility.coalition_utility", "hcdval.utility", "coalition_utility"),
    ("utility.normalized_dispersion", "hcdval.utility", "normalized_dispersion"),
    ("streaming.init_stream", "hcdval", "init_stream"),
    ("streaming.ingest_batch", "hcdval", "ingest_batch"),
)

KEY_BYTES_PER_POINT = 8  # the payoff cache keys a coalition by its int64 index bytes


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index]
        self._open: list = []
        self._restore: list = []
        self.misses = 0
        self.miss_points = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _wrap_evaluate(self, fn):
        """Payoff lookups also count cache misses and the points they keyed."""
        timed = self._wrap("utility.evaluate", fn)

        @functools.wraps(fn)
        def evaluate(cf, points):
            before = cf.evaluations
            value = timed(cf, points)
            if cf.evaluations != before:
                self.misses += 1
                self.miss_points += len(points)
            return value

        return evaluate

    def install(self) -> None:
        for name, module_name, path in PATCH_SITES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap_evaluate(original) if name == "utility.evaluate" else self._wrap(name, original)
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One CSV row per span: run id, name, start and end (s), parent span index."""
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("run_id,span,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{self.run_id},{i},{name},{start:.9f},{end:.9f},{parent}\n")

    def totals(self):
        """Per span name: call count, total ms, self ms; plus splits under ingest_batch."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_ms = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += (end - start) * 1000.0
            self_ms[name] += (end - start - child_time[i]) * 1000.0
        in_steps = 0
        for name, start, end, parent in self.spans:
            if name != "hierarchy.balanced_split":
                continue
            while parent >= 0 and self.spans[parent][0] != "streaming.ingest_batch":
                parent = self.spans[parent][3]
            in_steps += parent >= 0
        return calls, total, self_ms, in_steps


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer call counts and times from one traced run."""
    calls, total, self_ms, split_in_steps = tracer.totals()
    lookups = calls["utility.evaluate"]
    misses = tracer.misses
    return {
        "utility.lookups": lookups,
        "utility.evaluations": misses,
        "utility.cache_hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "utility.evaluate_self_ms": self_ms["utility.evaluate"],
        "utility.learner_ms": total["utility.coalition_utility"],
        "utility.dispersion_ms": total["utility.normalized_dispersion"],
        "utility.ms_per_eval": total["utility.evaluate"] / misses if misses else 0.0,
        "utility.mean_coalition_size": tracer.miss_points / misses if misses else 0.0,
        "utility.cache_key_mb": KEY_BYTES_PER_POINT * tracer.miss_points / 1e6,
        "shapley.exact_calls": calls["shapley.exact_shapley"],
        "shapley.exact_ms": total["shapley.exact_shapley"],
        "shapley.exact_self_ms": self_ms["shapley.exact_shapley"],
        "shapley.mc_calls": calls["shapley.monte_carlo_shapley"],
        "shapley.mc_ms": total["shapley.monte_carlo_shapley"],
        "shapley.mc_self_ms": self_ms["shapley.monte_carlo_shapley"],
        "shapley.independent_calls": calls["shapley.independent_player_estimate"],
        "shapley.independent_ms": total["shapley.independent_player_estimate"],
        "shapley.coalitions_built": calls["shapley.value_of_mask"] + calls["shapley.value_of_ids"],
        "shapley.coalition_build_ms": self_ms["shapley.value_of_mask"] + self_ms["shapley.value_of_ids"],
        "hcdv.run_ms": total["hcdv.run_hcdv"],
        "hcdv.self_ms": self_ms["hcdv.run_hcdv"],
        "hierarchy.build_tree_ms": total["hierarchy.build_tree"],
        "hierarchy.balanced_split_calls": calls["hierarchy.balanced_split"],
        "hierarchy.balanced_split_step_calls": split_in_steps,
        "hierarchy.balanced_split_ms": total["hierarchy.balanced_split"],
        "hierarchy.tree_copy_calls": calls["hierarchy.tree_copy"],
        "hierarchy.tree_copy_ms": total["hierarchy.tree_copy"],
        "streaming.init_ms": total["streaming.init_stream"],
        "streaming.ingest_ms": total["streaming.ingest_batch"],
        "streaming.ingest_self_ms": self_ms["streaming.ingest_batch"],
        "encoder.train_ms": total["encoder.train_linear_encoder"],
        "encoder.fd_gradient_calls": calls["encoder.fd_gradient"],
        "encoder.fd_gradient_ms": total["encoder.fd_gradient"],
    }
