"""Spans around fedsln's public functions, installed from outside the package.

Each target is wrapped wherever a fedsln module holds a reference to it,
so calls through `from .neural import gradient` style imports and through
default arguments such as `grad_fn=gradient` are caught too. A span is
(name index, start, end, parent span index); spans stay in memory until
`dump`. A target that no longer exists raises MissingTarget naming it, so
a renamed function cannot silently report zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class MissingTarget(LookupError):
    pass


def _rows(args, kwargs, result):
    x = args[1]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _ala_cap(args, kwargs, result):
    cap = kwargs.get("max_updates")
    return args[3].ala_update_cap if cap is None else cap


def _shapley_rows(args, kwargs, result):
    return (1 << len(args[1])) * len(args[2])


def _bytes_written(args, kwargs, result):
    return sum(Path(p).stat().st_size for p in result)


# (span name, module, attribute path, measure(args, kwargs, result) or None)
TARGETS = (
    ("config.read_raw_sections", "fedsln.config", "read_raw_sections", None),
    ("config.build_experiment_config", "fedsln.config", "build_experiment_config", None),
    ("experiment.build_client_datasets", "fedsln.experiment", "build_client_datasets", None),
    ("experiment.run_method", "fedsln.experiment", "run_method", None),
    ("experiment.emit_reports", "fedsln.experiment", "emit_reports", _bytes_written),
    ("graphs.generate_synthetic", "fedsln.graphs", "generate_synthetic", None),
    ("graphs.sample_pair_universe", "fedsln.graphs", "sample_pair_universe", None),
    ("graphs.temporal_split", "fedsln.graphs", "temporal_split", None),
    ("graphs.train_test_split", "fedsln.graphs", "train_test_split", None),
    ("features.build_examples", "fedsln.features", "build_examples", lambda a, k, r: len(a[1])),
    ("features.to_arrays", "fedsln.features", "to_arrays", None),
    ("features.Standardizer.fit", "fedsln.features", "Standardizer.fit", None),
    ("features.Standardizer.transform", "fedsln.features", "Standardizer.transform", None),
    ("neural.gradient", "fedsln.neural", "gradient", _rows),
    ("neural.sgd_step", "fedsln.neural", "sgd_step", None),
    ("neural.forward", "fedsln.neural", "forward", _rows),
    ("neural.mean_loss", "fedsln.neural", "mean_loss", None),
    ("neural.evaluate", "fedsln.neural", "evaluate", None),
    ("neural.auc", "fedsln.neural", "auc", None),
    ("federation.local_round", "fedsln.federation", "local_round", None),
    ("federation.synchronize", "fedsln.federation", "synchronize", None),
    ("federation.aggregate", "fedsln.federation", "aggregate", None),
    ("personalization.learn_ala_weights", "fedsln.personalization", "learn_ala_weights", _ala_cap),
    ("personalization.perfedavg_hf_step", "fedsln.personalization", "perfedavg_hf_step", None),
    ("personalization.fine_tune", "fedsln.personalization", "fine_tune", None),
    ("analysis.shapley_values", "fedsln.analysis", "shapley_values", _shapley_rows),
    ("analysis.fairness_report", "fedsln.analysis", "fairness_report", None),
)

# Counted, not spanned: every ModelParams construction scans for non-finite values.
PARAMS_INIT = ("fedsln.neural", "ModelParams", "__post_init__")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.params_built = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, measure):
        index = len(self.names)
        self.names.append(name)
        spans, stack, totals = self.spans, self._stack, self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if measure is not None:
                totals[name] += measure(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        own = vars(owner)
        self._patches.append((owner, attr, own[attr] if attr in own else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, traced) -> None:
        """Swap `original` for `traced` in module namespaces and in the
        default arguments of the modules' functions."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, traced)
                    continue
                fn = inspect.unwrap(value) if callable(value) else None
                defaults = getattr(fn, "__defaults__", None)
                if isinstance(fn, types.FunctionType) and defaults and any(d is original for d in defaults):
                    self._patch(fn, "__defaults__", tuple(traced if d is original else d for d in defaults))

    def install(self) -> None:
        """Wrap every target; raise MissingTarget naming any that is gone."""
        fedsln_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fedsln"]
        missing = []
        for name, module_name, path, measure in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    self._patch(owner, attr, classmethod(self._span(name, original.__func__, measure)))
                else:
                    self._patch(owner, attr, self._span(name, original, measure))
                continue
            self._replace_everywhere(fedsln_modules, original, self._span(name, original, measure))
        module_name, cls_name, attr = PARAMS_INIT
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        post_init = vars(cls).get(attr) if cls is not None else None
        if post_init is None:
            missing.append(".".join(PARAMS_INIT))
        if missing:
            self.uninstall()
            raise MissingTarget("traced names no longer exist: " + ", ".join(missing))

        def counted(params):
            self.params_built += 1
            return post_init(params)

        self._patch(cls, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: inclusive seconds, call counts and work sizes."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names = self.names
        ala_updates = 0
        for index, start, end, parent in self.spans:
            name = names[index]
            seconds[name] += end - start
            calls[name] += 1
            # each blend-weight update takes exactly one gradient
            if name == "neural.gradient" and parent >= 0:
                if names[self.spans[parent][0]] == "personalization.learn_ala_weights":
                    ala_updates += 1
        t = self.totals
        gradient_calls = calls["neural.gradient"]
        pairs = t["features.build_examples"]
        ala_cap = t["personalization.learn_ala_weights"]
        return {
            "graphs.generate_synthetic_s": seconds["graphs.generate_synthetic"],
            "graphs.sample_pair_universe_s": seconds["graphs.sample_pair_universe"],
            "graphs.temporal_split_s": seconds["graphs.temporal_split"],
            "graphs.train_test_split_s": seconds["graphs.train_test_split"],
            "features.build_examples_s": seconds["features.build_examples"],
            "features.pairs": pairs,
            "features.us_per_pair": 1e6 * seconds["features.build_examples"] / pairs if pairs else 0.0,
            "features.to_arrays_s": seconds["features.to_arrays"],
            "features.standardize_s": seconds["features.Standardizer.fit"]
            + seconds["features.Standardizer.transform"],
            "neural.gradient_calls": gradient_calls,
            "neural.gradient_rows": t["neural.gradient"],
            "neural.gradient_s": seconds["neural.gradient"],
            "neural.gradient_us_per_call": (
                1e6 * seconds["neural.gradient"] / gradient_calls if gradient_calls else 0.0
            ),
            "neural.sgd_step_calls": calls["neural.sgd_step"],
            "neural.sgd_step_s": seconds["neural.sgd_step"],
            "neural.params_built": self.params_built,
            "neural.forward_rows": t["neural.forward"],
            "neural.forward_s": seconds["neural.forward"],
            "neural.mean_loss_s": seconds["neural.mean_loss"],
            "neural.evaluate_s": seconds["neural.evaluate"],
            "neural.auc_s": seconds["neural.auc"],
            "federation.local_round_s": seconds["federation.local_round"],
            "federation.synchronize_s": seconds["federation.synchronize"],
            "federation.aggregate_calls": calls["federation.aggregate"],
            "federation.aggregate_s": seconds["federation.aggregate"],
            "personalization.learn_ala_weights_s": seconds["personalization.learn_ala_weights"],
            "personalization.ala_updates": ala_updates,
            "personalization.ala_updates_per_call": ala_updates / ala_cap if ala_cap else 0.0,
            "personalization.perfedavg_hf_steps": calls["personalization.perfedavg_hf_step"],
            "personalization.perfedavg_hf_step_s": seconds["personalization.perfedavg_hf_step"],
            "personalization.fine_tune_s": seconds["personalization.fine_tune"],
            "analysis.shapley_calls": calls["analysis.shapley_values"],
            "analysis.shapley_rows": t["analysis.shapley_values"],
            "analysis.shapley_s": seconds["analysis.shapley_values"],
            "analysis.fairness_report_s": seconds["analysis.fairness_report"],
            "experiment.build_client_datasets_s": seconds["experiment.build_client_datasets"],
            "experiment.emit_reports_s": seconds["experiment.emit_reports"],
            "experiment.emit_bytes": t["experiment.emit_reports"],
            "config.load_s": seconds["config.read_raw_sections"]
            + seconds["config.build_experiment_config"],
        }


def round_metrics(wall_clocks: list[float]) -> dict[str, float]:
    """Federated round count and the median RoundRecord.wall_clock."""
    return {
        "federation.rounds": len(wall_clocks),
        "federation.round_s": statistics.median(wall_clocks) if wall_clocks else 0.0,
    }
