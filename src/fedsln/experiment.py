"""End-to-end experiment driver and report emission.

Per seed: synthesize or load one graph per classroom, build the temporal
snapshots, featurize and standardize per client, then run the requested
training regimes. Metrics are collected per (method, client, seed);
fairness spreads use the per-client rates averaged over seeds;
explanations, when enabled, attribute the first seed's models.

The centralized regime is FedAvg with one client and one round: the
pooled training data form a single pseudo-client with id 0 that uses
the standard stream derivations, and its one round takes as many SGD
steps as its epochs need. Every method thus trains through
federation.run_fedavg and reports a round history (one record for
centralized), and every model is scored at one site.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (
    FairnessReport,
    ShapleyExplanation,
    fairness_report,
    global_importance,
    make_predictor,
    rates_from_counts,
    shapley_values,
    svg_bar_chart,
)
from .config import ExperimentConfig, SyntheticSpec, config_to_manifest, with_seed
from .features import (
    FEATURE_NAMES,
    PairExamples,
    Standardizer,
    build_examples,
    examples_to_csv,
    to_arrays,
)
from .federation import ClientState, RoundRecord, make_clients, run_fedavg
from .graphs import (
    SlnGraph,
    SplitSpec,
    generate_synthetic,
    load_edge_list,
    sample_pair_universe,
    temporal_split,
    train_test_split,
)
from .neural import (
    MetricsReport,
    ModelParams,
    NonFiniteParamsError,
    check_finite,
    epochs_to_steps,
    evaluate,
    save_checkpoint,
)
from .personalization import (
    ala_weights_to_csv,
    run_fedala,
    run_fedavg_ft,
    run_perfedavg_hf,
)
from .rng import derive_rng, derive_seed

__all__ = [
    "ClientDataset",
    "MethodOutcome",
    "RunReport",
    "StageError",
    "build_client_datasets",
    "emit_reports",
    "pool_training_data",
    "run_experiment",
    "run_method",
]

REPORT_GROUPS = ("metrics", "fairness", "explain", "models", "manifest")


class StageError(RuntimeError):
    """A pipeline stage failed; the message is tagged with the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class ClientDataset:
    """One classroom's featurized splits for one experiment seed."""

    client_id: int
    train_examples: PairExamples
    test_examples: PairExamples
    standardizer: Standardizer
    raw_train_x: np.ndarray
    raw_test_x: np.ndarray
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass
class MethodOutcome:
    method: str
    reports: dict[int, MetricsReport]
    global_params: ModelParams | None
    client_params: dict[int, ModelParams] | None
    pooled_standardizer: Standardizer | None
    history: list[RoundRecord]
    warnings: tuple[str, ...]
    ala_weights: dict[int, object] | None = None


@dataclass
class RunReport:
    config: ExperimentConfig
    metrics: list[tuple[str, int, int, MetricsReport]]
    fairness: dict[str, FairnessReport]
    explanations: list[dict]
    importance: dict[int, tuple[np.ndarray, tuple[int, ...]]]
    checkpoints: list[tuple[str, ModelParams, Standardizer | None]]
    extra_files: list[tuple[str, str]]
    warnings: tuple[str, ...]


def _client_graphs(cfg: ExperimentConfig, seed: int) -> list[SlnGraph]:
    if isinstance(cfg.data, SyntheticSpec):
        return [
            generate_synthetic(
                cfg.data.nodes[c],
                cfg.data.communities[c],
                cfg.data.intra_p[c],
                cfg.data.inter_p[c],
                derive_seed(seed, "graph", c),
            )
            for c in range(cfg.n_clients)
        ]
    return [load_edge_list(Path(p).read_text()) for p in cfg.data.paths]


def build_client_datasets(cfg: ExperimentConfig, seed: int) -> list[ClientDataset]:
    """Graphs -> temporal snapshots -> labeled, standardized splits."""
    datasets = []
    for c, graph in enumerate(_client_graphs(cfg, seed)):
        universe = sample_pair_universe(
            graph, cfg.split.negatives_per_positive, derive_seed(seed, "universe", c)
        )
        tp = temporal_split(
            graph,
            universe,
            SplitSpec(
                removal_fraction=cfg.split.removal_fraction,
                seed=derive_seed(seed, "temporal", c),
            ),
        )
        examples = build_examples(tp, tp.pair_universe)
        train_ex, test_ex = train_test_split(
            examples, cfg.split.train_fraction, derive_seed(seed, "split", c)
        )
        raw_train_x, train_y = to_arrays(train_ex)
        raw_test_x, test_y = to_arrays(test_ex)
        standardizer = Standardizer.fit(raw_train_x)
        datasets.append(
            ClientDataset(
                client_id=c,
                train_examples=train_ex,
                test_examples=test_ex,
                standardizer=standardizer,
                raw_train_x=raw_train_x,
                raw_test_x=raw_test_x,
                train_x=standardizer.transform(raw_train_x),
                train_y=train_y,
                test_x=standardizer.transform(raw_test_x),
                test_y=test_y,
            )
        )
    return datasets


def pool_training_data(
    datasets: Sequence[ClientDataset],
) -> tuple[Standardizer, np.ndarray, np.ndarray]:
    """Concatenated training data under pooled statistics.

    Only the centralized regime may call this; federated paths never
    move raw examples across clients.
    """
    x = np.concatenate([d.raw_train_x for d in datasets])
    y = np.concatenate([d.train_y for d in datasets])
    standardizer = Standardizer.fit(x)
    return standardizer, standardizer.transform(x), y


def run_method(
    method: str,
    datasets: Sequence[ClientDataset],
    cfg: ExperimentConfig,
    seed: int,
    *,
    max_workers: int | None = None,
) -> MethodOutcome:
    """Train one regime for one seed and score every client's test split.

    A model that diverges to non-finite parameters stops the run with a
    StageError tagged train:<method>. Its message names the seed and
    either the round and the client (centralized: round 0, client 0) or
    the client whose personalized model diverged.
    """
    if method not in cfg.train:
        raise ValueError(f"unknown method {method!r}")
    try:
        return _run_method(method, datasets, cfg, seed, max_workers)
    except NonFiniteParamsError as exc:
        raise StageError(f"train:{method}", f"seed {seed}: {exc}") from exc


def _run_method(
    method: str,
    datasets: Sequence[ClientDataset],
    cfg: ExperimentConfig,
    seed: int,
    max_workers: int | None,
) -> MethodOutcome:
    tcfg = with_seed(replace(cfg.train[method], hidden_sizes=cfg.hidden_sizes), seed)
    pooled_std = None
    if method == "centralized":
        pooled_std, pooled_x, pooled_y = pool_training_data(datasets)
        clients = [ClientState(0, pooled_x, pooled_y, pooled_x[:0], pooled_y[:0], seed)]
        test_x = [pooled_std.transform(d.raw_test_x) for d in datasets]
        steps = epochs_to_steps(clients[0].size, tcfg.batch_size, tcfg.epochs)
        tcfg = replace(tcfg, global_rounds=1, local_steps=steps)
    else:
        clients = make_clients(
            [(d.train_x, d.train_y, d.test_x, d.test_y) for d in datasets], seed
        )
        test_x = [d.test_x for d in datasets]

    global_params = client_params = None
    flags: set[str] = set()  # warnings of the fine-tune pass after the rounds
    if method in ("centralized", "fedavg"):
        global_params, history = run_fedavg(clients, tcfg, max_workers=max_workers)
    elif method == "fedavg_ft":
        fed_cfg = with_seed(
            replace(cfg.train["fedavg"], hidden_sizes=cfg.hidden_sizes), seed
        )
        client_params, history = run_fedavg_ft(
            clients, fed_cfg, tcfg, max_workers=max_workers, flags=flags
        )
    elif method == "perfedavg_hf":
        client_params, history = run_perfedavg_hf(
            clients, tcfg, max_workers=max_workers, flags=flags
        )
    elif method == "fedala":
        client_params, history = run_fedala(clients, tcfg, max_workers=max_workers)
    else:
        raise ValueError(f"unknown method {method!r}")
    if client_params is None:
        # aggregate has checked every model that went into the global one
        models = {d.client_id: global_params for d in datasets}
    else:
        # every personalized model is checked before any model is scored
        for cid, params in sorted(client_params.items()):
            check_finite(params, f"client {cid}'s personalized model")
        models = client_params
    reports = {
        d.client_id: evaluate(models[d.client_id], x, d.test_y)
        for d, x in zip(datasets, test_x)
    }
    ala_weights = None
    if method == "fedala":
        ala_weights = {
            c.client_id: c.ala_weights for c in clients if c.ala_weights is not None
        }
    return MethodOutcome(
        method,
        reports,
        global_params,
        client_params,
        pooled_std,
        history,
        tuple(sorted(flags.union(*(r.warnings for r in history)))),
        ala_weights=ala_weights,
    )


def _explain(
    cfg: ExperimentConfig,
    datasets: Sequence[ClientDataset],
    outcome: MethodOutcome,
    seed: int,
) -> tuple[list[dict], dict[int, tuple[np.ndarray, tuple[int, ...]]]]:
    records: list[dict] = []
    importance: dict[int, tuple[np.ndarray, tuple[int, ...]]] = {}
    for d in datasets:
        if outcome.client_params is not None:
            params = outcome.client_params[d.client_id]
            standardizer = d.standardizer
        else:
            params = outcome.global_params
            standardizer = outcome.pooled_standardizer or d.standardizer
        predictor = make_predictor(params, standardizer)
        bg_rng = derive_rng(seed, "explain", "background", d.client_id)
        n_bg = min(cfg.explain.background_size, len(d.raw_train_x))
        background = d.raw_train_x[bg_rng.choice(len(d.raw_train_x), n_bg, replace=False)]
        pair_rng = derive_rng(seed, "explain", "pairs", d.client_id)
        n_pairs = min(cfg.explain.pairs_per_client, len(d.test_examples))
        chosen = sorted(pair_rng.choice(len(d.test_examples), n_pairs, replace=False).tolist())
        explanations: list[ShapleyExplanation] = []
        for i in chosen:
            ex = d.test_examples[i]
            expl = shapley_values(predictor, np.asarray(ex.features), background)
            explanations.append(expl)
            records.append(
                {
                    "client": d.client_id,
                    "u": ex.u,
                    "v": ex.v,
                    "label": ex.label,
                    "base_value": expl.base_value,
                    "predicted": expl.predicted,
                    "phi": {name: val for name, val in zip(FEATURE_NAMES, expl.phi)},
                }
            )
        importance[d.client_id] = global_importance(explanations)
    return records, importance


def run_experiment(
    cfg: ExperimentConfig, *, max_workers: int | None = None
) -> RunReport:
    """Execute every method for every seed; nothing is written to disk."""
    if cfg.explain.enabled and cfg.explain.method not in cfg.methods:
        raise StageError(
            "config", f"explain method {cfg.explain.method!r} is not among the methods"
        )
    metrics: list[tuple[str, int, int, MetricsReport]] = []
    rate_cells: dict[tuple[str, int], list[tuple[float, float]]] = {}
    checkpoints: list[tuple[str, ModelParams, Standardizer | None]] = []
    extra_files: list[tuple[str, str]] = []
    warnings: set[str] = set()
    first_seed_artifacts: dict[str, MethodOutcome] = {}
    first_datasets: list[ClientDataset] | None = None

    for seed in cfg.seeds:
        try:
            datasets = build_client_datasets(cfg, seed)
        except StageError:
            raise
        except Exception as exc:
            raise StageError("data", f"seed {seed}: {exc}") from exc
        if first_datasets is None:
            first_datasets = datasets
        for method in cfg.methods:
            try:
                outcome = run_method(
                    method, datasets, cfg, seed, max_workers=max_workers
                )
            except StageError:
                raise
            except Exception as exc:
                raise StageError(f"train:{method}", f"seed {seed}: {exc}") from exc
            if method not in first_seed_artifacts:
                first_seed_artifacts[method] = outcome
            warnings.update(f"{method}: {w}" for w in outcome.warnings)
            for d in datasets:
                report = outcome.reports[d.client_id]
                metrics.append((method, d.client_id, seed, report))
                tpr, fpr = rates_from_counts(report.tp, report.fp, report.tn, report.fn)
                if tpr is None or fpr is None:
                    raise StageError(
                        "analysis",
                        f"{method} seed {seed} client {d.client_id}: "
                        "test split lacks a class, rates undefined",
                    )
                rate_cells.setdefault((method, d.client_id), []).append((tpr, fpr))
            checkpoints.extend(_method_checkpoints(outcome, datasets, seed))
            extra_files.extend(_blend_weight_files(outcome, seed))

    fairness: dict[str, FairnessReport] = {}
    try:
        for method in cfg.methods:
            mean_rates = []
            for d in sorted({cid for (m, cid) in rate_cells if m == method}):
                cell = rate_cells[(method, d)]
                mean_rates.append(
                    (
                        float(np.mean([r[0] for r in cell])),
                        float(np.mean([r[1] for r in cell])),
                    )
                )
            fairness[method] = fairness_report(mean_rates)
    except StageError:
        raise
    except Exception as exc:
        raise StageError("analysis", str(exc)) from exc

    explanations: list[dict] = []
    importance: dict[int, tuple[np.ndarray, tuple[int, ...]]] = {}
    if cfg.explain.enabled:
        try:
            explanations, importance = _explain(
                cfg,
                first_datasets,
                first_seed_artifacts[cfg.explain.method],
                cfg.seeds[0],
            )
        except StageError:
            raise
        except Exception as exc:
            raise StageError("explain", str(exc)) from exc

    return RunReport(
        config=cfg,
        metrics=metrics,
        fairness=fairness,
        explanations=explanations,
        importance=importance,
        checkpoints=checkpoints,
        extra_files=extra_files,
        warnings=tuple(sorted(warnings)),
    )


def _method_checkpoints(
    outcome: MethodOutcome, datasets: Sequence[ClientDataset], seed: int
) -> list[tuple[str, ModelParams, Standardizer | None]]:
    if outcome.method == "centralized":
        return [
            (
                f"models/centralized_seed{seed}.ckpt",
                outcome.global_params,
                outcome.pooled_standardizer,
            )
        ]
    if outcome.method == "fedavg":
        return [(f"models/fedavg_seed{seed}.ckpt", outcome.global_params, None)]
    std = {d.client_id: d.standardizer for d in datasets}
    return [
        (
            f"models/{outcome.method}_seed{seed}_client{cid}.ckpt",
            params,
            std[cid],
        )
        for cid, params in sorted(outcome.client_params.items())
    ]


def _blend_weight_files(outcome: MethodOutcome, seed: int) -> list[tuple[str, str]]:
    if not outcome.ala_weights:
        return []
    return [
        (f"models/fedala_seed{seed}_client{cid}_blend.csv", ala_weights_to_csv(w))
        for cid, w in sorted(outcome.ala_weights.items())
    ]


def _fmt(x: float) -> str:
    return repr(float(x))


def _metrics_csv(report: RunReport) -> str:
    lines = ["method,client,seed,accuracy,loss,auc"]
    for method, client, seed, m in report.metrics:
        lines.append(
            f"{method},{client},{seed},{_fmt(m.accuracy)},{_fmt(m.mean_loss)},{_fmt(m.auc)}"
        )
    return "\n".join(lines) + "\n"


def _summary_csv(report: RunReport) -> str:
    cells: dict[tuple[str, int], list[MetricsReport]] = {}
    for method, client, _seed, m in report.metrics:
        cells.setdefault((method, client), []).append(m)
    lines = [
        "method,client,accuracy_mean,accuracy_std,loss_mean,loss_std,auc_mean,auc_std"
    ]
    for method in report.config.methods:
        for (m_name, client) in sorted(k for k in cells if k[0] == method):
            ms = cells[(m_name, client)]
            acc = [m.accuracy for m in ms]
            loss = [m.mean_loss for m in ms]
            aucs = [m.auc for m in ms]
            lines.append(
                ",".join(
                    [
                        m_name,
                        str(client),
                        _fmt(np.mean(acc)),
                        _fmt(np.std(acc)),
                        _fmt(np.mean(loss)),
                        _fmt(np.std(loss)),
                        _fmt(np.mean(aucs)),
                        _fmt(np.std(aucs)),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _fairness_csv(report: RunReport) -> str:
    # the final row per method carries the spreads in the rate columns
    lines = ["method,client,tpr,fpr"]
    for method in report.config.methods:
        fr = report.fairness[method]
        for client, (tpr, fpr) in enumerate(fr.client_rates):
            lines.append(f"{method},{client},{_fmt(tpr)},{_fmt(fpr)}")
        lines.append(f"{method},range,{_fmt(fr.tpr_range)},{_fmt(fr.fpr_range)}")
    return "\n".join(lines) + "\n"


def _importance_csv(report: RunReport) -> str:
    lines = ["client,feature,importance,rank"]
    for client in sorted(report.importance):
        values, ranking = report.importance[client]
        rank_of = {feat: pos + 1 for pos, feat in enumerate(ranking)}
        for f, name in enumerate(FEATURE_NAMES):
            lines.append(f"{client},{name},{_fmt(values[f])},{rank_of[f]}")
    return "\n".join(lines) + "\n"


def emit_reports(
    report: RunReport,
    out_dir: str | Path | None = None,
    include: Sequence[str] | None = None,
) -> list[Path]:
    """Write the selected report groups, all or none of them.

    Groups: metrics (metrics.csv, summary.csv), fairness (fairness.csv),
    explain (importance.csv, explanations.json, per-client SVG), models
    (checkpoints plus blend weights), manifest (run_manifest.json).
    Every file is first written to a temporary sibling; the temporaries
    replace their targets only after every group has been written and
    every target is known to be distinct and not a directory. On failure
    only the temporaries are removed, so an earlier run's files stay as
    they were.
    """
    groups = set(REPORT_GROUPS if include is None else include)
    unknown = groups - set(REPORT_GROUPS)
    if unknown:
        raise ValueError(f"unknown report groups: {sorted(unknown)}")
    out = Path(out_dir if out_dir is not None else report.config.output_dir)
    staged: list[tuple[Path, Path]] = []  # (temporary, target)

    def _stage(rel: str) -> Path:
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        staged.append((tmp, path))
        return tmp

    def _write_text(rel: str, text: str) -> None:
        _stage(rel).write_text(text)

    try:
        out.mkdir(parents=True, exist_ok=True)
        if "metrics" in groups:
            _write_text("metrics.csv", _metrics_csv(report))
            _write_text("summary.csv", _summary_csv(report))
        if "fairness" in groups:
            _write_text("fairness.csv", _fairness_csv(report))
        if "explain" in groups and report.importance:
            _write_text("importance.csv", _importance_csv(report))
            _write_text(
                "explanations.json",
                json.dumps(report.explanations, indent=2, sort_keys=True) + "\n",
            )
            for client in sorted(report.importance):
                values, _ranking = report.importance[client]
                _write_text(
                    f"importance_client{client}.svg",
                    svg_bar_chart(
                        values.tolist(),
                        FEATURE_NAMES,
                        title=f"classroom {client}: mean |phi|",
                    ),
                )
        if "models" in groups:
            for rel, params, standardizer in report.checkpoints:
                save_checkpoint(_stage(rel), params, standardizer)
            for rel, text in report.extra_files:
                _write_text(rel, text)
        if "manifest" in groups:
            _write_text(
                "run_manifest.json",
                json.dumps(config_to_manifest(report.config), indent=2, sort_keys=True)
                + "\n",
            )
        _check_targets([path for _tmp, path in staged])
        for tmp, path in staged:
            os.replace(tmp, path)
    except Exception as exc:
        for tmp, _path in staged:
            tmp.unlink(missing_ok=True)
        raise StageError("emit", str(exc)) from exc
    return [path for _tmp, path in staged]


def _check_targets(targets: Sequence[Path]) -> None:
    """Raise before any file is moved if one of them could not be: a target
    named twice, or one that is an existing directory."""
    seen: set[Path] = set()
    for path in targets:
        if path in seen:
            raise ValueError(f"{path} would be written twice")
        if path.is_dir():
            raise IsADirectoryError(f"{path} is a directory")
        seen.add(path)


def export_feature_tables(
    cfg: ExperimentConfig, seed: int, out_dir: str | Path
) -> list[Path]:
    """Write per-client train/test feature CSVs for one seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for d in build_client_datasets(cfg, seed):
        for split, examples in (("train", d.train_examples), ("test", d.test_examples)):
            path = out / f"features_client{d.client_id}_{split}.csv"
            path.write_text(examples_to_csv(examples))
            paths.append(path)
    return paths


def export_synthetic_graphs(
    cfg: ExperimentConfig, seed: int, out_dir: str | Path
) -> list[Path]:
    """Write one edge-list file per synthetic classroom for one seed."""
    from .graphs import to_edge_list

    if not isinstance(cfg.data, SyntheticSpec):
        raise StageError("data", "generate requires a synthetic data section")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for c, graph in enumerate(_client_graphs(cfg, seed)):
        path = out / f"client{c}.edges"
        path.write_text(to_edge_list(graph))
        paths.append(path)
    return paths
