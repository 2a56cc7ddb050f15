"""End-to-end experiment driver and report emission.

Per seed: synthesize or load one graph per classroom, build the temporal
snapshots, featurize and standardize per client, then run the requested
training regimes. Classrooms are built one at a time, so only one
classroom's graphs are alive at once, and a dataset holds its feature
matrices once: the raw matrices are its split containers' own. Metrics
are collected per (method, client, seed); fairness spreads use the
per-client rates averaged over seeds; explanations, when enabled,
attribute the first seed's models.

The centralized regime is FedAvg with one client and one round: the
pooled training data form a single pseudo-client with id 0 that uses
the standard stream derivations, and its one round takes as many SGD
steps as its epochs need. Every method thus trains through
federation.run_fedavg and reports a round history (one record for
centralized).

run_method picks once, per classroom, the model that serves it and the
standardizer its features go through (see MethodOutcome); scoring,
Shapley explanations and checkpoints all read those two tables.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
from .config import ExperimentConfig, SyntheticSpec, config_to_manifest
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
    to_edge_list,
    train_test_split,
)
from .neural import (
    MetricsReport,
    ModelParams,
    NonFiniteParamsError,
    TrainConfig,
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


@contextlib.contextmanager
def _stage(stage: str, prefix: str = "") -> Iterator[None]:
    """Tag any failure in the block with the stage, unless already tagged."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, f"{prefix}{exc}") from exc


@dataclass
class ClientDataset:
    """One classroom's featurized splits for one experiment seed.

    raw_train_x and raw_test_x are train_examples.features and
    test_examples.features themselves, read-only, not copies; train_y
    and test_y are the splits' labels as float64, and train_x is
    raw_train_x through the classroom's standardizer.
    """

    client_id: int
    train_examples: PairExamples
    test_examples: PairExamples
    standardizer: Standardizer
    raw_train_x: np.ndarray
    raw_test_x: np.ndarray
    train_x: np.ndarray
    train_y: np.ndarray
    test_y: np.ndarray


@dataclass
class MethodOutcome:
    """One regime's trained models for one seed, keyed by classroom.

    models[c] serves classroom c on features that went through
    standardizers[c]: the pooled standardizer for centralized, the
    classroom's own otherwise. `training` says how the models were
    trained, which fixes the checkpoint layout: "pooled" (one model on
    the pooled data, one file with the pooled standardizer), "federated"
    (one global model, one file without a standardizer) or
    "personalized" (one model and one file per classroom, with the
    classroom's standardizer).
    """

    method: str
    reports: dict[int, MetricsReport]
    models: dict[int, ModelParams]
    standardizers: dict[int, Standardizer]
    training: str
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


def _client_graphs(cfg: ExperimentConfig, seed: int) -> Iterator[SlnGraph]:
    """Each classroom's graph in classroom order, made when it is reached."""
    if isinstance(cfg.data, SyntheticSpec):
        for c in range(cfg.n_clients):
            yield generate_synthetic(
                cfg.data.nodes[c],
                cfg.data.communities[c],
                cfg.data.intra_p[c],
                cfg.data.inter_p[c],
                derive_seed(seed, "graph", c),
            )
    else:
        for p in cfg.data.paths:
            yield load_edge_list(Path(p).read_text())


def build_client_datasets(cfg: ExperimentConfig, seed: int) -> list[ClientDataset]:
    """Graphs -> temporal snapshots -> labeled, standardized splits.

    Classrooms are built one at a time: a graph is made only after the
    previous classroom's graph, snapshots and universe are released.
    """
    graphs = _client_graphs(cfg, seed)
    # next() hands each graph straight to the call, so no name keeps it alive
    return [_client_dataset(cfg, seed, c, next(graphs)) for c in range(cfg.n_clients)]


def _client_dataset(
    cfg: ExperimentConfig, seed: int, c: int, graph: SlnGraph
) -> ClientDataset:
    # TemporalPair keeps its own copy of the universe, so the sample is
    # dropped here; the snapshots go as soon as the examples are built
    tp = temporal_split(
        graph,
        sample_pair_universe(
            graph, cfg.split.negatives_per_positive, derive_seed(seed, "universe", c)
        ),
        SplitSpec(
            removal_fraction=cfg.split.removal_fraction,
            seed=derive_seed(seed, "temporal", c),
        ),
    )
    del graph
    examples = build_examples(tp, tp.pair_universe)
    del tp
    train_ex, test_ex = train_test_split(
        examples, cfg.split.train_fraction, derive_seed(seed, "split", c)
    )
    del examples
    # the raw matrices are the containers' own read-only features
    raw_train_x, train_y = to_arrays(train_ex)
    raw_test_x, test_y = to_arrays(test_ex)
    standardizer = Standardizer.fit(raw_train_x)
    return ClientDataset(
        client_id=c,
        train_examples=train_ex,
        test_examples=test_ex,
        standardizer=standardizer,
        raw_train_x=raw_train_x,
        raw_test_x=raw_test_x,
        train_x=standardizer.transform(raw_train_x),
        train_y=train_y,
        test_y=test_y,
    )


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
    def train_config(name: str) -> TrainConfig:
        return replace(cfg.train[name], hidden_sizes=cfg.hidden_sizes, seed=seed)

    tcfg = train_config(method)
    if method == "centralized":
        pooled_std, pooled_x, pooled_y = pool_training_data(datasets)
        clients = [ClientState(0, pooled_x, pooled_y, seed)]
        standardizers = {d.client_id: pooled_std for d in datasets}
        steps = epochs_to_steps(clients[0].size, tcfg.batch_size, tcfg.epochs)
        tcfg = replace(tcfg, global_rounds=1, local_steps=steps)
    else:
        clients = make_clients([(d.train_x, d.train_y) for d in datasets], seed)
        standardizers = {d.client_id: d.standardizer for d in datasets}

    flags: set[str] = set()  # warnings of the fine-tune pass after the rounds
    if method in ("centralized", "fedavg"):
        global_params, history = run_fedavg(clients, tcfg, max_workers=max_workers)
        # aggregate has checked every model that went into the global one
        models = {d.client_id: global_params for d in datasets}
        training = "pooled" if method == "centralized" else "federated"
    else:
        if method == "fedavg_ft":
            models, history = run_fedavg_ft(
                clients, train_config("fedavg"), tcfg, max_workers=max_workers, flags=flags
            )
        elif method == "perfedavg_hf":
            models, history = run_perfedavg_hf(
                clients, tcfg, max_workers=max_workers, flags=flags
            )
        elif method == "fedala":
            models, history = run_fedala(clients, tcfg, max_workers=max_workers)
        else:
            raise ValueError(f"unknown method {method!r}")
        # every personalized model is checked before any model is scored
        for cid, params in sorted(models.items()):
            check_finite(params, f"client {cid}'s personalized model")
        training = "personalized"
    reports = {}
    for d in datasets:
        x = standardizers[d.client_id].transform(d.raw_test_x)
        reports[d.client_id] = evaluate(models[d.client_id], x, d.test_y)
    ala_weights = None
    if method == "fedala":
        ala_weights = {
            c.client_id: c.ala_weights for c in clients if c.ala_weights is not None
        }
    return MethodOutcome(
        method,
        reports,
        models,
        standardizers,
        training,
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
        predictor = make_predictor(
            outcome.models[d.client_id], outcome.standardizers[d.client_id]
        )
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
        with _stage("data", f"seed {seed}: "):
            datasets = build_client_datasets(cfg, seed)
        if first_datasets is None:
            first_datasets = datasets
        for method in cfg.methods:
            with _stage(f"train:{method}", f"seed {seed}: "):
                outcome = run_method(
                    method, datasets, cfg, seed, max_workers=max_workers
                )
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
            checkpoints.extend(_method_checkpoints(outcome, seed))
            extra_files.extend(_blend_weight_files(outcome, seed))

    fairness: dict[str, FairnessReport] = {}
    with _stage("analysis"):
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

    explanations: list[dict] = []
    importance: dict[int, tuple[np.ndarray, tuple[int, ...]]] = {}
    if cfg.explain.enabled:
        with _stage("explain"):
            explanations, importance = _explain(
                cfg,
                first_datasets,
                first_seed_artifacts[cfg.explain.method],
                cfg.seeds[0],
            )

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
    outcome: MethodOutcome, seed: int
) -> list[tuple[str, ModelParams, Standardizer | None]]:
    if outcome.training == "personalized":
        return [
            (
                f"models/{outcome.method}_seed{seed}_client{c}.ckpt",
                params,
                outcome.standardizers[c],
            )
            for c, params in sorted(outcome.models.items())
        ]
    c = min(outcome.models)
    standardizer = outcome.standardizers[c] if outcome.training == "pooled" else None
    return [(f"models/{outcome.method}_seed{seed}.ckpt", outcome.models[c], standardizer)]


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
    """Write the selected report groups, all or none of them (see _write_staged).

    Groups: metrics (metrics.csv, summary.csv), fairness (fairness.csv),
    explain (importance.csv, explanations.json, per-client SVG), models
    (checkpoints plus blend weights), manifest (run_manifest.json).
    """
    groups = set(REPORT_GROUPS if include is None else include)
    unknown = groups - set(REPORT_GROUPS)
    if unknown:
        raise ValueError(f"unknown report groups: {sorted(unknown)}")
    out = Path(out_dir if out_dir is not None else report.config.output_dir)
    return _write_staged(out, _report_files(report, groups))


def _report_files(
    report: RunReport, groups: set[str]
) -> Iterator[tuple[str, str | Callable[[Path], None]]]:
    if "metrics" in groups:
        yield "metrics.csv", _metrics_csv(report)
        yield "summary.csv", _summary_csv(report)
    if "fairness" in groups:
        yield "fairness.csv", _fairness_csv(report)
    if "explain" in groups and report.importance:
        yield "importance.csv", _importance_csv(report)
        yield "explanations.json", json.dumps(
            report.explanations, indent=2, sort_keys=True
        ) + "\n"
        for client in sorted(report.importance):
            values, _ranking = report.importance[client]
            yield f"importance_client{client}.svg", svg_bar_chart(
                values.tolist(), FEATURE_NAMES, title=f"classroom {client}: mean |phi|"
            )
    if "models" in groups:
        for rel, params, standardizer in report.checkpoints:
            yield rel, functools.partial(
                save_checkpoint, params=params, standardizer=standardizer
            )
        yield from report.extra_files
    if "manifest" in groups:
        yield "run_manifest.json", json.dumps(
            config_to_manifest(report.config), indent=2, sort_keys=True
        ) + "\n"


def _write_staged(
    out: Path, files: Iterable[tuple[str, str | Callable[[Path], None]]]
) -> list[Path]:
    """Write every file under out, or none of them; return the targets.

    A file is a relative name plus its text or a function that writes a
    given path. Each is first written to a temporary sibling; the
    temporaries replace their targets only after every file has been
    written and every target is known to be distinct and not a
    directory. On failure only the temporaries are removed, so an
    earlier run's files stay as they were, and the error is raised as a
    StageError tagged emit.
    """
    staged: list[tuple[Path, Path]] = []  # (temporary, target)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for rel, content in files:
            path = out / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append((tmp, path))
            if callable(content):
                content(tmp)
            else:
                tmp.write_text(content)
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
    """Write per-client train/test feature CSVs for one seed, all or none."""
    with _stage("data", f"seed {seed}: "):
        datasets = build_client_datasets(cfg, seed)
    return _write_staged(
        Path(out_dir),
        (
            (f"features_client{d.client_id}_{split}.csv", examples_to_csv(examples))
            for d in datasets
            for split, examples in (("train", d.train_examples), ("test", d.test_examples))
        ),
    )


def export_synthetic_graphs(
    cfg: ExperimentConfig, seed: int, out_dir: str | Path
) -> list[Path]:
    """Write one edge-list file per synthetic classroom for one seed, all or none."""
    if not isinstance(cfg.data, SyntheticSpec):
        raise StageError("data", "generate requires a synthetic data section")
    with _stage("data", f"seed {seed}: "):
        files = [
            (f"client{c}.edges", to_edge_list(graph))
            for c, graph in enumerate(_client_graphs(cfg, seed))
        ]
    return _write_staged(Path(out_dir), files)
