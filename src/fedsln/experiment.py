"""End-to-end experiment driver and report emission.

Per seed: synthesize or load one graph per classroom, build the temporal
snapshots, featurize and fit a standardizer per client, then run the
requested training regimes. Classrooms are built one at a time, so only
one classroom's graphs are alive at once, and a dataset holds its feature
matrices once: the raw matrices are its split containers' own. No
training split is ever standardized as a whole: clients train on a
features.StandardizedRows view of the raw matrix, which standardizes each
batch as it is drawn, and the test split goes through its standardizer
when it is scored. A data-stage failure names the seed and the classroom,
and for edge lists the file. Explanations, when enabled, attribute the
first seed's models while its datasets are alive, with the classrooms
dealt over the same client shards as training (federation.map_shards);
an explanation failure names the lowest-numbered classroom that failed,
whatever the shard count. No seed's datasets
outlive its iteration. A run_method call trains the one method it names:
fedavg_ft fine-tunes the seed's fedavg outcome, which run_experiment
trains once per seed, unreported when fedavg is not selected.

A run's results are its MethodOutcomes, one per (seed, method), and every
report is read off them when it is emitted: metrics.csv row by row,
summary.csv and fairness.csv from each method's per-classroom metrics
across seeds (RunReport.classroom_metrics; fairness spreads use the
per-classroom rates averaged over seeds), and the models group from each
outcome's models and blend weights.

The centralized regime is FedAvg with one client and one round: the
pooled training data form a single pseudo-client with id 0 that uses
the standard stream derivations, and its one round takes as many SGD
steps as its epochs need. Every method thus trains through
federation.run_fedavg, from the one start model run_method derives from
the seed, and reports a round history (one record for centralized).

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
    fairness_report,
    global_importance,
    make_predictor,
    rates_from_counts,
    shapley_values_batch,
    svg_bar_chart,
)
from .config import ExperimentConfig, SyntheticSpec, config_to_manifest
from .features import (
    FEATURE_NAMES,
    N_FEATURES,
    PairExamples,
    StandardizedRows,
    Standardizer,
    build_examples,
    examples_to_csv,
    to_arrays,
)
from .federation import RoundRecord, make_clients, map_shards, run_fedavg
from .graphs import (
    SlnGraph,
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
    check_finite,
    epochs_to_steps,
    evaluate,
    init_params,
    save_checkpoint,
)
from .personalization import (
    ala_weights_to_csv,
    fine_tune_all,
    run_fedala,
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
        self.message = message

    def __reduce__(self):
        # a forked client shard sends its errors to the parent pickled
        return type(self), (self.stage, self.message)


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
    and test_y are the splits' labels as float64, and standardizer is fit
    on raw_train_x. No standardized copy of either split is kept: the
    clients train on StandardizedRows(raw_train_x, standardizer).
    """

    client_id: int
    train_examples: PairExamples
    test_examples: PairExamples
    standardizer: Standardizer
    raw_train_x: np.ndarray
    raw_test_x: np.ndarray
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
    classroom's standardizer). `warnings` is ("batch_size_clamped",)
    when the method's batch size exceeds a split it trained on, derived
    from the config and the split sizes (see run_method), else ().
    `ala_weights` maps classrooms to their clients' learned blend weights:
    only fedala's clients learn any, so it is empty for other methods.
    """

    method: str
    seed: int
    reports: dict[int, MetricsReport]
    models: dict[int, ModelParams]
    standardizers: dict[int, Standardizer]
    training: str
    history: list[RoundRecord]
    warnings: tuple[str, ...]
    ala_weights: dict[int, object]


@dataclass
class RunReport:
    """A run's outcomes, seed-major and in config.methods order within a
    seed (metrics.csv's row order), plus the first seed's Shapley records
    and per-classroom importance when explanations were enabled."""

    config: ExperimentConfig
    outcomes: list[MethodOutcome]
    explanations: list[dict]
    importance: dict[int, tuple[np.ndarray, tuple[int, ...]]]

    def classroom_metrics(self, method: str) -> dict[int, list[MetricsReport]]:
        """method's MetricsReport per classroom, classrooms sorted, each
        classroom's reports in seed order."""
        cells: dict[int, list[MetricsReport]] = {}
        for outcome in self.outcomes:
            if outcome.method == method:
                for client, metrics in outcome.reports.items():
                    cells.setdefault(client, []).append(metrics)
        return dict(sorted(cells.items()))

    @property
    def warnings(self) -> tuple[str, ...]:
        """Every outcome's warning as `method: warning`, sorted, once each."""
        return tuple(sorted({f"{o.method}: {w}" for o in self.outcomes for w in o.warnings}))


def _graph(cfg: ExperimentConfig, seed: int, c: int) -> SlnGraph:
    """Classroom c's graph for one seed: synthesized, or read from its file."""
    if isinstance(cfg.data, SyntheticSpec):
        return generate_synthetic(
            cfg.data.nodes[c],
            cfg.data.communities[c],
            cfg.data.intra_p[c],
            cfg.data.inter_p[c],
            derive_seed(seed, "graph", c),
        )
    return load_edge_list(Path(cfg.data.paths[c]).read_text(encoding="utf-8-sig"))


def _each_classroom(
    cfg: ExperimentConfig, seed: int, build: Callable[[int, SlnGraph], object]
) -> list:
    """build(c, graph) for every classroom, in classroom order.

    A failure, in making the graph or in build, is a StageError tagged
    data whose message starts `seed S: classroom C: `, with the file in
    parentheses after C for edge lists.
    """
    built = []
    for c in range(cfg.n_clients):
        with _stage("data", f"{_classroom(cfg, seed, c)}: "):
            # the graph goes straight to the call, so no name keeps it alive
            built.append(build(c, _graph(cfg, seed, c)))
    return built


def _classroom(cfg: ExperimentConfig, seed: int, c: int) -> str:
    """`seed S: classroom C`, with the file in parentheses for edge lists."""
    where = "" if isinstance(cfg.data, SyntheticSpec) else f" ({cfg.data.paths[c]})"
    return f"seed {seed}: classroom {c}{where}"


def _check_test_splits(
    cfg: ExperimentConfig, seed: int, datasets: Sequence[ClientDataset]
) -> None:
    """Every test split needs both classes for its AUC; a StageError tagged
    data names the first classroom whose split lacks one."""
    for d in datasets:
        for label, name in ((1.0, "positive"), (0.0, "negative")):
            if not np.any(d.test_y == label):
                raise StageError(
                    "data",
                    f"{_classroom(cfg, seed, d.client_id)}: test split has no {name} pairs",
                )


def build_client_datasets(cfg: ExperimentConfig, seed: int) -> list[ClientDataset]:
    """Graphs -> temporal snapshots -> labeled splits and their standardizers.

    Classrooms are built one at a time: a graph is made only after the
    previous classroom's graph, snapshots and universe are released. A
    failure is one StageError naming the seed and the classroom (see
    _each_classroom).
    """
    return _each_classroom(cfg, seed, functools.partial(_client_dataset, cfg, seed))


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
        cfg.split.removal_fraction,
        derive_seed(seed, "temporal", c),
    )
    del graph
    examples = build_examples(tp, tp.pair_universe)
    del tp
    train_ex, test_ex = train_test_split(
        examples, cfg.split.train_fraction, derive_seed(seed, "split", c)
    )
    del examples
    # before the fit and the class checks: a train_fraction near 0 or 1 empties a split
    for split, part in (("train", train_ex), ("test", test_ex)):
        if len(part) == 0:
            raise ValueError(f"{split} split is empty at train_fraction {cfg.split.train_fraction}")
    # the raw matrices are the containers' own read-only features
    raw_train_x, train_y = to_arrays(train_ex)
    raw_test_x, test_y = to_arrays(test_ex)
    return ClientDataset(
        client_id=c,
        train_examples=train_ex,
        test_examples=test_ex,
        standardizer=Standardizer.fit(raw_train_x),
        raw_train_x=raw_train_x,
        raw_test_x=raw_test_x,
        train_y=train_y,
        test_y=test_y,
    )


def pool_training_data(
    datasets: Sequence[ClientDataset],
) -> tuple[Standardizer, StandardizedRows, np.ndarray]:
    """Concatenated training data under pooled statistics.

    Returns the standardizer fit on the concatenated raw matrices, a
    StandardizedRows view of that matrix through it, and the labels; the
    pooled matrix is held raw only. Only the centralized regime may call
    this; federated paths never move raw examples across clients.
    """
    x = np.concatenate([d.raw_train_x for d in datasets])
    y = np.concatenate([d.train_y for d in datasets])
    standardizer = Standardizer.fit(x)
    return standardizer, StandardizedRows(x, standardizer), y


def run_method(
    method: str,
    datasets: Sequence[ClientDataset],
    cfg: ExperimentConfig,
    seed: int,
    *,
    max_workers: int = 1,
    fedavg: MethodOutcome | None = None,
) -> MethodOutcome:
    """Train one regime for one seed and score every client's test split.

    A call trains `method` and no other. `fedavg`, when given, must be
    this seed's fedavg outcome, else a ValueError names the seed.
    fedavg_ft requires it: it fine-tunes that outcome's global model and
    reports its round history and its warning.

    A model that diverges to non-finite parameters stops the run with a
    NonFiniteParamsError naming either the round and the client
    (centralized: round 0, client 0) or the client whose personalized
    model diverged; run_experiment tags it train:<method> and prefixes
    the seed.
    """
    if method not in cfg.train:
        raise ValueError(f"unknown method {method!r}")
    if fedavg is not None or method == "fedavg_ft":
        if fedavg is None or (fedavg.method, fedavg.seed) != ("fedavg", seed):
            got = "None" if fedavg is None else f"seed {fedavg.seed}'s {fedavg.method}"
            raise ValueError(f"need seed {seed}'s fedavg outcome, not {got}")
    tcfg = cfg.train[method]
    # every method of one seed starts from the same global model
    start = init_params(derive_rng(seed, "init"), cfg.hidden_sizes, N_FEATURES)
    if method == "centralized":
        pooled_std, pooled_x, pooled_y = pool_training_data(datasets)
        clients = make_clients([(pooled_x, pooled_y)], seed)
        standardizers = {d.client_id: pooled_std for d in datasets}
        steps = epochs_to_steps(clients[0].size, tcfg.batch_size, tcfg.epochs)
        tcfg = replace(tcfg, global_rounds=1, local_steps=steps)
    else:
        clients = make_clients(
            [(StandardizedRows(d.raw_train_x, d.standardizer), d.train_y) for d in datasets],
            seed,
        )
        standardizers = {d.client_id: d.standardizer for d in datasets}

    if method in ("centralized", "fedavg"):
        global_params, history = run_fedavg(clients, tcfg, start, max_workers=max_workers)
        # aggregate has checked every model that went into the global one
        models = {d.client_id: global_params for d in datasets}
        training = "pooled" if method == "centralized" else "federated"
    else:
        if method == "fedavg_ft":
            global_params = fedavg.models[min(fedavg.models)]
            models = fine_tune_all(global_params, clients, tcfg)
            history = fedavg.history
        elif method == "perfedavg_hf":
            models, history = run_perfedavg_hf(clients, tcfg, start, max_workers=max_workers)
        else:
            models, history = run_fedala(clients, tcfg, start, max_workers=max_workers)
        # every personalized model is checked before any model is scored
        for cid, params in sorted(models.items()):
            check_finite(params, f"client {cid}'s personalized model")
        training = "personalized"
    reports = {}
    for d in datasets:
        x = standardizers[d.client_id].transform(d.raw_test_x)
        reports[d.client_id] = evaluate(models[d.client_id], x, d.test_y)
    # A batch is clamped iff it exceeds a split that some pass draws from.
    # The fine-tune pass of fedavg_ft and perfedavg_hf always runs; rounds
    # run only if there is one. fedavg_ft inherits its fedavg's warning.
    passes = method in ("fedavg_ft", "perfedavg_hf") or tcfg.global_rounds >= 1
    clamped = passes and any(tcfg.batch_size > c.size for c in clients)
    if method == "fedavg_ft":
        clamped = clamped or bool(fedavg.warnings)
    return MethodOutcome(
        method,
        seed,
        reports,
        models,
        standardizers,
        training,
        history,
        ("batch_size_clamped",) if clamped else (),
        {c.client_id: c.ala_weights for c in clients if c.ala_weights is not None},
    )


def _explain(
    cfg: ExperimentConfig,
    datasets: Sequence[ClientDataset],
    outcome: MethodOutcome,
    seed: int,
    *,
    max_workers: int = 1,
) -> tuple[list[dict], dict[int, tuple[np.ndarray, tuple[int, ...]]]]:
    """Shapley records of each classroom's sampled test pairs, and its importance.

    The classrooms are dealt into client shards (federation.map_shards).
    A failure is a StageError tagged explain, prefixed as in
    _each_classroom, of the lowest-numbered classroom that failed.
    """
    explained = map_shards(
        functools.partial(_explain_classroom, cfg, outcome, seed),
        datasets,
        max_workers=max_workers,
    )
    records = [record for classroom_records, _ in explained for record in classroom_records]
    importance = {d.client_id: imp for d, (_, imp) in zip(datasets, explained)}
    return records, importance


def _explain_classroom(
    cfg: ExperimentConfig, outcome: MethodOutcome, seed: int, d: ClientDataset
) -> tuple[list[dict], tuple[np.ndarray, tuple[int, ...]]]:
    c = d.client_id
    with _stage("explain", f"{_classroom(cfg, seed, c)}: "):
        predictor = make_predictor(outcome.models[c], outcome.standardizers[c])
        bg_rng = derive_rng(seed, "explain", "background", c)
        n_bg = min(cfg.explain.background_size, len(d.raw_train_x))
        background = d.raw_train_x[bg_rng.choice(len(d.raw_train_x), n_bg, replace=False)]
        pair_rng = derive_rng(seed, "explain", "pairs", c)
        n_pairs = min(cfg.explain.pairs_per_client, len(d.test_examples))
        chosen = np.sort(pair_rng.choice(len(d.test_examples), n_pairs, replace=False))
        explanations = shapley_values_batch(predictor, d.raw_test_x[chosen], background)
        pairs = d.test_examples.pairs[chosen].tolist()
        labels = d.test_examples.labels[chosen].tolist()
        records = [
            {
                "client": c,
                "u": u,
                "v": v,
                "label": label,
                "base_value": expl.base_value,
                "predicted": expl.predicted,
                "phi": dict(zip(FEATURE_NAMES, expl.phi)),
            }
            for (u, v), label, expl in zip(pairs, labels, explanations)
        ]
        return records, global_importance(explanations)


def run_experiment(cfg: ExperimentConfig, *, max_workers: int = 1) -> RunReport:
    """Execute every method for every seed; nothing is written to disk."""
    report = RunReport(config=cfg, outcomes=[], explanations=[], importance={})
    # fedavg_ft fine-tunes the seed's fedavg outcome, so it trains last; without
    # fedavg among the methods, fedavg trains first for it and is not reported
    order = sorted(cfg.methods, key=lambda m: m == "fedavg_ft")
    if "fedavg_ft" in cfg.methods and "fedavg" not in cfg.methods:
        order.insert(0, "fedavg")
    for seed in cfg.seeds:
        datasets = build_client_datasets(cfg, seed)
        _check_test_splits(cfg, seed, datasets)
        outcomes: dict[str, MethodOutcome] = {}
        for method in order:
            # a failure in the unreported fedavg is fedavg_ft's
            stage = method if method in cfg.methods else "fedavg_ft"
            with _stage(f"train:{stage}", f"seed {seed}: "):
                outcomes[method] = run_method(
                    method, datasets, cfg, seed,
                    max_workers=max_workers, fedavg=outcomes.get("fedavg"),
                )
        if cfg.explain.enabled and seed == cfg.seeds[0]:
            report.explanations, report.importance = _explain(
                cfg, datasets, outcomes[cfg.explain.method], seed, max_workers=max_workers
            )
        del datasets  # released before the next seed is built
        report.outcomes.extend(outcomes[method] for method in cfg.methods)
    return report


def _method_checkpoints(
    outcome: MethodOutcome,
) -> list[tuple[str, ModelParams, Standardizer | None]]:
    prefix = f"models/{outcome.method}_seed{outcome.seed}"
    if outcome.training == "personalized":
        return [
            (f"{prefix}_client{c}.ckpt", params, outcome.standardizers[c])
            for c, params in sorted(outcome.models.items())
        ]
    c = min(outcome.models)
    standardizer = outcome.standardizers[c] if outcome.training == "pooled" else None
    return [(f"{prefix}.ckpt", outcome.models[c], standardizer)]


def _blend_weight_files(outcome: MethodOutcome) -> list[tuple[str, str]]:
    return [
        (f"models/fedala_seed{outcome.seed}_client{cid}_blend.csv", ala_weights_to_csv(w))
        for cid, w in sorted(outcome.ala_weights.items())
    ]


def _fmt(x: float) -> str:
    return repr(float(x))


def _metrics_csv(report: RunReport) -> str:
    lines = ["method,client,seed,accuracy,loss,auc"]
    for o in report.outcomes:
        for client, m in o.reports.items():
            lines.append(
                f"{o.method},{client},{o.seed},{_fmt(m.accuracy)},{_fmt(m.mean_loss)},{_fmt(m.auc)}"
            )
    return "\n".join(lines) + "\n"


def _summary_csv(report: RunReport) -> str:
    lines = [
        "method,client,accuracy_mean,accuracy_std,loss_mean,loss_std,auc_mean,auc_std"
    ]
    for method in report.config.methods:
        for client, ms in report.classroom_metrics(method).items():
            acc = [m.accuracy for m in ms]
            loss = [m.mean_loss for m in ms]
            aucs = [m.auc for m in ms]
            lines.append(
                ",".join(
                    [
                        method,
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
        mean_rates = []
        for ms in report.classroom_metrics(method).values():
            # run_experiment's _check_test_splits has made both rates defined
            rates = [rates_from_counts(m.tp, m.fp, m.tn, m.fn) for m in ms]
            mean_rates.append(tuple(float(np.mean(rate)) for rate in zip(*rates)))
        fr = fairness_report(mean_rates)
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
        for outcome in report.outcomes:
            for rel, params, standardizer in _method_checkpoints(outcome):
                yield rel, functools.partial(
                    save_checkpoint, params=params, standardizer=standardizer
                )
        for outcome in report.outcomes:
            yield from _blend_weight_files(outcome)
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
    files = _each_classroom(
        cfg, seed, lambda c, graph: (f"client{c}.edges", to_edge_list(graph))
    )
    return _write_staged(Path(out_dir), files)
