"""Command line front end.

Subcommands:

    generate   write synthetic edge lists for the first seed
    featurize  write per-client feature CSVs for the first seed
    train      run the experiment; write metrics, fairness, models, manifest
    fairness   run the experiment; write only fairness.csv and the manifest
    explain    run with Shapley reporting; write importance, explanations, SVGs
    report     run everything and write every report group

Every subcommand takes --config (an INI-style file or a run_manifest.json)
plus repeatable --set section.key=value overrides, so a finished run's
manifest can be replayed or tweaked directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    ConfigError,
    ExperimentConfig,
    build_experiment_config,
    read_raw_sections,
)
from .experiment import (
    RunReport,
    StageError,
    emit_reports,
    export_feature_tables,
    export_synthetic_graphs,
    run_experiment,
)

__all__ = ["SHARDS_PER_CPU", "default_max_workers", "main"]

_EMIT_GROUPS = {
    "train": ("metrics", "fairness", "models", "manifest"),
    "fairness": ("fairness", "manifest"),
    "explain": ("explain", "manifest"),
    "report": ("metrics", "fairness", "explain", "models", "manifest"),
}


def _parse_override(text: str) -> tuple[str, str, str]:
    head, sep, value = text.partition("=")
    section, dot, key = head.partition(".")
    if not sep or not dot or not section or not key:
        raise ConfigError(f"override must look like section.key=value, got {text!r}")
    return section.strip(), key.strip(), value.strip()


def _load(args: argparse.Namespace) -> ExperimentConfig:
    raw = read_raw_sections(args.config)
    for item in args.set or []:
        section, key, value = _parse_override(item)
        raw.setdefault(section, {})[key] = value
    # an empty flag value reaches the parser, which rejects it
    for key in ("output_dir", "methods", "seeds"):
        if (value := getattr(args, key)) is not None:
            raw.setdefault("experiment", {})[key] = value
    return build_experiment_config(raw)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="INI config or run_manifest.json")
    sub.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override any config entry (repeatable)",
    )
    sub.add_argument("--output-dir", help="override [experiment] output_dir")
    sub.add_argument("--methods", help="comma list overriding [experiment] methods")
    sub.add_argument("--seeds", help="comma list overriding [experiment] seeds")


# the default never deals more than this many client shards per usable CPU,
# so a config with thousands of classrooms does not fork thousands of processes
SHARDS_PER_CPU = 4


def default_max_workers(n_classrooms: int) -> int:
    """One client shard per classroom when this process may run on more
    than one CPU, else one; at most SHARDS_PER_CPU shards per CPU.

    With one shard per classroom the OS spreads the clients over the CPUs
    (five clients on two cores wait 2.5 client-rounds per round, against
    3 for one shard per CPU).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return 1
    return min(n_classrooms, SHARDS_PER_CPU * cpus)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --seed and --method would quietly mean --seeds and --methods
    parser = argparse.ArgumentParser(
        prog="fedsln",
        description="federated link prediction workbench for social learning networks",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "write synthetic edge lists"),
        ("featurize", "write per-client feature CSVs"),
    ):
        _add_common(sub.add_parser(name, help=help_text, allow_abbrev=False))

    for name, help_text in (
        ("train", "train and write metrics, fairness, models"),
        ("fairness", "train and write only the fairness report"),
        ("explain", "train and write Shapley reports"),
        ("report", "train and write every report group"),
    ):
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        _add_common(cmd)
        cmd.add_argument(
            "--max-workers",
            type=int,
            help="client shards per federated run and per explanation, all "
            "but one in a forked process; never changes the output (default: "
            "one per classroom when more than one CPU is usable, at most "
            f"{SHARDS_PER_CPU} per CPU)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command in ("generate", "featurize"):
            seed = cfg.seeds[0]
            out = Path(cfg.output_dir) / (
                "data" if args.command == "generate" else "features"
            )
            if args.command == "generate":
                paths = export_synthetic_graphs(cfg, seed, out)
            else:
                paths = export_feature_tables(cfg, seed, out)
        else:
            workers = args.max_workers
            if workers is None:
                workers = default_max_workers(cfg.n_clients)
            elif workers < 1:
                raise ConfigError("--max-workers must be at least 1")
            # only the subcommands that write Shapley reports compute them
            enabled = "explain" in _EMIT_GROUPS[args.command]
            cfg = replace(cfg, explain=replace(cfg.explain, enabled=enabled))
            report = run_experiment(cfg, max_workers=workers)
            paths = emit_reports(report, include=_EMIT_GROUPS[args.command])
            for line in _metric_lines(report):
                print(line)
            for warning in report.warnings:
                print(f"warning: {warning}", file=sys.stderr)
    except ConfigError as exc:
        print(f"fedsln: [config] {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"fedsln: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(f"wrote {path}")
    return 0


def _metric_lines(report: RunReport) -> list[str]:
    lines = []
    for method in report.config.methods:
        # summed seed by seed, classrooms in order within each seed
        by_seed = zip(*report.classroom_metrics(method).values())
        aucs = [m.auc for reports in by_seed for m in reports]
        mean = sum(aucs) / len(aucs)
        lines.append(f"{method}: mean test AUC {mean:.4f} over {len(aucs)} cells")
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
