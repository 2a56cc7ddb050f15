"""Command line front end.

Subcommands:

    generate   write synthetic edge lists for one seed
    featurize  write per-client feature CSVs for one seed
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
    StageError,
    emit_reports,
    export_feature_tables,
    export_synthetic_graphs,
    run_experiment,
)

__all__ = ["default_max_workers", "main"]

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
    if args.output_dir:
        raw.setdefault("experiment", {})["output_dir"] = args.output_dir
    if args.methods:
        raw.setdefault("experiment", {})["methods"] = args.methods
    if args.seeds:
        raw.setdefault("experiment", {})["seeds"] = args.seeds
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


def default_max_workers() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsln",
        description="federated link prediction workbench for social learning networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic edge lists")
    _add_common(gen)
    gen.add_argument("--seed", type=int, help="experiment seed (default: first)")

    feat = sub.add_parser("featurize", help="write per-client feature CSVs")
    _add_common(feat)
    feat.add_argument("--seed", type=int, help="experiment seed (default: first)")

    for name, help_text in (
        ("train", "train and write metrics, fairness, models"),
        ("fairness", "train and write only the fairness report"),
        ("explain", "train and write Shapley reports"),
        ("report", "train and write every report group"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)
        cmd.add_argument(
            "--max-workers",
            type=int,
            default=default_max_workers(),
            help="client shards per federated run, all but one in a forked "
            "process; never changes the output (default: usable CPUs, %(default)s)",
        )
        if name == "explain":
            cmd.add_argument("--method", help="override [explain] method")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command in ("generate", "featurize"):
            seed = args.seed if args.seed is not None else cfg.seeds[0]
            out = Path(cfg.output_dir) / (
                "data" if args.command == "generate" else "features"
            )
            if args.command == "generate":
                paths = export_synthetic_graphs(cfg, seed, out)
            else:
                paths = export_feature_tables(cfg, seed, out)
        else:
            if args.max_workers < 1:
                raise ConfigError("--max-workers must be at least 1")
            if args.command in ("explain", "report"):
                explain_kwargs = {"enabled": True}
                if getattr(args, "method", None):
                    explain_kwargs["method"] = args.method
                cfg = replace(cfg, explain=replace(cfg.explain, **explain_kwargs))
            report = run_experiment(cfg, max_workers=args.max_workers)
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


def _metric_lines(report) -> list[str]:
    if not report.metrics:
        return []
    per_method: dict[str, list[float]] = {}
    for method, _client, _seed, m in report.metrics:
        per_method.setdefault(method, []).append(m.auc)
    lines = []
    for method in report.config.methods:
        aucs = per_method.get(method, [])
        mean = sum(aucs) / len(aucs)
        lines.append(f"{method}: mean test AUC {mean:.4f} over {len(aucs)} cells")
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
