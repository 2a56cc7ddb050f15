"""Experiment configuration: sectioned key=value files and manifests.

Grammar: INI-style sections of ``key = value`` lines, ``#`` comments.

    [experiment]   methods, seeds, output_dir
    [model]        hidden_sizes
    [data]         source = synthetic | edge_lists
                   synthetic: nodes, communities, intra_p, inter_p
                   (comma lists, one entry per client)
                   edge_lists: paths (comma list of files)
    [split]        removal_fraction, train_fraction, negatives_per_positive
    [explain]      method, pairs_per_client, background_size
    [<method>]     the hyperparameters that method reads

The option dataclasses are the one schema: a section's keys, types and
defaults are the fields of ExperimentConfig, the data source's spec,
SplitOptions, ExplainOptions or TrainConfig. [explain] takes every
ExplainOptions field but enabled, which whoever runs the experiment
sets (the CLI subcommand), so no file or manifest holds it. A method
section takes only the TrainConfig fields its method reads, the keys of
its _METHOD_DEFAULTS entry, and the manifest records exactly those. The
fedavg_ft section configures only the one-epoch fine-tuning pass, so it
takes learning_rate and batch_size alone; the model it fine-tunes is the
one [fedavg] trains.
One parser reads INI text, --set text and typed manifest values alike.
Each option dataclass checks its own fields in __post_init__, and
ExperimentConfig.__post_init__ holds the checks that span sections:
methods and seeds are unique (two seeds that rng reduces to the same
64-bit key are one seed), [fedala] ala_top_layers fits the model, and an
enabled explanation explains a selected method. A resolved configuration
round-trips through run_manifest.json: read_raw_sections reads either
format (.json is a manifest) for load_config and for the CLI alike.
Every problem raises ConfigError, which the CLI prints as one
``fedsln: [config] message`` line.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Collection, get_args, get_origin, get_type_hints

from .neural import DEFAULT_HIDDEN, TrainConfig
from .rng import _entropy

__all__ = [
    "ConfigError",
    "EdgeListSpec",
    "ExperimentConfig",
    "ExplainOptions",
    "METHOD_NAMES",
    "SplitOptions",
    "SyntheticSpec",
    "build_experiment_config",
    "config_to_manifest",
    "load_config",
    "read_raw_sections",
]

METHOD_NAMES = ("centralized", "fedavg", "fedavg_ft", "perfedavg_hf", "fedala")

# Each method section's keys: every TrainConfig field its method reads, with
# the method's default (meta_inner and meta_outer of None are learning_rate).
_METHOD_DEFAULTS: dict[str, dict[str, Any]] = {
    "centralized": {"learning_rate": 1e-3, "batch_size": 256, "epochs": 200},
    "fedavg": {"learning_rate": 1e-3, "batch_size": 256, "global_rounds": 30, "local_steps": 200},
    # the fine-tuning pass is always one epoch
    "fedavg_ft": {"learning_rate": 1e-4, "batch_size": 64},
    "perfedavg_hf": {
        "learning_rate": 1e-2, "batch_size": 256, "global_rounds": 15, "local_steps": 350,
        "meta_inner": None, "meta_outer": None, "hf_delta": 1e-3,
    },
    "fedala": {
        "learning_rate": 1e-2, "batch_size": 128, "global_rounds": 30, "local_steps": 100,
        "ala_top_layers": 2, "ala_data_fraction": 80.0, "ala_weight_lr": 1.0,
        "ala_convergence_tol": 1e-3, "ala_window": 10, "ala_update_cap": 50,
    },
}

# The ExperimentConfig fields that [experiment] and [model] hold.
_TOP_SECTIONS = {"experiment": ("methods", "seeds", "output_dir"), "model": ("hidden_sizes",)}

# The ExplainOptions fields that [explain] holds.
_EXPLAIN_KEYS = ("method", "pairs_per_client", "background_size")

# Typed (manifest) values each scalar field type accepts; bool is not an int here.
_TYPED = {int: (int,), float: (int, float), str: (str,)}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-client stochastic block model parameters."""

    nodes: tuple[int, ...]
    communities: tuple[int, ...]
    intra_p: tuple[float, ...]
    inter_p: tuple[float, ...]

    def __post_init__(self):
        lengths = {len(self.nodes), len(self.communities), len(self.intra_p), len(self.inter_p)}
        if lengths != {len(self.nodes)} or len(self.nodes) == 0:
            raise ConfigError("synthetic client lists must be non-empty and equally long")

    @property
    def n_clients(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class EdgeListSpec:
    """One edge-list file per client."""

    paths: tuple[str, ...]

    def __post_init__(self):
        if len(self.paths) == 0:
            raise ConfigError("need at least one edge-list path")

    @property
    def n_clients(self) -> int:
        return len(self.paths)


# [data] source name -> the spec class whose fields are that source's keys.
_DATA_SOURCES = {"synthetic": SyntheticSpec, "edge_lists": EdgeListSpec}


@dataclass(frozen=True)
class SplitOptions:
    removal_fraction: float = 0.2
    train_fraction: float = 0.8
    negatives_per_positive: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.removal_fraction <= 1.0:
            raise ConfigError("removal_fraction must lie in [0, 1]")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.negatives_per_positive < 0:
            raise ConfigError("negatives_per_positive must be non-negative")


@dataclass(frozen=True)
class ExplainOptions:
    """Shapley reporting knobs; explanations use the first seed's models.

    enabled is not a file key: the CLI sets it from the subcommand.
    """

    enabled: bool = False
    method: str = "fedala"
    pairs_per_client: int = 20
    background_size: int = 100

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ConfigError(f"unknown explain method {self.method!r}")
        if self.pairs_per_client < 1 or self.background_size < 1:
            raise ConfigError("explain sizes must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    data: SyntheticSpec | EdgeListSpec
    methods: tuple[str, ...] = ("centralized", "fedavg", "fedala")
    seeds: tuple[int, ...] = (1,)
    output_dir: str = "runs/experiment"
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN
    split: SplitOptions = field(default_factory=SplitOptions)
    explain: ExplainOptions = field(default_factory=ExplainOptions)
    train: dict[str, TrainConfig] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.methods) == 0:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; valid: {METHOD_NAMES}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate methods")
        if len(self.seeds) == 0:
            raise ConfigError("at least one seed is required")
        # each seed names its own output files, so a repeat would overwrite
        # them; seeds that rng reduces alike (mod 2**64) draw the same streams
        seen: dict[int, int] = {}  # each seed as rng reduces it -> the seed
        for seed in self.seeds:
            key = _entropy(seed)
            if key in seen:
                other = seen[key]
                alias = "" if other == seed else f": {other} and {seed} draw the same streams"
                raise ConfigError(f"duplicate seeds in {list(self.seeds)}{alias}")
            seen[key] = seed
        if not self.output_dir:
            raise ConfigError("output_dir must be non-empty")
        if len(self.hidden_sizes) == 0 or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be positive")
        # every method keeps a resolved TrainConfig, selected or not:
        # fedavg_ft fine-tunes the model the fedavg entry trains. The dict
        # is a new one, so the caller's is left as it was.
        defaults = {
            m: TrainConfig(**_METHOD_DEFAULTS[m]) for m in METHOD_NAMES if m not in self.train
        }
        object.__setattr__(self, "train", {**self.train, **defaults})
        layers = len(self.hidden_sizes) + 1  # the hidden layers and the head
        top = self.train["fedala"].ala_top_layers
        if top > layers:
            raise ConfigError(f"[fedala]: ala_top_layers {top} exceeds the model's {layers} layers")
        # the CLI enables explaining per subcommand; replace() re-runs this check
        if self.explain.enabled and self.explain.method not in self.methods:
            raise ConfigError(f"explain method {self.explain.method!r} is not among the methods")

    @property
    def n_clients(self) -> int:
        return self.data.n_clients


def _parse(value: Any, hint: Any, context: str) -> Any:
    """Parse INI or --set text, or a typed manifest value, as `hint`.

    Lists come as comma text or JSON arrays. ``float | None`` parses as
    float; such a field stays None only when its key is left out. A float
    must be finite: nan, inf, 1e400 and a JSON NaN are refused here.
    """
    if get_origin(hint) is tuple:
        if isinstance(value, str):
            value = [item for item in (part.strip() for part in value.split(",")) if item]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{context}: expected a list, got {value!r}")
        if not value:
            raise ConfigError(f"{context}: empty list")
        return tuple(_parse(item, get_args(hint)[0], context) for item in value)
    if type(None) in get_args(hint):
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    try:
        parsed = hint(value) if isinstance(value, str) or type(value) in _TYPED[hint] else None
    except (ValueError, OverflowError):
        parsed = None
    if parsed is None:
        raise ConfigError(f"{context}: cannot parse {value!r} as {hint.__name__}")
    if hint is float and not math.isfinite(parsed):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return parsed


def _options(
    cls: type, section: dict, name: str, keys: Collection[str] | None = None
) -> dict[str, Any]:
    """Keyword arguments for dataclass `cls` from one section.

    Its keys must be fields of `cls` (those named in `keys`, if given), and
    every such field without a default must be given.
    """
    hints = get_type_hints(cls)
    allowed = [f for f in fields(cls) if keys is None or f.name in keys]
    unknown = set(section) - {f.name for f in allowed}
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    missing = [f.name for f in allowed if f.name not in section
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"[{name}] needs keys {missing}")
    return {key: _parse(value, hints[key], f"{name}.{key}") for key, value in section.items()}


def _check_tables(raw: Any, where: str) -> None:
    """Reject anything but a table of sections that are tables of keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a table of sections, got {type(raw).__name__}")
    for name, section in raw.items():
        if not isinstance(section, dict):
            kind = type(section).__name__
            raise ConfigError(f"{where}: [{name}] must be a table of keys, got {kind}")


def build_experiment_config(raw: dict[str, dict[str, Any]]) -> ExperimentConfig:
    """Resolve a nested section dict of text (INI, --set) or typed (manifest) values."""
    _check_tables(raw, "configuration")
    unknown = set(raw) - {*_TOP_SECTIONS, "data", "split", "explain", *METHOD_NAMES}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    top: dict[str, Any] = {}
    for name, keys in _TOP_SECTIONS.items():
        top.update(_options(ExperimentConfig, raw.get(name, {}), name, keys))

    data = dict(raw.get("data", {}))
    source = _parse(data.pop("source", "synthetic"), str, "data.source")
    if source not in _DATA_SOURCES:
        raise ConfigError(f"unknown data source {source!r}")
    spec_cls = _DATA_SOURCES[source]
    spec = spec_cls(**_options(spec_cls, data, "data"))

    train: dict[str, TrainConfig] = {}
    for method, defaults in _METHOD_DEFAULTS.items():
        values = {**defaults, **_options(TrainConfig, raw.get(method, {}), method, defaults)}
        try:
            train[method] = TrainConfig(**values)
        except ValueError as exc:
            raise ConfigError(f"[{method}]: {exc}") from exc

    return ExperimentConfig(
        data=spec,
        split=SplitOptions(**_options(SplitOptions, raw.get("split", {}), "split")),
        explain=ExplainOptions(
            **_options(ExplainOptions, raw.get("explain", {}), "explain", _EXPLAIN_KEYS)
        ),
        train=train,
        **top,
    )


def read_raw_sections(path: str | Path) -> dict[str, dict[str, Any]]:
    """Read a config file into its nested section dict; values stay unparsed."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        if path.suffix == ".json":
            raw = json.loads(path.read_text(encoding="utf-8"))
        else:
            parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
            raw = {name: dict(parser[name]) for name in parser.sections()}
    except (OSError, ValueError, configparser.Error) as exc:
        # bad JSON or UTF-8 is a ValueError; an error is one line, parser messages are not
        raise ConfigError(f"{path}: " + " ".join(str(exc).split())) from exc
    if isinstance(raw, dict):
        raw.pop("fedsln_version", None)
    # the CLI merges its overrides into these tables
    _check_tables(raw, str(path))
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a key=value config file or a run manifest (.json)."""
    return build_experiment_config(read_raw_sections(path))


def config_to_manifest(cfg: ExperimentConfig) -> dict[str, Any]:
    """Fully resolved configuration as a JSON-ready section dict."""
    from . import __version__

    source = next(name for name, cls in _DATA_SOURCES.items() if isinstance(cfg.data, cls))
    return {
        "fedsln_version": __version__,
        **{name: {k: getattr(cfg, k) for k in keys} for name, keys in _TOP_SECTIONS.items()},
        "data": {"source": source, **asdict(cfg.data)},
        "split": asdict(cfg.split),
        "explain": {k: getattr(cfg.explain, k) for k in _EXPLAIN_KEYS},
        **{
            method: {k: getattr(cfg.train[method], k) for k in keys}
            for method, keys in _METHOD_DEFAULTS.items()
        },
    }
