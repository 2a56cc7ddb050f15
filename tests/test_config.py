"""Config grammar: parsing, defaults, validation, manifest round-trip."""

import functools
import hashlib
import json
import math
import re
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedsln.config import (
    ConfigError,
    EdgeListSpec,
    ExperimentConfig,
    ExplainOptions,
    METHOD_NAMES,
    SplitOptions,
    SyntheticSpec,
    build_experiment_config,
    config_to_manifest,
    load_config,
    read_raw_sections,
)
from fedsln.experiment import run_experiment
from fedsln.neural import TrainConfig

# the TrainConfig fields each method reads, and so the keys its section takes
METHOD_KEYS = {
    "centralized": ["learning_rate", "batch_size", "epochs"],
    "fedavg": ["learning_rate", "batch_size", "global_rounds", "local_steps"],
    "fedavg_ft": ["learning_rate", "batch_size"],
    "perfedavg_hf": ["learning_rate", "batch_size", "global_rounds", "local_steps",
                     "meta_inner", "meta_outer", "hf_delta"],
    "fedala": ["learning_rate", "batch_size", "global_rounds", "local_steps",
               "ala_top_layers", "ala_data_fraction", "ala_weight_lr",
               "ala_convergence_tol", "ala_window", "ala_update_cap"],
}

SYNTH = {
    "source": "synthetic",
    "nodes": "40,50",
    "communities": "2,3",
    "intra_p": "0.4,0.3",
    "inter_p": "0.05,0.02",
}


def minimal_raw(**extra):
    raw = {"data": dict(SYNTH)}
    raw.update(extra)
    return raw


def replayed(manifest, directory):
    """The config that replaying `manifest`, written as run_manifest.json, loads."""
    path = Path(directory) / "run_manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return load_config(path)


class TestBuild:
    def test_defaults(self):
        cfg = build_experiment_config(minimal_raw())
        assert cfg.methods == ("centralized", "fedavg", "fedala")
        assert cfg.seeds == (1,)
        assert cfg.hidden_sizes == (32, 16)
        assert cfg.n_clients == 2
        assert isinstance(cfg.split, SplitOptions)
        assert not cfg.explain.enabled
        # every method resolves a training config even when unselected
        assert set(cfg.train) == set(METHOD_NAMES)

    def test_method_defaults_table(self):
        cfg = build_experiment_config(minimal_raw())
        assert cfg.train["centralized"].learning_rate == 1e-3
        assert cfg.train["centralized"].epochs == 200
        assert cfg.train["centralized"].batch_size == 256
        assert cfg.train["fedavg"].global_rounds == 30
        assert cfg.train["fedavg"].local_steps == 200
        assert cfg.train["fedavg_ft"].learning_rate == 1e-4
        assert cfg.train["fedavg_ft"].batch_size == 64
        assert cfg.train["perfedavg_hf"].learning_rate == 1e-2
        assert cfg.train["perfedavg_hf"].global_rounds == 15
        assert cfg.train["perfedavg_hf"].local_steps == 350
        assert cfg.train["fedala"].batch_size == 128
        assert cfg.train["fedala"].ala_top_layers == 2
        assert cfg.train["fedala"].ala_data_fraction == 80.0

    def test_the_callers_train_dict_is_left_alone(self):
        mine = {"fedavg": TrainConfig()}
        cfg = ExperimentConfig(data=SyntheticSpec((40,), (2,), (0.4,), (0.05,)), train=mine)
        assert list(mine) == ["fedavg"]
        assert set(cfg.train) == set(METHOD_NAMES)
        assert cfg.train["fedavg"] is mine["fedavg"]

    def test_meta_rates_default_to_learning_rate(self):
        cfg = build_experiment_config(minimal_raw())
        tc = cfg.train["perfedavg_hf"]
        assert tc.meta_inner == tc.learning_rate
        assert tc.meta_outer == tc.learning_rate

    def test_overrides(self):
        raw = minimal_raw(
            experiment={"methods": "fedavg", "seeds": "3, 4", "output_dir": "out"},
            model={"hidden_sizes": "8,4"},
            split={"train_fraction": "0.7"},
            fedavg={"learning_rate": "0.5", "global_rounds": "2"},
        )
        cfg = build_experiment_config(raw)
        assert cfg.methods == ("fedavg",)
        assert cfg.seeds == (3, 4)
        assert cfg.hidden_sizes == (8, 4)
        assert cfg.split.train_fraction == 0.7
        assert cfg.train["fedavg"].learning_rate == 0.5
        # the model's shape is the experiment's alone
        assert not hasattr(cfg.train["fedavg"], "hidden_sizes")

    def test_edge_list_source(self):
        cfg = build_experiment_config({"data": {"source": "edge_lists", "paths": "a.txt, b.txt"}})
        assert isinstance(cfg.data, EdgeListSpec)
        assert cfg.data.paths == ("a.txt", "b.txt")
        assert cfg.n_clients == 2

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown config sections"):
            build_experiment_config(minimal_raw(bogus={}))

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            build_experiment_config(minimal_raw(experiment={"colour": "blue"}))
        with pytest.raises(ConfigError, match="unknown key"):
            build_experiment_config(minimal_raw(fedavg={"momentum": "0.9"}))

    def test_bad_values(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            build_experiment_config(minimal_raw(fedavg={"learning_rate": "fast"}))
        with pytest.raises(ConfigError, match="unknown method"):
            build_experiment_config(minimal_raw(experiment={"methods": "sgd"}))
        with pytest.raises(ConfigError):
            build_experiment_config(minimal_raw(experiment={"methods": "fedavg,fedavg"}))

    def test_missing_synthetic_key(self):
        raw = {"data": {k: v for k, v in SYNTH.items() if k != "nodes"}}
        with pytest.raises(ConfigError, match="nodes"):
            build_experiment_config(raw)

    def test_mismatched_client_lists(self):
        raw = {"data": dict(SYNTH, communities="2")}
        with pytest.raises(ConfigError):
            build_experiment_config(raw)

    def test_unknown_data_source(self):
        with pytest.raises(ConfigError, match="unknown data source"):
            build_experiment_config({"data": {"source": "csv"}})


class TestValidation:
    def test_explain_options(self):
        with pytest.raises(ConfigError):
            ExplainOptions(method="boost")
        with pytest.raises(ConfigError):
            ExplainOptions(pairs_per_client=0)

    def test_split_options(self):
        with pytest.raises(ConfigError):
            SplitOptions(removal_fraction=1.5)
        with pytest.raises(ConfigError):
            SplitOptions(train_fraction=1.0)
        with pytest.raises(ConfigError):
            SplitOptions(negatives_per_positive=-1.0)

    def test_synthetic_spec(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(nodes=(), communities=(), intra_p=(), inter_p=())

    def test_duplicate_seeds(self):
        data = SyntheticSpec((10,), (2,), (0.5,), (0.1,))
        with pytest.raises(ConfigError, match="duplicate seeds"):
            ExperimentConfig(data=data, seeds=(1, 2, 1))
        with pytest.raises(ConfigError, match="duplicate seeds"):
            build_experiment_config(minimal_raw(experiment={"seeds": "1,1"}))

    @pytest.mark.parametrize("seeds", [(0, 2**64), (-1, 2**64 - 1), (7, -3, 2**64 - 3)])
    def test_seeds_that_draw_the_same_streams_are_duplicates(self, seeds):
        # rng reduces an integer key mod 2**64, so these pairs seed the same streams
        data = SyntheticSpec((10,), (2,), (0.5,), (0.1,))
        a, b = seeds[-2:]
        named = rf"duplicate seeds in \[.*\]: {a} and {b} draw the same streams"
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig(data=data, seeds=seeds)
        # negative seeds, and seeds past 2**64 that alias no other, stay legal
        assert ExperimentConfig(data=data, seeds=seeds[:-1]).seeds == seeds[:-1]
        assert ExperimentConfig(data=data, seeds=(-5, 2**64 + 1)).seeds == (-5, 2**64 + 1)

    def test_experiment_config_guards(self):
        data = SyntheticSpec((10,), (2,), (0.5,), (0.1,))
        with pytest.raises(ConfigError):
            ExperimentConfig(data=data, methods=())
        with pytest.raises(ConfigError):
            ExperimentConfig(data=data, seeds=())
        with pytest.raises(ConfigError):
            ExperimentConfig(data=data, output_dir="")
        with pytest.raises(ConfigError):
            ExperimentConfig(data=data, hidden_sizes=(0,))
        # one hidden layer and the head: a blend covers at most two layers
        fits = {"fedala": TrainConfig(ala_top_layers=2)}
        ExperimentConfig(data=data, hidden_sizes=(4,), train=fits)
        with pytest.raises(
            ConfigError, match=r"^\[fedala\]: ala_top_layers 3 exceeds the model's 2 layers$"
        ):
            build_experiment_config(
                minimal_raw(model={"hidden_sizes": "4"}, fedala={"ala_top_layers": "3"})
            )

    def test_train_entries_are_train_configs_of_methods(self):
        # a misspelled method would be dropped silently, and a plain dict
        # would fail only once training reads it
        data = SyntheticSpec((10,), (2,), (0.5,), (0.1,))
        with pytest.raises(ConfigError, match=r"^unknown train entry 'fedavgg'; valid: "):
            ExperimentConfig(
                data=data, methods=("fedavg",), train={"fedavgg": TrainConfig(learning_rate=0.5)}
            )
        with pytest.raises(
            ConfigError, match=r"^train entry 'fedavg' must be a TrainConfig, got dict$"
        ):
            ExperimentConfig(data=data, train={"fedavg": {"learning_rate": 0.1}})


class TestFiles:
    def test_ini_round_trip(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[experiment]\n"
            "methods = fedavg, fedala  # trailing comment\n"
            "seeds = 1,2,3\n"
            "\n"
            "[data]\n"
            "source = synthetic\n"
            "nodes = 40,50\n"
            "communities = 2,3\n"
            "intra_p = 0.4,0.3\n"
            "inter_p = 0.05,0.02\n"
            "\n"
            "# a comment line\n"
            "[fedala]\n"
            "global_rounds = 7\n"
        )
        cfg = load_config(ini)
        assert cfg.methods == ("fedavg", "fedala")
        assert cfg.seeds == (1, 2, 3)
        assert cfg.train["fedala"].global_rounds == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_manifest_round_trip(self, tmp_path):
        cfg = build_experiment_config(
            minimal_raw(
                experiment={"methods": "fedavg", "seeds": "5"},
                fedavg={"learning_rate": "0.25"},
            )
        )
        manifest = config_to_manifest(cfg)
        assert "fedsln_version" in manifest
        assert replayed(manifest, tmp_path) == cfg

    def test_read_raw_sections_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"fedsln_version": "9.9", "data": SYNTH}))
        raw = read_raw_sections(path)
        assert "fedsln_version" not in raw
        assert raw["data"]["nodes"] == "40,50"

    def test_a_byte_order_mark_is_ignored(self, tmp_path):
        ini = "[experiment]\nmethods = fedavg\n\n[data]\n" + "".join(
            f"{key} = {value}\n" for key, value in SYNTH.items()
        )
        manifest = json.dumps(config_to_manifest(build_experiment_config(minimal_raw())))
        for name, text in (("exp.ini", ini), ("run_manifest.json", manifest)):
            loaded = []
            for bom in ("", "\ufeff"):
                path = tmp_path / ("bom" if bom else "plain") / name
                path.parent.mkdir(exist_ok=True)
                path.write_text(bom + text, encoding="utf-8")
                loaded.append(load_config(path))
            assert loaded[1] == loaded[0]

    def test_malformed_ini(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("methods = fedavg\n")  # key before any section header
        with pytest.raises(ConfigError):
            load_config(bad)


class TestValues:
    """One parser for INI text and typed manifest values."""

    def test_text_and_typed_values_agree(self):
        text = build_experiment_config(
            minimal_raw(
                explain={"pairs_per_client": "3"},
                perfedavg_hf={"meta_inner": "0.5"},
                fedala={"ala_data_fraction": "40"},
            )
        )
        typed = build_experiment_config(
            {
                "data": {"nodes": [40, 50], "communities": [2, 3],
                         "intra_p": [0.4, 0.3], "inter_p": [0.05, 0.02]},
                "explain": {"pairs_per_client": 3},
                "perfedavg_hf": {"meta_inner": 0.5},
                "fedala": {"ala_data_fraction": 40},
            }
        )
        assert text == typed
        assert typed.train["perfedavg_hf"].meta_inner == 0.5
        assert typed.train["fedala"].ala_data_fraction == 40.0

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("split", "removal_fraction", True),  # a bool is not a number
            ("split", "negatives_per_positive", "five"),
            ("explain", "pairs_per_client", 2.5),  # nor a fraction an int
            ("explain", "pairs_per_client", True),
            ("explain", "method", 3),
            ("fedavg", "batch_size", "1e3"),
            ("fedavg", "learning_rate", [0.1]),
            ("perfedavg_hf", "meta_inner", None),
            ("model", "hidden_sizes", 8),
            ("model", "hidden_sizes", ["8", [4]]),
            ("model", "hidden_sizes", " , "),  # an empty list
        ],
    )
    def test_wrong_types_are_config_errors(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: "):
            build_experiment_config(minimal_raw(**{section: {key: value}}))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("fedavg", "learning_rate", "nan"),
            ("fedala", "ala_weight_lr", "inf"),
            ("perfedavg_hf", "hf_delta", "NaN"),
            ("perfedavg_hf", "meta_inner", "-inf"),
            ("split", "negatives_per_positive", "1e400"),  # overflows to inf
            ("split", "removal_fraction", float("nan")),  # a typed manifest value
            ("fedala", "ala_convergence_tol", float("inf")),
        ],
    )
    def test_non_finite_floats_are_config_errors(self, section, key, value):
        message = rf"^{section}\.{key}: expected a finite number, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            build_experiment_config(minimal_raw(**{section: {key: value}}))

    def test_non_finite_floats_are_refused_in_every_file_format(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[data]\n" + "".join(f"{k} = {v}\n" for k, v in SYNTH.items())
                       + "[fedavg]\nlearning_rate = nan\n")
        with pytest.raises(ConfigError, match=r"^fedavg\.learning_rate: expected a finite number, got 'nan'$"):
            load_config(ini)
        # json.loads reads the bare NaN and Infinity literals as floats
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(json.dumps({"data": SYNTH, "split": {"negatives_per_positive": float("nan")}}))
        assert "NaN" in manifest.read_text()
        with pytest.raises(ConfigError, match=r"^split\.negatives_per_positive: expected a finite number, got nan$"):
            load_config(manifest)
        manifest.write_text(json.dumps({"data": {**SYNTH, "intra_p": [0.4, float("inf")]}}))
        with pytest.raises(ConfigError, match=r"^data\.intra_p: expected a finite number, got inf$"):
            load_config(manifest)

    def test_explain_enabled_is_not_a_file_key(self, tmp_path):
        # whoever runs the experiment sets it; the CLI, from the subcommand
        refused = r"unknown keys in \[explain\]: \['enabled'\]"
        for value in ("true", True):
            with pytest.raises(ConfigError, match=refused):
                build_experiment_config(minimal_raw(explain={"enabled": value}))
        manifest = config_to_manifest(build_experiment_config(minimal_raw()))
        assert sorted(manifest["explain"]) == ["background_size", "method", "pairs_per_client"]
        manifest["explain"]["enabled"] = False
        with pytest.raises(ConfigError, match=refused):
            replayed(manifest, tmp_path)

    def test_unknown_keys_name_the_section(self):
        with pytest.raises(ConfigError, match=r"unknown keys in \[fedavg\]: \['momentum'\]"):
            build_experiment_config(minimal_raw(fedavg={"momentum": "0.9"}))
        # seed and hidden_sizes are bound per run, not per method
        with pytest.raises(ConfigError, match=r"unknown keys in \[fedala\]: \['seed'\]"):
            build_experiment_config(minimal_raw(fedala={"seed": "3"}))


class TestMethodSchema:
    """A method section takes exactly the keys its method reads."""

    @pytest.mark.parametrize(
        "method, key",
        # seed and hidden_sizes are set per run and per experiment, by no method
        [(m, key) for m in METHOD_NAMES
         for key in (*(f.name for f in fields(TrainConfig)), "seed", "hidden_sizes")
         if key not in METHOD_KEYS[m]],
    )
    def test_a_key_the_method_does_not_read_is_unknown(self, method, key):
        with pytest.raises(ConfigError, match=rf"unknown keys in \[{method}\]: \['{key}'\]"):
            build_experiment_config(minimal_raw(**{method: {key: "1"}}))

    def test_manifest_records_exactly_the_keys_read(self):
        manifest = config_to_manifest(build_experiment_config(minimal_raw()))
        assert {m: sorted(manifest[m]) for m in METHOD_NAMES} == {
            m: sorted(keys) for m, keys in METHOD_KEYS.items()
        }
        # and every TrainConfig field is some method's key
        method_keys = set().union(*METHOD_KEYS.values())
        assert {f.name for f in fields(TrainConfig)} == method_keys
        assert len(method_keys) == 14

    def test_a_manifest_naming_an_unread_key_is_refused(self, tmp_path):
        manifest = config_to_manifest(build_experiment_config(minimal_raw()))
        manifest["fedavg_ft"]["epochs"] = 200
        with pytest.raises(ConfigError, match=r"unknown keys in \[fedavg_ft\]: \['epochs'\]"):
            replayed(manifest, tmp_path)
        del manifest["fedavg_ft"]["epochs"]
        assert replayed(manifest, tmp_path) == build_experiment_config(minimal_raw())


# Two small classrooms and a few steps of each method: about 10 ms a run.
TINY = {
    "model": {"hidden_sizes": "4"},
    "data": {"nodes": "30,36", "communities": "2,3",
             "intra_p": "0.4,0.35", "inter_p": "0.06,0.04"},
    "split": {"negatives_per_positive": "2.0"},
    "centralized": {"epochs": "2", "batch_size": "32"},
    "fedavg": {"global_rounds": "2", "local_steps": "3", "batch_size": "32"},
    "fedavg_ft": {"batch_size": "16"},
    "perfedavg_hf": {"global_rounds": "2", "local_steps": "3", "batch_size": "32"},
    "fedala": {"global_rounds": "2", "local_steps": "3", "batch_size": "32"},
}
# A value off TINY's (or the method's default) for every key. The first full
# loss window of the ALA learner already varies by less than the default
# tolerance, so a larger tolerance changes nothing; one no window meets does.
OFF_DEFAULT = {
    "learning_rate": "0.5",
    "batch_size": "8",
    "epochs": "3",
    "global_rounds": "3",
    "local_steps": "4",
    "meta_inner": "0.5",
    "meta_outer": "0.5",
    "hf_delta": "0.5",
    "ala_top_layers": "1",
    "ala_data_fraction": "50",
    "ala_weight_lr": "0.1",
    "ala_convergence_tol": "1e-12",
    "ala_window": "2",
    "ala_update_cap": "1",
}


@functools.lru_cache(maxsize=None)
def tiny_run_digests(method, key=None):
    """SHA-256 of a TINY run's metrics and of its models and blend weights."""
    raw = {name: dict(section) for name, section in TINY.items()}
    raw["experiment"] = {"methods": method}
    if key is not None:
        raw[method][key] = OFF_DEFAULT[key]
    report = run_experiment(build_experiment_config(raw), max_workers=1)
    metrics = []
    models = hashlib.sha256()
    for o in report.outcomes:
        metrics.extend((o.method, c, o.seed, m) for c, m in o.reports.items())
        # every model, and every fedala blend, of each classroom
        for c, params in [*o.models.items(), *(o.ala_weights or {}).items()]:
            models.update(f"{o.method} {o.seed} {c}".encode() + params.flat.tobytes())
    return hashlib.sha256(repr(metrics).encode()).hexdigest(), models.hexdigest()


@pytest.mark.parametrize("method, key", [(m, k) for m, keys in METHOD_KEYS.items() for k in keys])
def test_every_key_a_method_takes_changes_its_run(method, key):
    metrics, models = tiny_run_digests(method, key)
    base_metrics, base_models = tiny_run_digests(method)
    assert metrics != base_metrics
    assert models != base_models


# every key each section accepts, plus one it does not
SECTION_KEYS = {
    "experiment": ["methods", "seeds", "output_dir"],
    "model": ["hidden_sizes"],
    "data": ["source", "nodes", "communities", "intra_p", "inter_p", "paths"],
    "split": [f.name for f in fields(SplitOptions)],
    "explain": ["method", "pairs_per_client", "background_size"],
    **METHOD_KEYS,
}
TEXTS = st.sampled_from(
    ["", " ", "0", "1", "-1", "0.5", "1e400", "nan", "yes", "off", "1,2", "3, 3", ",",
     "fedavg", "fedala,fedavg", "synthetic", "edge_lists", "csv", "a.edges"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | TEXTS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
CHECKED = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def drawn_raw(draw):
    raw = {"data": dict(SYNTH)}
    for name, keys in SECTION_KEYS.items():
        how = draw(st.sampled_from(["keep", "merge", "replace"]))
        if how == "replace":
            raw[name] = draw(JSON_VALUES)
        elif how == "merge":
            keys = st.sampled_from([*keys, "bogus"])
            raw.setdefault(name, {}).update(draw(st.dictionaries(keys, JSON_VALUES, max_size=3)))
    return raw


@CHECKED
@given(drawn_raw())
@example({"data": SYNTH, "fedavg": {"learning_rate": "nan"}})
@example({"data": {**SYNTH, "intra_p": [0.4, float("inf")]}})
def test_drawn_sections_give_a_config_or_a_config_error(raw):
    try:
        cfg = build_experiment_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert all(math.isfinite(v) for v in floats_in(cfg))


def floats_in(value):
    """Every float a config holds, through its dataclasses, dicts and tuples."""
    if isinstance(value, float):
        yield value
    elif is_dataclass(value):
        for f in fields(value):
            yield from floats_in(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from floats_in(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from floats_in(item)


FRACTIONS = st.floats(0.0, 1.0)
TRAIN_VALUES = {
    "learning_rate": st.floats(0.0, 10.0),
    "batch_size": st.integers(1, 512),
    "local_steps": st.integers(0, 1000),
    "global_rounds": st.integers(0, 100),
    "epochs": st.integers(0, 500),
    "meta_inner": st.none() | st.floats(0.0, 1.0),
    "meta_outer": st.none() | st.floats(0.0, 1.0),
    "hf_delta": st.floats(1e-9, 1.0),
    "ala_top_layers": st.integers(1, 4),
    "ala_data_fraction": st.floats(0.0, 100.0, exclude_min=True),
    "ala_weight_lr": st.floats(0.0, 10.0),
    "ala_convergence_tol": st.floats(0.0, 1.0),
    "ala_window": st.integers(1, 50),
    "ala_update_cap": st.integers(1, 500),
}


def train_overrides(method):
    """Values for the keys `method` reads; a manifest records no others."""
    keys = METHOD_KEYS[method]
    return st.fixed_dictionaries({}, optional={k: TRAIN_VALUES[k] for k in keys})


@st.composite
def drawn_configs(draw):
    hidden = tuple(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        data = SyntheticSpec(
            nodes=tuple(draw(st.lists(st.integers(2, 500), min_size=n, max_size=n))),
            communities=tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))),
            intra_p=tuple(draw(st.lists(FRACTIONS, min_size=n, max_size=n))),
            inter_p=tuple(draw(st.lists(FRACTIONS, min_size=n, max_size=n))),
        )
    else:
        data = EdgeListSpec(paths=tuple(draw(st.lists(st.text(), min_size=n, max_size=n))))
    methods = draw(st.lists(st.sampled_from(METHOD_NAMES), min_size=1, unique=True))
    seeds = draw(st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=4, unique=True))
    overridden = draw(st.lists(st.sampled_from(METHOD_NAMES), unique=True))
    train = {m: TrainConfig(**draw(train_overrides(m))) for m in overridden}
    # the blend covers at most the model's layers
    assume("fedala" not in train or train["fedala"].ala_top_layers <= len(hidden) + 1)
    return ExperimentConfig(
        data=data,
        methods=tuple(methods),
        seeds=tuple(seeds),
        output_dir=draw(st.text(min_size=1)),
        hidden_sizes=hidden,
        split=SplitOptions(
            removal_fraction=draw(FRACTIONS),
            train_fraction=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            negatives_per_positive=draw(st.floats(0.0, 50.0)),
        ),
        explain=ExplainOptions(
            method=draw(st.sampled_from(METHOD_NAMES)),
            pairs_per_client=draw(st.integers(1, 1000)),
            background_size=draw(st.integers(1, 1000)),
        ),
        train=train,
    )


@CHECKED
@given(drawn_configs())
def test_manifest_round_trip_drawn(cfg):
    # hypothesis refuses function-scoped fixtures such as tmp_path
    with tempfile.TemporaryDirectory() as directory:
        assert replayed(config_to_manifest(cfg), directory) == cfg
