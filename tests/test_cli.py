"""CLI behavior: subcommands, overrides, manifest replay, error exits."""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsln.experiment as experiment
import fedsln.federation as federation
from fedsln.cli import SHARDS_PER_CPU, _parse_override, build_parser, default_max_workers, main
from fedsln.config import ConfigError, config_to_manifest, load_config
from fedsln.neural import load_checkpoint

CONFIG_TEXT = """\
[experiment]
methods = fedavg
seeds = 1

[model]
hidden_sizes = 4

[data]
source = synthetic
nodes = 40,50
communities = 2,3
intra_p = 0.4,0.35
inter_p = 0.06,0.04

[split]
negatives_per_positive = 2.0

[fedavg]
global_rounds = 2
local_steps = 5

[fedala]
global_rounds = 2
local_steps = 5
ala_data_fraction = 50
ala_update_cap = 5

[centralized]
epochs = 2
batch_size = 64
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EDGE_LIST_CONFIG = """\
[experiment]
methods = fedavg
seeds = 1

[model]
hidden_sizes = 4

[data]
source = edge_lists
paths = {paths}

[split]
negatives_per_positive = 1.0

[fedavg]
global_rounds = 1
local_steps = 2
"""

# a twelve-student ring with four chords: a classroom that builds
GOOD_EDGES = "".join(f"s{i},s{(i + 1) % 12}\n" for i in range(12)) + (
    "s0,s6\ns2,s8\ns3,s9\ns1,s5\n"
)

edge_tokens = st.text(alphabet="abxyz019", min_size=1, max_size=3)


@st.composite
def malformed_edge_lists(draw):
    """Edge-list text with one bad line among good ones, and the bad line's
    number; or a file without any edge, and None."""
    kinds = ["self-loop", "one token", "empty token", "extra token", "no edge"]
    kind = draw(st.sampled_from(kinds))
    if kind == "no edge":
        return draw(st.sampled_from(["", "\n", "# only a comment\n", "  \n# a\n\n"])), None
    good = st.tuples(edge_tokens, edge_tokens).filter(lambda t: t[0] != t[1]).map(",".join)
    lines = draw(st.lists(good, max_size=5))
    a, b, c = draw(edge_tokens), draw(edge_tokens), draw(edge_tokens)
    sep = draw(st.sampled_from([",", " ", "\t", ", "]))
    bad = {
        "self-loop": f"{a}{sep}{a}",
        "one token": a,
        "empty token": draw(st.sampled_from([f"{a},", f",{a}", f"{a}, "])),
        "extra token": f"{a}{sep}{b}{sep}{c}",
    }[kind]
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    return "\n".join(lines) + "\n", at + 1


@settings(derandomize=True, deadline=None, max_examples=25)
@given(malformed_edge_lists(), st.booleans())
def test_malformed_edge_list_is_one_data_line(drawn, bad_first):
    text, line_no = drawn
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "good.edges").write_text(GOOD_EDGES)
        (tmp / "bad.edges").write_text(text)
        names = ["bad.edges", "good.edges"] if bad_first else ["good.edges", "bad.edges"]
        config = tmp / "exp.ini"
        config.write_text(EDGE_LIST_CONFIG.format(paths=", ".join(str(tmp / n) for n in names)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(config), "--output-dir", str(tmp / "run")])
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, err.getvalue()
        classroom = names.index("bad.edges")
        where = f"fedsln: [data] seed 1: classroom {classroom} ({tmp / 'bad.edges'}): "
        assert lines[0].startswith(where), lines[0]
        want = "cannot split an empty dataset" if line_no is None else f"line {line_no}: "
        assert want in lines[0], lines[0]
        assert not (tmp / "run").exists()


def test_self_loop_in_the_second_file_names_classroom_file_and_line(tmp_path, capsys):
    (tmp_path / "good.edges").write_text(GOOD_EDGES)
    (tmp_path / "bad.edges").write_text("x,y\na,a\n")
    paths = f"{tmp_path / 'good.edges'}, {tmp_path / 'bad.edges'}"
    config = tmp_path / "exp.ini"
    config.write_text(EDGE_LIST_CONFIG.format(paths=paths))
    code, out, err = run_cli(
        capsys, "train", "--config", str(config), "--output-dir", str(tmp_path / "run")
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"fedsln: [data] seed 1: classroom 1 ({tmp_path / 'bad.edges'}): "
        "line 2: self-loop on 'a'"
    ]
    assert not (tmp_path / "run").exists()


def test_too_small_synthetic_classroom_is_named(config_path, tmp_path, capsys):
    # classroom 1 is a complete graph on four students: no unlinked pair
    code, out, err = run_cli(
        capsys,
        "train", "--config", str(config_path), "--output-dir", str(tmp_path / "run"),
        "--set", "data.nodes=40,4",
        "--set", "data.communities=2,1",
        "--set", "data.intra_p=0.4,1.0",
        "--set", "data.inter_p=0.06,0.0",
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "fedsln: [data] seed 1: classroom 1: "
        "requested 12 negatives but only 0 unlinked pairs exist"
    ]
    assert not (tmp_path / "run").exists()


def test_good_edge_list_trains(tmp_path, capsys):
    """The classroom the malformed edge-list runs pair with builds and trains."""
    (tmp_path / "good.edges").write_text(GOOD_EDGES)
    paths = f"{tmp_path / 'good.edges'}, {tmp_path / 'good.edges'}"
    config = tmp_path / "exp.ini"
    config.write_text(EDGE_LIST_CONFIG.format(paths=paths))
    code, _, err = run_cli(
        capsys, "train", "--config", str(config), "--output-dir", str(tmp_path / "run")
    )
    assert code == 0, err
    assert (tmp_path / "run" / "metrics.csv").exists()


def test_a_byte_order_mark_leaves_an_edge_list_run_unchanged(tmp_path, capsys):
    # a leading BOM belongs to neither the first token nor a first comment line
    metrics = []
    for bom in ("", "\ufeff"):
        run = tmp_path / ("bom" if bom else "plain")
        run.mkdir()
        (run / "a.edges").write_text(bom + GOOD_EDGES, encoding="utf-8")
        (run / "b.edges").write_text(bom + "# students\n" + GOOD_EDGES, encoding="utf-8")
        config = run / "exp.ini"
        paths = f"{run / 'a.edges'}, {run / 'b.edges'}"
        config.write_text(EDGE_LIST_CONFIG.format(paths=paths), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "train", "--config", str(config), "--output-dir", str(run / "out")
        )
        assert code == 0, err
        metrics.append((run / "out" / "metrics.csv").read_bytes())
    assert metrics[1] == metrics[0]


def test_an_explain_failure_names_the_edge_list_file(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(experiment, "shapley_values_batch", boom)
    (tmp_path / "good.edges").write_text(GOOD_EDGES)
    paths = f"{tmp_path / 'good.edges'}, {tmp_path / 'good.edges'}"
    config = tmp_path / "exp.ini"
    config.write_text(EDGE_LIST_CONFIG.format(paths=paths))
    code, out, err = run_cli(
        capsys,
        "explain", "--config", str(config), "--output-dir", str(tmp_path / "run"),
        "--set", "explain.method=fedavg",
        "--set", "explain.pairs_per_client=2",
        "--set", "explain.background_size=16",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"fedsln: [explain] seed 1: classroom 0 ({tmp_path / 'good.edges'}): boom"
    ]


def test_one_class_test_split_fails_before_any_method_trains(tmp_path, capsys, monkeypatch):
    # tiny's two edges and its unlinked pairs leave its test split one-class
    (tmp_path / "good.edges").write_text(GOOD_EDGES)
    (tmp_path / "tiny.edges").write_text("a,b\nc,d\n")
    paths = f"{tmp_path / 'good.edges'}, {tmp_path / 'tiny.edges'}"
    config = tmp_path / "exp.ini"
    config.write_text(EDGE_LIST_CONFIG.format(paths=paths))
    trained = []
    monkeypatch.setattr(experiment, "run_fedavg", lambda *a, **k: trained.append(a))
    code, out, err = run_cli(
        capsys, "train", "--config", str(config), "--output-dir", str(tmp_path / "run"),
        "--methods", "fedavg,centralized",
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"fedsln: [data] seed 1: classroom 1 ({tmp_path / 'tiny.edges'}): "
        "test split has no positive pairs"
    ]
    assert trained == []
    assert not (tmp_path / "run").exists()
    # the classroom's tables can still be written and inspected
    code, _, err = run_cli(
        capsys, "featurize", "--config", str(config), "--output-dir", str(tmp_path / "feat")
    )
    assert code == 0, err
    assert (tmp_path / "feat" / "features" / "features_client1_test.csv").exists()


def test_test_split_without_negatives_is_one_data_line(config_path, tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "train", "--config", str(config_path), "--output-dir", str(tmp_path / "run"),
        "--set", "split.negatives_per_positive=0",
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "fedsln: [data] seed 1: classroom 0: test split has no negative pairs"
    ]


@pytest.mark.parametrize(
    "fraction, split",
    # classroom 0 has 510 pairs at seed 1: 0.9999 of them round to all 510,
    # and 0.0001 of them to none
    [("0.9999", "test"), ("0.0001", "train")],
)
def test_an_empty_split_is_one_data_line(config_path, tmp_path, capsys, fraction, split):
    # featurize writes no empty table either
    for command in ("train", "featurize"):
        code, out, err = run_cli(
            capsys, command, "--config", str(config_path), "--output-dir", str(tmp_path / "run"),
            "--set", f"split.train_fraction={fraction}",
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"fedsln: [data] seed 1: classroom 0: {split} split is empty at train_fraction {fraction}"
        ]
        assert not (tmp_path / "run").exists()


class TestParsing:
    def test_override_grammar(self):
        assert _parse_override("fedavg.learning_rate=0.5") == (
            "fedavg", "learning_rate", "0.5",
        )
        assert _parse_override(" split . train_fraction = 0.7 ")[0] == "split"
        for bad in ("fedavg=0.5", "fedavg.lr", ".lr=3", "fedavg.=3"):
            with pytest.raises(ConfigError, match="section.key=value"):
                _parse_override(bad)

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_config_flag_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--seed", "2"],
            ["featurize", "--seed", "2"],
            ["explain", "--method", "fedavg"],
        ],
        ids=["generate-seed", "featurize-seed", "explain-method"],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        # not prefixes of --seeds and --methods either: abbreviations are off
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", "unread.ini"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


THREE_CLASSROOMS = (
    "--set", "data.nodes=40,50,45",
    "--set", "data.communities=2,3,2",
    "--set", "data.intra_p=0.4,0.35,0.4",
    "--set", "data.inter_p=0.06,0.04,0.05",
)


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def spy_shard_counts(monkeypatch):
    """The shard count of every run_fedavg call, read where its pool starts."""
    counts = []
    real = federation._ShardPool

    class Spy(real):
        def __init__(self, shards, *args):
            counts.append(len(shards) + 1)  # shard 0 trains in the calling process
            super().__init__(shards, *args)

    monkeypatch.setattr(federation, "_ShardPool", Spy)
    return counts


def output_bytes(out_dir):
    """Every emitted file but the manifest, which records its own output_dir."""
    return {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "run_manifest.json"
    }


class TestDefaultMaxWorkers:
    @pytest.mark.parametrize(
        "cpus, classrooms, want",
        [
            (1, 1, 1),
            (1, 5, 1),
            (2, 1, 1),
            (2, 3, 3),
            (2, 5, 5),
            (2, 2 * SHARDS_PER_CPU, 2 * SHARDS_PER_CPU),
            (2, 2 * SHARDS_PER_CPU + 1, 2 * SHARDS_PER_CPU),
            (2, 10_000, 2 * SHARDS_PER_CPU),
            (64, 10_000, 64 * SHARDS_PER_CPU),
        ],
    )
    def test_one_shard_per_classroom_capped_per_cpu(self, monkeypatch, cpus, classrooms, want):
        set_cpus(monkeypatch, cpus)
        assert default_max_workers(classrooms) == want

    @pytest.mark.parametrize("cpu_count, want", [(None, 1), (1, 1), (3, 5)])
    def test_cpu_count_without_affinity(self, monkeypatch, cpu_count, want):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert default_max_workers(5) == want


class TestTrain:
    def test_train_writes_reports(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(out),
        )
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "fairness.csv").exists()
        assert (out / "models" / "fedavg_seed1.ckpt").exists()
        assert (out / "run_manifest.json").exists()
        assert not (out / "importance.csv").exists()
        assert "fedavg: mean test AUC" in stdout
        assert "wrote" in stdout

    def test_methods_and_seeds_flags(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            capsys,
            "train", "--config", str(config_path),
            "--output-dir", str(out),
            "--methods", "centralized,fedavg",
            "--seeds", "1,2",
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        # header + 2 methods x 2 clients x 2 seeds
        assert len(lines) == 1 + 8
        assert "centralized: mean test AUC" in stdout

    def test_set_override_reaches_manifest(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(out),
            "--set", "fedavg.global_rounds=1",
            "--set", "experiment.seeds=7",
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["fedavg"]["global_rounds"] == 1
        assert manifest["experiment"]["seeds"] == [7]

    def test_manifest_replay_is_byte_identical(self, config_path, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(
            capsys, "train", "--config", str(config_path), "--output-dir", str(first)
        )
        assert code == 0
        second = tmp_path / "second"
        code, _, _ = run_cli(
            capsys,
            "train",
            "--config", str(first / "run_manifest.json"),
            "--output-dir", str(second),
        )
        assert code == 0
        for name in ("metrics.csv", "summary.csv", "fairness.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        a = (first / "models" / "fedavg_seed1.ckpt").read_bytes()
        b = (second / "models" / "fedavg_seed1.ckpt").read_bytes()
        assert a == b

    def test_max_workers_matches_sequential(self, config_path, tmp_path, capsys):
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(seq),
            "--max-workers", "1",
        )
        code, _, _ = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(par),
            "--max-workers", "4",
        )
        assert code == 0
        assert (seq / "metrics.csv").read_bytes() == (par / "metrics.csv").read_bytes()

    def test_default_runs_one_shard_per_classroom(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        set_cpus(monkeypatch, 2)
        shards = spy_shard_counts(monkeypatch)
        default, serial = tmp_path / "default", tmp_path / "serial"
        for out, flag in ((default, []), (serial, ["--max-workers", "1"])):
            code, _, _ = run_cli(
                capsys,
                "train", "--config", str(config_path), "--output-dir", str(out),
                "--methods", "fedavg,fedala", *THREE_CLASSROOMS, *flag,
            )
            assert code == 0
        assert shards == [3, 3, 1, 1]
        assert output_bytes(default) == output_bytes(serial)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_fedala_without_rounds_serves_the_initial_global_model(
        self, config_path, tmp_path, capsys, workers
    ):
        out = tmp_path / "run"
        code, _, stderr = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(out),
            "--methods", "fedavg,fedala", "--max-workers", workers,
            "--set", "fedavg.global_rounds=0",
            "--set", "fedala.global_rounds=0",
        )
        assert code == 0, stderr
        fedavg, _ = load_checkpoint(out / "models/fedavg_seed1.ckpt")
        for c in (0, 1):
            fedala, _ = load_checkpoint(out / f"models/fedala_seed1_client{c}.ckpt")
            assert fedala.flat.tobytes() == fedavg.flat.tobytes()
        assert not list((out / "models").glob("*_blend.csv"))

    def test_one_classroom_checkpoint_layout(self, config_path, tmp_path, capsys):
        # a shared model embeds a standardizer only when it was trained on
        # pooled data, even where the one classroom's own is the only one
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(out),
            "--methods", "centralized,fedavg,fedavg_ft",
            "--set", "data.nodes=40",
            "--set", "data.communities=2",
            "--set", "data.intra_p=0.4",
            "--set", "data.inter_p=0.06",
        )
        assert code == 0
        models = out / "models"
        assert sorted(p.name for p in models.iterdir()) == [
            "centralized_seed1.ckpt", "fedavg_ft_seed1_client0.ckpt", "fedavg_seed1.ckpt",
        ]
        embedded = {p.name: load_checkpoint(p)[1] is not None for p in models.iterdir()}
        assert embedded == {
            "centralized_seed1.ckpt": True,
            "fedavg_seed1.ckpt": False,
            "fedavg_ft_seed1_client0.ckpt": True,
        }


class TestOtherCommands:
    def test_fairness_only(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "fairness", "--config", str(config_path), "--output-dir", str(out)
        )
        assert code == 0
        assert (out / "fairness.csv").exists()
        assert not (out / "metrics.csv").exists()
        assert not (out / "models").exists()

    def test_explain_forces_enablement(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "explain", "--config", str(config_path), "--output-dir", str(out),
            "--set", "explain.method=fedavg",
            "--set", "explain.pairs_per_client=2",
            "--set", "explain.background_size=16",
        )
        assert code == 0
        assert (out / "importance.csv").exists()
        assert (out / "explanations.json").exists()
        assert (out / "importance_client0.svg").exists()
        assert (out / "importance_client1.svg").exists()
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "command, calls", [("train", 0), ("fairness", 0), ("explain", 1), ("report", 1)]
    )
    def test_only_the_subcommands_that_write_shapley_reports_explain(
        self, config_path, tmp_path, capsys, monkeypatch, command, calls
    ):
        seen = []
        real = experiment._explain

        def spy(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "_explain", spy)
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            command, "--config", str(config_path), "--output-dir", str(out),
            "--set", "explain.method=fedavg",
            "--set", "explain.pairs_per_client=2",
            "--set", "explain.background_size=16",
        )
        assert code == 0
        assert len(seen) == calls
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert sorted(manifest["explain"]) == ["background_size", "method", "pairs_per_client"]

    def test_explain_method_not_selected_fails(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        built = []
        real = experiment.build_client_datasets

        def spy(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "build_client_datasets", spy)
        monkeypatch.chdir(tmp_path)
        # the config leaves the explain method at its default, fedala
        argv = ["--config", str(config_path), "--methods", "fedavg"]
        code, out, err = run_cli(capsys, "explain", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "fedsln: [config] explain method 'fedala' is not among the methods"
        ]
        assert built == []
        assert list(tmp_path.iterdir()) == [config_path]
        # train does not explain, so it takes the same config
        code, _, err = run_cli(capsys, "train", *argv)
        assert code == 0, err
        assert len(built) == 1

    def test_report_writes_everything(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "report", "--config", str(config_path), "--output-dir", str(out),
            "--methods", "fedavg,fedala",
            "--set", "explain.method=fedala",
            "--set", "explain.pairs_per_client=2",
            "--set", "explain.background_size=16",
        )
        assert code == 0
        for name in (
            "metrics.csv", "summary.csv", "fairness.csv", "importance.csv",
            "explanations.json", "run_manifest.json",
        ):
            assert (out / name).exists()
        assert (out / "models" / "fedala_seed1_client0_blend.csv").exists()

    def test_generate_then_featurize(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            capsys, "generate", "--config", str(config_path), "--output-dir", str(out)
        )
        assert code == 0
        assert (out / "data" / "client0.edges").exists()
        assert (out / "data" / "client1.edges").exists()
        assert stdout.count("wrote") == 2

        code, stdout, _ = run_cli(
            capsys, "featurize", "--config", str(config_path), "--output-dir", str(out)
        )
        assert code == 0
        assert (out / "features" / "features_client0_train.csv").exists()
        assert (out / "features" / "features_client1_test.csv").exists()
        assert stdout.count("wrote") == 4

    def test_generate_explicit_seed_changes_output(self, config_path, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli(capsys, "generate", "--config", str(config_path),
                "--output-dir", str(a), "--seeds", "1")
        run_cli(capsys, "generate", "--config", str(config_path),
                "--output-dir", str(b), "--seeds", "2")
        assert (a / "data" / "client0.edges").read_text() != (
            b / "data" / "client0.edges"
        ).read_text()


class TestWarnings:
    # fedavg_ft's clamp is in its fine-tune pass, after the rounds
    @pytest.mark.parametrize(
        "method", ["fedavg", "fedala", "perfedavg_hf", "fedavg_ft", "centralized"]
    )
    def test_batch_larger_than_train_split_is_reported(
        self, config_path, tmp_path, capsys, method
    ):
        # centralized and fedavg_ft read no round counts: CONFIG_TEXT's
        # [centralized] epochs and [fedavg] rounds keep them short
        rounds = [] if method in ("centralized", "fedavg_ft") else [
            "--set", f"{method}.global_rounds=1", "--set", f"{method}.local_steps=2"
        ]
        code, _, err = run_cli(
            capsys,
            "train",
            "--config",
            str(config_path),
            "--output-dir",
            str(tmp_path / "out"),
            "--methods",
            method,
            "--set",
            f"{method}.batch_size=100000",
            *rounds,
        )
        assert code == 0
        assert err.splitlines() == [f"warning: {method}: batch_size_clamped"]

    def train_warnings(self, capsys, config_path, tmp_path, *argv):
        code, _, err = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(tmp_path / "out"),
            *argv,
        )
        assert code == 0, err
        return err.splitlines()

    def test_fedavg_without_rounds_draws_no_batch(self, config_path, tmp_path, capsys):
        assert self.train_warnings(
            capsys, config_path, tmp_path,
            "--set", "fedavg.global_rounds=0",
            "--set", "fedavg.batch_size=100000",
        ) == []

    def test_perfedavg_hf_fine_tunes_without_rounds(self, config_path, tmp_path, capsys):
        assert self.train_warnings(
            capsys, config_path, tmp_path,
            "--methods", "perfedavg_hf",
            "--set", "perfedavg_hf.global_rounds=0",
            "--set", "perfedavg_hf.batch_size=100000",
        ) == ["warning: perfedavg_hf: batch_size_clamped"]

    def test_fedavg_ft_inherits_the_warning_of_fedavgs_rounds(
        self, config_path, tmp_path, capsys
    ):
        # fedavg trains for fedavg_ft but is not reported on its own
        assert self.train_warnings(
            capsys, config_path, tmp_path,
            "--methods", "fedavg_ft",
            "--set", "fedavg.batch_size=100000",
        ) == ["warning: fedavg_ft: batch_size_clamped"]

    # the three train splits hold 408, 449 and 247 rows; with three shards
    # the smallest classroom trains in a child
    @pytest.mark.parametrize("workers", ["1", "3"])
    @pytest.mark.parametrize(
        "batch, want", [(247, []), (248, ["warning: fedavg: batch_size_clamped"])]
    )
    def test_a_batch_exceeding_one_classroom_warns_under_any_shard_count(
        self, config_path, tmp_path, capsys, workers, batch, want
    ):
        assert self.train_warnings(
            capsys, config_path, tmp_path,
            "--max-workers", workers,
            "--set", "data.nodes=40,50,30",
            "--set", "data.communities=2,3,2",
            "--set", "data.intra_p=0.4,0.35,0.4",
            "--set", "data.inter_p=0.06,0.04,0.06",
            "--set", f"fedavg.batch_size={batch}",
        ) == want


class TestErrors:
    def test_missing_config(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(tmp_path / "nope.ini")
        )
        assert code == 2
        assert stderr.startswith("fedsln:")

    def test_bad_override_value(self, config_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "train", "--config", str(config_path),
            "--output-dir", str(tmp_path / "run"),
            "--set", "fedavg.learning_rate=fast",
        )
        assert code == 2
        assert "cannot parse" in stderr

    def test_unknown_section_in_override(self, config_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "train", "--config", str(config_path),
            "--output-dir", str(tmp_path / "run"),
            "--set", "optimizer.momentum=0.9",
        )
        assert code == 2
        assert "unknown config sections" in stderr

    @pytest.mark.parametrize(
        "setting", ["centralized.local_steps=10", "fedavg_ft.epochs=5", "fedavg.hf_delta=0.1"]
    )
    def test_a_key_the_method_does_not_read_is_one_config_line(
        self, config_path, tmp_path, capsys, setting
    ):
        code, out, stderr = run_cli(
            capsys,
            "train", "--config", str(config_path),
            "--output-dir", str(tmp_path / "run"),
            "--set", setting,
        )
        section, key = setting.split("=")[0].split(".")
        assert code == 2
        assert out == ""
        assert stderr.splitlines() == [f"fedsln: [config] unknown keys in [{section}]: ['{key}']"]

    @pytest.mark.parametrize("source", ["ini", "manifest", "set"])
    def test_explain_enabled_is_refused_in_every_source(
        self, config_path, tmp_path, capsys, source
    ):
        # the subcommand alone decides whether Shapley reports are computed
        path, argv = config_path, []
        if source == "ini":
            config_path.write_text(CONFIG_TEXT + "\n[explain]\nenabled = true\n")
        elif source == "manifest":
            manifest = config_to_manifest(load_config(config_path))
            manifest["explain"]["enabled"] = True
            path = tmp_path / "run_manifest.json"
            path.write_text(json.dumps(manifest))
        else:
            argv = ["--set", "explain.enabled=true"]
        code, out, stderr = run_cli(
            capsys,
            "explain", "--config", str(path), "--output-dir", str(tmp_path / "run"), *argv,
        )
        assert code == 2
        assert out == ""
        assert stderr.splitlines() == ["fedsln: [config] unknown keys in [explain]: ['enabled']"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flag, line",
        [
            ("--output-dir", "output_dir must be non-empty"),
            ("--seeds", "experiment.seeds: empty list"),
            ("--methods", "experiment.methods: empty list"),
        ],
    )
    def test_an_empty_flag_value_is_one_config_line(
        self, config_path, tmp_path, capsys, monkeypatch, flag, line
    ):
        # the config sets no output_dir, so its default is under the working directory
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "train", "--config", str(config_path), flag, "")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"fedsln: [config] {line}"]
        assert list(tmp_path.iterdir()) == [config_path]

    def test_config_errors_carry_the_stage_tag(self, config_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "train", "--config", str(config_path),
            "--output-dir", str(tmp_path / "run"),
            "--set", "data.source=csv",
        )
        assert code == 2
        assert stderr.splitlines() == ["fedsln: [config] unknown data source 'csv'"]

    def test_duplicate_seeds_leave_an_earlier_run_alone(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--config", str(config_path), "--output-dir", str(out)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0

        def snapshot():
            return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

        before = snapshot()
        code, _, stderr = run_cli(capsys, *argv, "--seeds", "1,1")
        assert code == 2
        assert stderr.splitlines() == ["fedsln: [config] duplicate seeds in [1, 1]"]
        assert snapshot() == before

    @pytest.mark.parametrize(
        "name, content",
        [
            ("invalid.json", b'{"data": '),
            ("list.json", b"[1, 2]"),
            ("scalar_section.json", b'{"data": 5}'),
            # the CLI writes --output-dir into [experiment]
            ("scalar_experiment.json", b'{"experiment": "runs"}'),
            ("latin1.ini", "[experiment]\noutput_dir = caf\xe9\n".encode("latin-1")),
            # configparser's own message spans three lines
            ("no_header.ini", b"methods = fedavg\n"),
        ],
    )
    def test_malformed_config_file_is_one_config_line(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        code, out, stderr = run_cli(
            capsys, "train", "--config", str(path), "--output-dir", str(tmp_path / "run")
        )
        assert code == 2
        assert out == ""
        lines = stderr.splitlines()
        assert len(lines) == 1, stderr
        assert lines[0].startswith(f"fedsln: [config] {path}: "), lines[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_max_workers_below_one_is_a_config_error(self, config_path, tmp_path, capsys, workers):
        code, out, err = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(tmp_path / "run"),
            "--max-workers", workers,
        )
        assert code == 2
        assert err.splitlines() == ["fedsln: [config] --max-workers must be at least 1"]
        assert out == ""
        assert not (tmp_path / "run").exists()

    def test_directory_at_a_target_leaves_the_earlier_run_alone(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--config", str(config_path), "--output-dir", str(out))
        assert code == 0
        metrics = (out / "metrics.csv").read_bytes()
        (out / "summary.csv").unlink()
        (out / "summary.csv").mkdir()
        code, _, err = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(out), "--seeds", "2",
        )
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("fedsln: [emit] "), lines[0]
        assert (out / "metrics.csv").read_bytes() == metrics
        assert not [p for p in out.rglob("*.tmp")]

    @pytest.mark.parametrize(
        "command, folder, target",
        [
            ("generate", "data", "client1.edges"),
            ("featurize", "features", "features_client0_test.csv"),
        ],
    )
    def test_directory_at_an_export_target_leaves_the_earlier_run_alone(
        self, config_path, tmp_path, capsys, command, folder, target
    ):
        out = tmp_path / "run"
        argv = [command, "--config", str(config_path), "--output-dir", str(out)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        (out / folder / target).unlink()
        (out / folder / target).mkdir()
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        code, stdout, err = run_cli(capsys, *argv, "--seeds", "2")
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("fedsln: [emit] "), lines[0]
        assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before

    @pytest.mark.parametrize(
        "command, overrides",
        [
            # no classroom has a link, so there is nothing to split
            ("featurize", ["data.intra_p=0.0,0.0", "data.inter_p=0.0,0.0"]),
            ("generate", ["data.inter_p=0.5,0.04"]),
        ],
    )
    def test_export_data_failure_is_one_data_line(
        self, config_path, tmp_path, capsys, command, overrides
    ):
        sets = [arg for kv in overrides for arg in ("--set", kv)]
        code, stdout, err = run_cli(
            capsys,
            command, "--config", str(config_path), "--output-dir", str(tmp_path / "run"),
            *sets,
        )
        assert code == 2
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("fedsln: [data] seed 1: classroom 0: "), lines[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "method, where",
        [
            ("fedavg", r"round 0: client [01]"),
            ("fedala", r"round 0: client [01]"),
            ("perfedavg_hf", r"round 0: client [01]"),
            ("fedavg_ft", r"client 0's personalized model"),
            ("centralized", r"round 0: client 0"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_diverging_learning_rate_names_method_seed_round_client(
        self, config_path, tmp_path, capsys, method, where
    ):
        # the overflow itself stays silent, also inside worker threads
        for workers in ("1", "2"):
            code, out, err = run_cli(
                capsys,
                "train",
                "--config",
                str(config_path),
                "--output-dir",
                str(tmp_path / "out"),
                "--methods",
                method,
                "--set",
                f"{method}.learning_rate=1e200",
                "--max-workers",
                workers,
            )
            assert code == 2
            lines = err.splitlines()
            assert len(lines) == 1, err
            assert re.fullmatch(
                rf"fedsln: \[train:{method}\] seed 1: {where} has non-finite parameters; "
                r"training diverged",
                lines[0],
            ), lines[0]
            assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_fedavg_diverging_for_fedavg_ft_alone_is_fedavg_ft_s_line(
        self, config_path, tmp_path, capsys
    ):
        # fedavg is not selected, so run_experiment trains it for fedavg_ft
        code, out, err = run_cli(
            capsys,
            "train", "--config", str(config_path), "--output-dir", str(tmp_path / "out"),
            "--methods", "fedavg_ft", "--set", "fedavg.learning_rate=1e200",
        )
        assert code == 2
        assert out == ""
        assert re.fullmatch(
            r"fedsln: \[train:fedavg_ft\] seed 1: round 0: client [01] has non-finite "
            r"parameters; training diverged\n",
            err,
        ), err
        assert not (tmp_path / "out").exists()

    def test_explain_failure_names_seed_and_classroom(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        real = experiment.make_predictor
        built = []

        def failing(x):
            raise RuntimeError("scoring failed")

        def make_predictor(params, standardizer):
            # classrooms are explained in order, so the second predictor is classroom 1's
            built.append(standardizer)
            return failing if len(built) == 2 else real(params, standardizer)

        monkeypatch.setattr(experiment, "make_predictor", make_predictor)
        code, stdout, err = run_cli(
            capsys,
            "explain", "--config", str(config_path), "--output-dir", str(tmp_path / "run"),
            "--set", "explain.method=fedavg",
            "--set", "explain.pairs_per_client=2",
            "--set", "explain.background_size=16",
        )
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == ["fedsln: [explain] seed 1: classroom 1: scoring failed"]
        assert not (tmp_path / "run").exists()

    def test_generate_needs_synthetic(self, config_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "generate", "--config", str(config_path),
            "--output-dir", str(tmp_path / "run"),
            "--set", "data.source=edge_lists",
            "--set", "data.paths=a.edges,b.edges",
            "--set", "data.nodes=",
        )
        # either the config grammar or the data stage rejects this mix
        assert code == 2
        assert "fedsln:" in stderr
