"""CLI behavior: subcommands, overrides, manifest replay, error exits."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsln.cli import _parse_override, build_parser, main
from fedsln.config import ConfigError
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
        assert lines[0].startswith("fedsln: [data] seed 1: "), lines[0]
        want = "cannot split an empty dataset" if line_no is None else f"line {line_no}: "
        assert want in lines[0], lines[0]
        assert not (tmp / "run").exists()


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
            "--set", "fedavg_ft.epochs=1",
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
            "--method", "fedavg",
            "--set", "explain.pairs_per_client=2",
            "--set", "explain.background_size=16",
        )
        assert code == 0
        assert (out / "importance.csv").exists()
        assert (out / "explanations.json").exists()
        assert (out / "importance_client0.svg").exists()
        assert (out / "importance_client1.svg").exists()
        assert not (out / "metrics.csv").exists()

    def test_explain_method_not_selected_fails(self, config_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys,
            "explain", "--config", str(config_path),
            "--output-dir", str(tmp_path / "run"),
            "--method", "fedala",
        )
        assert code == 2
        assert "[config]" in stderr

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
                "--output-dir", str(a), "--seed", "1")
        run_cli(capsys, "generate", "--config", str(config_path),
                "--output-dir", str(b), "--seed", "2")
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
            "--set",
            f"{method}.global_rounds=1",
            "--set",
            f"{method}.local_steps=2",
        )
        assert code == 0
        assert err.splitlines() == [f"warning: {method}: batch_size_clamped"]


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
        code, stdout, err = run_cli(capsys, *argv, "--seed", "2")
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
        assert lines[0].startswith("fedsln: [data] seed 1: "), lines[0]
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
