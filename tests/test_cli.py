"""CLI behavior: subcommands, overrides, manifest replay, error exits."""

import json
import re

import pytest

from fedsln.cli import _parse_override, build_parser, main
from fedsln.config import ConfigError

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
    @pytest.mark.parametrize("method", ["fedavg", "fedala", "perfedavg_hf"])
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
        "method, where",
        [
            ("fedavg", r"round 0: client [01]"),
            ("fedala", r"round 0: client [01]"),
            ("perfedavg_hf", r"round 0: client [01]"),
            ("fedavg_ft", r"client 0's personalized model"),
            ("centralized", r"the centralized model"),
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
