"""Frozen output bytes: a pure refactor must leave every emitted file alone.

A small synthetic `fedsln report` run of all five methods over two seeds
is emitted with `--max-workers` 1, 2, 3 and 5 and without the flag (the
CLI's default), and the SHA-256 of every
file it writes (metrics, summary, fairness, Shapley reports, every
checkpoint and blend-weight file; not run_manifest.json, which names
the output directory) is compared with the constants below. The same run
with fedavg_ft listed before fedavg gives the same digests once the rows of
the method-ordered CSVs are put back in CONFIG_TEXT's order, and fedavg_ft
alone gives the same four fedavg_ft checkpoints. A report assembled from
`run_method` outcomes by hand emits the same metrics, fairness and model
files. The files
`fedsln generate` and `fedsln featurize` write for the first seed, and
the manifests of the two desk configs with the output directory they
name, are frozen the same way. A change that alters the numbers on purpose
must update these constants and say so, with the old and new values, in
CHANGES.md. The report run is also made in a fresh interpreter, which
must end it with no scipy module loaded and the same digests.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fedsln.experiment as experiment
import fedsln.personalization as personalization
from fedsln.cli import main
from fedsln.config import config_to_manifest, load_config

ROOT = Path(__file__).resolve().parents[1]

CONFIG_TEXT = """\
[experiment]
methods = centralized,fedavg,fedavg_ft,perfedavg_hf,fedala
seeds = 1,2

[model]
hidden_sizes = 8

[data]
source = synthetic
nodes = 40,50
communities = 2,3
intra_p = 0.4,0.35
inter_p = 0.06,0.04

[split]
negatives_per_positive = 2.0

[centralized]
epochs = 3

[fedavg]
global_rounds = 3
local_steps = 10

[fedavg_ft]
batch_size = 16

[perfedavg_hf]
global_rounds = 3
local_steps = 10

[fedala]
global_rounds = 3
local_steps = 10
"""

FROZEN_SHA256 = {
    "explanations.json": "fd79baf137d764ca5e6857106f80cfc52dff2ffc728aef53ef701acae4bf5bf0",
    "fairness.csv": "f9143100c5b3c2f4c906dc0a62c5526b3c4868ba7df472aaae877eadc75a8e9e",
    "importance.csv": "b1126acab01d56fd3ab3d00fb8fa214614db6983a2dddae3f4015be9a35d554e",
    "importance_client0.svg": "3158add86e2f828b42b2cee78967811db8cbc96052328f0d8983b1de39bb625d",
    "importance_client1.svg": "a70f7fb4a61ba01c52d440f5cdd00751552d5466d9efe75a01c10214aee4117a",
    "metrics.csv": "fc48366198524648479acae586b078cbfc70e7f3afe53bd3147e17f3c3e82b7f",
    "models/centralized_seed1.ckpt": "e8bf4523fce1a47f0b726628bef3ffcf50f7196b774aa4f321e1d0344ba27da6",
    "models/centralized_seed2.ckpt": "dd04dc15a7d072da28a8deeeb62d9f66796534ffb571fb8854d27bf104f604b5",
    "models/fedala_seed1_client0.ckpt": "4555cce6ff2759346a88ffb0d4d619631ac55d526087ffce4d315b5707dc4ab6",
    "models/fedala_seed1_client0_blend.csv": "f88aa20adcbbc863d440736d61a1d85d1428dd1ea9afe9ef2c29ed1b8381bf22",
    "models/fedala_seed1_client1.ckpt": "a51cbc4b5717c297d82412a0430700bb95e463ea359d0df0e08f8703beb41a6a",
    "models/fedala_seed1_client1_blend.csv": "47f80930f18ad6e55e2c938005f5c9ac403e6372d8491a2150c4eaed1ef04efd",
    "models/fedala_seed2_client0.ckpt": "c1073f38ea4cd69dc8cacd27d345e3104945d4caaf51287f3665f48c000359ba",
    "models/fedala_seed2_client0_blend.csv": "fde962771e165c858adf60ff93981ac53d667b0fb48113fed5b0ad76c58d6910",
    "models/fedala_seed2_client1.ckpt": "141886ea32bf83957c23e55558eb63dd1826c207dce2c484c0ac43436b6d7d6f",
    "models/fedala_seed2_client1_blend.csv": "175f01fe7fe20419d3292c70b3c2a07aeb03df8093146b1b0c902c7883765dcb",
    "models/fedavg_ft_seed1_client0.ckpt": "680dc0aed9ea118a30ed4ef162903ce7bcf27d7e3d9fd47cfc33e1f505ae1341",
    "models/fedavg_ft_seed1_client1.ckpt": "4115cb03d64ac08ac5d180b78a5024b96c4c22660e669498837ffc6f110bb785",
    "models/fedavg_ft_seed2_client0.ckpt": "254d7589a666d1a1377eb2735cead57f0493f0838e6e4a1a92839cd47696d313",
    "models/fedavg_ft_seed2_client1.ckpt": "f2f93c217cfa11bebfe4274c782aec28c655a3b129f1bf592e2b3f050a5b4c70",
    "models/fedavg_seed1.ckpt": "e2f5f8b08a7cc5927fb3be4af37035e627cc5c580510711d306db61dc1685074",
    "models/fedavg_seed2.ckpt": "da2ca0ddf372780bdfd00f68666c003bee35fabde653af7ee11c220db1456dbc",
    "models/perfedavg_hf_seed1_client0.ckpt": "c9f9f11cc41201781a37090c2bdacf41415c569d8df2e69e8bb68479020dfbee",
    "models/perfedavg_hf_seed1_client1.ckpt": "c26479a39bf47c3b389544d242210926a154e645db87ce7bfd130251561f38e1",
    "models/perfedavg_hf_seed2_client0.ckpt": "91f02d13c96ebc0b58c9802882ed2fa6fb5752669a1ae6ac5ab5d7112a2132b8",
    "models/perfedavg_hf_seed2_client1.ckpt": "ee98f6301f98ef706a2f6ed3633f645ed958eb1f7544114769a44664c78ea31e",
    "summary.csv": "88ffe597be9ba9b192bc7f210ceca3db1c4da6f5ef0987913ecb071f03972882",
}


WORKERS = ["1", "2", "3", "5", pytest.param(None, id="default")]
METHODS_LINE = "methods = centralized,fedavg,fedavg_ft,perfedavg_hf,fedala"
METHODS = tuple(METHODS_LINE.split(" = ")[1].split(","))


def emitted_digests(out_dir):
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "run_manifest.json"
    }


@pytest.mark.parametrize("workers", WORKERS)
def test_emitted_bytes_match_frozen_digests(tmp_path, capsys, workers):
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    flag = [] if workers is None else ["--max-workers", workers]
    code = main(["report", "--config", str(ini), "--output-dir", str(out), *flag])
    capsys.readouterr()
    assert code == 0
    assert emitted_digests(out) == FROZEN_SHA256




def test_a_report_run_loads_no_scipy(tmp_path):
    # scipy is the tests' outside reference, not a dependency of a run
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    script = textwrap.dedent(
        """
        import json, sys
        from fedsln.cli import main

        code = main(sys.argv[1:])
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
        sys.exit(code)
        """
    )
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}")
    done = subprocess.run(
        [sys.executable, "-c", script, "report", "--config", str(ini), "--output-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert emitted_digests(out) == FROZEN_SHA256


def in_config_order(path):
    """A method-ordered CSV's digest with its rows put back in CONFIG_TEXT's
    method order (seed by seed, for metrics.csv). The row order follows
    `methods` by design; the bytes of each row must not."""
    header, *rows = path.read_text().splitlines(keepends=True)
    rank = {m: i for i, m in enumerate(METHODS)}

    def key(row):
        cells = row.split(",")
        return (int(cells[2]) if path.name == "metrics.csv" else 0, rank[cells[0]])

    text = header + "".join(sorted(rows, key=key))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workers", WORKERS)
def test_fedavg_ft_before_fedavg_gives_the_same_bytes(tmp_path, capsys, workers):
    # fedavg_ft is listed first and fedavg last; fedavg's rounds still come first
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    flag = [] if workers is None else ["--max-workers", workers]
    methods = "fedavg_ft,centralized,perfedavg_hf,fedala,fedavg"
    code = main(
        ["report", "--config", str(ini), "--output-dir", str(out), "--methods", methods, *flag]
    )
    capsys.readouterr()
    assert code == 0
    digests = emitted_digests(out)
    first = (out / "metrics.csv").read_text().splitlines()[1]
    assert first.startswith("fedavg_ft,0,1,")
    for name in ("metrics.csv", "summary.csv", "fairness.csv"):
        digests[name] = in_config_order(out / name)
    assert digests == FROZEN_SHA256


@pytest.mark.parametrize("workers", WORKERS)
def test_fedavg_ft_alone_gives_the_same_models(tmp_path, capsys, workers):
    # without fedavg among the methods, run_experiment trains its rounds first
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    flag = [] if workers is None else ["--max-workers", workers]
    code = main(
        ["train", "--config", str(ini), "--output-dir", str(out), "--methods", "fedavg_ft", *flag]
    )
    capsys.readouterr()
    assert code == 0
    models = {k: v for k, v in emitted_digests(out).items() if k.startswith("models/")}
    assert models == {
        k: v for k, v in FROZEN_SHA256.items() if k.startswith("models/fedavg_ft_")
    }
    assert len(models) == 4


def test_a_report_of_run_method_outcomes_gives_the_same_bytes(tmp_path):
    # a library caller's own outcomes, seed-major in CONFIG_TEXT's method
    # order, emit what the run's report does
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)
    cfg = load_config(ini)
    outcomes = []
    for seed in cfg.seeds:
        datasets = experiment.build_client_datasets(cfg, seed)
        trained = {}
        for method in cfg.methods:
            trained[method] = experiment.run_method(
                method, datasets, cfg, seed, fedavg=trained.get("fedavg")
            )
        outcomes.extend(trained.values())
    report = experiment.RunReport(cfg, outcomes, [], {})
    out = tmp_path / "out"
    experiment.emit_reports(report, out, include=("metrics", "fairness", "models"))
    assert emitted_digests(out) == {
        k: v
        for k, v in FROZEN_SHA256.items()
        if k in ("metrics.csv", "summary.csv", "fairness.csv") or k.startswith("models/")
    }


@pytest.mark.parametrize("methods", ["fedavg,fedavg_ft", "fedavg_ft,fedavg", "fedavg_ft"])
def test_fedavg_rounds_run_once_per_seed(tmp_path, monkeypatch, methods):
    seeds = []
    real = experiment.run_fedavg

    def spy(clients, config, start, **kwargs):
        seeds.append(clients[0].seed)
        return real(clients, config, start, **kwargs)

    monkeypatch.setattr(experiment, "run_fedavg", spy)
    monkeypatch.setattr(personalization, "run_fedavg", spy)
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT.replace(METHODS_LINE, f"methods = {methods}"))
    experiment.run_experiment(load_config(ini), max_workers=1)
    assert seeds == [1, 2]


# `fedsln generate` and `fedsln featurize` of CONFIG_TEXT's first seed
FROZEN_EXPORT_SHA256 = {
    "data/client0.edges": "7867be0c8cb6335fce39f42e132bb1139f1359abe2a87eb1cbe0da8bba0c68a3",
    "data/client1.edges": "ee926d1307aa94aeaa8de9e87fa6168752ad3027cb7f071e3cf33c851f208684",
    "features/features_client0_test.csv": "e2d45076ddd04ce405eecb7845f264d7d951991ac658c4abcd68f82087a773f7",
    "features/features_client0_train.csv": "b284fa4f0f0c36be8e6e7784add9a166f9d393f7a2fac468b8ec455d51be5e0b",
    "features/features_client1_test.csv": "28098438da17793ffc77f57904fb7147e23f8e8c4cf7482727359e72a78ec2b5",
    "features/features_client1_train.csv": "5b401f7d1297aea5aec6076f1c5a52abf42108698a4005af5822210631982fc0",
}


def test_exported_bytes_match_frozen_digests(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    for command in ("generate", "featurize"):
        assert main([command, "--config", str(ini), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert emitted_digests(out) == FROZEN_EXPORT_SHA256


# run_manifest.json text, as emit_reports writes it, of each shipped desk config
FROZEN_MANIFEST_SHA256 = {
    "bench/configs/desk.ini": "3ec8a1ba410de2e9f13a320c8491d52a5f9528bb80ce64ad9e033109f632a36e",
    "configs/desk_benchmark.ini": "ae89d13ddeb966f64d507a2afe88e0624d53677510e0cdd33058f83e112ab958",
}


# the ids are the config paths alone, so a changed digest renames no case
@pytest.mark.parametrize("config", sorted(FROZEN_MANIFEST_SHA256))
def test_manifest_bytes_match_frozen_digests(config):
    manifest = config_to_manifest(load_config(ROOT / config))
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_MANIFEST_SHA256[config]
