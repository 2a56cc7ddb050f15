"""Frozen output bytes: a pure refactor must leave every emitted file alone.

A small synthetic `fedsln report` run of all five methods over two seeds
is emitted with `--max-workers` 1, 2, 3 and 5 and without the flag (the
CLI's default), and the SHA-256 of every
file it writes (metrics, summary, fairness, Shapley reports, every
checkpoint and blend-weight file; not run_manifest.json, which names
the output directory) is compared with the constants below. The
manifests of the two desk configs, with the output directory they name,
are frozen the same way. A change that alters the numbers on purpose
must update these constants and say so, with the old and new values, in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

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


def emitted_digests(out_dir):
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "run_manifest.json"
    }


@pytest.mark.parametrize("workers", ["1", "2", "3", "5", pytest.param(None, id="default")])
def test_emitted_bytes_match_frozen_digests(tmp_path, capsys, workers):
    ini = tmp_path / "exp.ini"
    ini.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    flag = [] if workers is None else ["--max-workers", workers]
    code = main(["report", "--config", str(ini), "--output-dir", str(out), *flag])
    capsys.readouterr()
    assert code == 0
    assert emitted_digests(out) == FROZEN_SHA256


# run_manifest.json text, as emit_reports writes it, of each shipped desk config
FROZEN_MANIFEST_SHA256 = {
    "bench/configs/desk.ini": "97225b92ed1de23a4b7524f2f3de0b9aa2f0f796a8009d3b5348eb9ef1b53095",
    "configs/desk_benchmark.ini": "2f1191f5726ae11c99a5e5fe37e062272fd28c6093e7274dc2566818a8069ece",
}


@pytest.mark.parametrize("config, digest", sorted(FROZEN_MANIFEST_SHA256.items()))
def test_manifest_bytes_match_frozen_digests(config, digest):
    manifest = config_to_manifest(load_config(ROOT / config))
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
