"""The benchmark's workloads: which `fedsln` command each runs, and on what.

Every workload is one `fedsln.cli.main` invocation, exactly as a user
would type it, with the seed and the output directory filled in per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    extra: tuple[str, ...] = ()

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return [
            self.command,
            "--config",
            str(CONFIG_DIR / self.config),
            "--seeds",
            str(seed),
            "--output-dir",
            str(out_dir),
            *self.extra,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's centralized vs federated vs personalized comparison on
        # the desk classrooms; small-batch SGD is nearly all of the run.
        Workload("desk_federated", "train", "desk.ini"),
        # Six-fold larger classrooms: the dense pair universe and per-pair
        # featurization dominate, training reads the network in large batches.
        Workload("wide_classrooms", "train", "wide.ini"),
        # Meta-learning, then exact Shapley attribution on three times the
        # default pairs per classroom, with every report group written.
        Workload(
            "meta_explain",
            "report",
            "desk.ini",
            (
                "--methods",
                "perfedavg_hf",
                "--set",
                "perfedavg_hf.global_rounds=3",
                "--set",
                "perfedavg_hf.local_steps=100",
                "--set",
                "explain.method=perfedavg_hf",
                "--set",
                "explain.pairs_per_client=60",
            ),
        ),
    )
}
