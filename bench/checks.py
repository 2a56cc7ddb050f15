"""Output checks that run after a workload's timed region.

Every check recomputes a reported number apart from the program: features
by brute force from the earlier snapshot's neighbor sets, predictions by a
forward pass read straight from the checkpoint bytes, AUC by counting
pairs, rates by thresholding. The rest are properties the methods must
have: Shapley efficiency, blend weights in [0, 1], AUC above chance.

Near ties are the one allowance. Two scores within NEAR of each other can
swap order under a last-bit change in the arithmetic, so each such
cross-class pair, and each score within NEAR of the threshold, widens the
tolerance by the share of the metric it can move.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import expit

TOL = 1e-9
NEAR = 1e-12
LOSS_EPS = 1e-12
MAGIC = b"FSLNCKP1"
PERSONALIZED = ("fedavg_ft", "perfedavg_hf", "fedala")


class Checker:
    """Counts checks and keeps a message for each one that failed."""

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(message)

    def close(self, got: float, want: float, what: str, tol: float = TOL) -> None:
        self.expect(abs(got - want) <= tol, f"{what}: program {got!r}, recomputed {want!r}")


def brute_features(nu: frozenset, nv: frozenset, degree: dict[int, int]) -> tuple:
    """The six scores straight from their set definitions."""
    common = nu & nv
    union = nu | nv
    du, dv = len(nu), len(nv)
    return (
        len(common) / len(union) if union else 0.0,
        math.fsum(1.0 / math.log(degree[w]) for w in common),
        math.fsum(1.0 / degree[w] for w in common),
        float(du * dv),
        len(common) / math.sqrt(du * dv) if du and dv else 0.0,
        2.0 * len(common) / (du + dv) if du + dv else 0.0,
    )


def check_features(chk: Checker, samples: dict[int, list[dict]], datasets) -> None:
    """Compare sampled examples with features rebuilt from neighbor sets."""
    for d in datasets:
        examples = {(ex.u, ex.v): ex for ex in (*d.train_examples, *d.test_examples)}
        for s in samples[d.client_id]:
            ex = examples.get((s["u"], s["v"]))
            where = f"features client {d.client_id} pair ({s['u']}, {s['v']})"
            chk.expect(ex is not None, f"{where}: missing from the examples")
            if ex is None:
                continue
            want = brute_features(s["nu"], s["nv"], s["degree"])
            got = tuple(ex.features)
            chk.expect(
                all(math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12) for g, w in zip(got, want)),
                f"{where}: program {got}, brute force {want}",
            )
            chk.expect(ex.label == s["label"], f"{where}: label {ex.label}, snapshot {s['label']}")


def read_checkpoint(path: Path):
    """Layers [(weights, biases)] and the optional (mean, std) standardizer."""
    raw = path.read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    n_layers, fan_in = struct.unpack_from("<II", raw, 8)
    outs = struct.unpack_from(f"<{n_layers}I", raw, 16)
    off = 16 + 4 * n_layers
    layers = []
    for out in outs:
        w = np.frombuffer(raw, "<f8", out * fan_in, off).reshape(out, fan_in)
        off += 8 * out * fan_in
        b = np.frombuffer(raw, "<f8", out, off)
        off += 8 * out
        layers.append((w, b))
        fan_in = out
    standardizer = None
    if raw[off]:
        dim = layers[0][0].shape[1]
        mean = np.frombuffer(raw, "<f8", dim, off + 1)
        std = np.frombuffer(raw, "<f8", dim, off + 1 + 8 * dim)
        standardizer = (mean, std)
        off += 16 * dim
    if off + 1 != len(raw):
        raise ValueError(f"{path}: {len(raw) - off - 1} trailing bytes")
    return layers, standardizer


def fit_standardizer(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.sum(axis=0) / len(x)
    return mean, np.sqrt(((x - mean) ** 2).sum(axis=0) / len(x))


def predict(layers, standardizer, raw_x: np.ndarray) -> np.ndarray:
    """Softplus hidden layers and a sigmoid head on standardized inputs."""
    mean, std = standardizer
    a = (raw_x - mean) / np.where(std == 0.0, 1.0, std)
    for w, b in layers[:-1]:
        a = np.logaddexp(0.0, a @ w.T + b)
    w, b = layers[-1]
    return expit(a @ w.T + b)[:, 0]


def pair_count_auc(p: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """AUC as the share of (positive, negative) pairs ordered right, ties
    half; and the share of pairs within NEAR but not tied."""
    pos, neg = p[y == 1], np.sort(p[y != 1])
    below = np.searchsorted(neg, pos, "left")
    tied = np.searchsorted(neg, pos, "right") - below
    near = np.searchsorted(neg, pos + NEAR, "right") - np.searchsorted(neg, pos - NEAR, "left")
    pairs = len(pos) * len(neg)
    return (below.sum() + 0.5 * tied.sum()) / pairs, (near - tied).sum() / pairs


def _models(out: Path, method: str, seed: int, datasets):
    """Per client: (layers, standardizer) that produced its test scores."""
    if method in PERSONALIZED:
        return {
            d.client_id: read_checkpoint(out / f"models/{method}_seed{seed}_client{d.client_id}.ckpt")
            for d in datasets
        }
    layers, std = read_checkpoint(out / f"models/{method}_seed{seed}.ckpt")
    return {d.client_id: (layers, std) for d in datasets}


def check_scores(chk: Checker, out: Path, seed: int, datasets, methods) -> dict:
    """metrics.csv and fairness.csv against a forward pass from checkpoints.

    Returns {method: {client: (layers, standardizer)}} for later checks.
    """
    own_std = {d.client_id: fit_standardizer(d.raw_train_x) for d in datasets}
    pooled_std = fit_standardizer(np.concatenate([d.raw_train_x for d in datasets]))
    with open(out / "metrics.csv", newline="") as fh:
        metrics = {(r["method"], int(r["client"])): r for r in csv.DictReader(fh)}
    with open(out / "fairness.csv", newline="") as fh:
        fairness = {(r["method"], r["client"]): r for r in csv.DictReader(fh)}
    chk.expect(len(metrics) == len(methods) * len(datasets), "metrics.csv row count")

    models = {}
    for method in methods:
        models[method] = _models(out, method, seed, datasets)
        aucs, tprs, fprs = [], [], []
        for d in datasets:
            c = d.client_id
            where = f"{method} client {c}"
            layers, std = models[method][c]
            want_std = pooled_std if method == "centralized" else own_std[c]
            if std is None:
                std = want_std
            chk.expect(
                np.allclose(std[0], want_std[0], rtol=1e-12, atol=1e-12)
                and np.allclose(std[1], want_std[1], rtol=1e-12, atol=1e-12),
                f"{where}: embedded standardizer differs from the training split's",
            )
            p = predict(layers, std, d.raw_test_x)
            y = d.test_y
            row = metrics[(method, c)]
            auc, near_share = pair_count_auc(p, y)
            chk.close(float(row["auc"]), auc, f"{where} auc", TOL + near_share)
            pred, actual = p >= 0.5, y == 1
            at_threshold = int(np.sum(np.abs(p - 0.5) <= NEAR))
            chk.close(
                float(row["accuracy"]),
                float(np.mean(pred == actual)),
                f"{where} accuracy",
                TOL + at_threshold / len(y),
            )
            q = np.clip(p, LOSS_EPS, 1.0 - LOSS_EPS)
            loss = -np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))
            chk.close(float(row["loss"]), float(loss), f"{where} loss")
            tpr = np.sum(pred & actual) / np.sum(actual)
            fpr = np.sum(pred & ~actual) / np.sum(~actual)
            rate_tol = TOL + at_threshold / min(np.sum(actual), np.sum(~actual))
            frow = fairness[(method, str(c))]
            chk.close(float(frow["tpr"]), float(tpr), f"{where} tpr", rate_tol)
            chk.close(float(frow["fpr"]), float(fpr), f"{where} fpr", rate_tol)
            aucs.append(float(row["auc"]))
            tprs.append(float(frow["tpr"]))
            fprs.append(float(frow["fpr"]))
        rng = fairness[(method, "range")]
        chk.close(float(rng["tpr"]), max(tprs) - min(tprs), f"{method} tpr range", 0.0)
        chk.close(float(rng["fpr"]), max(fprs) - min(fprs), f"{method} fpr range", 0.0)
        chk.expect(sum(aucs) / len(aucs) > 0.5, f"{method}: mean test AUC {aucs} not above chance")
    return models


def check_explanations(chk: Checker, out: Path, datasets, models: dict) -> None:
    """Shapley efficiency, and `predicted` equal to the model's own score."""
    records = json.loads((out / "explanations.json").read_text())
    chk.expect(len(records) > 0, "explanations.json is empty")
    features = {
        (d.client_id, ex.u, ex.v): ex.features for d in datasets for ex in d.test_examples
    }
    for r in records:
        where = f"explanation client {r['client']} pair ({r['u']}, {r['v']})"
        chk.close(r["base_value"] + math.fsum(r["phi"].values()), r["predicted"], f"{where} efficiency")
        layers, std = models[r["client"]]
        x = np.asarray([features[(r["client"], r["u"], r["v"])]], dtype=np.float64)
        chk.close(r["predicted"], float(predict(layers, std, x)[0]), f"{where} predicted")


def check_blend_weights(chk: Checker, out: Path, seed: int, datasets) -> None:
    for d in datasets:
        path = out / f"models/fedala_seed{seed}_client{d.client_id}_blend.csv"
        with open(path, newline="") as fh:
            values = [float(r["value"]) for r in csv.DictReader(fh)]
        chk.expect(
            len(values) > 0 and all(0.0 <= v <= 1.0 for v in values),
            f"{path.name}: blend weight outside [0, 1]",
        )


def output_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of metrics.csv and of every checkpoint, by relative path."""
    paths = [out / "metrics.csv", *sorted((out / "models").glob("*.ckpt"))]
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def check_run(out: Path, cfg, seed: int, datasets, samples) -> tuple[Checker, dict[str, str]]:
    """Every check that applies to one finished run in `out`."""
    chk = Checker()
    check_features(chk, samples, datasets)
    models = check_scores(chk, out, seed, datasets, cfg.methods)
    if cfg.explain.enabled:
        check_explanations(chk, out, datasets, models[cfg.explain.method])
    if "fedala" in cfg.methods:
        check_blend_weights(chk, out, seed, datasets)
    return chk, output_hashes(out)
