"""Output checks for one finished pipeline run.

The checks read the artifacts with code of their own (a QHM1 reader written
from the format in the README) so that they do not trust the program they
check.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np

DIGEST_SUFFIXES = (".qhm", ".csv", ".txt", ".pgm")
N_QFEATURES = 65  # 13 blocks x 5 qubits, marginal layout


def expected_artifacts(n_val: int) -> list[str]:
    names = ["ae_model.qhm", "ae_loss.csv", "latents.qhm", "qfeatures.qhm", "summary.txt"]
    for which in ("latent", "quantum"):
        names += [f"clf_{which}.qhm", f"clf_{which}_history.csv",
                  f"eval_{which}_confusion.csv", f"eval_{which}_metrics.csv"]
    for i in range(min(10, n_val)):
        names += [f"recon/recon_{i:02d}_orig.pgm", f"recon/recon_{i:02d}_ae.pgm"]
    return names


def read_qhm(path: Path) -> dict[str, np.ndarray]:
    raw = path.read_bytes()
    if raw[:4] != b"QHM1":
        raise ValueError(f"{path.name}: bad magic")
    (count,) = struct.unpack_from("<I", raw, 4)
    offset, out = 8, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        name = raw[offset + 4 : offset + 4 + name_len].decode("utf-8")
        offset += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, offset)
        shape = struct.unpack_from(f"<{rank}Q", raw, offset + 4)
        offset += 4 + 8 * rank
        size = math.prod(shape)
        out[name] = np.frombuffer(raw, dtype="<f8", count=size, offset=offset).reshape(shape)
        offset += 8 * size
    if offset != len(raw):
        raise ValueError(f"{path.name}: {len(raw) - offset} trailing bytes")
    return out


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def digests(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.suffix in DIGEST_SUFFIXES
    }


_SUMMARY = {
    "seed": re.compile(r"^seed: (\d+)$", re.M),
    "samples": re.compile(r"^samples: train=(\d+) val=(\d+) test=(\d+)$", re.M),
    "mode": re.compile(r"^quantum mode: (\w+) \(shots=(\d+), layout=(\w+)\)$", re.M),
    "ae": re.compile(r"^autoencoder: train_mse=(\S+) val_mse=(\S+) \(epochs=(\d+)\)$", re.M),
    "latent": re.compile(r"^latent \(baseline\)\s+\S+\s+\S+\s+(\S+)\s+\S+$", re.M),
    "quantum": re.compile(r"^quantum features\s+\S+\s+\S+\s+(\S+)\s+\S+$", re.M),
}


def check_run(out_dir: Path, expect: dict) -> tuple[dict, list[str]]:
    """Check one run's artifacts against what its config must produce.

    ``expect`` holds seed, n_train, n_val, n_test, ae_epochs, quantum_mode and
    shots. Returns the quality metrics read from the artifacts and a list of
    problems (empty when the run is correct).
    """
    problems = [f"missing artifact {name}" for name in expected_artifacts(expect["n_val"])
                if not (out_dir / name).is_file()]
    if problems:
        return {}, problems
    quality = {}
    try:
        for which in ("latent", "quantum"):
            metrics = {row[0]: row[1] for row in _csv_rows(out_dir / f"eval_{which}_metrics.csv")}
            quality[f"test_acc_{which}"] = float(metrics["accuracy"])
        header, *rows = _csv_rows(out_dir / "ae_loss.csv")
        quality["ae_val_mse"] = float(rows[-1][header.index("val_mse")])
        if len(rows) != expect["ae_epochs"]:
            problems.append(f"ae_loss.csv has {len(rows)} epochs, expected {expect['ae_epochs']}")
    except (KeyError, ValueError, IndexError) as exc:
        return quality, problems + [f"unreadable metrics csv: {exc!r}"]
    for name, value in quality.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value}")
        elif name.startswith("test_acc") and not 0.0 <= value <= 1.0:
            problems.append(f"{name} outside [0, 1]: {value}")

    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    found = {key: rx.search(summary) for key, rx in _SUMMARY.items()}
    if not all(found.values()):
        absent = [key for key, m in found.items() if m is None]
        return quality, problems + [f"summary.txt does not parse: no {absent}"]
    if int(found["seed"].group(1)) != expect["seed"]:
        problems.append(f"summary seed {found['seed'].group(1)} != {expect['seed']}")
    counts = tuple(int(g) for g in found["samples"].groups())
    if counts != (expect["n_train"], expect["n_val"], expect["n_test"]):
        problems.append(f"summary sample counts {counts} != expected")
    if found["mode"].group(1) != expect["quantum_mode"]:
        problems.append(f"summary quantum mode {found['mode'].group(1)} != expected")
    for which in ("latent", "quantum"):
        if found[which].group(1) != f"{quality[f'test_acc_{which}']:.4f}":
            problems.append(f"summary {which} test_acc disagrees with eval_{which}_metrics.csv")

    try:
        archive = read_qhm(out_dir / "qfeatures.qhm")
        for split, rows in (("train", expect["n_train"]), ("val", expect["n_val"]),
                            ("test", expect["n_test"])):
            feats = archive[f"qfeat/{split}"]
            if feats.shape != (rows, N_QFEATURES):
                problems.append(f"qfeat/{split} shape {feats.shape} != {(rows, N_QFEATURES)}")
            if not (np.all(np.isfinite(feats)) and feats.min() >= 0.0 and feats.max() <= 1.0):
                problems.append(f"qfeat/{split} has values outside [0, 1]")
            if expect["quantum_mode"] == "sampled":
                counts = feats * expect["shots"]
                if np.max(np.abs(counts - np.rint(counts))) > 1e-9 * expect["shots"]:
                    problems.append(f"qfeat/{split} x shots is not integral")
    except (ValueError, KeyError, struct.error) as exc:
        problems.append(f"qfeatures.qhm: {exc!r}")
    return quality, problems
