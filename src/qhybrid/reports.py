"""Report artifacts: RFC-4180 CSV (LF line endings), P5 PGM images,
confusion matrices, and classification metrics."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .archive import write_atomic
from .losses import cross_entropy_loss
from .network import Network
from .train import evaluate


def _csv_cell(value) -> str:
    if isinstance(value, float):
        text = repr(value)  # shortest round-trip, keeps artifacts byte-stable
    else:
        text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> None:
    lines = [",".join(_csv_cell(cell) for cell in header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Read back our own CSV output (plain cells, no embedded commas)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"empty CSV: {path}")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) from a [0, 1] float image."""
    if image.ndim != 2:
        raise ValueError(f"PGM needs a 2-D image, got shape {image.shape}")
    pixels = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    write_atomic(path, header + pixels.tobytes())


def confusion_matrix(true_idx: np.ndarray, pred_idx: np.ndarray,
                     n_classes: int = 10) -> np.ndarray:
    if len(true_idx) != len(pred_idx):
        raise ValueError(f"count mismatch: {len(true_idx)} true vs {len(pred_idx)} predicted")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true_idx.astype(np.int64), pred_idx.astype(np.int64)), 1)
    return counts


@dataclass
class EvalReport:
    accuracy: float
    precision: np.ndarray  # per class
    recall: np.ndarray  # per class
    confusion: np.ndarray  # (C, C) counts, rows = true class
    loss: float


def evaluate_classifier(net: Network, x: np.ndarray, y_onehot: np.ndarray) -> EvalReport:
    if len(x) != len(y_onehot):
        raise ValueError(f"feature/label count mismatch: {len(x)} vs {len(y_onehot)}")
    loss, preds = evaluate(net, x, y_onehot, cross_entropy_loss)
    confusion = confusion_matrix(y_onehot.argmax(axis=1), preds, y_onehot.shape[1])
    diag = np.diag(confusion).astype(np.float64)
    col_sums = confusion.sum(axis=0)
    row_sums = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        precision = np.where(col_sums > 0, diag / col_sums, 0.0)
        recall = np.where(row_sums > 0, diag / row_sums, 0.0)
    return EvalReport(
        accuracy=float(diag.sum() / len(x)),
        precision=precision,
        recall=recall,
        confusion=confusion,
        loss=loss,
    )


def write_confusion_csv(path, confusion: np.ndarray) -> None:
    n = confusion.shape[0]
    header = [""] + list(range(n))
    rows = [[c] + [int(v) for v in confusion[c]] for c in range(n)]
    write_csv(path, header, rows)


def write_metrics_csv(path, report: EvalReport) -> None:
    rows = [["accuracy", report.accuracy], ["loss", report.loss]]
    for c in range(len(report.precision)):
        rows.append([f"precision_{c}", float(report.precision[c])])
        rows.append([f"recall_{c}", float(report.recall[c])])
    write_csv(path, ["metric", "value"], rows)
