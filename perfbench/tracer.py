"""Span tracer that wraps qhybrid's public functions from outside the package.

Every wrapped call is a span. A span's self time is its duration minus the
time of the wrapped calls made inside it, so nested layers are not counted
twice. Spans are aggregated per name in memory and written out once, when the
traced process ends. Nothing under ``src/`` is edited: each function is
replaced at the module where its caller looks it up (for example
``qhybrid.pipeline.transform_features``), and methods are replaced on their
class.

A wrap target that no longer exists is recorded as missing instead of
failing, so a later change that deletes or renames a function only makes that
span's metrics go missing.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from importlib import import_module


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()  # spans whose count hook raised
        self._inner: list[float] = []  # per open span: time of its child spans

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, hook=None):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        inner, clock = self._inner, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - inner.pop()
                if inner:
                    inner[-1] += duration
                record[0] += 1
                record[1] += duration
                record[2] += own
            if hook is not None and name not in self.broken:
                try:
                    hook(self, args, kwargs, result, own)
                except Exception:  # noqa: BLE001 - a changed signature must not fail the run
                    self.broken.add(name)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "wrapped": sorted(self.wrapped - self.broken),
        }


# --- count hooks: (tracer, args, kwargs, result, self_s) -------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _uniform(tr, args, kwargs, result, own):
    n = len(result)
    size = "tiny" if n <= 16 else "medium" if n <= 4096 else "bulk"
    tr.add("rng.uniform.draws", n)
    tr.add(f"rng.uniform.{size}.calls", 1)
    tr.add(f"rng.uniform.{size}.self_s", own)


def _dense_forward(tr, args, kwargs, result, own):
    layer = args[0]
    tr.add("layers.Dense.flops", 2 * result.shape[0] * layer.in_width * layer.out_width)


def _dense_backward(tr, args, kwargs, result, own):
    layer = args[0]
    tr.add("layers.Dense.flops", 4 * result.shape[0] * layer.in_width * layer.out_width)


def _adam_step(tr, args, kwargs, result, own):
    params = _arg(args, kwargs, 1, "params")
    tr.add("optim.Adam.bytes_computed", 7 * 8 * sum(int(p.size) for p in params))


def _shots(tr, args, kwargs, result, own):
    tr.add("quantum.sample_from_probs.shots", len(result))


def _transform_rows(tr, args, kwargs, result, own):
    tr.add("qfeatures.transform_features.rows", len(result))


def _idx_bytes(tr, args, kwargs, result, own):
    images = _arg(args, kwargs, 0, "images_path")
    labels = _arg(args, kwargs, 1, "labels_path")
    tr.add("data.load_raw_dataset.bytes", os.path.getsize(images) + os.path.getsize(labels))


def _saved_bytes(tr, args, kwargs, result, own):
    tr.add("archive.save_archive.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _loaded_bytes(tr, args, kwargs, result, own):
    tr.add("archive.load_archive.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# (module where the caller looks the name up, attribute, span name, count hook)
WRAPS = [
    ("qhybrid.rng", "Rng.uniform", "rng.uniform", _uniform),
    ("qhybrid.rng", "Rng.permutation", "rng.permutation", None),
    ("qhybrid.rng", "Rng.split", "rng.split", None),
    ("qhybrid.layers", "Dense.forward", "layers.Dense.forward", _dense_forward),
    ("qhybrid.layers", "Dense.backward", "layers.Dense.backward", _dense_backward),
    ("qhybrid.layers", "BatchNorm.forward", "layers.BatchNorm.forward", None),
    ("qhybrid.layers", "BatchNorm.backward", "layers.BatchNorm.backward", None),
    ("qhybrid.layers", "Dropout.forward", "layers.Dropout.forward", None),
    ("qhybrid.network", "Network.forward", "network.Network.forward", None),
    ("qhybrid.network", "Network.backward", "network.Network.backward", None),
    ("qhybrid.optim", "Adam.step", "optim.Adam.step", _adam_step),
    ("qhybrid.train", "mse_loss", "losses.mse_loss", None),
    ("qhybrid.train", "cross_entropy_loss", "losses.cross_entropy_loss", None),
    ("qhybrid.reports", "cross_entropy_loss", "losses.cross_entropy_loss", None),
    ("qhybrid.pipeline", "train", "train.train", None),
    ("qhybrid.train", "evaluate", "train.evaluate", None),
    ("qhybrid.qfeatures", "sample_from_probs", "quantum.sample_from_probs", _shots),
    ("qhybrid.pipeline", "transform_features", "qfeatures.transform_features", _transform_rows),
    ("qhybrid.pipeline", "load_raw_dataset", "data.load_raw_dataset", _idx_bytes),
    ("qhybrid.pipeline", "augment", "data.augment", None),
    ("qhybrid.network", "save_archive", "archive.save_archive", _saved_bytes),
    ("qhybrid.pipeline", "save_archive", "archive.save_archive", _saved_bytes),
    ("qhybrid.network", "load_archive", "archive.load_archive", _loaded_bytes),
    ("qhybrid.archive", "load_archive", "archive.load_archive", _loaded_bytes),
    ("qhybrid.pipeline", "evaluate_classifier", "reports.evaluate_classifier", None),
    ("qhybrid.pipeline", "write_csv", "reports.write_csv", None),
    ("qhybrid.reports", "write_csv", "reports.write_csv", None),
    ("qhybrid.pipeline", "write_pgm", "reports.write_pgm", None),
    ("qhybrid.cli", "run_pipeline", "pipeline.run_pipeline", None),
]


def install(tracer: Tracer) -> None:
    """Replace every WRAPS target with a traced wrapper."""
    for module_name, attr, name, hook in WRAPS:
        *path, leaf = attr.split(".")
        try:
            owner = import_module(module_name)
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
        except (ImportError, AttributeError):
            continue  # its span stays out of tracer.wrapped, so its metrics go missing
        setattr(owner, leaf, tracer.wrap(name, fn, hook))
        tracer.wrapped.add(name)


# --- per-layer metrics -----------------------------------------------------

class Missing(Exception):
    """A metric's span was never wrapped, so it cannot be measured."""


class _View:
    """Lookups into one traced process's dump."""

    def __init__(self, dump: dict):
        self.spans = dump["spans"]
        self.counts = dump["counts"]
        self.wrapped = set(dump["wrapped"])

    def _span(self, name):
        if name not in self.wrapped:
            raise Missing(name)
        return self.spans[name]

    def calls(self, name):
        return self._span(name)[0]

    def self_s(self, name):
        return self._span(name)[2]

    def count(self, key, span):
        self._span(span)
        return self.counts.get(key, 0)


def _per_s(amount, seconds, scale=1.0):
    return amount / seconds / scale if seconds > 0 else 0.0


def _dense_self(v):
    return v.self_s("layers.Dense.forward") + v.self_s("layers.Dense.backward")


# name -> (exact count?, value from one traced process)
SPAN_METRICS = {
    "rng.uniform.calls": (True, lambda v: v.calls("rng.uniform")),
    "rng.uniform.draws": (True, lambda v: v.count("rng.uniform.draws", "rng.uniform")),
    "rng.uniform.self_s": (False, lambda v: v.self_s("rng.uniform")),
    "rng.uniform.draws_per_s": (False, lambda v: _per_s(
        v.count("rng.uniform.draws", "rng.uniform"), v.self_s("rng.uniform"))),
    **{
        f"rng.uniform.{size}.{what}": (what == "calls", lambda v, key=f"rng.uniform.{size}.{what}":
                                       v.count(key, "rng.uniform"))
        for size in ("tiny", "medium", "bulk") for what in ("calls", "self_s")
    },
    "rng.permutation.self_s": (False, lambda v: v.self_s("rng.permutation")),
    "rng.split.calls": (True, lambda v: v.calls("rng.split")),
    "rng.split.self_s": (False, lambda v: v.self_s("rng.split")),
    "layers.Dense.forward.self_s": (False, lambda v: v.self_s("layers.Dense.forward")),
    "layers.Dense.backward.self_s": (False, lambda v: v.self_s("layers.Dense.backward")),
    "layers.Dense.flops": (True, lambda v: v.count("layers.Dense.flops", "layers.Dense.forward")),
    "layers.Dense.gflop_per_s": (False, lambda v: _per_s(
        v.count("layers.Dense.flops", "layers.Dense.forward"), _dense_self(v), 1e9)),
    "layers.BatchNorm.forward.self_s": (False, lambda v: v.self_s("layers.BatchNorm.forward")),
    "layers.BatchNorm.backward.self_s": (False, lambda v: v.self_s("layers.BatchNorm.backward")),
    "layers.Dropout.forward.self_s": (False, lambda v: v.self_s("layers.Dropout.forward")),
    "network.Network.forward.self_s": (False, lambda v: v.self_s("network.Network.forward")),
    "network.Network.backward.self_s": (False, lambda v: v.self_s("network.Network.backward")),
    "optim.Adam.step.calls": (True, lambda v: v.calls("optim.Adam.step")),
    "optim.Adam.step.self_s": (False, lambda v: v.self_s("optim.Adam.step")),
    "optim.Adam.bytes_computed": (True, lambda v: v.count(
        "optim.Adam.bytes_computed", "optim.Adam.step")),
    "optim.Adam.gb_per_s": (False, lambda v: _per_s(
        v.count("optim.Adam.bytes_computed", "optim.Adam.step"),
        v.self_s("optim.Adam.step"), 1e9)),
    "losses.mse_loss.self_s": (False, lambda v: v.self_s("losses.mse_loss")),
    "losses.cross_entropy_loss.self_s": (False, lambda v: v.self_s("losses.cross_entropy_loss")),
    "train.train.self_s": (False, lambda v: v.self_s("train.train")),
    "train.evaluate.self_s": (False, lambda v: v.self_s("train.evaluate")),
    "quantum.sample_from_probs.calls": (True, lambda v: v.calls("quantum.sample_from_probs")),
    "quantum.sample_from_probs.shots": (True, lambda v: v.count(
        "quantum.sample_from_probs.shots", "quantum.sample_from_probs")),
    "quantum.sample_from_probs.self_s": (False, lambda v: v.self_s("quantum.sample_from_probs")),
    "qfeatures.transform_features.rows": (True, lambda v: v.count(
        "qfeatures.transform_features.rows", "qfeatures.transform_features")),
    "qfeatures.transform_features.self_s": (False, lambda v: v.self_s(
        "qfeatures.transform_features")),
    # rows x 13 blocks x 14 gates x 32 amplitudes
    "qfeatures.amplitude_ops": (True, lambda v: 13 * 14 * 32 * v.count(
        "qfeatures.transform_features.rows", "qfeatures.transform_features")),
    "data.load_raw_dataset.bytes": (True, lambda v: v.count(
        "data.load_raw_dataset.bytes", "data.load_raw_dataset")),
    "data.load_raw_dataset.self_s": (False, lambda v: v.self_s("data.load_raw_dataset")),
    "data.augment.calls": (True, lambda v: v.calls("data.augment")),
    "data.augment.self_s": (False, lambda v: v.self_s("data.augment")),
    "archive.save_archive.bytes": (True, lambda v: v.count(
        "archive.save_archive.bytes", "archive.save_archive")),
    "archive.save_archive.self_s": (False, lambda v: v.self_s("archive.save_archive")),
    "archive.load_archive.bytes": (True, lambda v: v.count(
        "archive.load_archive.bytes", "archive.load_archive")),
    "archive.load_archive.self_s": (False, lambda v: v.self_s("archive.load_archive")),
    "reports.evaluate_classifier.self_s": (False, lambda v: v.self_s(
        "reports.evaluate_classifier")),
    "reports.write_csv.self_s": (False, lambda v: v.self_s("reports.write_csv")),
    "reports.write_pgm.self_s": (False, lambda v: v.self_s("reports.write_pgm")),
    "pipeline.run_pipeline.self_s": (False, lambda v: v.self_s("pipeline.run_pipeline")),
}


def span_metrics(dump: dict) -> tuple[dict, set]:
    """Every SPAN_METRICS value for one traced process, and the names missing."""
    view = _View(dump)
    values, missing = {}, set()
    for name, (_, fn) in SPAN_METRICS.items():
        try:
            values[name] = fn(view)
        except Missing:
            missing.add(name)
    return values, missing


def self_time_total(dump: dict) -> float:
    return sum(record[2] for record in dump["spans"].values())


def combine(samples: list[dict], exact: set) -> tuple[dict, list[str]]:
    """Median of each metric over traced processes; exact counts must agree.

    Returns the combined values and the names whose counts differed.
    """
    out, unequal = {}, []
    for name in samples[0]:
        values = [s[name] for s in samples if name in s]
        if name in exact:
            if len(set(values)) != 1 or len(values) != len(samples):
                unequal.append(name)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, unequal
