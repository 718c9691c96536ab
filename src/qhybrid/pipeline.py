"""Experiment stages and the cached end-to-end pipeline.

Every stage derives its randomness from Rng(seed).split(<stage label>), so
stages are independent of execution order and re-runs are byte-identical.
``STAGES`` is the one table of the stage graph. A stage's key hashes the
config fields it reads, the digests of the data files among them (not their
paths) and the keys its deps had when it ran; ``stages.json`` in the output
directory records it together with the stage's results, which the summary
and --check read, and the environment that built it (``run_env``: a digest
of the package's source, the numpy version and the OpenBLAS kernel), kept
outside the key. A stage re-runs when an output is missing, its key or its
environment changed, --force is given, or an upstream stage ran.
``run_pipeline`` runs a target stage together with every stage it depends
on, so no stage is served from outputs built from another config.

Keys and file digests are BLAKE2b-256, ``hashlib.blake2b(..., digest_size=32)``,
taken from CPython's own ``_blake2`` module: ``hashlib`` would map and
initialise OpenSSL's libcrypto (about 3.5 MB resident) in every run.
"""

from __future__ import annotations

import ctypes
import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

try:
    from _blake2 import blake2b
except ImportError:  # a Python built without its own BLAKE2
    from hashlib import blake2b

from .archive import load_archive, save_archive, write_atomic
from .config import PATH_KEYS, ExperimentConfig, require_data
from .data import AugmentSpec, PixelRows, RawDataset, augment, load_raw_dataset, one_hot
from .network import Autoencoder, Network, make_autoencoder, make_classifier
from .optim import Adam
from .qfeatures import LAYOUTS, MODES, ScalingStats, transform_features
from .reports import (
    evaluate_classifier,
    write_confusion_csv,
    write_csv,
    write_metrics_csv,
    write_pgm,
)
from .rng import Rng
from .train import train

FEATURE_SETS = ("latent", "quantum")
SPLITS = ("train", "val", "test")


class StageError(Exception):
    """A pipeline stage failed; the message carries the stage name."""


@dataclass
class StagePaths:
    out_dir: Path

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        self.ae_model = self.out_dir / "ae_model.qhm"
        self.ae_loss_csv = self.out_dir / "ae_loss.csv"
        self.recon_dir = self.out_dir / "recon"
        self.latents = self.out_dir / "latents.qhm"
        self.qfeatures = self.out_dir / "qfeatures.qhm"
        out = self.out_dir
        self.clf_model = {w: out / f"clf_{w}.qhm" for w in FEATURE_SETS}
        self.clf_history_csv = {w: out / f"clf_{w}_history.csv" for w in FEATURE_SETS}
        self.eval_confusion_csv = {w: out / f"eval_{w}_confusion.csv" for w in FEATURE_SETS}
        self.eval_metrics_csv = {w: out / f"eval_{w}_metrics.csv" for w in FEATURE_SETS}
        self.summary = self.out_dir / "summary.txt"
        self.manifest = self.out_dir / "stages.json"


def load_splits(cfg: ExperimentConfig) -> dict[str, RawDataset]:
    """The train, val and test splits by name. The training set is
    seed-shuffled, cut to the configured subset, and its last val_fraction
    held out; the test files stay untouched."""
    require_data(cfg)
    raw_train = load_raw_dataset(cfg.train_images, cfg.train_labels)
    raw_test = load_raw_dataset(cfg.test_images, cfg.test_labels)
    if len(raw_test) == 0:
        raise StageError(f"test_images {cfg.test_images} holds no images")
    order = Rng(cfg.seed).split("valsplit").permutation(len(raw_train))
    if cfg.train_subset:
        order = order[: cfg.train_subset]
    n_val = max(1, int(round(len(order) * cfg.val_fraction)))
    if n_val >= len(order):
        raise StageError(f"validation split swallows all {len(order)} rows")
    return {"train": raw_train.take(order[:-n_val]), "val": raw_train.take(order[-n_val:]),
            "test": raw_test}


def _augment_spec(cfg: ExperimentConfig) -> AugmentSpec:
    return AugmentSpec(
        rotate_max_deg=cfg.rotate_max_deg,
        shift_max_px=cfg.shift_max_px,
        hflip_enabled=cfg.hflip,
        probability=cfg.augment_prob,
    )


def _augments(cfg, kind: str) -> bool:
    """Whether the stage named ``kind`` augments; only train-ae and encode can."""
    if not cfg.augment:
        return False
    if kind == "train-ae":
        return cfg.augment_stage in ("ae", "both")
    return kind == "encode" and cfg.augment_stage in ("clf", "both") and cfg.augment_copies > 0


def stage_train_ae(cfg: ExperimentConfig, paths: StagePaths,
                   splits: dict[str, RawDataset]) -> dict:
    rng = Rng(cfg.seed).split("train-ae")
    x_val = PixelRows(splits["val"].images)
    train_images = splits["train"].images
    ae = make_autoencoder(rng.split("init"))
    if _augments(cfg, "train-ae"):
        spec = _augment_spec(cfg)

        def x_train(epoch: int) -> PixelRows:
            return PixelRows(augment(train_images, spec, rng.split(f"augment/{epoch}")))
    else:
        x_train = PixelRows(train_images)

    history = train(
        ae.net, x_train, None,
        epochs=cfg.ae_epochs, batch_size=cfg.ae_batch, adam=Adam(alpha=cfg.ae_lr),
        rng=rng.split("loop"), x_val=x_val, lr_step=cfg.lr_step, lr_factor=cfg.lr_factor,
    )
    ae.save(paths.ae_model)
    write_csv(paths.ae_loss_csv, ["epoch", "train_mse", "val_mse"],
              [[rec.epoch, rec.train_loss, rec.val_loss] for rec in history])
    paths.recon_dir.mkdir(parents=True, exist_ok=True)
    for stale in paths.recon_dir.glob("recon_*.pgm"):  # a smaller val split writes fewer
        stale.unlink()
    originals = x_val[:10]
    recon = ae.reconstruct(originals)
    for i in range(len(originals)):
        write_pgm(paths.recon_dir / f"recon_{i:02d}_orig.pgm", originals[i].reshape(28, 28))
        write_pgm(paths.recon_dir / f"recon_{i:02d}_ae.pgm", recon[i].reshape(28, 28))
    if not history:
        return {}
    return {"train_mse": history[-1].train_loss, "val_mse": history[-1].val_loss}


def _with_augmented_copies(cfg: ExperimentConfig, images: np.ndarray) -> np.ndarray:
    """images followed by ``augment_copies`` augmented copies of them. Each
    copy is written into its slot of the stack as soon as it exists, so no
    list of copies is held next to the stack."""
    spec = _augment_spec(cfg)
    rng = Rng(cfg.seed).split("encode-augment")
    n = len(images)
    stack = np.empty((n * (1 + cfg.augment_copies), *images.shape[1:]), images.dtype)
    stack[:n] = images
    for c in range(cfg.augment_copies):
        stack[n * (c + 1) : n * (c + 2)] = augment(images, spec, rng.split(f"copy/{c}"))
    return stack


def stage_encode(cfg: ExperimentConfig, paths: StagePaths,
                 splits: dict[str, RawDataset]) -> dict:
    """Latents of every split. This stage reads the splits last, so the run
    hands them over; each split's pixels, and the augmented stack built from
    the train pixels, are freed as soon as their latents exist."""
    ae = Autoencoder.load(paths.ae_model)
    copies = cfg.augment_copies if _augments(cfg, "encode") else 0
    entries, counts = [], {}
    for split in SPLITS:
        data = splits.pop(split)
        if split == "train" and copies:
            # expand the classifier's training set with augmented copies;
            # the originals keep their leading positions
            data = RawDataset(_with_augmented_copies(cfg, data.images),
                              np.tile(data.labels, 1 + copies))
        entries += [(f"latents/{split}", ae.encode(PixelRows(data.images))),
                    (f"labels/{split}", data.labels.astype(np.float64))]
        counts[split] = len(data)
        del data
    save_archive(entries, paths.latents)
    return counts


def stage_qtransform(cfg: ExperimentConfig, paths: StagePaths) -> None:
    entries = dict(load_archive(paths.latents))
    stats = ScalingStats.fit(entries["latents/train"])
    rng = Rng(cfg.seed).split("qtransform")
    out = [
        ("qscale/min", stats.minimum),
        ("qscale/max", stats.maximum),
        ("meta/mode", np.array([float(MODES.index(cfg.quantum_mode))])),
        ("meta/shots", np.array([float(cfg.shots)])),
        ("meta/seed", np.array([float(cfg.seed)])),
        ("meta/layout", np.array([float(LAYOUTS.index(cfg.quantum_layout))])),
    ]
    for split in SPLITS:
        features = transform_features(
            entries[f"latents/{split}"], stats,
            mode=cfg.quantum_mode, shots=cfg.shots, rng=rng.split(split),
            layout=cfg.quantum_layout,
        )
        out.append((f"qfeat/{split}", features))
        out.append((f"labels/{split}", entries[f"labels/{split}"]))
    save_archive(out, paths.qfeatures)


_FEATURE_ARCHIVES = {"latent": (lambda p: p.latents, "latents"),
                     "quantum": (lambda p: p.qfeatures, "qfeat")}


def _features_for(which: str, paths: StagePaths, splits: tuple[str, ...]):
    """(features, one-hot labels) of each named split of feature set ``which``."""
    archive, key = _FEATURE_ARCHIVES[which]
    entries = dict(load_archive(archive(paths)))
    return [(entries[f"{key}/{split}"], one_hot(entries[f"labels/{split}"].astype(np.int64)))
            for split in splits]


def stage_train_clf(cfg: ExperimentConfig, paths: StagePaths, which: str) -> dict:
    (x_train, y_train), (x_val, y_val) = _features_for(which, paths, ("train", "val"))
    if len(x_train) != len(y_train):
        raise StageError(f"feature/label count mismatch: {len(x_train)} vs {len(y_train)}")
    rng = Rng(cfg.seed).split(f"train-clf/{which}")
    net = make_classifier(
        x_train.shape[1], rng.split("init"),
        hidden=tuple(cfg.clf_widths), dropout=cfg.clf_dropout,
    )
    history = train(
        net, x_train, y_train,
        epochs=cfg.clf_epochs, batch_size=cfg.clf_batch, adam=Adam(alpha=cfg.clf_lr),
        rng=rng.split("loop"), x_val=x_val, y_val=y_val,
        lr_step=cfg.lr_step, lr_factor=cfg.lr_factor,
    )
    net.save(paths.clf_model[which])
    write_csv(
        paths.clf_history_csv[which],
        ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"],
        [[r.epoch, r.train_loss, r.train_acc, r.val_loss, r.val_acc] for r in history],
    )
    return asdict(history[-1]) if history else {}


def stage_eval(cfg: ExperimentConfig, paths: StagePaths, which: str) -> dict:
    [(x_test, y_test)] = _features_for(which, paths, ("test",))
    net = Network.load(paths.clf_model[which])
    report = evaluate_classifier(net, x_test, y_test)
    write_confusion_csv(paths.eval_confusion_csv[which], report.confusion)
    write_metrics_csv(paths.eval_metrics_csv[which], report)
    return {"accuracy": report.accuracy, "loss": report.loss}


def stage_summary(cfg: ExperimentConfig, paths: StagePaths, records: dict) -> None:
    """Write summary.txt from the results in the stage records."""
    ae_final = records["train-ae"]["results"]
    counts = records["encode"]["results"]
    lines = [
        "hybrid quantum-classical experiment summary",
        "===========================================",
        f"seed: {cfg.seed}",
        f"samples: train={counts['train']} val={counts['val']} test={counts['test']}",
        f"quantum mode: {cfg.quantum_mode} (shots={cfg.shots}, layout={cfg.quantum_layout})",
        "",
    ]
    if ae_final:
        lines.append(
            "autoencoder: train_mse={:.6f} val_mse={:.6f} (epochs={})".format(
                ae_final["train_mse"], ae_final["val_mse"], cfg.ae_epochs
            )
        )
    else:
        lines.append("autoencoder: no training epochs recorded")
    lines += [
        "",
        "classifier            train_acc  val_acc  test_acc  test_loss",
    ]
    for which, label in (("latent", "latent (baseline)"), ("quantum", "quantum features")):
        hist = records[f"clf-{which}"]["results"]
        metrics = records[f"eval-{which}"]["results"]
        lines.append(
            "{:<20}  {:>9} {:>8} {:>9} {:>10}".format(
                label,
                "{:.4f}".format(hist["train_acc"]) if hist else "n/a",
                "{:.4f}".format(hist["val_acc"]) if hist else "n/a",
                "{:.4f}".format(metrics["accuracy"]),
                "{:.4f}".format(metrics["loss"]),
            )
        )
    write_atomic(paths.summary, ("\n".join(lines) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class Stage:
    """One row of the stage graph."""

    name: str
    deps: tuple[str, ...]
    outputs: Callable[[StagePaths], tuple[Path, ...]]
    run: Callable  # (fields, paths, PipelineRun) -> results; fields holds only ``reads``
    reads: tuple[str, ...]  # the config fields the stage reads


_SPLIT_FIELDS = (*PATH_KEYS, "seed", "train_subset", "val_fraction")
_AUGMENT_FIELDS = ("augment", "augment_stage", "rotate_max_deg", "shift_max_px", "hflip",
                   "augment_prob")
_QUANTUM_FIELDS = ("seed", "quantum_mode", "shots", "quantum_layout")
_CLF_FIELDS = ("seed", "clf_widths", "clf_dropout", "clf_epochs", "clf_batch", "clf_lr",
               "lr_step", "lr_factor")

STAGES = {stage.name: stage for stage in (
    Stage("train-ae", (), lambda p: (p.ae_model, p.ae_loss_csv, p.recon_dir),
          lambda cfg, p, run: stage_train_ae(cfg, p, run.splits()),
          (*_SPLIT_FIELDS, *_AUGMENT_FIELDS, "ae_epochs", "ae_batch", "ae_lr", "lr_step",
           "lr_factor")),
    Stage("encode", ("train-ae",), lambda p: (p.latents,),
          lambda cfg, p, run: stage_encode(cfg, p, run.splits(last_read=True)),
          (*_SPLIT_FIELDS, *_AUGMENT_FIELDS, "augment_copies")),
    Stage("qtransform", ("encode",), lambda p: (p.qfeatures,),
          lambda cfg, p, _: stage_qtransform(cfg, p), _QUANTUM_FIELDS),
    Stage("clf-latent", ("encode",),
          lambda p: (p.clf_model["latent"], p.clf_history_csv["latent"]),
          lambda cfg, p, _: stage_train_clf(cfg, p, "latent"), _CLF_FIELDS),
    Stage("clf-quantum", ("qtransform",),
          lambda p: (p.clf_model["quantum"], p.clf_history_csv["quantum"]),
          lambda cfg, p, _: stage_train_clf(cfg, p, "quantum"), _CLF_FIELDS),
    Stage("eval-latent", ("clf-latent",),
          lambda p: (p.eval_confusion_csv["latent"], p.eval_metrics_csv["latent"]),
          lambda cfg, p, _: stage_eval(cfg, p, "latent"), ()),
    Stage("eval-quantum", ("clf-quantum",),
          lambda p: (p.eval_confusion_csv["quantum"], p.eval_metrics_csv["quantum"]),
          lambda cfg, p, _: stage_eval(cfg, p, "quantum"), ()),
    Stage("summary", ("eval-latent", "eval-quantum"), lambda p: (p.summary,),
          lambda cfg, p, run: stage_summary(cfg, p, run.records),
          (*_QUANTUM_FIELDS, "ae_epochs")),
)}


def _file_digest(path) -> str:
    digest = blake2b(digest_size=32)
    with open(path, "rb") as f:
        # 64 KiB chunks stay under malloc's mmap threshold; 1 MiB chunks raised
        # it and left the later training arrays a peak RSS 4 MB higher
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class PipelineRun:
    """One invocation over an output directory: runs stages by name and
    serves a stage from the cache when its record in stages.json matches."""

    def __init__(self, cfg: ExperimentConfig, *, force: bool = False, log=print):
        self.cfg, self.force, self.log = cfg, force, log
        self.env = run_env()
        self.paths = StagePaths(cfg.out_dir)
        self.paths.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            records = json.loads(self.paths.manifest.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):
            records = {}
        if not isinstance(records, dict):  # a manifest of another shape holds no record
            records = {}
        self.records = {name: rec for name, rec in records.items()  # nor does such a record
                        if isinstance(rec, dict) and isinstance(rec.get("reads"), dict)
                        and isinstance(rec.get("env"), dict)
                        and {"inputs", "deps", "results"} <= rec.keys()}
        self.ran: set[str] = set()
        self._digests: dict[str, str] | None = None  # _file_digest per data path key
        self._splits: dict[str, RawDataset] | None = None

    def run_stage(self, name: str) -> None:
        """Run the named stage, or log that it is cached. Its deps must have
        been through run_stage first; run_pipeline sees to that."""
        stage = STAGES[name]
        record = self._record(stage)
        reason = self._why_run(stage, record)
        if reason is None:
            self.log(f"[{name}] cached")
            return
        self.log(f"[{name}] running: {reason}")
        # a stage that fails partway must leave no record its old outputs match
        if self.records.pop(name, None) is not None:
            self._save_records()
        fields = {field: getattr(self.cfg, field) for field in stage.reads}
        start, faults = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            results = stage.run(SimpleNamespace(**fields), self.paths, self)
        except Exception as exc:
            raise StageError(f"{name}: {exc}") from exc
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.log(f"[{name}] done: {time.perf_counter() - start:.3f} s, "
                 f"maxrss {usage.ru_maxrss / 1024:.1f} MB, "
                 f"{usage.ru_minflt - faults} minor faults")
        self.records[name] = {**record, "results": results, "env": self.env}
        self._save_records()
        self.ran.add(name)

    def _record(self, stage: Stage) -> dict:
        data_files = [field for field in stage.reads if field in PATH_KEYS]
        if data_files and self._digests is None:
            require_data(self.cfg)
            self._digests = {key: _file_digest(getattr(self.cfg, key)) for key in PATH_KEYS}
        # A data file is keyed on its bytes only, so the same files in
        # another directory match; a stage that does not augment keys its
        # augmentation fields as null. The JSON round trip makes the record
        # compare equal to its copy read back from stages.json (tuples
        # become lists).
        idle = () if _augments(self.cfg, stage.name) else (*_AUGMENT_FIELDS, "augment_copies")
        record = json.loads(json.dumps({
            "reads": {field: None if field in idle else getattr(self.cfg, field)
                      for field in stage.reads if field not in PATH_KEYS},
            "inputs": {field: self._digests[field] for field in data_files},
            "deps": {dep: self.records.get(dep, {}).get("key") for dep in stage.deps},
        }))
        record["key"] = blake2b(json.dumps(record, sort_keys=True).encode(),
                                digest_size=32).hexdigest()
        return record

    def _why_run(self, stage: Stage, record: dict) -> str | None:
        """The reason the stage must run, or None when it is cached."""
        old = self.records.get(stage.name)
        if self.force:
            return "--force"
        if old is None:
            return "no record"
        if not all(path.exists() for path in stage.outputs(self.paths)):
            return "output missing"
        changed = [f for f in record["reads"] if old["reads"].get(f) != record["reads"][f]]
        if changed:
            return f"{', '.join(changed)} changed"
        if old["inputs"] != record["inputs"]:
            return "input changed"
        if old["env"].get("code") != self.env["code"]:
            return "code changed"
        moved = [f"{fact} {old['env'].get(fact)} -> {self.env[fact]}" for fact in ("numpy", "blas")
                 if old["env"].get(fact) != self.env[fact]]
        if moved:
            return f"numeric environment changed ({', '.join(moved)})"
        if old["deps"] != record["deps"] or self.ran.intersection(stage.deps):
            return "upstream ran"
        return None

    def splits(self, *, last_read: bool = False) -> dict[str, RawDataset]:
        """The config's splits, loaded at most once per run. The stage that
        reads them last passes ``last_read=True`` and takes them over: the
        run keeps no reference, so they are freed when that stage lets go."""
        splits = self._splits if self._splits is not None else load_splits(self.cfg)
        self._splits = None if last_read else splits
        return splits

    def _save_records(self) -> None:
        text = json.dumps(self.records, indent=2, sort_keys=True) + "\n"
        write_atomic(self.paths.manifest, text.encode("utf-8"))


def stage_closure(target: str) -> list[str]:
    """The target and every stage it depends on, directly or through other
    stages, in table order."""
    needed = {target}
    # a dep always sits earlier in STAGES, so one backward pass closes the set
    for name in reversed(STAGES):
        if name in needed:
            needed.update(STAGES[name].deps)
    return [name for name in STAGES if name in needed]


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, or None when numpy ships without one."""
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(found[0])) if found else None


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU, for example
    ``SkylakeX``, or ``none``. Trained bytes repeat per kernel."""
    blas = _openblas()
    if blas is None:
        return "none"
    name = blas.scipy_openblas_get_corename64_
    name.argtypes, name.restype = [], ctypes.c_char_p
    return name().decode()


def code_digest() -> str:
    """BLAKE2b-256 over the name and bytes of every module of the package, in
    name order: stages reach each other's modules through imports, so the
    whole package counts as the code of every stage."""
    digest = blake2b(digest_size=32)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_env() -> dict:
    """The facts a stage's bytes depend on beyond its key, taken once per run."""
    return {"code": code_digest(), "numpy": np.__version__, "blas": blas_core()}


@contextmanager
def one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block, and on the
    previous count after it; do nothing when numpy ships without one. A
    product over 784 inputs rounds differently on two threads, so the pin
    makes trained artifacts independent of the machine's core count."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def run_pipeline(cfg: ExperimentConfig, target: str = "summary", *, force: bool = False,
                 log=print) -> str | None:
    """Run stage_closure(target) with per-stage caching; --force re-runs each
    of those stages, which run under ``one_blas_thread``. Returns the summary
    text when the target is ``summary``."""
    run = PipelineRun(cfg, force=force, log=log)
    with one_blas_thread():
        for name in stage_closure(target):
            run.run_stage(name)
    if target == "summary":
        return run.paths.summary.read_text(encoding="utf-8")
    return None


def check_thresholds(cfg: ExperimentConfig, paths: StagePaths, target: str) -> list[str]:
    """Compare the results recorded in stages.json against the --check floors
    of the stages in the target's closure; no other stage's record is read."""
    closure = stage_closure(target)
    records = json.loads(paths.manifest.read_text(encoding="utf-8"))
    failures = []
    if "train-ae" in closure:
        ae_final = records["train-ae"]["results"]
        if not ae_final or not np.isfinite(ae_final["val_mse"]):
            failures.append("autoencoder history records no validation MSE")
        elif ae_final["val_mse"] > cfg.check_ae_val_mse:
            failures.append(
                f"autoencoder val MSE {ae_final['val_mse']:.6f} > {cfg.check_ae_val_mse}"
            )
    for which, floor in (("latent", cfg.check_latent_val_acc),
                         ("quantum", cfg.check_quantum_val_acc)):
        if f"clf-{which}" not in closure:
            continue
        hist = records[f"clf-{which}"]["results"]
        if not hist:
            failures.append(f"{which} classifier history is empty")
        elif hist["val_acc"] < floor:
            failures.append(f"{which} val accuracy {hist['val_acc']:.4f} < {floor}")
    return failures
