"""Experiment configuration: flat ``key = value`` files with # comments."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .qfeatures import LAYOUTS, MAX_SHOTS, MODES


class ConfigError(Exception):
    """Unparseable or invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    # data paths (IDX, optionally gzipped)
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    # run identity
    seed: int = 42
    out_dir: str = "runs/exp"
    train_subset: int = 0  # 0 = full training set
    val_fraction: float = 0.1
    # autoencoder stage
    ae_epochs: int = 50
    ae_batch: int = 128
    ae_lr: float = 0.001
    # classifier stage
    clf_epochs: int = 50
    clf_batch: int = 128
    clf_lr: float = 0.001
    clf_widths: tuple = (128, 64, 32)
    clf_dropout: float = 0.3
    lr_step: int = 15
    lr_factor: float = 0.5
    # augmentation (per-stage opt-in)
    augment: bool = False
    augment_stage: str = "clf"  # ae | clf | both
    rotate_max_deg: float = 10.0
    shift_max_px: int = 2
    hflip: bool = False
    augment_prob: float = 0.5
    augment_copies: int = 1
    # quantum transform
    quantum_mode: str = "exact"  # exact | sampled
    shots: int = 1024
    quantum_layout: str = "marginal"  # marginal | histogram
    # --check thresholds
    check_ae_val_mse: float = 0.03
    check_latent_val_acc: float = 0.78
    check_quantum_val_acc: float = 0.60


PATH_KEYS = ("train_images", "train_labels", "test_images", "test_labels")


def _coerce(key: str, text: str, kind):
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind is tuple:
            return tuple(int(part.strip()) for part in text.split(",") if part.strip())
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    fields = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    kinds = {name: type(getattr(ExperimentConfig(), name)) for name in fields}
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, value, kinds[key])
    return ExperimentConfig(**values)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if not cfg.out_dir:
        raise ConfigError("out_dir must name a directory, got an empty value")
    if not 0.0 < cfg.val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {cfg.val_fraction}")
    for key in ("ae_epochs", "clf_epochs", "train_subset", "augment_copies"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    for key, least in (("ae_batch", 1), ("clf_batch", 2), ("lr_step", 1)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(cfg, key)}")
    if not 1 <= cfg.shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be in [1, {MAX_SHOTS}], got {cfg.shots}")
    if not 0.0 <= cfg.clf_dropout < 1.0:
        raise ConfigError(f"clf_dropout must be in [0, 1), got {cfg.clf_dropout}")
    if not 0.0 < cfg.lr_factor <= 1.0:
        raise ConfigError(f"lr_factor must be in (0, 1], got {cfg.lr_factor}")
    for key in ("ae_lr", "clf_lr"):
        value = getattr(cfg, key)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{key} must be finite and > 0, got {value}")
    for key in ("rotate_max_deg", "shift_max_px"):
        value = getattr(cfg, key)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{key} must be finite and >= 0, got {value}")
    if cfg.quantum_mode not in MODES:
        raise ConfigError(f"quantum_mode must be one of {MODES}, got {cfg.quantum_mode!r}")
    if cfg.quantum_layout not in LAYOUTS:
        raise ConfigError(f"quantum_layout must be one of {LAYOUTS}, got {cfg.quantum_layout!r}")
    if cfg.augment_stage not in ("ae", "clf", "both"):
        raise ConfigError(f"augment_stage must be ae, clf, or both, got {cfg.augment_stage!r}")
    if not cfg.clf_widths:
        raise ConfigError("clf_widths must name at least one hidden width")
    if min(cfg.clf_widths) < 1:
        raise ConfigError(f"clf_widths must all be >= 1, got {cfg.clf_widths}")
    if cfg.seed < 0 or cfg.seed >= 2**64:
        raise ConfigError(f"seed must fit in 64 bits, got {cfg.seed}")
    if not 0.0 <= cfg.augment_prob <= 1.0:
        raise ConfigError(f"augment_prob must be in [0, 1], got {cfg.augment_prob}")
    for key in ("check_latent_val_acc", "check_quantum_val_acc"):
        if not 0.0 <= getattr(cfg, key) <= 1.0:
            raise ConfigError(f"{key} must be in [0, 1], got {getattr(cfg, key)}")
    if not 0.0 <= cfg.check_ae_val_mse < math.inf:
        raise ConfigError(f"check_ae_val_mse must be finite and >= 0, got {cfg.check_ae_val_mse}")
    for key in PATH_KEYS:
        value = getattr(cfg, key)
        if value and not Path(value).is_file():
            raise ConfigError(f"{key} is not a file: {value}")
    return cfg


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse the file, replace the fields given as overrides that are not
    None, then validate, so an override rescues a bad value it replaces."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    given = {key: value for key, value in overrides.items() if value is not None}
    return validate_config(dataclasses.replace(parse_config(text), **given))


def require_data(cfg: ExperimentConfig) -> None:
    missing = [key for key in PATH_KEYS if not getattr(cfg, key)]
    if missing:
        raise ConfigError(f"config must set data paths: {', '.join(missing)}")
