import pytest

from qhybrid.config import ConfigError, ExperimentConfig, load_config, parse_config, validate_config
from qhybrid.qfeatures import MAX_SHOTS


GOOD = """
# experiment settings
seed = 7
out_dir = runs/demo
train_subset = 1000
ae_epochs = 5          # inline comment
clf_widths = 32, 16, 8
augment = true
quantum_mode = sampled
shots = 256
"""


def test_parse_round_trip_types():
    cfg = parse_config(GOOD)
    assert cfg.seed == 7
    assert cfg.out_dir == "runs/demo"
    assert cfg.train_subset == 1000
    assert cfg.ae_epochs == 5
    assert cfg.clf_widths == (32, 16, 8)
    assert cfg.augment is True
    assert cfg.quantum_mode == "sampled"
    assert cfg.shots == 256
    # untouched keys keep their defaults
    assert cfg.clf_epochs == 50
    assert cfg.val_fraction == 0.1


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("learning_rate = 0.1")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("seed 12")


def test_bad_value_type():
    with pytest.raises(ConfigError, match="bad value for seed"):
        parse_config("seed = banana")


def test_bad_bool():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("augment = maybe")


def test_validation_ranges():
    with pytest.raises(ConfigError, match="val_fraction"):
        validate_config(ExperimentConfig(val_fraction=1.5))
    with pytest.raises(ConfigError, match="clf_dropout"):
        validate_config(ExperimentConfig(clf_dropout=1.0))
    with pytest.raises(ConfigError, match="quantum_mode"):
        validate_config(ExperimentConfig(quantum_mode="noisy"))
    with pytest.raises(ConfigError, match="augment_stage"):
        validate_config(ExperimentConfig(augment_stage="decoder"))
    with pytest.raises(ConfigError, match="ae_batch"):
        validate_config(ExperimentConfig(ae_batch=0))
    for shots in (0, MAX_SHOTS + 1):
        with pytest.raises(ConfigError, match="shots"):
            validate_config(ExperimentConfig(shots=shots))
    validate_config(ExperimentConfig(shots=MAX_SHOTS))
    with pytest.raises(ConfigError, match="lr_factor"):
        validate_config(ExperimentConfig(lr_factor=0.0))
    with pytest.raises(ConfigError, match="quantum_layout"):
        validate_config(ExperimentConfig(quantum_layout="bloch"))
    for rotate in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="rotate_max_deg"):
            validate_config(ExperimentConfig(rotate_max_deg=rotate))
    with pytest.raises(ConfigError, match="shift_max_px"):
        validate_config(ExperimentConfig(shift_max_px=-2))
    with pytest.raises(ConfigError, match="clf_widths"):
        validate_config(ExperimentConfig(clf_widths=(16, 0)))
    with pytest.raises(ConfigError, match="ae_lr"):
        validate_config(ExperimentConfig(ae_lr=-0.001))
    with pytest.raises(ConfigError, match="clf_lr"):
        validate_config(ExperimentConfig(clf_lr=0.0))
    with pytest.raises(ConfigError, match="check_latent_val_acc"):
        validate_config(ExperimentConfig(check_latent_val_acc=2.0))
    with pytest.raises(ConfigError, match="check_quantum_val_acc"):
        validate_config(ExperimentConfig(check_quantum_val_acc=-0.01))
    with pytest.raises(ConfigError, match="check_ae_val_mse"):
        validate_config(ExperimentConfig(check_ae_val_mse=float("inf")))
    with pytest.raises(ConfigError, match="check_ae_val_mse"):
        validate_config(ExperimentConfig(check_ae_val_mse=-1e-9))


def test_check_floors_accept_their_bounds():
    validate_config(ExperimentConfig(check_latent_val_acc=0.0, check_quantum_val_acc=1.0,
                                     check_ae_val_mse=0.0))


def test_referenced_paths_must_exist(tmp_path):
    missing = tmp_path / "nope-images"
    with pytest.raises(ConfigError, match="train_images"):
        validate_config(ExperimentConfig(train_images=str(missing)))
    present = tmp_path / "images"
    present.write_bytes(b"")
    validate_config(ExperimentConfig(train_images=str(present)))


def test_load_config_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD)
    cfg = load_config(path)
    assert cfg.seed == 7


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
