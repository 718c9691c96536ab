import gzip
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import DONE, EPOCH, idx_image_bytes, idx_label_bytes

import qhybrid
from qhybrid.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, main
from qhybrid.config import load_config
from qhybrid.pipeline import StagePaths, load_splits


def test_stage_verbs_in_sequence(make_config, tmp_path, capsys):
    out_dir = tmp_path / "staged"
    cfg = make_config(out_dir=out_dir, clf_epochs=2)
    for verb, extra in (
        ("train-ae", []),
        ("encode", []),
        ("qtransform", []),
        ("train-clf", ["--features", "latent"]),
        ("train-clf", ["--features", "quantum"]),
        ("eval", ["--features", "latent"]),
        ("eval", ["--features", "quantum"]),
    ):
        code = main(["--config", str(cfg), verb] + extra)
        assert code == EXIT_OK, f"{verb} failed: {capsys.readouterr().err}"
    paths = StagePaths(out_dir)
    assert paths.eval_metrics_csv["latent"].exists()
    assert paths.eval_metrics_csv["quantum"].exists()


def test_pipeline_verb_prints_summary(make_config, tmp_path, capsys):
    cfg = make_config(out_dir=tmp_path / "p", ae_epochs=1, clf_epochs=1)
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "latent (baseline)" in out
    assert "quantum features" in out


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.cfg"), "pipeline"])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_bad_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [
    ("rotate_max_deg", -5),
    ("rotate_max_deg", "inf"),
    ("rotate_max_deg", "1e400"),
    ("rotate_max_deg", "nan"),
    ("shift_max_px", -1),
    ("clf_widths", "16, 0"),
    ("ae_lr", -0.001),
    ("clf_lr", 0),
    ("clf_batch", 1),  # no batch of one row could be normalised
    ("shots", 1048577),  # past MAX_SHOTS
    ("train_images", ""),
    ("train_images", "."),  # a directory
])
def test_bad_config_value_is_exit_2_before_any_stage(make_config, tmp_path, capsys, key, value):
    cfg = make_config(out_dir=tmp_path / "bad-value", augment="true", augment_stage="clf",
                      **{key: value})
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert key in captured.err
    assert "running" not in captured.out


@pytest.mark.parametrize("key, value", [("ae_lr", "inf"), ("clf_lr", "inf"), ("ae_lr", "nan")])
def test_non_finite_learning_rate_is_exit_2_before_training(make_config, tmp_path, capsys,
                                                            key, value):
    cfg = make_config(out_dir=tmp_path / "bad-lr", **{key: value})
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{key} must be finite and > 0" in captured.err
    assert "running" not in captured.out


@pytest.mark.parametrize("key, value", [
    ("check_latent_val_acc", 2.0),
    ("check_quantum_val_acc", -0.1),
    ("check_ae_val_mse", -0.5),
    ("check_ae_val_mse", "inf"),
    ("check_ae_val_mse", "nan"),
])
def test_bad_check_floor_is_exit_2_before_any_stage(make_config, tmp_path, capsys, key, value):
    # an unreachable floor must not cost a full run before --check reports it
    cfg = make_config(out_dir=tmp_path / "bad-floor", ae_epochs=1, clf_epochs=1,
                      **{key: value})
    assert main(["--config", str(cfg), "--check", "pipeline"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert key in captured.err
    assert "running" not in captured.out


def test_one_row_last_classifier_batch_trains(make_config, tmp_path, capsys):
    # 215 rows less the 22 held out leave 193 = 6 * 32 + 1: every epoch ends
    # in a one-row batch, which batch norm takes to zeros
    cfg = make_config(out_dir=tmp_path / "one-row", train_subset=215, ae_epochs=1,
                      clf_epochs=2, clf_batch=32)
    assert len(load_splits(load_config(cfg))["train"]) % 32 == 1
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK, capsys.readouterr().err
    assert "quantum features" in capsys.readouterr().out


def test_missing_data_path_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    cfg.write_text(f"train_images = {tmp_path / 'nope'}\n")
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG
    assert "train_images" in capsys.readouterr().err


def test_stage_verb_runs_its_missing_upstream(make_config, tmp_path, capsys):
    cfg = make_config(out_dir=tmp_path / "empty-run")
    assert main(["--config", str(cfg), "encode"]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(lines) == 6
    for line, wanted in zip(lines, [r"\[train-ae\] running: no record",
                                    *(rf"\[train-ae\] epoch {i}/2 {EPOCH}" for i in (1, 2)),
                                    DONE % "train-ae",
                                    r"\[encode\] running: no record", DONE % "encode"]):
        assert re.fullmatch(wanted, line), line


def test_corrupt_idx_data_is_exit_2(make_config, synth_data, tmp_path, capsys):
    corrupt = tmp_path / "corrupt-images"
    corrupt.write_bytes(synth_data["train_images"].read_bytes()[:-3])
    cfg = make_config(train_images=corrupt, out_dir=tmp_path / "c")
    assert main(["--config", str(cfg), "train-ae"]) == EXIT_CONFIG


@pytest.mark.parametrize("damage", [
    lambda raw: gzip.compress(raw)[: len(gzip.compress(raw)) // 2],  # truncated .gz
    lambda raw: idx_label_bytes(np.zeros(3, dtype=np.uint8)),  # a label file's magic
    lambda raw: b"\x1f\x8b" + b"not a gzip stream",  # junk after the gzip prefix
], ids=["truncated-gz", "bad-magic", "junk-after-gzip-prefix"])
def test_bad_data_file_error_names_the_file(make_config, synth_data, tmp_path, capsys, damage):
    bad = tmp_path / "bad-images"
    bad.write_bytes(damage(synth_data["train_images"].read_bytes()))
    out_dir = tmp_path / "bad"
    cfg = make_config(train_images=bad, out_dir=out_dir)
    assert main(["--config", str(cfg), "train-ae"]) == EXIT_CONFIG
    assert f"error: train-ae: {bad}: " in capsys.readouterr().err
    assert not StagePaths(out_dir).ae_model.exists()


def test_image_label_count_mismatch_names_both_files(make_config, synth_data, tmp_path,
                                                     capsys):
    labels = tmp_path / "short-labels"
    labels.write_bytes(idx_label_bytes(np.zeros(100 - 1, dtype=np.uint8)))
    cfg = make_config(test_labels=labels, out_dir=tmp_path / "mismatch")
    assert main(["--config", str(cfg), "train-ae"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(synth_data["test_images"]) in err and str(labels) in err


@pytest.mark.parametrize("where", ["config", "--out"])
def test_empty_out_dir_is_exit_2_and_writes_nothing(make_config, tmp_path, monkeypatch, capsys,
                                                    where):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if where == "config":
        argv = ["--config", str(make_config(out_dir=""))]
    else:
        argv = ["--config", str(make_config()), "--out", ""]
    assert main([*argv, "pipeline"]) == EXIT_CONFIG
    assert "out_dir" in capsys.readouterr().err
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("key, bad, flag, good", [
    ("out_dir", "", "--out", "run"),
    ("seed", -1, "--seed", "3"),
])
def test_override_rescues_the_bad_value_it_replaces(make_config, tmp_path, monkeypatch, capsys,
                                                    key, bad, flag, good):
    monkeypatch.chdir(tmp_path)
    cfg = make_config(ae_epochs=0, **{key: bad})
    assert main(["--config", str(cfg), flag, good, "train-ae"]) == EXIT_OK, capsys.readouterr()
    capsys.readouterr()
    assert main(["--config", str(cfg), "train-ae"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert key in captured.err and "running" not in captured.out


def test_artifacts_do_not_depend_on_the_blas_thread_count(make_config, tmp_path):
    # a product over 784 inputs rounds differently on one and two OpenBLAS
    # threads; the CLI pins one, so both runs write the same bytes
    cfg = make_config(ae_epochs=2, clf_epochs=2)
    src = str(Path(qhybrid.__file__).resolve().parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "qhybrid.cli", "--config", str(cfg), "--out",
                        str(out), "pipeline"], env=env, check=True, capture_output=True)
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert Path("stages.json") in trees[0]
    assert trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


def test_empty_test_set_is_exit_2_before_training(make_config, tmp_path, capsys):
    images, labels = tmp_path / "empty-images", tmp_path / "empty-labels"
    images.write_bytes(idx_image_bytes(np.zeros((0, 28, 28), dtype=np.uint8)))
    labels.write_bytes(idx_label_bytes(np.zeros(0, dtype=np.uint8)))
    out_dir = tmp_path / "empty-test"
    cfg = make_config(test_images=images, test_labels=labels, out_dir=out_dir, ae_epochs=1)
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_CONFIG
    assert "test_images" in capsys.readouterr().err
    assert not StagePaths(out_dir).ae_model.exists()


def test_check_mode_failure_is_exit_3(make_config, tmp_path, capsys):
    # a one-epoch run cannot hit the default accuracy/MSE floors
    cfg = make_config(out_dir=tmp_path / "chk", ae_epochs=1, clf_epochs=1)
    code = main(["--config", str(cfg), "--check", "pipeline"])
    assert code == EXIT_CHECK
    assert "check failed" in capsys.readouterr().err


def test_check_mode_pass_with_loose_floors(make_config, tmp_path, capsys):
    cfg = make_config(
        out_dir=tmp_path / "chk-ok", ae_epochs=1, clf_epochs=1,
        check_ae_val_mse=1.0, check_latent_val_acc=0.0, check_quantum_val_acc=0.0,
    )
    assert main(["--config", str(cfg), "--check", "pipeline"]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_check_judges_only_the_verbs_stages(make_config, tmp_path, capsys):
    out_dir = tmp_path / "chk-scope"
    cfg = make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=1)
    assert main(["--config", str(cfg), "--seed", "7", "pipeline"]) == EXIT_OK
    # classifier floors only a perfect one-epoch classifier meets: reading the
    # seed-7 classifier histories left in out_dir would fail the check
    strict = make_config(name="strict.cfg", out_dir=out_dir, ae_epochs=1, clf_epochs=1,
                         check_ae_val_mse=1.0, check_latent_val_acc=1.0,
                         check_quantum_val_acc=1.0)
    capsys.readouterr()
    assert main(["--config", str(strict), "--check", "train-ae"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "all checks passed" in captured.out
    assert "check failed" not in captured.err
    # the latent classifier's floor is judged once its stage is in the verb's closure
    code = main(["--config", str(strict), "--check", "train-clf", "--features", "latent"])
    assert code == EXIT_CHECK
    err = capsys.readouterr().err
    assert "latent val accuracy" in err and "quantum" not in err


def test_check_on_encode_in_empty_out_dir(make_config, tmp_path, capsys):
    cfg = make_config(out_dir=tmp_path / "chk-encode", ae_epochs=1, check_ae_val_mse=1.0)
    assert main(["--config", str(cfg), "--check", "encode"]) == EXIT_OK
    assert "all checks passed" in capsys.readouterr().out


def test_seed_override_changes_artifacts(make_config, tmp_path):
    results = []
    for seed, name in ((1, "s1"), (2, "s2")):
        cfg = make_config(name=f"{name}.cfg", out_dir=tmp_path / name,
                          ae_epochs=1, clf_epochs=1)
        assert main(["--config", str(cfg), "--seed", str(seed), "pipeline"]) == EXIT_OK
        results.append((StagePaths(tmp_path / name).ae_model).read_bytes())
    assert results[0] != results[1]


def test_out_override_redirects_artifacts(make_config, tmp_path):
    cfg = make_config(out_dir=tmp_path / "ignored", ae_epochs=1, clf_epochs=1)
    target = tmp_path / "redirected"
    assert main(["--config", str(cfg), "--out", str(target), "pipeline"]) == EXIT_OK
    assert (target / "summary.txt").exists()
    assert not (tmp_path / "ignored" / "summary.txt").exists()


def test_force_rerun_is_byte_identical(make_config, tmp_path):
    cfg = make_config(out_dir=tmp_path / "f", ae_epochs=1, clf_epochs=1)
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    summary_before = (tmp_path / "f" / "summary.txt").read_bytes()
    model_before = (tmp_path / "f" / "clf_quantum.qhm").read_bytes()
    assert main(["--config", str(cfg), "--force", "pipeline"]) == EXIT_OK
    assert (tmp_path / "f" / "summary.txt").read_bytes() == summary_before
    assert (tmp_path / "f" / "clf_quantum.qhm").read_bytes() == model_before


def test_shuffled_labels_hit_chance_level(make_config, tmp_path):
    # destroying the image/label pairing must send accuracy to ~1/10
    import struct

    from qhybrid.data import LABEL_MAGIC

    rng = np.random.default_rng(0)
    labels = rng.integers(0, 10, size=260).astype(np.uint8)
    shuffled = tmp_path / "shuffled-labels"
    shuffled.write_bytes(struct.pack(">II", LABEL_MAGIC, 260) + labels.tobytes())
    cfg = make_config(train_labels=shuffled, out_dir=tmp_path / "sh",
                      ae_epochs=1, clf_epochs=6)
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    from qhybrid.reports import read_csv

    _, rows = read_csv(StagePaths(tmp_path / "sh").clf_history_csv["latent"])
    val_acc = float(rows[-1][4])
    assert val_acc < 0.35  # chance is 0.10; far below any learned signal
