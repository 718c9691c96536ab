import ctypes
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import DONE, write_synthetic_idx

import qhybrid
from qhybrid import pipeline
from qhybrid.archive import load_archive
from qhybrid.cli import EXIT_CHECK, EXIT_OK, main
from qhybrid.config import ExperimentConfig, load_config
from qhybrid.losses import mse_loss
from qhybrid.network import Autoencoder
from qhybrid.pipeline import (
    STAGES,
    StageError,
    StagePaths,
    load_splits,
    one_blas_thread,
    run_pipeline,
)
from qhybrid.reports import read_csv

ARTIFACTS = [
    "ae_model.qhm", "ae_loss.csv", "latents.qhm", "qfeatures.qhm",
    "clf_latent.qhm", "clf_latent_history.csv",
    "clf_quantum.qhm", "clf_quantum_history.csv",
    "eval_latent_confusion.csv", "eval_latent_metrics.csv",
    "eval_quantum_confusion.csv", "eval_quantum_metrics.csv",
    "summary.txt",
]


def _quiet(_msg):
    pass


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, synth_data):
    """One shared end-to-end pipeline run over the synthetic dataset."""
    out_dir = tmp_path_factory.mktemp("pipe-run")
    cfg_path = tmp_path_factory.mktemp("pipe-cfg") / "exp.cfg"
    lines = [
        f"train_images = {synth_data['train_images']}",
        f"train_labels = {synth_data['train_labels']}",
        f"test_images = {synth_data['test_images']}",
        f"test_labels = {synth_data['test_labels']}",
        f"out_dir = {out_dir}",
        "seed = 42",
        "ae_epochs = 2",
        "ae_batch = 32",
        "clf_epochs = 10",
        "clf_batch = 32",
        "clf_widths = 32, 16",
        "clf_lr = 0.003",
    ]
    cfg_path.write_text("\n".join(lines) + "\n")
    cfg = load_config(cfg_path)
    summary = run_pipeline(cfg, log=_quiet)
    return cfg, StagePaths(cfg.out_dir), summary


def test_split_sizes_and_determinism(make_config):
    cfg = load_config(make_config())
    splits = load_splits(cfg)
    assert len(splits["train"].images) == 234  # 260 minus the 10% holdout
    assert len(splits["val"].images) == 26
    assert len(splits["test"].images) == 100
    again = load_splits(cfg)
    assert np.array_equal(splits["train"].labels, again["train"].labels)
    assert np.array_equal(splits["val"].images, again["val"].images)


def test_subset_applied_before_split(make_config):
    cfg = load_config(make_config(train_subset=100))
    splits = load_splits(cfg)
    assert len(splits["train"].images) == 90
    assert len(splits["val"].images) == 10


def test_all_artifacts_written(finished_run):
    _, paths, _ = finished_run
    for name in ARTIFACTS:
        assert (paths.out_dir / name).exists(), name
    pgms = sorted(paths.recon_dir.glob("*.pgm"))
    assert len(pgms) == 20  # 10 original/reconstruction pairs
    for pgm in pgms:
        assert pgm.read_bytes().startswith(b"P5\n28 28\n255\n")


def test_latent_and_quantum_shapes(finished_run):
    _, paths, _ = finished_run
    latents = dict(load_archive(paths.latents))
    assert latents["latents/train"].shape == (234, 64)
    assert latents["latents/val"].shape == (26, 64)
    assert latents["latents/test"].shape == (100, 64)
    qfeat = dict(load_archive(paths.qfeatures))
    assert qfeat["qfeat/train"].shape == (234, 65)
    assert qfeat["qfeat/test"].shape == (100, 65)
    assert qfeat["qscale/min"].shape == (64,)
    assert qfeat["meta/shots"][0] == 1024.0
    assert qfeat["meta/mode"][0] == 0.0  # exact
    assert qfeat["meta/seed"][0] == 42.0
    assert np.all((qfeat["qfeat/train"] >= 0.0) & (qfeat["qfeat/train"] <= 1.0))


def test_history_csv_columns(finished_run):
    _, paths, _ = finished_run
    header, rows = read_csv(paths.ae_loss_csv)
    assert header == ["epoch", "train_mse", "val_mse"]
    assert len(rows) == 2
    header, rows = read_csv(paths.clf_history_csv["latent"])
    assert header == ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
    assert len(rows) == 10
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0


def test_cached_val_latents_and_reconstruction_match_reported_val_mse(finished_run):
    # the cached val latents are the encoder's output for the val split, and
    # reconstructing that split reproduces the history's final validation MSE;
    # both are computed with BLAS on one thread, as the pipeline runs it
    cfg, paths, _ = finished_run
    ae = Autoencoder.load(paths.ae_model)
    latents = dict(load_archive(paths.latents))
    splits = load_splits(cfg)
    x_val = splits["val"].images.reshape(len(splits["val"].images), -1) / 255.0
    with one_blas_thread():
        assert np.array_equal(latents["latents/val"], ae.encode(x_val))
        loss, _ = mse_loss(x_val, ae.reconstruct(x_val))
    _, rows = read_csv(paths.ae_loss_csv)
    assert abs(loss - float(rows[-1][2])) < 1e-9


def test_encode_is_pure(finished_run):
    cfg, paths, _ = finished_run
    ae = Autoencoder.load(paths.ae_model)
    splits = load_splits(cfg)
    x = splits["test"].images.reshape(len(splits["test"].images), -1) / 255.0
    assert np.array_equal(ae.encode(x), ae.encode(x))


def test_summary_lists_both_baselines(finished_run):
    _, paths, summary = finished_run
    assert "latent (baseline)" in summary
    assert "quantum features" in summary
    assert paths.summary.read_text() == summary
    # both classifiers must clearly beat 10-class chance on this easy set
    latent = dict(read_csv(paths.eval_metrics_csv["latent"])[1])
    quantum = dict(read_csv(paths.eval_metrics_csv["quantum"])[1])
    assert float(latent["accuracy"]) > 0.5
    assert float(quantum["accuracy"]) > 0.3


def test_confusion_totals_match_test_count(finished_run):
    _, paths, _ = finished_run
    for which in ("latent", "quantum"):
        _, rows = read_csv(paths.eval_confusion_csv[which])
        total = sum(int(cell) for row in rows for cell in row[1:])
        assert total == 100


def test_rerun_without_force_is_noop(finished_run):
    cfg, paths, _ = finished_run
    before = {name: (paths.out_dir / name).stat().st_mtime_ns for name in ARTIFACTS}
    run_pipeline(cfg, log=_quiet)
    after = {name: (paths.out_dir / name).stat().st_mtime_ns for name in ARTIFACTS}
    assert before == after


def test_deleting_quantum_branch_recomputes_only_downstream(finished_run):
    cfg, paths, _ = finished_run
    before = {name: (paths.out_dir / name).stat().st_mtime_ns for name in ARTIFACTS}
    paths.qfeatures.unlink()
    run_pipeline(cfg, log=_quiet)
    after = {name: (paths.out_dir / name).stat().st_mtime_ns for name in ARTIFACTS}
    recomputed = {name for name in ARTIFACTS if before[name] != after[name]}
    assert recomputed == {
        "qfeatures.qhm", "clf_quantum.qhm", "clf_quantum_history.csv",
        "eval_quantum_confusion.csv", "eval_quantum_metrics.csv", "summary.txt",
    }


def test_deleting_latents_recomputes_both_branches(finished_run):
    cfg, paths, _ = finished_run
    before = {name: (paths.out_dir / name).stat().st_mtime_ns for name in ARTIFACTS}
    paths.latents.unlink()
    run_pipeline(cfg, log=_quiet)
    after = {name: (paths.out_dir / name).stat().st_mtime_ns for name in ARTIFACTS}
    unchanged = {name for name in ARTIFACTS if before[name] == after[name]}
    assert unchanged == {"ae_model.qhm", "ae_loss.csv"}


def test_two_runs_byte_identical(make_config, tmp_path):
    paths = []
    for name in ("a", "b"):
        cfg = load_config(make_config(name=f"{name}.cfg", out_dir=tmp_path / name))
        run_pipeline(cfg, log=_quiet)
        paths.append(StagePaths(cfg.out_dir))
    for name in ARTIFACTS:
        a = (paths[0].out_dir / name).read_bytes()
        b = (paths[1].out_dir / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_train_ae_replaces_recon_images_and_reruns_without_them(make_config, tmp_path):
    out_dir = tmp_path / "recon-run"
    paths = StagePaths(out_dir)
    first = load_config(make_config(name="a.cfg", out_dir=out_dir, seed=1, ae_epochs=1))
    run_pipeline(first, "train-ae", log=_quiet)
    assert len(list(paths.recon_dir.iterdir())) == 20
    # 40 rows hold out 4 for validation: 4 pairs, and no seed-1 pair may stay
    second = load_config(make_config(name="b.cfg", out_dir=out_dir, seed=2, ae_epochs=1,
                                     train_subset=40))
    run_pipeline(second, "train-ae", log=_quiet)
    recon = {p.name: p.read_bytes() for p in paths.recon_dir.iterdir()}
    assert sorted(recon) == sorted(f"recon_{i:02d}_{kind}.pgm"
                                   for i in range(4) for kind in ("orig", "ae"))
    manifest = paths.manifest.read_bytes()
    shutil.rmtree(paths.recon_dir)
    lines = []
    run_pipeline(second, "train-ae", log=lines.append)
    assert lines[0] == "[train-ae] running: output missing"
    assert len(lines) == 2 and re.fullmatch(DONE % "train-ae", lines[1]), lines
    assert {p.name: p.read_bytes() for p in paths.recon_dir.iterdir()} == recon
    assert paths.manifest.read_bytes() == manifest


def test_sampled_mode_records_metadata(make_config):
    cfg = load_config(make_config(quantum_mode="sampled", shots=64, ae_epochs=1,
                                  clf_epochs=1))
    run_pipeline(cfg, log=_quiet)
    qfeat = dict(load_archive(StagePaths(cfg.out_dir).qfeatures))
    assert qfeat["meta/mode"][0] == 1.0
    assert qfeat["meta/shots"][0] == 64.0


def test_zero_ae_epochs_gives_header_only_csv(make_config, tmp_path):
    cfg = load_config(make_config(ae_epochs=0, out_dir=tmp_path / "zero"))
    from qhybrid.pipeline import stage_train_ae

    paths = StagePaths(cfg.out_dir)
    paths.out_dir.mkdir(parents=True)
    stage_train_ae(cfg, paths, load_splits(cfg))
    assert paths.ae_model.exists()
    assert paths.ae_loss_csv.read_bytes() == b"epoch,train_mse,val_mse\n"


def test_augmented_encode_expands_training_rows(make_config, tmp_path):
    cfg = load_config(make_config(augment="true", augment_copies="2",
                                  out_dir=tmp_path / "aug"))
    from qhybrid.pipeline import stage_encode, stage_train_ae

    paths = StagePaths(cfg.out_dir)
    paths.out_dir.mkdir(parents=True)
    splits = load_splits(cfg)
    stage_train_ae(cfg, paths, splits)
    stage_encode(cfg, paths, splits)
    entries = dict(load_archive(paths.latents))
    assert entries["latents/train"].shape == (234 * 3, 64)
    assert entries["labels/train"].shape == (234 * 3,)
    # originals keep their leading positions, labels replicate in order
    assert np.array_equal(entries["labels/train"][:234], entries["labels/train"][234:468])
    assert entries["latents/val"].shape == (26, 64)


@pytest.mark.parametrize("augment", ["false", "true"])
def test_train_ae_and_encode_normalise_one_batch_at_a_time(make_config, tmp_path, monkeypatch,
                                                          augment):
    # 16 rows per inference batch and 8 per training batch, against 234 training rows
    import qhybrid.data
    from qhybrid.pipeline import stage_encode, stage_train_ae

    monkeypatch.setattr("qhybrid.network.INFERENCE_BATCH", 16)
    sizes = []

    def recording(images, _normalize=qhybrid.data.normalize_and_flatten):
        sizes.append(len(images))
        return _normalize(images)

    monkeypatch.setattr("qhybrid.data.normalize_and_flatten", recording)
    monkeypatch.setattr("qhybrid.pipeline.normalize_and_flatten", recording, raising=False)
    cfg = load_config(make_config(augment=augment, augment_stage="both", augment_copies="1",
                                  ae_batch=8, out_dir=tmp_path / "batched"))
    paths = StagePaths(cfg.out_dir)
    paths.out_dir.mkdir(parents=True)
    splits = load_splits(cfg)
    stage_train_ae(cfg, paths, splits)
    stage_encode(cfg, paths, splits)
    assert sum(sizes) > 2 * 234 and max(sizes) <= 16


def _tree(out_dir):
    return {p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _stage_status(lines, stages=tuple(STAGES)):
    """Map each stage to the text after its bracketed name, one line each;
    exactly ``stages`` print a line, in that order."""
    status = {}
    for line in lines:
        m = re.fullmatch(r"\[([a-z-]+)\] (cached|running: .+)", line)
        if m:
            assert m[1] in STAGES and m[1] not in status, line
            status[m[1]] = m[2]
    assert list(status) == list(stages)
    return status


def _cold_tree(make_config, tmp_path, **settings):
    cfg = load_config(make_config(name="cold.cfg", out_dir=tmp_path / "cold", **settings))
    run_pipeline(cfg, log=_quiet)
    return _tree(tmp_path / "cold")


@pytest.mark.parametrize("key, value, cached", [
    ("seed", 7, set()),
    ("clf_epochs", 2, {"train-ae", "encode", "qtransform"}),
])
def test_changed_config_reruns_exactly_the_stages_that_read_it(
        make_config, tmp_path, capsys, key, value, cached):
    settings = {"ae_epochs": 1, "clf_epochs": 1}
    cfg = make_config(out_dir=tmp_path / "warm", **settings)
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    capsys.readouterr()
    cfg = make_config(out_dir=tmp_path / "warm", **{**settings, key: value})
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    out = capsys.readouterr().out
    status = _stage_status(out.splitlines())
    assert {name for name, text in status.items() if text == "cached"} == cached
    assert status["train-ae" if key == "seed" else "clf-latent"] == f"running: {key} changed"
    if key == "seed":
        assert "seed: 7" in out
    assert _tree(tmp_path / "warm") == _cold_tree(make_config, tmp_path,
                                                  **{**settings, key: value})


def test_stage_verb_run_invalidates_downstream(make_config, tmp_path, capsys):
    cfg = make_config(out_dir=tmp_path / "warm", ae_epochs=1, clf_epochs=1)
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    cfg = make_config(out_dir=tmp_path / "warm", ae_epochs=2, clf_epochs=1)
    assert main(["--config", str(cfg), "train-ae"]) == EXIT_OK
    capsys.readouterr()
    assert main(["--config", str(cfg), "pipeline"]) == EXIT_OK
    status = _stage_status(capsys.readouterr().out.splitlines())
    assert status.pop("train-ae") == "cached"
    assert status.pop("encode") == "running: upstream ran"
    assert all(text.startswith("running") for text in status.values())
    assert _tree(tmp_path / "warm") == _cold_tree(make_config, tmp_path,
                                                  ae_epochs=2, clf_epochs=1)


def test_stage_verb_reruns_its_stale_upstream(make_config, tmp_path, capsys):
    settings = {"ae_epochs": 1, "clf_epochs": 1}
    cfg = make_config(out_dir=tmp_path / "warm", **settings)
    assert main(["--config", str(cfg), "--seed", "7", "pipeline"]) == EXIT_OK
    capsys.readouterr()
    assert main(["--config", str(cfg), "eval", "--features", "latent"]) == EXIT_OK
    status = _stage_status(capsys.readouterr().out.splitlines(),
                           ("train-ae", "encode", "clf-latent", "eval-latent"))
    assert status["train-ae"] == "running: seed changed"
    assert all(text.startswith("running") for text in status.values())
    warm, cold = _tree(tmp_path / "warm"), _cold_tree(make_config, tmp_path, **settings)
    for name in ("eval_latent_confusion.csv", "eval_latent_metrics.csv"):
        assert warm[Path(name)] == cold[Path(name)]


def test_changed_data_file_reruns_every_stage(make_config, tmp_path):
    data = write_synthetic_idx(tmp_path, n_train=260, n_test=100)
    cfg = load_config(make_config(out_dir=tmp_path / "warm", ae_epochs=1, clf_epochs=1, **data))
    run_pipeline(cfg, log=_quiet)
    write_synthetic_idx(tmp_path, n_train=260, n_test=100, seed=778)  # same paths, new bytes
    lines = []
    run_pipeline(cfg, log=lines.append)
    status = _stage_status(lines)
    assert status["train-ae"] == status["encode"] == "running: input changed"
    assert all(text.startswith("running") for text in status.values())


def test_same_data_in_another_directory_is_cached(make_config, synth_data, tmp_path):
    out_dir = tmp_path / "warm"
    run_pipeline(load_config(make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=1)),
                 log=_quiet)
    before = _tree(out_dir)
    copy_dir = tmp_path / "moved-data"
    copy_dir.mkdir()
    moved = {}
    for key, path in synth_data.items():
        moved[key] = copy_dir / path.name
        moved[key].write_bytes(path.read_bytes())
    cfg = load_config(make_config(name="moved.cfg", out_dir=out_dir, ae_epochs=1,
                                  clf_epochs=1, **moved))
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert set(_stage_status(lines).values()) == {"cached"}
    assert _tree(out_dir) == before


OTHER_AUGMENTATION = {"rotate_max_deg": 25.0, "shift_max_px": 4, "hflip": "true",
                      "augment_prob": 0.9, "augment_stage": "both", "augment_copies": 3}


@pytest.mark.parametrize("first, second", [
    ({"augment": "false"}, {"augment": "false", **OTHER_AUGMENTATION}),
    ({"augment": "true", "augment_stage": "ae"},
     {"augment": "true", "augment_stage": "ae", "augment_copies": 3}),
])
def test_augmentation_settings_of_a_stage_that_does_not_augment_keep_it_cached(
        make_config, tmp_path, first, second):
    settings = {"ae_epochs": 1, "clf_epochs": 1, "out_dir": tmp_path / "warm"}
    run_pipeline(load_config(make_config(**settings, **first)), log=_quiet)
    lines = []
    run_pipeline(load_config(make_config(**settings, **second)), log=lines.append)
    assert list(_stage_status(lines).values()) == ["cached"] * 8


def test_turning_augmentation_off_reruns_the_augmenting_stage(make_config, tmp_path):
    settings = {"ae_epochs": 1, "clf_epochs": 1}
    out_dir = tmp_path / "warm"
    run_pipeline(load_config(make_config(out_dir=out_dir, augment="true", augment_stage="ae",
                                         **settings)), log=_quiet)
    lines = []
    run_pipeline(load_config(make_config(out_dir=out_dir, augment="false", augment_stage="ae",
                                         **settings)), log=lines.append)
    status = _stage_status(lines)
    assert re.fullmatch(r"running: augment, .* changed", status["train-ae"])
    assert status["encode"] == "running: upstream ran"
    assert _tree(out_dir) == _cold_tree(make_config, tmp_path, augment="false",
                                        augment_stage="ae", **settings)


RUN_CLI = """
import sys
from qhybrid.cli import main
code = main(["--config", sys.argv[1], "pipeline"])
print("_hashlib" in sys.modules)
print("qhybrid.quantum" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("quantum_mode", ["exact", "sampled"])
def test_cli_run_loads_no_openssl_and_records_blake2b_digests(make_config, synth_data, tmp_path,
                                                              quantum_mode):
    # hashlib would load _hashlib and map OpenSSL's libcrypto into the run;
    # the statevector oracle in qhybrid.quantum is test code, and no run loads it
    out_dir = tmp_path / "no-openssl"
    cfg = make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=1, quantum_mode=quantum_mode)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(qhybrid.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, str(cfg)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "False"]
    records = json.loads(StagePaths(out_dir).manifest.read_text()).values()
    inputs = {key: digest for record in records for key, digest in record["inputs"].items()}
    assert inputs == {key: hashlib.blake2b(Path(path).read_bytes(), digest_size=32).hexdigest()
                      for key, path in synth_data.items()}


def test_one_blas_thread_restores_the_previous_thread_count():
    blas = pipeline._openblas()
    if blas is None:
        pytest.skip("numpy ships without a bundled OpenBLAS")
    get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    before = get()
    try:
        put(2)
        with one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError, match="inside the block"):
            with one_blas_thread():
                assert get() == 1
                raise RuntimeError("raised inside the block")
        assert get() == 2
    finally:
        put(before)


def test_failed_stage_leaves_no_temp_file_and_no_key(make_config, tmp_path, monkeypatch):
    out_dir = tmp_path / "warm"
    cfg = load_config(make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=1))
    run_pipeline(cfg, log=_quiet)
    before = _tree(out_dir)
    real_replace = os.replace

    def replace_failing_on_history(src, dst):
        if os.path.basename(dst) == "clf_quantum_history.csv":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_on_history)
    changed = load_config(make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=2))
    with pytest.raises(StageError, match="clf-quantum"):
        run_pipeline(changed, log=_quiet)
    monkeypatch.undo()
    assert not [p for p in out_dir.rglob("*") if p.name.endswith(".tmp")]
    records = json.loads(StagePaths(out_dir).manifest.read_text())
    assert "clf-quantum" not in records
    # clf_quantum.qhm was replaced before the failure; the old config must
    # not be served it from the cache
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert _stage_status(lines)["clf-quantum"] == "running: no record"
    assert _tree(out_dir) == before


def test_every_config_field_is_read_by_some_stage():
    read = {field for stage in STAGES.values() for field in stage.reads}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert read == {f for f in fields if f != "out_dir" and not f.startswith("check_")}


def test_every_dep_names_an_earlier_stage():
    # run_pipeline closes a target's deps in one backward pass over the table
    earlier = set()
    for name, stage in STAGES.items():
        assert set(stage.deps) <= earlier, name
        earlier.add(name)


def test_summary_and_check_read_stage_records_not_files(make_config, tmp_path, capsys):
    cfg = make_config(out_dir=tmp_path / "warm", ae_epochs=1, clf_epochs=1)
    paths = StagePaths(tmp_path / "warm")
    assert main(["--config", str(cfg), "--check", "pipeline"]) == EXIT_CHECK
    first = capsys.readouterr()
    summary = paths.summary.read_bytes()
    for path in (paths.ae_loss_csv, *paths.clf_history_csv.values(),
                 *paths.eval_metrics_csv.values(), paths.latents):
        path.write_bytes(b"junk\n")
    paths.summary.unlink()
    assert main(["--config", str(cfg), "--check", "pipeline"]) == EXIT_CHECK
    second = capsys.readouterr()
    status = _stage_status(second.out.splitlines())
    assert status.pop("summary") == "running: output missing"
    assert set(status.values()) == {"cached"}
    assert paths.summary.read_bytes() == summary
    assert second.err == first.err and "check failed" in second.err


@pytest.mark.parametrize("manifest", [
    "[]",
    '{"train-ae": 5}',
    '{"train-ae": {"reads": [], "inputs": {}, "deps": {}, "results": {}}}',
])
def test_manifest_of_another_shape_holds_no_record(make_config, tmp_path, capsys, manifest):
    out_dir = tmp_path / "odd-manifest"
    cfg = make_config(out_dir=out_dir, ae_epochs=1)
    out_dir.mkdir()
    StagePaths(out_dir).manifest.write_text(manifest)
    assert main(["--config", str(cfg), "train-ae"]) == EXIT_OK, capsys.readouterr().err
    status = _stage_status(capsys.readouterr().out.splitlines(), ("train-ae",))
    assert status == {"train-ae": "running: no record"}
    assert main(["--config", str(cfg), "train-ae"]) == EXIT_OK
    assert "[train-ae] cached" in capsys.readouterr().out


def test_records_without_results_rerun_once(make_config, tmp_path):
    out_dir = tmp_path / "warm"
    cfg = load_config(make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=1))
    run_pipeline(cfg, log=_quiet)
    before = _tree(out_dir)
    paths = StagePaths(out_dir)
    records = json.loads(paths.manifest.read_text())
    for record in records.values():
        del record["results"]
    paths.manifest.write_text(json.dumps(records))
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert set(_stage_status(lines).values()) == {"running: no record"}
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert set(_stage_status(lines).values()) == {"cached"}
    assert _tree(out_dir) == before


def test_code_or_blas_kernel_change_reruns_every_stage(make_config, tmp_path, monkeypatch):
    out_dir = tmp_path / "env"
    cfg = load_config(make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=1))
    run_pipeline(cfg, log=_quiet)
    before = _tree(out_dir)
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert list(_stage_status(lines).values()) == ["cached"] * 8
    kernel = pipeline.blas_core()
    monkeypatch.setattr(pipeline, "blas_core", lambda: "OtherCore")
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert set(_stage_status(lines).values()) == {
        f"running: numeric environment changed (blas {kernel} -> OtherCore)"}
    monkeypatch.setattr(pipeline, "code_digest", lambda: "0" * 64)
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert set(_stage_status(lines).values()) == {"running: code changed"}
    records = json.loads(StagePaths(out_dir).manifest.read_text())
    env = {"code": "0" * 64, "numpy": np.__version__, "blas": "OtherCore"}
    assert [record["env"] for record in records.values()] == [env] * 8
    monkeypatch.undo()
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert set(_stage_status(lines).values()) == {"running: code changed"}
    assert _tree(out_dir) == before  # the same code and kernel write the same bytes


def test_records_without_env_rerun_once(make_config, tmp_path):
    out_dir = tmp_path / "warm"
    cfg = load_config(make_config(out_dir=out_dir, ae_epochs=1, clf_epochs=1))
    run_pipeline(cfg, log=_quiet)
    paths = StagePaths(out_dir)
    records = json.loads(paths.manifest.read_text())
    for record in records.values():
        del record["env"]
    paths.manifest.write_text(json.dumps(records))
    lines = []
    run_pipeline(cfg, log=lines.append)
    assert set(_stage_status(lines).values()) == {"running: no record"}
    package = hashlib.blake2b(digest_size=32)
    for path in sorted(Path(qhybrid.__file__).parent.glob("*.py")):
        package.update(path.name.encode() + b"\0" + path.read_bytes())
    env = {"code": package.hexdigest(), "numpy": np.__version__, "blas": pipeline.blas_core()}
    assert [r["env"] for r in json.loads(paths.manifest.read_text()).values()] == [env] * 8
