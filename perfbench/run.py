"""qhybrid benchmark: cold pipeline runs on synthetic MNIST-shaped data.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline-exact --seed 1 --seconds 35 --trace 0

Each run generates IDX files from the seed (outside the timed region), then
runs ``qhybrid --config ... pipeline`` in a fresh process on a fresh output
directory, again and again until ``--seconds`` is used up (at least three
times). Every run's outputs are checked. With ``--trace 0`` the last line of
stdout holds the end-to-end metrics: medians over the runs, taken with
tracing off. With ``--trace 1`` traced and untraced runs alternate, and the
last line holds the per-layer metrics from the traced runs. Metric names,
units and directions come from BENCHMARK.json.

Stage times come from the ``[stage] running`` lines the pipeline prints,
timestamped as they arrive, so the untraced runs depend on no function name
inside the package. Everything the runs leave behind goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from checks import check_run, digests
from tracer import SPAN_METRICS, combine, self_time_total, span_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HELPERS = ROOT / "tests" / "helpers.py"
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1  # one thread measured steadier than two on a 2-core machine
MIN_RUNS = 3
DEADLINE_S = 170.0  # a run of this script must end within 180 s

_MARK = re.compile(rb"^\[([a-z][a-z-]*)\] (.*)$")


@dataclass(frozen=True)
class Workload:
    n_train: int  # rows in the training IDX file; val_fraction of them are held out
    n_test: int
    config: dict
    toy: dict  # sizes and config overrides for the smoke test

    def sized(self, toy: bool) -> "Workload":
        if not toy:
            return self
        over = dict(self.toy)
        return replace(self, n_train=over.pop("n_train"), n_test=over.pop("n_test"),
                       config={**self.config, **over})


COMMON = {"val_fraction": 0.1, "train_subset": 0, "quantum_layout": "marginal", "shots": 1024}

# Why each workload exists, and what it stresses and bypasses, is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "pipeline-exact": Workload(
        n_train=3600, n_test=600,
        config={"ae_epochs": 3, "clf_epochs": 2, "quantum_mode": "exact"},
        toy={"n_train": 300, "n_test": 100, "ae_epochs": 1, "clf_epochs": 1},
    ),
    "pipeline-sampled": Workload(
        n_train=300, n_test=150,
        config={"ae_epochs": 8, "ae_batch": 16, "clf_epochs": 6, "clf_batch": 16,
                "quantum_mode": "sampled"},
        toy={"n_train": 60, "n_test": 30, "ae_epochs": 1, "clf_epochs": 1},
    ),
    "train-ae-augment": Workload(
        n_train=6000, n_test=1000,
        config={"ae_epochs": 3, "clf_epochs": 5, "clf_dropout": 0.0, "quantum_mode": "exact",
                "augment": "true", "augment_stage": "ae", "rotate_max_deg": 10.0,
                "shift_max_px": 2, "hflip": "true", "augment_prob": 0.5},
        toy={"n_train": 300, "n_test": 100, "ae_epochs": 1, "clf_epochs": 1},
    ),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="a few hundred rows and one epoch, for the smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = "1"  # stage lines must arrive when printed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def write_inputs(run_dir: Path, wl: Workload, seed: int) -> tuple[Path, dict]:
    """IDX files and a config for this seed; returns (config path, expectations)."""
    from helpers import write_synthetic_idx

    data_dir = run_dir / "data"
    data_dir.mkdir(parents=True)
    paths = write_synthetic_idx(data_dir, wl.n_train, wl.n_test, seed=seed)
    settings = {**COMMON, **wl.config, **paths, "seed": seed, "out_dir": run_dir / "unused"}
    cfg = run_dir / "bench.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    n_val = max(1, int(round(wl.n_train * settings["val_fraction"])))
    expect = {
        "seed": seed, "n_train": wl.n_train - n_val, "n_val": n_val, "n_test": wl.n_test,
        "ae_epochs": settings["ae_epochs"], "clf_epochs": settings["clf_epochs"],
        "quantum_mode": settings["quantum_mode"], "shots": settings["shots"],
    }
    return cfg, expect


def facts(seed: int, wl: Workload, expect: dict) -> dict:
    try:
        import qhybrid.rng

        have_numba = getattr(qhybrid.rng, "_HAVE_NUMBA", None)
        backend = {True: "numba", False: "pure-python"}.get(have_numba, "unknown")
    except ImportError:
        backend = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                             check=False).stdout.strip() or "unknown"
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                text=True, check=False).stdout
        dirty = bool(status.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "prng_backend": backend,
        "git_rev": rev,
        "git_dirty": dirty,
        "seed": seed,
        "input_rows": {"train_file": wl.n_train, "train": expect["n_train"],
                       "val": expect["n_val"], "test": wl.n_test},
        "config": wl.config,
    }


def run_process(cmd: list[str], env: dict, log_dir: Path, timeout: float) -> dict:
    """Run one cold process; timestamp its stage lines and measure its RSS."""
    marks: dict[str, float] = {}
    lines: list[bytes] = []
    with open(log_dir / "stderr.log", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                                bufsize=0)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            for line in iter(proc.stdout.readline, b""):
                now = time.monotonic()
                lines.append(line)
                m = _MARK.match(line.rstrip(b"\n"))
                if m and not m[2].startswith(b"cached"):
                    marks.setdefault(m[1].decode(), now)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    (log_dir / "stdout.log").write_bytes(b"".join(lines))
    return {"code": proc.returncode, "start": start, "end": end, "marks": marks,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def stage_durations(proc: dict) -> dict[str, float]:
    """Each stage lasts from its line to the next stage's line (or exit)."""
    order = sorted(proc["marks"].items(), key=lambda kv: kv[1])
    ends = [t for _, t in order[1:]] + [proc["end"]]
    return {name: end - t for (name, t), end in zip(order, ends)}


def end_to_end(proc: dict, stages: dict, quality: dict, expect: dict) -> dict:
    clf_s = stages["clf-latent"] + stages["clf-quantum"]
    n_rows = expect["n_train"] + expect["n_val"] + expect["n_test"]
    return {
        "setup_s": min(proc["marks"].values()) - proc["start"],
        "wall_s": proc["end"] - proc["start"],
        "ae_train_rows_per_s": expect["n_train"] * expect["ae_epochs"] / stages["train-ae"],
        "clf_train_rows_per_s": 2 * expect["n_train"] * expect["clf_epochs"] / clf_s,
        "qtransform_rows_per_s": n_rows / stages["qtransform"],
        "peak_rss_mb": proc["peak_rss_mb"],
        **quality,
    }


def run_one(k: int, traced: bool, cfg: Path, expect: dict, run_dir: Path, env: dict,
            timeout: float) -> dict:
    out_dir = run_dir / f"run{k:02d}"
    out_dir.mkdir()
    cli = ["--config", str(cfg), "--out", str(out_dir / "out"), "pipeline"]
    if traced:
        spans = out_dir / "spans.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(spans), *cli]
    else:
        cmd = [sys.executable, "-m", "qhybrid.cli", *cli]
    proc = run_process(cmd, env, out_dir, timeout)
    rec = {"traced": traced, "code": proc["code"], "problems": [], "digests": {}}
    if proc["code"] != 0:
        rec["problems"].append(f"exit code {proc['code']}")
        return rec
    quality, rec["problems"] = check_run(out_dir / "out", expect)
    rec["digests"] = digests(out_dir / "out")
    stages = stage_durations(proc)
    absent = [s for s in ("train-ae", "qtransform", "clf-latent", "clf-quantum")
              if s not in stages]
    if absent:
        rec["problems"].append(f"no stage line for {absent}")
    if rec["problems"]:
        return rec
    rec["e2e"] = end_to_end(proc, stages, quality, expect)
    rec["stages"] = stages
    if traced:
        rec["dump"] = json.loads(spans.read_text(encoding="utf-8"))
    shutil.rmtree(out_dir / "out")
    return rec


def per_layer(runs: list[dict]) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics from the traced runs; (values, missing, unequal counts)."""
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    samples, missing = [], set()
    for r in traced:
        values, absent = span_metrics(r["dump"])
        missing |= absent
        for stage, seconds in r["stages"].items():
            values[f"pipeline.{stage}.wall_s"] = seconds
        values["pipeline.stages_run"] = len(r["stages"])
        values["trace.unattributed_s"] = r["e2e"]["wall_s"] - self_time_total(r["dump"])
        samples.append(values)
    exact = {name for name, (is_count, _) in SPAN_METRICS.items() if is_count}
    values, unequal = combine(samples, exact | {"pipeline.stages_run"})
    values["trace.overhead_ratio"] = (
        statistics.median(r["e2e"]["wall_s"] for r in traced)
        / statistics.median(r["e2e"]["wall_s"] for r in untraced)
    )
    return values, sorted(missing), unequal


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "qhybrid" / "cli.py").is_file() or not HELPERS.is_file():
        print(f"perfbench: run from a qhybrid checkout; {SRC / 'qhybrid'} or {HELPERS} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HELPERS.parent)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = WORKLOADS[args.workload].sized(args.toy)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg, expect = write_inputs(run_dir, wl, args.seed)
    env = child_env()
    # untimed warm-up: byte-compile the package and fill the file cache
    subprocess.run([sys.executable, "-c", "import qhybrid.cli"], env=env, cwd=ROOT, check=True)
    info = facts(args.seed, wl, expect)

    runs: list[dict] = []
    durations: list[float] = []
    t0 = time.monotonic()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 0
        begin = time.monotonic()
        timeout = max(5.0, DEADLINE_S - (begin - started))
        runs.append(run_one(len(runs), traced, cfg, expect, run_dir, env, timeout))
        durations.append(time.monotonic() - begin)
        elapsed = time.monotonic() - t0
        # start another run only if at least half of it fits in --seconds
        if len(runs) >= MIN_RUNS and elapsed + statistics.median(durations) / 2 > args.seconds:
            break
        if time.monotonic() - started + max(durations) > DEADLINE_S:
            break

    reference = next((r["digests"] for r in runs if not r["problems"]), {})
    for r in runs:
        if not r["problems"] and r["digests"] != reference:
            changed = sorted(k for k in reference.keys() | r["digests"].keys()
                             if reference.get(k) != r["digests"].get(k))
            r["problems"].append(f"artifact bytes differ from the first run: {changed}")
    good = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(good)
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"run {i}: FAILED: {problem}", file=sys.stderr)
    if not good or (args.trace and not (any(r["traced"] for r in good)
                                        and any(not r["traced"] for r in good))):
        print("perfbench: no run passed its checks; see .perfbench/", file=sys.stderr)
        return 1

    missing: list[str] = []
    unequal: list[str] = []
    if args.trace:
        values, missing, unequal = per_layer(good)
    else:
        values = {name: statistics.median(r["e2e"][name] for r in good)
                  for name in good[0]["e2e"]}
    for name in unequal:
        print(f"count {name} differs between traced runs of one seed", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing += [m["name"] for m in wanted if m["name"] not in values and m["name"] not in missing]

    result_file = run_dir.with_suffix(".json")
    result_file.write_text(json.dumps({
        "workload": args.workload, "facts": info, "expect": expect,
        "runs": [{k: v for k, v in r.items() if k != "dump"} for r in runs],
        "digests": reference, "metrics": metrics, "missing": missing,
        "unequal_counts": unequal,
    }, indent=1, default=str), encoding="utf-8")
    shutil.rmtree(run_dir)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(good)} of {len(runs)} runs passed")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, digest in sorted(reference.items()):
        print(f"  sha256 {digest}  {name}")
    print(f"failed_run_ratio = {failed / len(runs)} ratio (n={len(runs)})")
    samples = sum(r["traced"] for r in good) if args.trace else len(good)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']} (n={samples})")
    for name in missing:
        print(f"{name} = missing")
    print(f"details: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not unequal, "attempted": len(runs), "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
