"""Peak RSS of one paper-scale pipeline run, stage by stage.

Writes 60 000 training and 10 000 test rows of synthetic digits
(``helpers.write_synthetic_idx``) to a temporary directory, runs
``qhybrid pipeline`` on them with one epoch per network, exact mode and one
BLAS thread, and prints every stage's ``done`` line. It then prints the run's
peak next to the import floor: the maxrss of a process that only imports
``qhybrid.cli``, under the same environment.

It exits non-zero if the run fails, or if a stage after ``encode`` reports a
higher maxrss than ``encode`` did: ``encode`` reads the pixel splits last, so
no later stage may hold them. Usage:

    python tests/paper_scale_rss.py [OUT_DIR]

OUT_DIR keeps the run's artifacts; by default they go with the data. The
file name does not start with ``test_``, so pytest does not collect it.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Linux carries a process's peak RSS across exec, so the data is written in a
# child of its own: this process stays small and every maxrss is the run's
WRITE_DATA = """
import sys
from pathlib import Path
from helpers import write_synthetic_idx
write_synthetic_idx(Path(sys.argv[1]), n_train=60_000, n_test=10_000, seed=1)
"""
IMPORT_FLOOR = """
import resource
import qhybrid.cli
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
DONE = re.compile(r"^\[(?P<stage>[^\]]+)\] done: .* maxrss (?P<mb>\d+\.\d) MB")


def main(argv: list[str]) -> int | str:
    """0, or the failure, which ``sys.exit`` prints before exiting with 1."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                                       os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory(prefix="qhybrid-paper-scale-") as tmp:
        tmp = Path(tmp)
        subprocess.run([sys.executable, "-c", WRITE_DATA, str(tmp)], env=env, check=True)
        settings = {"train_images": tmp / "train-images-idx3-ubyte",
                    "train_labels": tmp / "train-labels-idx1-ubyte",
                    "test_images": tmp / "t10k-images-idx3-ubyte",
                    "test_labels": tmp / "t10k-labels-idx1-ubyte",
                    "out_dir": Path(argv[0]) if argv else tmp / "run",
                    "seed": 1, "ae_epochs": 1, "clf_epochs": 1, "quantum_mode": "exact"}
        cfg = tmp / "paper.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
        proc = subprocess.run([sys.executable, "-m", "qhybrid.cli", "--config", str(cfg),
                               "--force", "pipeline"],
                              capture_output=True, text=True, env=env)
    done = [m for m in map(DONE.match, proc.stdout.splitlines()) if m]
    for m in done:
        print(m.group(0))
    if proc.returncode:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        return f"pipeline exited with code {proc.returncode}"
    maxrss = {m.group("stage"): float(m.group("mb")) for m in done}
    stages = list(maxrss)
    if "encode" not in maxrss:
        return "no done line for encode"
    later = {stage: maxrss[stage] for stage in stages[stages.index("encode") + 1 :]}
    over = {stage: mb for stage, mb in later.items() if mb > maxrss["encode"]}
    if over:
        return f"stages after encode exceed its maxrss of {maxrss['encode']} MB: {over}"
    floor = float(subprocess.run([sys.executable, "-c", IMPORT_FLOOR], env=env, check=True,
                                 capture_output=True, text=True).stdout)
    print(f"peak {max(maxrss.values())} MB, import floor {floor:.1f} MB; "
          f"no stage after encode exceeds its {maxrss['encode']} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
