"""Sampled quantum features at paper scale, in both layouts.

Transforms 70 000 rows of random 64-wide latents with 1 024 shots per block,
once per layout, and prints each wall time; no time is gated. It exits
non-zero unless every feature times the shot count is an integer count in
[0, shots], and every histogram block's counts add up to the shots. Usage:

    python tests/paper_scale_sampled.py

The file name does not start with ``test_``, so pytest does not collect it.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qhybrid.qfeatures import N_BLOCKS, ScalingStats, transform_features  # noqa: E402
from qhybrid.rng import Rng  # noqa: E402

ROWS, SHOTS = 70_000, 1024


def main() -> int:
    latents = Rng(0).uniform(ROWS * 64).reshape(ROWS, 64)
    stats = ScalingStats.fit(latents)
    bad = []
    for layout in ("marginal", "histogram"):
        start = time.perf_counter()
        features = transform_features(latents, stats, mode="sampled", shots=SHOTS, rng=Rng(1),
                                      layout=layout)
        print(f"{layout}: {ROWS} rows x {SHOTS} shots in {time.perf_counter() - start:.2f} s",
              flush=True)
        features *= SHOTS  # counts, checked a slice at a time to stay small
        for counts in np.array_split(features, 20):
            if not (np.all(counts == np.rint(counts)) and 0 <= counts.min()
                    and counts.max() <= SHOTS):
                bad.append(f"{layout}: a feature is not a count / {SHOTS}")
            if layout == "histogram" and np.any(
                    counts.reshape(len(counts), N_BLOCKS, -1).sum(-1) != SHOTS):
                bad.append(f"histogram: a block's counts do not add up to {SHOTS}")
        del features
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
