"""Seeded prediction files for the ``estimate`` workloads.

The files follow the shifted hypersphere law of the source paper without
importing ``confmetrics.synthesis``, so a change to that module cannot
change what the benchmark feeds the CLI.  Each point draws a pool (easy with
probability ``EASY_FRACTION``) and a distance to the sphere surface uniform
in the pool's band; its calibrated score is exp(-ln(sqrt 2) * d^2), its
prediction is ``score >= 0.5`` and its label is Bernoulli(score).  Only the
distance enters the file, so the point's direction is not drawn.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

DECAY = math.log(math.sqrt(2.0))
EASY_FRACTION = 0.2
RADIUS = 3.0
# Score bands of the pools: easy points score >= 0.9 (near the surface) or
# <= 0.1 (far from it), hard points score in [0.4, 0.6].
EASY_HIGH_FLOOR = 0.9
EASY_LOW_CAP = 0.1
HARD_BAND = (0.4, 0.6)


def _distance_at(score: float) -> float:
    return math.sqrt(math.log(1.0 / score) / DECAY)


def hypersphere_arrays(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictions, scores and labels of ``n`` shifted-hypersphere points."""
    rng = np.random.default_rng(seed)
    take_easy = rng.random(n) < EASY_FRACTION
    near_side = rng.random(n) < 0.5
    lo = np.where(
        take_easy,
        np.where(near_side, 0.0, _distance_at(EASY_LOW_CAP)),
        _distance_at(HARD_BAND[1]),
    )
    hi = np.where(
        take_easy,
        np.where(near_side, _distance_at(EASY_HIGH_FLOOR), RADIUS),
        _distance_at(HARD_BAND[0]),
    )
    distance = rng.uniform(lo, hi)
    scores = np.exp(-DECAY * np.square(distance))
    labels = (rng.random(n) < scores).astype(np.int8)
    predictions = (scores >= 0.5).astype(np.int8)
    return predictions, scores, labels


def csv_text(predictions, scores, labels) -> str:
    """CSV with the ``prediction,score,label`` header; scores are written
    with ``repr`` so the file round-trips every float exactly."""
    rows = [
        f"{p},{s!r},{y}"
        for p, s, y in zip(predictions.tolist(), scores.tolist(), labels.tolist())
    ]
    return "prediction,score,label\n" + "\n".join(rows) + "\n"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_hypersphere_files(
    directory: Path, seed: int, n_files: int, rows_per_file: int
) -> list[dict]:
    """Write ``n_files`` files from one seeded stream and describe each.

    Each description holds the path, its sha256 and the arrays the file was
    written from, which the output checks compare the CLI's report against.
    """
    predictions, scores, labels = hypersphere_arrays(seed, n_files * rows_per_file)
    files = []
    for k in range(n_files):
        part = slice(k * rows_per_file, (k + 1) * rows_per_file)
        path = Path(directory) / f"input-{k}.csv"
        path.write_text(csv_text(predictions[part], scores[part], labels[part]), "utf-8")
        files.append(
            {
                "path": path,
                "sha256": sha256_file(path),
                "predictions": predictions[part],
                "scores": scores[part],
                "labels": labels[part],
            }
        )
    return files
