"""Output checks written in plain numpy, independent of agecontrast.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_triplets(ages, identities, triplets) -> list[str]:
    """Every (a, p, n) against the constraint definitions: p has the
    anchor's age and another identity, n another age and another identity;
    a slot is empty only when no such candidate exists. Anchors are distinct."""
    ages = np.asarray(ages)
    _, codes = np.unique(np.asarray(identities), return_inverse=True)
    failures = []
    anchors = [a for a, _, _ in triplets]
    if len(set(anchors)) != len(anchors):
        failures.append("triplets: an anchor repeats within the batch")
    for a, p, n in triplets:
        other_identity = codes != codes[a]
        for role, idx, mask in (("positive", p, (ages == ages[a]) & other_identity),
                                ("negative", n, (ages != ages[a]) & other_identity)):
            if idx is None:
                if mask.any():
                    failures.append(f"anchor {a}: empty {role} slot but candidates exist")
            elif not mask[idx]:
                failures.append(f"anchor {a}: {role} {idx} violates its constraint")
    return failures


def check_finite_history(history_rows) -> list[str]:
    for epoch, row in enumerate(history_rows):
        if not all(math.isfinite(v) for v in row):
            return [f"loss history: non-finite value at epoch {epoch}: {row}"]
    return []


def mlp_ages(weights, biases, x) -> np.ndarray:
    """Expected age under the softmax head of a relu MLP (labels 1..A)."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
    z = h @ weights[-1] + biases[-1]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return s @ np.arange(1, s.shape[1] + 1, dtype=np.float64)


def checkpoint_arrays(path: Path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(weights, biases) from a checkpoint JSON; parameters alternate w, b."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    arrays = [np.array(p["data"], dtype=np.float64).reshape(p["shape"])
              for p in payload["parameters"]]
    return arrays[0::2], arrays[1::2]


def check_beats_median(predicted, true_ages, train_ages) -> tuple[float, float, list[str]]:
    """Held-out MAE must beat the constant training-median predictor."""
    true_ages = np.asarray(true_ages, dtype=np.float64)
    mae = float(np.mean(np.abs(np.asarray(predicted) - true_ages)))
    baseline = float(np.mean(np.abs(true_ages - np.median(train_ages))))
    failures = [] if mae < baseline else [
        f"held-out MAE {mae:.4f} does not beat the median-age baseline {baseline:.4f}"]
    return mae, baseline, failures


def check_sweep(csv_runs: list[bytes], rows_expected: int = 6) -> list[str]:
    """The table has the expected rows, every number finite, and repeats of
    one seed are byte-identical."""
    if len(csv_runs) < 2:
        return [f"sweep: {len(csv_runs)} run(s); byte identity needs two"]
    failures = [f"sweep.csv of repeat {i} differs from repeat 0"
                for i, run in enumerate(csv_runs[1:], start=1) if run != csv_runs[0]]
    lines = csv_runs[0].decode("utf-8").strip().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(rows) != rows_expected:
        failures.append(f"sweep.csv has {len(rows)} rows, expected {rows_expected}")
    numeric = [i for i, col in enumerate(header) if col not in ("label", "pair_loss")]
    for row in rows:
        if len(row) != len(header):
            failures.append(f"sweep.csv row {row[0]!r} has {len(row)} fields")
        elif not all(math.isfinite(float(row[i])) for i in numeric):
            failures.append(f"sweep.csv row {row[0]!r} has a non-finite value")
    return failures


def read_dataset_csv(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(identities, ages, inputs) from a ``identity,age,v0,...`` CSV."""
    with open(path, encoding="utf-8") as fh:
        columns = len(fh.readline().split(","))
        identities = [line.split(",", 1)[0] for line in fh]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(1, columns))
    return identities, table[:, 0].astype(np.int64), table[:, 1:]


def check_lopo_eval(dataset_csv: Path, checkpoint_json: Path,
                    folds_csv: Path, report_json: Path) -> list[str]:
    """One eval_folds.csv row per identity (sorted), each fold's size and
    MAE, and the report's mean MAE, all equal a plain-numpy forward."""
    identities, ages, x = read_dataset_csv(dataset_csv)
    predicted = mlp_ages(*checkpoint_arrays(checkpoint_json), x)
    names, codes = np.unique(np.asarray(identities), return_inverse=True)
    sizes = np.bincount(codes)
    fold_mae = np.bincount(codes, weights=np.abs(predicted - ages)) / sizes
    failures = []
    rows = folds_csv.read_text(encoding="utf-8").strip().splitlines()[1:]
    if len(rows) != len(names):
        failures.append(f"eval_folds.csv has {len(rows)} rows for {len(names)} identities")
    for i, row in enumerate(rows[:len(names)]):
        fold, size, mae = row.split(",")
        if int(fold) != i or int(size) != sizes[i] or not _close(float(mae), fold_mae[i]):
            failures.append(f"eval_folds.csv row {i} ({row}) != fold of {names[i]} "
                            f"(size {sizes[i]}, MAE {fold_mae[i]!r})")
            break
    report = json.loads(report_json.read_text(encoding="utf-8"))
    if not _close(report["mean_mae"], float(np.mean(fold_mae))):
        failures.append(f"eval mean MAE {report['mean_mae']!r} != numpy forward "
                        f"{float(np.mean(fold_mae))!r}")
    return failures


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_manifest(manifest_json: Path, cwd: Path) -> list[str]:
    """Every input and output checksum in a manifest matches its file;
    paths are relative to the directory the command ran in."""
    manifest = json.loads(manifest_json.read_text(encoding="utf-8"))
    failures = []
    for kind in ("inputs", "outputs"):
        for name, digest in manifest[kind].items():
            path = cwd / name
            if not path.is_file():
                failures.append(f"{manifest_json.name}: {kind} {name} is missing")
            elif sha256(path) != digest:
                failures.append(f"{manifest_json.name}: sha256 of {name} does not match")
    return failures
