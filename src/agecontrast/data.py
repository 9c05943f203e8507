"""Labeled datasets and constraint-correct triplet sampling.

A sample carries an input vector, an integer age label in 1..A and an
identity label. For an anchor a, the positive candidates share its age
but not its identity; the negative candidates differ in both. Batch
sampling draws anchors without replacement per epoch pass and picks p/n
uniformly from those candidate sets; an anchor whose candidate set is
empty keeps a null slot so contrastive terms can be skipped for it.

Datasets round-trip through CSV (header ``identity,age,v0,v1,...``) with
a JSON sidecar recording input_dim and the age range.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import json

import numpy as np

from .errors import DatasetError

Array = np.ndarray


@dataclass(frozen=True)
class Triplet:
    """Sample indices; p or n is None when no valid candidate exists."""

    a: int
    p: int | None
    n: int | None


class LabeledDataset:
    """Immutable sample store with exact age and identity indexes.

    Row i of ``inputs`` is sample i's input vector, ``ages[i]`` its label
    in 1..num_ages and ``identities[i]`` its non-empty identity label. A
    malformed row is reported by the index of the first offending sample.
    """

    def __init__(self, inputs, ages, identities: Sequence[str], num_ages: int):
        num_ages = int(num_ages)
        if num_ages < 1:
            raise DatasetError(f"num_ages must be >= 1, got {num_ages}")
        inputs = np.array(inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise DatasetError(
                f"inputs must be a (samples, input_dim) matrix, got shape {inputs.shape}")
        n = inputs.shape[0]
        if n == 0:
            raise DatasetError("dataset must contain at least one sample")
        ages = np.array(ages, dtype=np.int64)
        identities = [str(ident) for ident in identities]
        if ages.shape != (n,) or len(identities) != n:
            raise DatasetError(f"{n} input rows need {n} ages and identities, "
                               f"got {ages.shape} and {len(identities)}")
        bad = np.flatnonzero(~np.isfinite(inputs).all(axis=1))
        if bad.size:
            raise DatasetError(f"sample {bad[0]}: non-finite input value")
        bad = np.flatnonzero((ages < 1) | (ages > num_ages))
        if bad.size:
            raise DatasetError(f"sample {bad[0]}: age {ages[bad[0]]} outside 1..{num_ages}")
        if not all(identities):
            raise DatasetError(f"sample {identities.index('')}: empty identity label")
        self.inputs = inputs
        self.ages = ages
        self.identities = identities
        self.num_ages = num_ages
        self.input_dim = inputs.shape[1]
        # Integer identity codes make candidate masks cheap.
        code_of: dict[str, int] = {}
        codes = np.empty(n, dtype=np.int64)
        for i, ident in enumerate(identities):
            codes[i] = code_of.setdefault(ident, len(code_of))
        self._identity_code = codes
        self._by_identity: dict[str, Array] = {
            ident: np.flatnonzero(codes == code) for ident, code in code_of.items()}

    def __len__(self) -> int:
        return len(self.identities)

    def indices_of_identity(self, identity: str) -> Array:
        return self._by_identity.get(identity, np.empty(0, dtype=np.int64)).copy()

    def unique_identities(self) -> list[str]:
        return sorted(self._by_identity)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.inputs[idx], self.ages[idx],
                              [self.identities[i] for i in idx], self.num_ages)


def _positive_candidates(ds: LabeledDataset, anchor: int) -> Array:
    mask = (ds.ages == ds.ages[anchor]) & (ds._identity_code != ds._identity_code[anchor])
    return np.flatnonzero(mask)


def _negative_candidates(ds: LabeledDataset, anchor: int) -> Array:
    mask = (ds.ages != ds.ages[anchor]) & (ds._identity_code != ds._identity_code[anchor])
    return np.flatnonzero(mask)


def positive_set(ds: LabeledDataset, anchor: int) -> set[int]:
    """All indices with the anchor's age but a different identity."""
    return {int(i) for i in _positive_candidates(ds, anchor)}


def negative_set(ds: LabeledDataset, anchor: int) -> set[int]:
    """All indices with a different age and a different identity."""
    return {int(i) for i in _negative_candidates(ds, anchor)}


def has_triplet_negatives(ds: LabeledDataset) -> bool:
    """Whether any anchor has at least one negative candidate.

    That holds iff the dataset has >= 2 ages and >= 2 identities. "Only
    if" is the definition of a negative. "If": take i, j of different
    ages; if their identities differ, j is a negative of i; otherwise any
    k of another identity differs in age from i or from j, so k is a
    negative of that sample.
    """
    return len(np.unique(ds.ages)) >= 2 and len(ds._by_identity) >= 2


def _draw(rng: np.random.Generator, candidates: Array) -> int | None:
    if candidates.size == 0:
        return None
    return int(candidates[rng.integers(candidates.size)])


def _triplets_for(ds: LabeledDataset, anchors: Array, rng: np.random.Generator,
                  triplets_per_anchor: int) -> list[Triplet]:
    out: list[Triplet] = []
    for a in anchors:
        a = int(a)
        pos = _positive_candidates(ds, a)
        neg = _negative_candidates(ds, a)
        for _ in range(triplets_per_anchor):
            out.append(Triplet(a, _draw(rng, pos), _draw(rng, neg)))
    return out


def sample_triplet_batch(ds: LabeledDataset, batch_size: int, seed: int) -> list[Triplet]:
    """One seeded batch: anchors uniform without replacement, p and n
    uniform over the candidate sets (None where a set is empty)."""
    return next(iter_epoch_batches(ds, batch_size, np.random.default_rng(seed)))


def iter_epoch_batches(ds: LabeledDataset, batch_size: int, rng: np.random.Generator,
                       triplets_per_anchor: int = 1) -> Iterator[list[Triplet]]:
    """Batches covering one epoch: every sample anchors exactly once."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if triplets_per_anchor < 1:
        raise ValueError(f"triplets_per_anchor must be >= 1, got {triplets_per_anchor}")
    perm = rng.permutation(len(ds))
    for start in range(0, len(perm), batch_size):
        yield _triplets_for(ds, perm[start:start + batch_size], rng, triplets_per_anchor)


# ---------------------------------------------------------------------------
# CSV round-trip

def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write the CSV plus its metadata sidecar. Floats use repr so the
    round-trip is bitwise."""
    path = Path(path)
    for ident in ds._by_identity:
        if "," in ident or "\n" in ident or "\r" in ident:
            raise DatasetError(f"identity {ident!r} cannot be stored in CSV")
    header = "identity,age," + ",".join(f"v{i}" for i in range(ds.input_dim))
    lines = [header]
    for i in range(len(ds)):
        values = ",".join(repr(float(v)) for v in ds.inputs[i])
        lines.append(f"{ds.identities[i]},{int(ds.ages[i])},{values}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {"input_dim": int(ds.input_dim), "num_ages": int(ds.num_ages)}
    _meta_path(path).write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")


def load_dataset(path) -> LabeledDataset:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise DatasetError(f"missing metadata sidecar: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        input_dim = int(meta["input_dim"])
        num_ages = int(meta["num_ages"])
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise DatasetError(f"metadata sidecar {meta_path} must be JSON defining "
                           "input_dim and num_ages") from exc

    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: byte {exc.start} is not UTF-8 text") from exc
    if not lines:
        raise DatasetError(f"empty dataset file: {path}")
    expected_header = "identity,age," + ",".join(f"v{i}" for i in range(input_dim))
    if lines[0] != expected_header:
        raise DatasetError(f"unexpected CSV header in {path}")
    inputs = np.empty((len(lines) - 1, input_dim))
    identities: list[str] = []
    ages: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2 + input_dim:
            raise DatasetError(f"{path}:{lineno}: expected {2 + input_dim} fields, got {len(parts)}")
        try:
            age = int(parts[1])
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: age {parts[1]!r} is not an integer") from exc
        if not 1 <= age <= num_ages:
            raise DatasetError(f"{path}:{lineno}: age {age} outside 1..{num_ages}")
        try:
            inputs[len(ages)] = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: malformed feature value") from exc
        identities.append(parts[0])
        ages.append(age)
    return LabeledDataset(inputs[:len(ages)], ages, identities, num_ages)
