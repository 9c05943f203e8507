"""Labeled datasets and constraint-correct triplet sampling.

A sample carries an input vector, an integer age label in 1..A and an
identity label. For an anchor a, the positive candidates share its age
but not its identity; the negative candidates differ in both. An epoch's
batches hold every sample as anchor exactly once, in a seeded random
order, and pick each anchor's p/n uniformly from its candidate sets; an
anchor whose candidate set is empty keeps a null slot so contrastive
terms can be skipped for it. A batch is a ``TripletBatch``: three int64
arrays ``a``, ``p``, ``n`` with -1 in a null slot, built without a
Python object per triplet.

The sampler never filters the dataset per anchor. Each dataset sorts its
rows once, age-major and identity-minor, into ``order``. In that order an
age is a block ``[s0, s1)`` of ``n_age`` positions, and the anchor's
identity occupies one run of ``run`` positions inside its block (the run
holds the anchor itself). Each candidate set is then the image of a
range of integers under a map that is one-to-one, so a single uniform
integer per slot gives an exactly uniform candidate:

* positive: ``u`` in ``[0, n_age - run)`` goes to position ``s0 + u``,
  plus ``run`` when that lands at or past the run's start; this skips
  the run and nothing else inside the block.
* negative: ``x`` in ``[0, N - n_age - m + run)``, with ``m`` the
  identity's size, must skip the block and the identity's other
  positions. Let the identity's positions be ``q_0 < q_1 < ...`` and
  ``l`` of them lie before ``s0``. The first ``s0 - l`` values of ``x``
  are the non-identity positions before the block, so ``y = x`` there;
  the rest start past the block and the run, so ``y = x + n_age - run``.
  Position ``y + #{j: q_j - j <= y}`` is then the ``y``-th position that
  is not the identity's, since ``q_j - j`` counts the non-identity
  positions before ``q_j``; the block's other rows are never reached,
  because ``y`` jumps over exactly them. The keys ``q_j - j`` of all
  identities are stored in one sorted array, offset by identity code
  times N, so each count is one ``searchsorted``.

``positive_set``/``negative_set`` enumerate the same maps over every
integer in range, so the brute-force checks of those sets check the code
that draws. Building the index costs O(N log N) once per dataset, and a
batch costs one ``rng.integers`` call per slot kind plus O(log N) per
triplet. The per-identity row lists come from one stable argsort, also
O(N log N).

Datasets round-trip through CSV (header ``identity,age,v0,v1,...``) with
a JSON sidecar recording input_dim and the age range. Large sets are
formatted on up to one forked worker per CPU of ``dataset_pool``, the
package's one process pool, which sweeps share; the bytes do not depend
on how many. ``save_dataset`` also writes ``<stem>.cache.npy``, np.save
records of the CSV's sha256 in hex, the ages, the ``"\n"``-joined UTF-8
identities and the inputs. ``load_dataset`` builds the dataset from it
when that key is the CSV's sha256 and the shapes match the sidecar, and
parses the CSV otherwise, as it does a CSV from elsewhere. The cache is
derived and safe to delete; a load never writes it. All three files go
through ``manifest.atomic_write`` (see ``save_dataset`` for their order).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import json
import math
import multiprocessing
import os
import re
import signal

import numpy as np

from .errors import DatasetError, WorkerDiedError
from .manifest import atomic_write, sha256_file

Array = np.ndarray


@dataclass(frozen=True)
class Triplet:
    """One triplet slot of a batch; p or n is None when no valid candidate
    exists."""

    a: int
    p: int | None
    n: int | None


@dataclass(frozen=True, eq=False)
class TripletBatch:
    """A batch of triplets as three int64 row-index arrays of one length.

    ``a`` holds the anchors; ``p[i]`` and ``n[i]`` are anchor i's
    positive and negative, or -1 where that candidate set is empty.
    Training reads the arrays. ``len`` counts the slots and iterating
    yields one ``Triplet`` per slot (None for -1).
    """

    a: Array
    p: Array
    n: Array

    def __post_init__(self):
        for name in ("a", "p", "n"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if not (self.a.ndim == 1 and self.a.shape == self.p.shape == self.n.shape):
            raise ValueError(f"TripletBatch: a, p and n must be vectors of one length, got "
                             f"{self.a.shape}, {self.p.shape} and {self.n.shape}")

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self) -> Iterator[Triplet]:
        for a, p, n in zip(self.a.tolist(), self.p.tolist(), self.n.tolist()):
            yield Triplet(a, p if p >= 0 else None, n if n >= 0 else None)


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
        code_of: dict[str, int] = {}
        codes = np.empty(n, dtype=np.int64)
        for i, ident in enumerate(identities):
            codes[i] = code_of.setdefault(ident, len(code_of))
        # Rows of each identity, ascending, keyed in order of first appearance.
        by_code = np.argsort(codes, kind="stable")
        self._by_identity: dict[str, Array] = dict(
            zip(code_of, np.split(by_code, np.cumsum(np.bincount(codes))[:-1])))
        self._sampler = _SamplerIndex(ages, codes)

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


class _SamplerIndex:
    """Per-row parameters of the positive and negative maps (see the
    module docstring), built once over the age-major, identity-minor order."""

    def __init__(self, ages: Array, codes: Array):
        n = len(ages)
        self.order = np.lexsort((codes, ages))
        a, c = ages[self.order], codes[self.order]
        block_start = np.r_[True, a[1:] != a[:-1]]
        block_lo, block_hi = _spans(block_start)
        run_lo, run_hi = _spans(block_start | np.r_[True, c[1:] != c[:-1]])
        # Positions grouped by identity, ascending within each identity.
        by_identity = np.argsort(c, kind="stable")
        id_count = np.bincount(codes)
        id_first = np.cumsum(id_count) - id_count
        rank = np.empty(n, dtype=np.int64)  # a position's rank among its identity's
        rank[by_identity] = np.arange(n) - id_first[c[by_identity]]
        self.keys = c[by_identity] * n + by_identity - rank[by_identity]

        n_age, run = block_hi - block_lo, run_hi - run_lo
        at = np.empty(n, dtype=np.int64)  # each row's position
        at[self.order] = np.arange(n)
        self.block_lo = block_lo[at]
        self.run_lo = run_lo[at]
        self.run_len = run[at]
        self.n_pos = (n_age - run)[at]
        self.neg_split = (block_lo - rank[run_lo])[at]
        self.n_neg = (n - n_age - id_count[c] + run)[at]
        self.key_lo = codes * n
        self.key_first = id_first[codes]

    def positive(self, anchors: Array, u: Array) -> Array:
        """Rows for u in [0, n_pos) of each anchor."""
        q = self.block_lo[anchors] + u
        q += self.run_len[anchors] * (q >= self.run_lo[anchors])
        return self.order[q]

    def negative(self, anchors: Array, x: Array) -> Array:
        """Rows for x in [0, n_neg) of each anchor."""
        y = x + self.n_pos[anchors] * (x >= self.neg_split[anchors])
        skipped = np.searchsorted(self.keys, self.key_lo[anchors] + y, side="right")
        return self.order[y + skipped - self.key_first[anchors]]


def _spans(starts: Array) -> tuple[Array, Array]:
    """[lo, hi) of the span holding each position, given span starts."""
    lo = np.flatnonzero(starts)
    span = np.cumsum(starts) - 1
    return lo[span], np.r_[lo[1:], len(starts)][span]


def _candidate_rows(ds: LabeledDataset, anchor: int) -> tuple[Array, Array]:
    """The positive and the negative map over every integer in range, in order."""
    ix = ds._sampler
    pos = np.full(ix.n_pos[anchor], anchor)
    neg = np.full(ix.n_neg[anchor], anchor)
    return ix.positive(pos, np.arange(pos.size)), ix.negative(neg, np.arange(neg.size))


def positive_set(ds: LabeledDataset, anchor: int) -> set[int]:
    """All indices with the anchor's age but a different identity."""
    return set(_candidate_rows(ds, anchor)[0].tolist())


def negative_set(ds: LabeledDataset, anchor: int) -> set[int]:
    """All indices with a different age and a different identity."""
    return set(_candidate_rows(ds, anchor)[1].tolist())


def has_triplet_negatives(ds: LabeledDataset) -> bool:
    """Whether any anchor has at least one negative candidate."""
    return bool(ds._sampler.n_neg.any())


def _triplets_for(ds: LabeledDataset, anchors: Array,
                  rng: np.random.Generator) -> TripletBatch:
    ix = ds._sampler
    n_pos, n_neg = ix.n_pos[anchors], ix.n_neg[anchors]
    # An empty set draws from [0, 1) and its slot is nulled below.
    u = rng.integers(0, np.maximum(n_pos, 1))
    x = rng.integers(0, np.maximum(n_neg, 1))
    p = np.full(anchors.size, -1)
    n = np.full(anchors.size, -1)
    has_p, has_n = n_pos > 0, n_neg > 0
    p[has_p] = ix.positive(anchors[has_p], u[has_p])
    n[has_n] = ix.negative(anchors[has_n], x[has_n])
    return TripletBatch(anchors, p, n)


def sample_triplet_batch(ds: LabeledDataset, batch_size: int, seed: int) -> TripletBatch:
    """One seeded batch: anchors uniform without replacement, p and n
    uniform over the candidate sets (-1 where a set is empty)."""
    return next(iter_epoch_batches(ds, batch_size, np.random.default_rng(seed)))


def iter_epoch_batches(ds: LabeledDataset, batch_size: int,
                       rng: np.random.Generator) -> Iterator[TripletBatch]:
    """Batches covering one epoch: every sample anchors exactly once."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(len(ds))
    for start in range(0, len(perm), batch_size):
        yield _triplets_for(ds, perm[start:start + batch_size], rng)


# ---------------------------------------------------------------------------
# CSV round-trip

def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def _cache_path(path: Path) -> Path:
    return path.with_name(path.stem + ".cache.npy")


# Values (rows x input_dim) one CSV chunk formats; the parent writes each
# chunk as it arrives, so it never holds the whole text.
_CSV_CHUNK_VALUES = 32_768
# Each forked CSV worker gets at least this many values. On 2 vCPUs two
# workers broke even with in-process formatting at about 2,000 rows of 64
# values (115 against 117 ms) and lost at 500 (50 against 33 ms).
_MIN_VALUES_PER_WORKER = 131_072


def _format_rows(ds: LabeledDataset, span: tuple[int, int]) -> str:
    """CSV rows lo..hi-1, each ending in a newline; floats use repr."""
    lo, hi = span
    return "".join(f"{ident},{age},{','.join(map(repr, row))}\n" for ident, age, row in zip(
        ds.identities[lo:hi], ds.ages[lo:hi].tolist(), ds.inputs[lo:hi].tolist()))


def _csv_workers(values: int) -> int:
    """Forked formatters for this many values: one per CPU this process
    may run on, each given at least _MIN_VALUES_PER_WORKER values. 1 means
    in-process, as on a platform without fork."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, values // _MIN_VALUES_PER_WORKER))


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write the CSV, its metadata sidecar and its cache. Floats use repr
    so the round-trip is bitwise. Chunks of rows are formatted on up to one
    forked worker per CPU and written in order, so the bytes do not depend
    on the worker count. A failed save leaves the earlier files as they were."""
    path = Path(path)
    for ident in ds._by_identity:
        # load_dataset splits rows with str.splitlines, which also breaks
        # at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029.
        if "," in ident or ident.splitlines() != [ident]:
            raise DatasetError(f"identity {ident!r} cannot be stored in CSV")
    n, step = len(ds), max(1, _CSV_CHUNK_VALUES // ds.input_dim)
    spans = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    header = "identity,age," + ",".join(f"v{i}" for i in range(ds.input_dim)) + "\n"
    meta = {"input_dim": int(ds.input_dim), "num_ages": int(ds.num_ages)}
    names = "\n".join(ds.identities).encode("utf-8")
    # fork, not spawn: a worker inherits the dataset without a pickle or
    # a fresh import, and runs only Python formatting, no BLAS.
    with dataset_pool(ds, _csv_workers(n * ds.input_dim), "fork") as (run, _):
        rows = run(_format_rows, spans)  # any workers fork here, before a file opens
        # Every file is whole before the first moves; the CSV moves first and
        # the cache last, so until then an earlier cache's key fails the new CSV.
        with atomic_write(_cache_path(path), binary=True) as cache, \
                atomic_write(_meta_path(path)) as sidecar, atomic_write(path) as csv:
            csv.write(header)
            csv.writelines(rows)
            csv.flush()
            sidecar.write(json.dumps(meta, indent=1) + "\n")
            for record in (np.frombuffer(sha256_file(csv.name).encode("ascii"), np.uint8),
                           ds.ages, np.frombuffer(names, np.uint8),
                           np.ascontiguousarray(ds.inputs)):
                np.save(cache, record, allow_pickle=False)


# np.save's header of a C-order vector or matrix, .npy version 1.0
_NPY_HEADER = re.compile(rb"\{'descr': '([^']*)', 'fortran_order': False, "
                         rb"'shape': \((\d+),(?: (\d+))?\), \} *\n")


def _read_record(fh, descr: str) -> Array:
    """The next np.save record of fh, a vector or matrix of ``descr``
    values. Its size is checked against the bytes left in the file before
    it is read, so a forged header allocates nothing."""
    start = fh.read(10)
    match = start[:8] == b"\x93NUMPY\x01\x00" and _NPY_HEADER.fullmatch(
        fh.read(int.from_bytes(start[8:], "little")))
    if not match or match[1] != descr.encode():
        raise ValueError("unexpected .npy record")
    shape = tuple(int(d) for d in match.groups()[1:] if d is not None)
    size = math.prod(shape) * np.dtype(descr).itemsize
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(".npy record does not fit its file")
    return np.frombuffer(fh.read(size), descr).reshape(shape)


def _load_cache(path: Path, input_dim: int, num_ages: int) -> LabeledDataset | None:
    """The dataset in path's cache, or None unless the cache is whole, its
    key is the CSV's sha256 and its shapes and values pass the sidecar."""
    try:
        with _cache_path(path).open("rb") as fh:
            key, ages, names, inputs = [_read_record(fh, d) for d in ("|u1", "<i8", "|u1", "<f8")]
            whole = not fh.read(1)
        # The constructor checks the ages' shape against the inputs'.
        if (not whole or inputs.shape != (len(ages), input_dim)
                or key.tobytes() != sha256_file(path).encode("ascii")):
            return None
        return LabeledDataset(inputs, ages, names.tobytes().decode("utf-8").split("\n"), num_ages)
    except (OSError, ValueError, DatasetError):  # any mismatch: parse the CSV
        return None


def load_dataset(path) -> LabeledDataset:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise DatasetError(f"missing metadata sidecar: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        input_dim, num_ages = meta["input_dim"], meta["num_ages"]
        if not all(type(v) is int and v >= 1 for v in (input_dim, num_ages)):
            raise ValueError("input_dim and num_ages must be positive JSON integers")
    except OSError as exc:  # e.g. a directory in its place
        raise DatasetError(f"cannot read metadata sidecar {meta_path}: {exc.strerror or exc}") from exc
    # JSONDecodeError is a ValueError; a deeply nested document is a RecursionError.
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DatasetError(f"metadata sidecar {meta_path} must be JSON defining "
                           "input_dim and num_ages as positive integers") from exc

    cached = _load_cache(path, input_dim, num_ages)
    if cached is not None:
        return cached
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: byte {exc.start} is not UTF-8 text") from exc
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path}: {exc.strerror or exc}") from exc
    if not lines:
        raise DatasetError(f"empty dataset file: {path}")
    header = lines[0].split(",")
    # Count the fields before naming them: the sidecar's input_dim may be huge.
    if len(header) != 2 + input_dim or header != [
            "identity", "age", *(f"v{i}" for i in range(input_dim))]:
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


# ---------------------------------------------------------------------------
# The process pool

_pool_dataset: LabeledDataset | None = None  # set once in each pool worker


def _init_pool_worker(ds: LabeledDataset, errstate: dict) -> None:
    global _pool_dataset
    _pool_dataset = ds
    # Ctrl-C reaches the whole process group; the parent reports it and ends the pool.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    np.seterr(**errstate)  # a spawned worker starts with numpy's defaults


def _on_pool_dataset(fn: Callable, arg):
    return fn(_pool_dataset, arg)


@contextmanager
def _one_blas_thread():
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
        if saved is not None:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


@contextmanager
def dataset_pool(ds: LabeledDataset, workers: int, method: str):
    """Yields ``(run, workers)``: ``run(fn, args)`` is an iterator of
    ``fn(ds, arg)``, in order, and workers the count that runs them.

    One worker runs them in this process, as does a daemonic process,
    which may have no children; more are ``method`` ("fork" or "spawn")
    processes that get ds and numpy's error state at start and a
    one-thread OPENBLAS_NUM_THREADS while ``run`` submits every job. The
    first failure raises, a dead worker's as a WorkerDiedError; leaving
    the block cancels the jobs not yet started and joins the workers.
    """
    if workers == 1 or multiprocessing.current_process().daemon:
        yield (lambda fn, args: map(partial(fn, ds), args)), 1
        return
    # Imported on use: it adds 16-20 ms to the start of a command that starts no pool.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context(method),
                               initializer=_init_pool_worker, initargs=(ds, np.geterr()))

    def run(fn: Callable, args: Iterable) -> Iterator:
        with _one_blas_thread():
            return pool.map(partial(_on_pool_dataset, fn), args)
    try:
        yield run, workers
    except BrokenProcessPool as exc:
        raise WorkerDiedError("a worker process died before finishing its job "
                              "(killed, e.g. out of memory)") from exc
    finally:
        pool.shutdown(cancel_futures=True)
