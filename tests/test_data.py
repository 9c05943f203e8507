"""Dataset indexes, candidate sets vs brute force, triplet sampling, CSV."""

import concurrent.futures
import errno
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager

import hypothesis.extra.numpy as hnp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from agecontrast import data
from agecontrast.data import (LabeledDataset, Triplet, TripletBatch, _candidate_rows,
                              has_triplet_negatives, iter_epoch_batches, load_dataset,
                              negative_set, positive_set, sample_triplet_batch, save_dataset)
from agecontrast.errors import DatasetError

from conftest import cli_env, make_dataset


# The characters a CSV identity field cannot hold: the field separator and
# every line boundary of str.splitlines.
CSV_BREAKS = ",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def csv_datasets(draw):
    """Datasets of arbitrary finite inputs and arbitrary non-empty labels."""
    labels = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=6))
    num_ages = draw(st.integers(1, 100))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    inputs = draw(hnp.arrays(np.float64, (len(labels), draw(st.integers(1, 3))),
                             elements=finite))
    ages = draw(hnp.arrays(np.int64, len(labels), elements=st.integers(1, num_ages)))
    return LabeledDataset(inputs, ages, labels, num_ages)


def brute_positive(ds, a):
    return {j for j in range(len(ds))
            if ds.ages[j] == ds.ages[a] and ds.identities[j] != ds.identities[a]}


def brute_negative(ds, a):
    return {j for j in range(len(ds))
            if ds.ages[j] != ds.ages[a] and ds.identities[j] != ds.identities[a]}


def assert_identity_index(ds):
    """The identity index equals one rebuilt from the label list."""
    members = {}
    for i, ident in enumerate(ds.identities):
        members.setdefault(ident, []).append(i)
    assert ds.unique_identities() == sorted(members)
    for ident, idx in members.items():
        npt.assert_array_equal(ds.indices_of_identity(ident), idx)
    assert ds.indices_of_identity("not-an-identity").size == 0


class TestCandidateSets:
    def test_single_sample_dataset(self):
        ds = make_dataset([5], ["A"], num_ages=9)
        assert positive_set(ds, 0) == set()
        assert negative_set(ds, 0) == set()

    def test_hand_case_positive(self):
        ds = make_dataset([5, 5, 6], ["A", "B", "A"], num_ages=9)
        assert positive_set(ds, 0) == brute_positive(ds, 0) == {1}

    def test_hand_case_negative(self):
        ds = make_dataset([5, 5, 6], ["A", "B", "C"], num_ages=9)
        assert negative_set(ds, 0) == brute_negative(ds, 0) == {2}

    def test_unique_age_has_no_positives(self):
        ds = make_dataset([1, 2, 3], ["A", "B", "C"], num_ages=5)
        assert positive_set(ds, 0) == set()

    def test_shared_identity_has_no_negatives(self):
        ds = make_dataset([1, 2, 3], ["A", "A", "A"], num_ages=5)
        for a in range(3):
            assert negative_set(ds, a) == set()
        assert not has_triplet_negatives(ds)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from("ABC")),
                    min_size=1, max_size=12))
    @example([(2, "A"), (2, "B"), (2, "C")])  # a single age
    @example([(1, "A"), (2, "A"), (3, "A")])  # a single identity
    @example([(1, "A"), (2, "A"), (1, "B")])  # the two ages share one identity
    def test_has_triplet_negatives_matches_brute_force(self, layout):
        ages, identities = zip(*layout)
        ds = make_dataset(ages, identities, num_ages=4)
        expected = any(brute_negative(ds, a) for a in range(len(ds)))
        assert has_triplet_negatives(ds) == expected

    def test_sets_disjoint(self, grid_dataset):
        for a in range(len(grid_dataset)):
            assert positive_set(grid_dataset, a) & negative_set(grid_dataset, a) == set()

    def test_matches_brute_force_on_random_dataset(self):
        rng = np.random.default_rng(12)
        n = 300
        ds = make_dataset(rng.integers(1, 9, n), [f"p{i}" for i in rng.integers(0, 40, n)],
                          num_ages=8, seed=1)
        for a in range(n):
            assert positive_set(ds, a) == brute_positive(ds, a)
            assert negative_set(ds, a) == brute_negative(ds, a)


class TestBatchSampling:
    def test_constraints_always_hold(self, grid_dataset):
        ds = grid_dataset
        for seed in range(50):
            for t in sample_triplet_batch(ds, len(ds), seed):
                if t.p is not None:
                    assert ds.ages[t.p] == ds.ages[t.a]
                    assert ds.identities[t.p] != ds.identities[t.a]
                if t.n is not None:
                    assert ds.ages[t.n] != ds.ages[t.a]
                    assert ds.identities[t.n] != ds.identities[t.a]

    def test_deterministic_per_seed(self, grid_dataset):
        a = sample_triplet_batch(grid_dataset, 16, seed=9)
        b = sample_triplet_batch(grid_dataset, 16, seed=9)
        assert list(a) == list(b)
        assert list(a) != list(sample_triplet_batch(grid_dataset, 16, seed=10))

    def test_anchors_without_replacement(self, grid_dataset):
        batch = sample_triplet_batch(grid_dataset, len(grid_dataset), seed=0)
        anchors = [t.a for t in batch]
        assert sorted(anchors) == list(range(len(grid_dataset)))

    def test_null_positive_kept_in_batch(self):
        # second sample's age is unique -> no positive, but it still anchors
        ds = make_dataset([3, 4, 3], ["A", "B", "C"], num_ages=6)
        batch = sample_triplet_batch(ds, 3, seed=1)
        by_anchor = {t.a: t for t in batch}
        assert by_anchor[1].p is None
        assert by_anchor[1].n is not None

    def test_batch_is_arrays_with_minus_one_for_null_slots(self):
        ds = make_dataset([3, 4, 3], ["A", "B", "C"], num_ages=6)
        batch = sample_triplet_batch(ds, 3, seed=1)
        assert isinstance(batch, TripletBatch) and len(batch) == 3
        assert all(x.dtype == np.int64 and x.shape == (3,) for x in (batch.a, batch.p, batch.n))
        assert batch.p[batch.a == 1] == -1  # age 4 is unique
        views = list(batch)
        assert views == [Triplet(a, None if p < 0 else p, None if n < 0 else n)
                         for a, p, n in zip(batch.a.tolist(), batch.p.tolist(),
                                            batch.n.tolist())]
        assert all(type(v) is int for t in views for v in (t.a, t.p, t.n) if v is not None)

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError, match="one length"):
            TripletBatch([0, 1], [2], [3, 4])

    def test_batch_size_validation(self, grid_dataset):
        with pytest.raises(ValueError, match="batch_size"):
            sample_triplet_batch(grid_dataset, 0, seed=0)

    def test_epoch_covers_every_anchor_once(self, grid_dataset):
        rng = np.random.default_rng(5)
        anchors = []
        for batch in iter_epoch_batches(grid_dataset, 7, rng):
            anchors.extend(t.a for t in batch)
        assert sorted(anchors) == list(range(len(grid_dataset)))

    def test_positive_draws_uniform_chi_square(self, grid_dataset):
        # Pooled chi-square over all (anchor, positive) cells; every anchor
        # has exactly 5 positive candidates in this dataset.
        from scipy import stats

        ds = grid_dataset
        n = len(ds)
        counts = np.zeros((n, n))
        epochs = 3334  # ~1e5 (anchor, p) draws
        for seed in range(epochs):
            for t in sample_triplet_batch(ds, n, seed):
                counts[t.a, t.p] += 1
        stat = 0.0
        dof = 0
        for a in range(n):
            cand = sorted(positive_set(ds, a))
            expected = epochs / len(cand)
            stat += ((counts[a, cand] - expected) ** 2 / expected).sum()
            dof += len(cand) - 1
        assert stats.chi2.sf(stat, dof) > 0.01

    def test_negative_draws_uniform_chi_square(self, grid_dataset):
        # Pooled chi-square over all (anchor, negative) cells; every anchor
        # has exactly 20 negative candidates in this dataset.
        from scipy import stats

        ds = grid_dataset
        n = len(ds)
        counts = np.zeros((n, n))
        epochs = 3334  # ~1e5 (anchor, n) draws
        for seed in range(epochs):
            for t in sample_triplet_batch(ds, n, seed):
                counts[t.a, t.n] += 1
        stat = 0.0
        dof = 0
        for a in range(n):
            cand = sorted(negative_set(ds, a))
            expected = epochs / len(cand)
            stat += ((counts[a, cand] - expected) ** 2 / expected).sum()
            dof += len(cand) - 1
        assert stats.chi2.sf(stat, dof) > 0.01

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from("ABCD")),
                    min_size=1, max_size=16),
           st.integers(0, 2**32 - 1))
    @example([(2, "A"), (2, "B"), (2, "C"), (2, "B")], 0)  # a single age
    @example([(1, "A"), (2, "A"), (3, "A"), (1, "A")], 0)  # a single identity
    @example([(1, "A"), (2, "A"), (3, "A"), (4, "A"), (1, "B"), (3, "C"), (3, "B")],
             0)  # one identity spanning every age
    def test_draws_and_maps_match_brute_force(self, layout, seed):
        ages, identities = zip(*layout)
        ds = make_dataset(ages, identities, num_ages=4)
        for a in range(len(ds)):
            # Each map covers its candidate set exactly once.
            for rows, brute in zip(_candidate_rows(ds, a),
                                   (brute_positive(ds, a), brute_negative(ds, a))):
                assert sorted(rows.tolist()) == sorted(brute)
        slots = 0
        for batch in iter_epoch_batches(ds, 3, np.random.default_rng(seed)):
            for t in batch:
                pos, neg = brute_positive(ds, t.a), brute_negative(ds, t.a)
                assert (t.p is None) == (not pos) and (t.p is None or t.p in pos)
                assert (t.n is None) == (not neg) and (t.n is None or t.n in neg)
                slots += 1
        assert slots == len(ds)


class TestIndexes:
    def test_verify_indexes(self, grid_dataset):
        assert_identity_index(grid_dataset)
        assert_identity_index(make_dataset([1, 2, 1, 3], ["B", "A", "B", "C"], num_ages=3))

    def test_indexes_survive_shuffles(self, grid_dataset):
        rng = np.random.default_rng(8)
        g = grid_dataset
        for _ in range(5):
            order = rng.permutation(len(g))
            ds = LabeledDataset(g.inputs[order], g.ages[order],
                                [g.identities[i] for i in order], g.num_ages)
            assert_identity_index(ds)
            for a in range(len(ds)):
                assert positive_set(ds, a) == brute_positive(ds, a)
                assert negative_set(ds, a) == brute_negative(ds, a)

    def test_subset_reindexes(self, grid_dataset):
        sub = grid_dataset.subset([0, 5, 6, 11])
        assert_identity_index(sub)
        assert len(sub) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    def test_identity_index_matches_one_scan_per_identity(self, labels):
        identities = [f"id{k}" for k in labels]
        ds = make_dataset([1] * len(labels), identities, num_ages=2)
        first_seen = list(dict.fromkeys(identities))
        assert list(ds._by_identity) == first_seen
        codes = np.array([first_seen.index(i) for i in identities])
        for code, ident in enumerate(first_seen):
            rows = ds._by_identity[ident]
            npt.assert_array_equal(rows, np.flatnonzero(codes == code))
            assert rows.dtype == np.intp

    def test_validation(self):
        with pytest.raises(DatasetError, match="age"):
            LabeledDataset(np.ones((1, 2)), [7], ["A"], num_ages=5)
        with pytest.raises(DatasetError, match="identity"):
            LabeledDataset(np.ones((1, 2)), [3], [""], num_ages=5)
        with pytest.raises(DatasetError, match="finite"):
            LabeledDataset(np.array([[1.0, np.inf]]), [3], ["A"], num_ages=5)
        with pytest.raises(DatasetError, match="at least one"):
            LabeledDataset(np.ones((0, 2)), [], [], num_ages=5)
        with pytest.raises(DatasetError, match="2 input rows"):
            LabeledDataset(np.ones((2, 2)), [1], ["A", "B"], num_ages=5)
        with pytest.raises(DatasetError, match="matrix"):
            LabeledDataset(np.ones(2), [1, 1], ["A", "B"], num_ages=5)

    def test_validation_names_first_bad_sample(self):
        inputs = np.ones((4, 2))
        inputs[2, 1] = np.nan
        inputs[3, 0] = np.inf
        with pytest.raises(DatasetError, match="sample 2: non-finite"):
            LabeledDataset(inputs, [1, 1, 1, 1], list("ABCD"), num_ages=5)
        with pytest.raises(DatasetError, match="sample 1: age 0 outside 1..5"):
            LabeledDataset(np.ones((3, 2)), [1, 0, 9], list("ABC"), num_ages=5)
        with pytest.raises(DatasetError, match="sample 3: empty identity"):
            LabeledDataset(np.ones((4, 2)), [1, 1, 1, 1], ["A", "B", "C", ""], num_ages=5)

    def test_constructor_copies_its_arrays(self):
        inputs, ages = np.ones((2, 2)), np.array([1, 2])
        ds = LabeledDataset(inputs, ages, ["A", "B"], num_ages=5)
        inputs[0, 0] = 7.0
        ages[0] = 5
        assert ds.inputs[0, 0] == 1.0 and ds.ages[0] == 1


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, grid_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(grid_dataset, path)
        loaded = load_dataset(path)
        npt.assert_array_equal(loaded.inputs, grid_dataset.inputs)
        npt.assert_array_equal(loaded.ages, grid_dataset.ages)
        assert loaded.identities == grid_dataset.identities
        assert loaded.num_ages == grid_dataset.num_ages
        save_dataset(loaded, tmp_path / "ds2.csv")
        assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ds2.csv").read_bytes()

    def test_missing_meta_rejected(self, grid_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(grid_dataset, path)
        (tmp_path / "ds.meta.json").unlink()
        with pytest.raises(DatasetError, match="sidecar"):
            load_dataset(path)

    def test_out_of_range_age_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("identity,age,v0\nA,9,0.5\nB,1,0.25\n")
        (tmp_path / "bad.meta.json").write_text('{"input_dim": 1, "num_ages": 5}')
        with pytest.raises(DatasetError, match="age 9 outside 1..5"):
            load_dataset(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("identity,age,v0\nA,2\n")
        (tmp_path / "bad.meta.json").write_text('{"input_dim": 1, "num_ages": 5}')
        with pytest.raises(DatasetError, match="fields"):
            load_dataset(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_dataset(tmp_path / "absent.csv")

    def test_comma_identity_rejected_on_save(self, tmp_path):
        ds = make_dataset([1, 2], ["a,b", "c"], num_ages=3)
        with pytest.raises(DatasetError, match="CSV"):
            save_dataset(ds, tmp_path / "x.csv")

    @pytest.mark.parametrize("char", CSV_BREAKS)
    def test_line_break_identity_rejected_on_save(self, tmp_path, char):
        ds = make_dataset([1, 2], [f"a{char}b", "c"], num_ages=3)
        with pytest.raises(DatasetError, match="CSV"):
            save_dataset(ds, tmp_path / "x.csv")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_datasets())
    @example(LabeledDataset([[-0.0, 5e-324, 1e308], [-1e308, 2.2250738585072014e-308, 0.0]],
                            [1, 3], ["a", "a\x00"], 3))
    @example(LabeledDataset([[0.5]], [1], ["a\u2028b"], 1))
    @example(LabeledDataset([[-0.0], [1.7976931348623157e308], [-5e-324]], [2, 1, 2],
                            ["Zoë", "日本", "\U0001f600 x"], 2))
    def test_any_saved_dataset_loads_back_bitwise(self, tmp_path, ds):
        """From the cache and, with the cache gone, from the CSV."""
        path = tmp_path / "ds.csv"
        try:
            save_dataset(ds, path)
        except DatasetError:
            assert any(c in label for label in ds.identities for c in CSV_BREAKS)
            return
        assert data._load_cache(path, ds.input_dim, ds.num_ages) is not None
        assert outcome(path) == uncached_outcome(path) == dataset_bits(ds)


def dataset_bits(ds):
    return (ds.inputs.view(np.int64).tobytes(), ds.ages.tobytes(), ds.identities, ds.num_ages)


def outcome(path):
    """What load_dataset gives: the dataset's bits, or its error message."""
    try:
        return dataset_bits(load_dataset(path))
    except DatasetError as exc:
        return str(exc)


def cache_of(path):
    return path.with_name(path.stem + ".cache.npy")


def uncached_outcome(path):
    """outcome(path) with the cache moved aside, then put back."""
    aside = path.with_name("aside")
    cache_of(path).rename(aside)
    try:
        return outcome(path)
    finally:
        aside.rename(cache_of(path))


def npy_record(array, **header) -> bytes:
    """array as np.save writes it or, given ``header`` entries, its data
    under np.save's header with those entries changed."""
    buf = io.BytesIO()
    if header:
        np.lib.format.write_array_header_1_0(buf, {
            "descr": np.lib.format.dtype_to_descr(array.dtype), "fortran_order": False,
            "shape": array.shape, **header})
        buf.write(np.ascontiguousarray(array).tobytes())
    else:
        np.save(buf, array, allow_pickle=False)
    return buf.getvalue()


def reference_cache(ds, csv: bytes) -> bytes:
    """The cache's layout: np.save records of the CSV's sha256 in hex, the
    ages, the identities joined by newlines and the inputs."""
    return b"".join(npy_record(a) for a in (
        np.frombuffer(hashlib.sha256(csv).hexdigest().encode(), np.uint8), ds.ages,
        np.frombuffer("\n".join(ds.identities).encode(), np.uint8), ds.inputs))


def reference_csv(ds) -> str:
    """The CSV text written one row at a time, each float by repr."""
    lines = ["identity,age," + ",".join(f"v{i}" for i in range(ds.input_dim))]
    for i in range(len(ds)):
        values = ",".join(repr(float(v)) for v in ds.inputs[i])
        lines.append(f"{ds.identities[i]},{int(ds.ages[i])},{values}")
    return "\n".join(lines) + "\n"


class TestCsvPool:
    """save_dataset on 1-3 forked workers; 60 rows of 5 values, 4 rows a chunk."""

    @pytest.fixture
    def ds(self):
        ages = np.random.default_rng(5).integers(1, 10, 60)
        return make_dataset(ages, [f"p{i % 7}" for i in range(60)], 9, input_dim=5, seed=5)

    @pytest.fixture
    def workers(self, monkeypatch):
        """Patches the CPUs to n and the chunk to 4 rows; records the worker counts."""
        counts = []
        count = data._csv_workers

        def recorded(values):
            counts.append(count(values))
            return counts[-1]

        def patch(cpus, min_values):
            monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(data, "_MIN_VALUES_PER_WORKER", min_values)
            monkeypatch.setattr(data, "_CSV_CHUNK_VALUES", 20)
            monkeypatch.setattr(data, "_csv_workers", recorded)
            return counts
        return patch

    @pytest.mark.parametrize("cpus, min_values, expected", [
        (1, 1, 1), (2, 1, 2), (3, 1, 3), (3, 100, 3), (3, 101, 2), (3, 150, 2),
        (3, 151, 1), (3, 300, 1), (3, 301, 1)])
    def test_bytes_do_not_depend_on_the_worker_count(self, ds, workers, tmp_path,
                                                    cpus, min_values, expected):
        counts = workers(cpus, min_values)
        save_dataset(ds, tmp_path / "ds.csv")
        assert counts == [expected]
        csv = reference_csv(ds).encode()
        assert (tmp_path / "ds.csv").read_bytes() == csv
        assert (tmp_path / "ds.cache.npy").read_bytes() == reference_cache(ds, csv)
        assert multiprocessing.active_children() == []

    def test_workers_are_joined_after_a_failed_write(self, ds, workers, tmp_path, monkeypatch):
        # An earlier save of other rows keeps its three files, bytes and all.
        save_dataset(ds.subset(range(7)), tmp_path / "ds.csv")
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        counts = workers(3, 1)
        write = data.atomic_write

        class OneChunkThenFull:
            def __init__(self, fh):
                self.write = fh.write

            def writelines(self, chunks):
                rows = reference_csv(ds).splitlines(keepends=True)
                assert next(iter(chunks)) == "".join(rows[1:5])
                raise OSError(errno.ENOSPC, "No space left on device")

        @contextmanager
        def write_one_chunk_then_fail(path, binary=False):
            with write(path, binary) as fh:
                yield OneChunkThenFull(fh) if path.name == "ds.csv" else fh

        monkeypatch.setattr(data, "atomic_write", write_one_chunk_then_fail)
        with pytest.raises(OSError, match="No space left"):
            save_dataset(ds, tmp_path / "ds.csv")
        assert counts == [3] and multiprocessing.active_children() == []
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_workers_are_joined_when_the_file_cannot_open(self, ds, workers, tmp_path):
        workers(3, 1)
        with pytest.raises(IsADirectoryError):
            save_dataset(ds, tmp_path)
        assert multiprocessing.active_children() == []

    def test_formats_in_process_without_fork_or_as_a_daemon(self, ds, workers, tmp_path,
                                                            monkeypatch):
        big = 10 ** 12
        assert data._csv_workers(big) >= 1 and data._csv_workers(0) == 1
        monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert data._csv_workers(big) == 4
        # A daemonic process may have no children; its pool runs in-process.
        counts = workers(3, 1)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        save_dataset(ds, tmp_path / "ds.csv")
        assert counts == [3] and multiprocessing.active_children() == []
        assert (tmp_path / "ds.csv").read_text(encoding="utf-8") == reference_csv(ds)
        # Without fork the pool formats in-process too, and starts no process.
        monkeypatch.undo()
        counts = workers(3, 1)
        monkeypatch.setattr(data.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        save_dataset(ds, tmp_path / "nofork.csv")
        assert counts == [3, 3] and multiprocessing.active_children() == []
        assert (tmp_path / "nofork.csv").read_text(encoding="utf-8") == reference_csv(ds)


def _records(path):
    """The cache's four records, read as np.save wrote them."""
    with cache_of(path).open("rb") as fh:
        return [np.load(fh, allow_pickle=False) for _ in range(4)]


def _swap(records, index, record: bytes) -> bytes:
    """The cache's bytes with record ``index`` replaced by ``record``."""
    parts = [npy_record(r) for r in records]
    parts[index] = record
    return b"".join(parts)


# An int64 vector's header whose row count has 5,000 digits, more than int() converts.
_MANY_DIGITS = b"{'descr': '<i8', 'fortran_order': False, 'shape': (" + b"9" * 5000 + b",), }\n"
_MANY_DIGITS = b"\x93NUMPY\x01\x00" + len(_MANY_DIGITS).to_bytes(2, "little") + _MANY_DIGITS

# Each fault maps the cache's bytes and its four records to a broken cache.
CACHE_FAULTS = {
    "empty": lambda cache, rec: b"",
    "garbage": lambda cache, rec: np.random.default_rng(0).bytes(len(cache)),
    "truncated in the key": lambda cache, rec: cache[:100],
    "truncated in the inputs": lambda cache, rec: cache[:-1],
    "one byte too many": lambda cache, rec: cache + b"\0",
    "stale key": lambda cache, rec: _swap(rec, 0, npy_record(np.zeros(64, np.uint8))),
    "ages header of 10**9 rows": lambda cache, rec: _swap(
        rec, 1, npy_record(rec[1], shape=(10 ** 9,))),
    "inputs header of 10**9 rows": lambda cache, rec: _swap(
        rec, 3, npy_record(rec[3], shape=(10 ** 9, 4))),
    "identities header of 10**12 bytes": lambda cache, rec: _swap(
        rec, 2, npy_record(rec[2], shape=(10 ** 12,))),
    "a 5,000-digit row count": lambda cache, rec: _swap(rec, 1, _MANY_DIGITS + rec[1].tobytes()),
    "ages as int32": lambda cache, rec: _swap(rec, 1, npy_record(rec[1].astype(np.int32))),
    "ages as a column": lambda cache, rec: _swap(rec, 1, npy_record(rec[1][:, None])),
    "inputs in Fortran order": lambda cache, rec: _swap(
        rec, 3, npy_record(np.asfortranarray(rec[3]))),
    "inputs of another width": lambda cache, rec: _swap(rec, 3, npy_record(rec[3].reshape(-1, 2))),
    "identities not UTF-8": lambda cache, rec: _swap(
        rec, 2, npy_record(np.full(len(rec[2]), 0xFF, np.uint8))),
    "identities joined by commas": lambda cache, rec: _swap(
        rec, 2, npy_record(np.where(rec[2] == ord("\n"), ord(","), rec[2]).astype(np.uint8))),
    "an age out of range": lambda cache, rec: _swap(rec, 1, npy_record(rec[1] + 100)),
    "a non-finite input": lambda cache, rec: _swap(rec, 3, npy_record(rec[3] * np.inf)),
}


class TestCsvCache:
    """The .cache.npy that save_dataset writes beside the CSV: any load
    with it has the outcome of the same load without it."""

    @pytest.fixture
    def saved(self, grid_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(grid_dataset, path)
        return path

    def test_records_load_with_np_load(self, grid_dataset, saved):
        key, ages, names, inputs = _records(saved)
        assert bytes(key) == hashlib.sha256(saved.read_bytes()).hexdigest().encode()
        assert ages.tobytes() == grid_dataset.ages.tobytes()
        assert bytes(names).decode().split("\n") == grid_dataset.identities
        assert inputs.tobytes() == grid_dataset.inputs.tobytes()

    @pytest.mark.parametrize("fault", CACHE_FAULTS, ids=list(CACHE_FAULTS))
    def test_a_broken_cache_falls_back_to_the_csv(self, grid_dataset, saved, fault):
        cache = cache_of(saved)
        cache.write_bytes(CACHE_FAULTS[fault](cache.read_bytes(), _records(saved)))
        tracemalloc.start()
        try:
            assert data._load_cache(saved, 4, 5) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The CSV's hash reads 64 KiB blocks; a forged header's claim is 8 GB or more.
        assert peak < 262_144
        assert outcome(saved) == uncached_outcome(saved) == dataset_bits(grid_dataset)

    def test_a_directory_in_place_of_the_cache_falls_back(self, grid_dataset, saved):
        cache_of(saved).unlink()
        cache_of(saved).mkdir()
        assert data._load_cache(saved, 4, 5) is None
        assert outcome(saved) == uncached_outcome(saved) == dataset_bits(grid_dataset)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_an_edited_csv_loads_as_without_the_cache(self, saved, draw):
        text = saved.read_bytes()
        at = draw.draw(st.integers(0, len(text) - 1))
        cut = draw.draw(st.integers(0, 3))
        saved.write_bytes(text[:at] + draw.draw(st.binary(max_size=3)) + text[at + cut:])
        try:
            assert outcome(saved) == uncached_outcome(saved)
        finally:
            saved.write_bytes(text)

    @pytest.mark.parametrize("meta", [
        '{"input_dim": 4, "num_ages": 4}', '{"input_dim": 4, "num_ages": 9}',
        '{"input_dim": 2, "num_ages": 5}', '{"input_dim": 8, "num_ages": 5}',
        '{"input_dim": 4}', "not json"])
    def test_an_edited_sidecar_loads_as_without_the_cache(self, saved, meta):
        saved.with_name("ds.meta.json").write_text(meta)
        assert outcome(saved) == uncached_outcome(saved)

    def test_a_lowered_num_ages_gives_the_csv_error(self, saved):
        saved.with_name("ds.meta.json").write_text('{"input_dim": 4, "num_ages": 4}')
        assert outcome(saved) == f"{saved}:6: age 5 outside 1..4"

    def test_a_load_writes_nothing(self, grid_dataset, saved):
        """With the cache and without it, in a directory without write access
        (which root ignores, so the files are compared too)."""
        for cached in (True, False):
            if not cached:
                cache_of(saved).unlink()
            before = {f.name: (f.read_bytes(), f.stat().st_mtime_ns)
                      for f in saved.parent.iterdir()}
            os.chmod(saved.parent, 0o555)
            try:
                assert outcome(saved) == dataset_bits(grid_dataset)
            finally:
                os.chmod(saved.parent, 0o755)
            assert {f.name: (f.read_bytes(), f.stat().st_mtime_ns)
                    for f in saved.parent.iterdir()} == before

    def test_a_save_cut_before_the_cache_moves_loads_the_new_csv(
            self, grid_dataset, saved, monkeypatch):
        write = data.atomic_write

        @contextmanager
        def cut_at_the_cache(path, binary=False):
            with write(path, binary) as fh:
                yield fh
                if path.name.endswith(".cache.npy"):
                    raise OSError(errno.EIO, "cut")

        monkeypatch.setattr(data, "atomic_write", cut_at_the_cache)
        new = grid_dataset.subset(range(0, 30, 2))
        with pytest.raises(OSError, match="cut"):
            save_dataset(new, saved)
        monkeypatch.undo()
        assert sorted(f.name for f in saved.parent.iterdir()) == [
            "ds.cache.npy", "ds.csv", "ds.meta.json"]
        assert data._load_cache(saved, 4, 5) is None
        assert outcome(saved) == dataset_bits(new)


def size_plus(ds, arg):
    return len(ds) + arg


def ignores_sigint(ds, arg):
    return signal.getsignal(signal.SIGINT) == signal.SIG_IGN


# save_dataset on two forked workers whose first job ends the process,
# as the OOM killer would; prints the seconds until save_dataset raised
# WorkerDiedError and how many children were left.
DIE_IN_CSV_WORKER = """
import json, multiprocessing, os, sys, time
from agecontrast import data
from agecontrast.errors import WorkerDiedError

def die(*args):
    os._exit(1)

data._format_rows = die
data._csv_workers = lambda values: 2
ds = data.LabeledDataset([[0.5]] * 8, [1, 2] * 4, ["a", "b"] * 4, 2)
start = time.perf_counter()
try:
    data.save_dataset(ds, sys.argv[1])
except WorkerDiedError:
    print(json.dumps([time.perf_counter() - start, len(multiprocessing.active_children())]))
"""


class TestDatasetPool:
    """data.dataset_pool, the one process pool of save_dataset and sweeps."""

    @pytest.mark.parametrize("workers, method, lacks, ran", [
        pytest.param(1, "in-process", None, ["in-process", 1], id="1-in-process"),
        pytest.param(2, "fork", None, ["fork", 2], id="2-fork"),
        pytest.param(2, "spawn", None, ["spawn", 2], id="2-spawn"),
        # A daemonic process, such as a pool worker, may have no children.
        pytest.param(2, "fork", "children", ["in-process", 1], id="2-fork-daemonic"),
        pytest.param(2, "fork", "fork", ["in-process", 1], id="2-fork-without-fork"),
    ])
    def test_results_come_in_argument_order(self, monkeypatch, workers, method, lacks, ran):
        """The record says how the jobs ran, with the BLAS threads the
        caller had; the pool gives its workers one while it is open."""
        ds = make_dataset([1, 2, 3], ["a", "b", "c"], 3)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        if lacks == "children":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        if lacks == "fork":
            monkeypatch.setattr(data.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        with data.dataset_pool(ds, workers, method) as (run, record):
            assert list(run(size_plus, range(5))) == [3, 4, 5, 6, 7]
        assert list(record.items()) == [
            ("start_method", ran[0]), ("workers", ran[1]), ("openblas_num_threads", "3")]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_leave_sigint_to_the_parent(self, method):
        """Ctrl-C signals the whole process group; only the parent reports it."""
        ds = make_dataset([1, 2], ["a", "b"], 2)
        with data.dataset_pool(ds, 2, method) as (run, _):
            assert list(run(ignores_sigint, range(4))) == [True] * 4
        assert signal.getsignal(signal.SIGINT) == signal.default_int_handler

    def test_a_dead_csv_worker_raises_instead_of_hanging(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-c", DIE_IN_CSV_WORKER, str(tmp_path / "ds.csv")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the interpreter and its workers
            proc.communicate()
            pytest.fail("save_dataset still waited 30 s after a worker died")
        assert proc.returncode == 0, err
        seconds, children = json.loads(out)
        assert seconds < 10 and children == 0
