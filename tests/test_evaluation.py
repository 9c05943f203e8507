"""Fold protocols, MAE, identity variance, checkpoint evaluation, sweeps."""

import os
import pickle
from concurrent.futures import Future
from dataclasses import asdict
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from agecontrast import evaluation
from agecontrast.errors import IncompatibleDataError
from agecontrast.evaluation import (Fold, evaluate_checkpoint, evaluate_mae,
                                    identity_variance, lambda_grid_cells,
                                    loss_set_cells, mean_absolute_error,
                                    split_lopo, split_protocol, split_random,
                                    split_subject_exclusive, sweep)
from agecontrast.losses import LossWeights
from agecontrast.model import ModelConfig, forward_values, init_model
from agecontrast.training import TrainConfig

from conftest import make_dataset, protocol_report
import loss_reference as ref


def assert_partition(folds, n):
    covered = np.concatenate([f.test for f in folds])
    assert len(covered) == n
    npt.assert_array_equal(np.sort(covered), np.arange(n))
    for f in folds:
        assert len(np.intersect1d(f.train, f.test)) == 0
        assert len(f.train) + len(f.test) == n


class TestSplitRandom:
    def test_even_division(self):
        ds = make_dataset(list(range(1, 11)), [f"p{i}" for i in range(10)], num_ages=10)
        folds = split_random(ds, 5, seed=0)
        assert [len(f.test) for f in folds] == [2] * 5
        assert_partition(folds, 10)

    def test_remainder_rule_largest_first(self):
        ds = make_dataset([1] * 11, [f"p{i}" for i in range(11)], num_ages=3)
        folds = split_random(ds, 5, seed=0)
        assert [len(f.test) for f in folds] == [3, 2, 2, 2, 2]

    def test_deterministic(self):
        ds = make_dataset([1] * 9, [f"p{i}" for i in range(9)], num_ages=3)
        a = split_random(ds, 3, seed=4)
        b = split_random(ds, 3, seed=4)
        for fa, fb in zip(a, b):
            npt.assert_array_equal(fa.test, fb.test)

    def test_k_exceeding_n_rejected(self):
        ds = make_dataset([1, 2], ["A", "B"], num_ages=3)
        with pytest.raises(IncompatibleDataError, match="needs >= 3 samples, dataset has 2"):
            split_random(ds, 3, seed=0)


class TestSplitSubjectExclusive:
    def test_two_identities_per_fold(self):
        ages = [1, 2] * 10
        idents = [f"p{i // 2}" for i in range(20)]
        ds = make_dataset(ages, idents, num_ages=3)
        folds = split_subject_exclusive(ds, 5, seed=1)
        assert len(folds) == 5
        assert_partition(folds, 20)
        for f in folds:
            assert len({ds.identities[i] for i in f.test}) == 2

    def test_identity_disjoint(self, small_synth):
        _, ds, _ = small_synth
        for f in split_subject_exclusive(ds, 5, seed=2):
            train_ids = {ds.identities[i] for i in f.train}
            test_ids = {ds.identities[i] for i in f.test}
            assert train_ids & test_ids == set()

    def test_unequal_samples_per_identity_colocated(self):
        # brute-force membership: all of an identity's samples in one fold
        rng = np.random.default_rng(5)
        ages, idents = [], []
        for i in range(9):
            for _ in range(int(rng.integers(1, 6))):
                ages.append(int(rng.integers(1, 5)))
                idents.append(f"p{i}")
        ds = make_dataset(ages, idents, num_ages=4)
        folds = split_subject_exclusive(ds, 3, seed=0)
        assert_partition(folds, len(ds))
        for ident in set(idents):
            holder = [k for k, f in enumerate(folds)
                      if any(ds.identities[i] == ident for i in f.test)]
            assert len(holder) == 1
            expected = {i for i in range(len(ds)) if ds.identities[i] == ident}
            got = {i for i in folds[holder[0]].test if ds.identities[i] == ident}
            assert got == expected

    def test_fewer_identities_than_k_rejected(self):
        ds = make_dataset([1, 2, 3], ["A", "A", "B"], num_ages=3)
        with pytest.raises(IncompatibleDataError, match="identities"):
            split_subject_exclusive(ds, 3, seed=0)


class TestSplitLopo:
    def test_one_fold_per_identity(self):
        ages = [(i % 4) + 1 for i in range(82 * 2)]
        idents = [f"p{i // 2:03d}" for i in range(82 * 2)]
        ds = make_dataset(ages, idents, num_ages=4)
        folds = split_lopo(ds)
        assert len(folds) == 82
        assert_partition(folds, len(ds))
        for f in folds:
            assert len({ds.identities[i] for i in f.test}) == 1

    def test_single_identity_rejected(self):
        ds = make_dataset([1, 2], ["A", "A"], num_ages=3)
        with pytest.raises(IncompatibleDataError, match="identities"):
            split_lopo(ds)


def test_fold_train_is_the_complement_of_test():
    fold = Fold(np.array([1, 4]), 6)
    npt.assert_array_equal(fold.train, [0, 2, 3, 5])
    assert fold.n == 6


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=1, max_size=30), st.integers(2, 12),
       st.integers(0, 2**32 - 1))
def test_every_protocol_partitions_any_layout(owners, k, seed):
    # owners[i] is row i's identity, in any interleaving
    ds = make_dataset([1] * len(owners), [f"p{o}" for o in owners], num_ages=1)
    identities = np.array(ds.identities)
    num_ids = len(set(owners))
    for protocol, feasible in (("rs", k <= len(ds)), ("se", k <= num_ids),
                               ("lopo", num_ids >= 2)):
        if not feasible:
            with pytest.raises(IncompatibleDataError):
                split_protocol(ds, protocol, k, seed)
            continue
        folds = split_protocol(ds, protocol, k, seed)
        assert_partition(folds, len(ds))
        assert all(len(f.test) for f in folds)
        if protocol == "lopo":
            assert sorted(identities[f.test[0]] for f in folds) == sorted(set(identities))
        else:
            assert len(folds) == k
        if protocol != "rs":
            for f in folds:
                assert not set(identities[f.test]) & set(identities[f.train])


def test_split_protocol_dispatch(small_synth):
    _, ds, _ = small_synth
    assert len(split_protocol(ds, "rs", 4, 0)) == 4
    assert len(split_protocol(ds, "se", 4, 0)) == 4
    assert len(split_protocol(ds, "lopo")) == len(ds.unique_identities())
    with pytest.raises(ValueError, match="protocol"):
        split_protocol(ds, "loso")


class TestMae:
    def test_perfect_predictions(self):
        assert mean_absolute_error([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_off_by_one(self):
        assert mean_absolute_error([2.0, 3.0], [1.0, 2.0]) == 1.0

    def test_hand_case(self):
        got = mean_absolute_error([2.5, 4.0, 7.0], [2.0, 4.0, 9.0])
        assert got == pytest.approx((0.5 + 0.0 + 2.0) / 3, rel=1e-12)
        assert got == pytest.approx(0.8333, abs=5e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_error([], [])

    def test_evaluate_mae_perfect_oracle_model(self):
        # one-hot age-indicator inputs + identity extractor + saturated head
        # predict each label exactly (off-label probabilities underflow)
        a = 5
        ds = make_oracle_dataset(a)
        model = make_oracle_model(a)
        assert evaluate_mae(model, ds, np.arange(len(ds))) == 0.0

    def test_evaluate_mae_empty_test_rejected(self, small_synth):
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (4,), 4, ds.num_ages), 0)
        with pytest.raises(ValueError, match="empty"):
            evaluate_mae(model, ds, [])


def make_oracle_dataset(a):
    from agecontrast.data import LabeledDataset
    ages = np.repeat(np.arange(1, a + 1), 2)
    return LabeledDataset(np.eye(a)[ages - 1], ages, ["A", "B"] * a, a)


def make_oracle_model(a):
    cfg = ModelConfig(input_dim=a, hidden_widths=(), feature_dim=a, num_ages=a)
    model = init_model(cfg, 0)
    model.weights[0][:] = np.eye(a)
    model.biases[0][:] = 0.0
    model.weights[1][:] = 2000.0 * np.eye(a)
    model.biases[1][:] = 0.0
    return model


class TestIdentityVariance:
    def test_constant_features_give_zero(self, small_synth):
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (4,), 4, ds.num_ages), 0)
        for w in model.weights:
            w[:] = 0.0
        mu_vf, mu_vs = identity_variance(model, ds)
        assert mu_vf == 0.0 and mu_vs == 0.0

    def test_hand_case(self):
        # one identity, f rows [0,0] and [2,0]: coordinate variances {1, 0}
        ds = make_dataset([1, 2], ["A", "A"], num_ages=3, input_dim=2)
        ds.inputs[0] = [0.0, 0.0]
        ds.inputs[1] = [2.0, 0.0]
        cfg = ModelConfig(input_dim=2, hidden_widths=(), feature_dim=2, num_ages=3)
        model = init_model(cfg, 0)
        model.weights[0][:] = np.eye(2)
        mu_vf, _ = identity_variance(model, ds)
        assert mu_vf == pytest.approx(0.5, rel=1e-12)

    def test_mu_vs_is_per_identity_variance_of_scaled_s(self, small_synth):
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (6,), 6, ds.num_ages), 1)
        s = np.array([ref.forward(model, x)[1] for x in ds.inputs])
        per_identity = []
        for ident in sorted(set(ds.identities)):
            rows = 100.0 * s[[i for i, d in enumerate(ds.identities) if d == ident]]
            mean = rows.mean(axis=0)
            per_identity.append(((rows - mean) ** 2).mean(axis=0).mean())
        _, mu_vs = identity_variance(model, ds)
        assert mu_vs == pytest.approx(np.mean(per_identity), rel=1e-9)

    def test_requires_repeated_identity(self):
        ds = make_dataset([1, 2], ["A", "B"], num_ages=3)
        model = init_model(ModelConfig(ds.input_dim, (4,), 4, 3), 0)
        with pytest.raises(IncompatibleDataError, match=">= 2"):
            identity_variance(model, ds)

    def test_matches_the_per_identity_loop_bitwise(self, small_synth):
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (8,), 6, ds.num_ages), 2)
        f_rows, s_rows = forward_values(model, ds.inputs)
        assert identity_variance(model, ds) == identity_variance_loop(f_rows, s_rows, ds)

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=14),
           width=st.integers(1, 5), chunk_rows=st.integers(1, 20), seed=st.integers(0, 2**16))
    def test_grouped_gather_matches_the_loop_bitwise(self, sizes, width, chunk_rows, seed):
        # singletons, mixed sizes, and chunks that split a size group
        rng = np.random.default_rng(seed)
        identities = [f"p{i}" for i, size in enumerate(sizes) for _ in range(size)]
        order = rng.permutation(len(identities))
        ds = make_dataset([1] * len(identities), [identities[i] for i in order],
                          num_ages=2, seed=seed)
        f_rows = rng.normal(0.0, rng.choice([1e-3, 1.0, 1e3]), (len(ds), width))
        s_rows = rng.dirichlet(np.ones(width + 1), len(ds))
        with mock.patch.object(evaluation, "_VARIANCE_CHUNK_ROWS", chunk_rows):
            if max(sizes) < 2:
                with pytest.raises(IncompatibleDataError, match=">= 2"):
                    evaluation._identity_variance_of(f_rows, s_rows, ds)
                return
            got = evaluation._identity_variance_of(f_rows, s_rows, ds)
        assert got == identity_variance_loop(f_rows, s_rows, ds)


def identity_variance_loop(f_rows, s_rows, ds):
    """The per-identity loop that the grouped gather must equal bit for bit."""
    vf, vs = [], []
    for ident in ds.unique_identities():
        idx = ds.indices_of_identity(ident)
        if idx.size < 2:
            continue
        vf.append(float(np.mean(np.var(f_rows[idx], axis=0))))
        vs.append(float(np.mean(np.var(s_rows[idx] * evaluation.S_VARIANCE_SCALE, axis=0))))
    return float(np.mean(vf)), float(np.mean(vs))


FAST = dict(epochs=2, batch_size=16, hidden_widths=(8,), feature_dim=6)


class TestProtocolRuns:
    def test_checkpoint_eval_report(self, small_synth):
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (8,), 6, ds.num_ages), 3)
        report = evaluate_checkpoint(model, ds, "se", k=4, seed=1)
        assert report.k == 4 and len(report.fold_maes) == 4
        assert report.mean_mae == pytest.approx(float(np.mean(report.fold_maes)), rel=1e-15)
        assert report.histories == []
        assert "variance" in report.notes
        assert "fold_sizes" not in report.to_dict()

    @pytest.mark.parametrize("protocol", ["rs", "se", "lopo"])
    def test_checkpoint_eval_matches_per_fold_forwards(self, small_synth, protocol):
        # one whole-dataset forward scores every fold; BLAS may round a
        # fold-sized forward differently in the last bit
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (8,), 6, ds.num_ages), 3)
        report = evaluate_checkpoint(model, ds, protocol, k=4, seed=1)
        folds = split_protocol(ds, protocol, 4, 1)
        assert report.fold_sizes == [len(f.test) for f in folds]
        expected = [evaluate_mae(model, ds, f.test) for f in folds]
        npt.assert_allclose(report.fold_maes, expected, rtol=1e-13)
        assert (report.mu_vf, report.mu_vs) == identity_variance(model, ds)

    def test_one_cell_sweep_deterministic(self, small_synth):
        _, ds, _ = small_synth
        cfg = TrainConfig(seed=4, **FAST)
        r1 = protocol_report(ds, cfg, "se", k=3, split_seed=0)
        r2 = protocol_report(ds, cfg, "se", k=3, split_seed=0)
        assert r1.fold_maes == r2.fold_maes
        assert r1.mu_vf == r2.mu_vf and r1.mu_vs == r2.mu_vs
        assert len(r1.histories) == 3 and all(len(h) == 2 for h in r1.histories)

    def test_report_round_trips_to_dict(self, small_synth):
        _, ds, _ = small_synth
        cfg = TrainConfig(seed=4, **FAST)
        d = protocol_report(ds, cfg, "rs", k=2, split_seed=1).to_dict()
        assert set(d) >= {"protocol", "fold_maes", "mean_mae", "mu_vf", "mu_vs", "config"}


class TestSweep:
    def test_grid_shape_and_order(self, small_synth):
        _, ds, _ = small_synth
        cells = lambda_grid_cells([0.0, 1.0, 10.0], [0.0, 1.0])
        assert len(cells) == 6
        assert [c.lambda_c for c in cells] == [0.0, 0.0, 1.0, 1.0, 10.0, 10.0]
        rows = sweep(ds, TrainConfig(seed=1, **FAST), cells, protocol="se", k=2)
        assert len(rows) == 6
        assert all(np.isfinite(r.mean_mae) and np.isfinite(r.mu_vf) for r in rows)

    def test_loss_set_rows_structure(self):
        labels = [c.label for c in loss_set_cells()]
        assert labels == ["MV", "MV+KLD", "MV+Cosine", "MV+Triplet",
                          "MV+KLD+Triplet", "MV+Cosine+Triplet"]
        kinds = {c.label: c.pair_loss for c in loss_set_cells()}
        assert kinds["MV+KLD"] == "kld" and kinds["MV+Cosine"] == "cosine"
        mv = loss_set_cells()[0]
        assert mv.lambda_c == 0.0 and mv.lambda_t == 0.0

    def test_zero_cell_bitwise_equals_standalone_mv_run(self, small_synth):
        _, ds, _ = small_synth
        base = TrainConfig(seed=6, weights=LossWeights(lambda_c=5.0, lambda_t=2.0), **FAST)
        rows = sweep(ds, base, lambda_grid_cells([0.0, 5.0], [0.0]), protocol="se",
                     k=2, split_seed=3)
        zero_row = rows[0]
        standalone = protocol_report(
            ds, TrainConfig(seed=6, weights=LossWeights(), **FAST), "se", k=2, split_seed=3)
        assert zero_row.fold_maes == standalone.fold_maes
        assert zero_row.mean_mae == standalone.mean_mae
        assert zero_row.mu_vf == standalone.mu_vf
        assert zero_row.mu_vs == standalone.mu_vs

    def test_empty_grid_rejected(self, small_synth):
        _, ds, _ = small_synth
        with pytest.raises(ValueError, match="empty"):
            sweep(ds, TrainConfig(**FAST), [], protocol="se", k=2)


BLAS_THREADS = "OPENBLAS_NUM_THREADS"


class FakePool:
    """Stands in for ProcessPoolExecutor and starts no process: it runs its
    initializer at construction and each job at submit, in this process."""

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.max_workers = max_workers
        self.start_method = mp_context.get_start_method()
        self.initargs = initargs
        self.submitted, self.env_at_submit, self.shutdowns = [], [], []
        initializer(*initargs)

    def submit(self, fn, *args):
        self.submitted.append(args)
        self.env_at_submit.append(os.environ.get(BLAS_THREADS))
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


class Unfinished(Future):
    def result(self, timeout=None):
        raise AssertionError("waited on a job after an earlier job failed")


class FailFirstPool(FakePool):
    """The first job submitted fails; the others never finish."""

    def submit(self, fn, *args):
        self.submitted.append(args)
        if len(self.submitted) > 1:
            return Unfinished()
        future = Future()
        future.set_exception(RuntimeError(f"job 0 failed, lambda_t={args[0].weights.lambda_t}"))
        return future


def report_worker_state(cfg, fold):
    """A fold job whose MAE is the worker's OPENBLAS_NUM_THREADS and whose
    mu_vf is the size of the dataset the worker was started with."""
    return float(os.environ[BLAS_THREADS]), float(len(evaluation._worker_dataset)), 0.0, []


def fake_pools(monkeypatch, pool_type=FakePool) -> list:
    """Makes sweeps use pool_type in place of a process pool; returns the
    list of pools they make."""
    made = []

    def make(*args, **kwargs):
        made.append(pool_type(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(evaluation, "_worker_dataset", None)
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", make)
    return made


def set_blas_threads(monkeypatch, value):
    if value is None:
        monkeypatch.delenv(BLAS_THREADS, raising=False)
    else:
        monkeypatch.setenv(BLAS_THREADS, value)


class TestSweepPool:
    def test_pool_size_is_capped_by_the_job_count(self, small_synth, monkeypatch):
        _, ds, _ = small_synth
        pools = fake_pools(monkeypatch)
        cfg = TrainConfig(seed=2, **FAST)
        rows = sweep(ds, cfg, lambda_grid_cells([0.0], [0.0]), protocol="se", k=2, jobs=64)
        [pool] = pools
        assert pool.max_workers == 2 and pool.start_method == "spawn"
        assert rows == sweep(ds, cfg, lambda_grid_cells([0.0], [0.0]), protocol="se", k=2)

    def test_jobs_carry_cfg_and_fold_and_workers_get_the_dataset_at_start(self, small_synth, monkeypatch):
        _, ds, _ = small_synth
        pools = fake_pools(monkeypatch)
        sweep(ds, TrainConfig(seed=2, **FAST), loss_set_cells(), protocol="se", k=2, jobs=2)
        [pool] = pools
        assert pool.initargs[0] is ds and pool.initargs[1:] == (np.geterr(),)
        assert len(pool.submitted) == 12 and pool.shutdowns == [True]
        for args in pool.submitted:
            assert [type(a) for a in args] == [TrainConfig, Fold]
            assert len(pickle.dumps(args)) * 10 < len(pickle.dumps(ds))

    def test_longest_jobs_go_first_and_rows_keep_cell_order(self, small_synth, monkeypatch):
        _, ds, _ = small_synth
        pools = fake_pools(monkeypatch)
        cfg = TrainConfig(seed=2, **FAST)
        pooled = sweep(ds, cfg, loss_set_cells(), protocol="se", k=2, jobs=2)
        weights = [(c.weights.lambda_t > 0, c.weights.lambda_c > 0)
                   for c, _ in pools[0].submitted]
        assert weights == sorted(weights, reverse=True)
        assert weights[:4] == [(True, True)] * 4 and weights[-2:] == [(False, False)] * 2
        serial = sweep(ds, cfg, loss_set_cells(), protocol="se", k=2, jobs=1)
        assert [r.config for r in pooled] == [asdict(c.config(cfg)) for c in loss_set_cells()]
        assert pooled == serial

    @pytest.mark.parametrize("before", [None, "3"])
    def test_first_failure_raises_and_cancels_the_rest(self, small_synth, monkeypatch, before):
        _, ds, _ = small_synth
        set_blas_threads(monkeypatch, before)
        pools = fake_pools(monkeypatch, FailFirstPool)
        with pytest.raises(RuntimeError, match="job 0 failed, lambda_t=1.0"):
            sweep(ds, TrainConfig(**FAST), loss_set_cells(), protocol="se", k=2, jobs=2)
        assert pools[0].shutdowns == [True]
        assert os.environ.get(BLAS_THREADS) == before

    @pytest.mark.parametrize("before", [None, "3"])
    def test_blas_threads_are_one_only_while_workers_start(self, small_synth, monkeypatch,
                                                           before):
        _, ds, _ = small_synth
        set_blas_threads(monkeypatch, before)
        pools = fake_pools(monkeypatch)
        sweep(ds, TrainConfig(**FAST), lambda_grid_cells([0.0], [0.0]), protocol="se",
              k=2, jobs=2)
        assert pools[0].env_at_submit == ["1", "1"]
        assert os.environ.get(BLAS_THREADS) == before

    @pytest.mark.parametrize("before", [None, "3"])
    def test_spawned_workers_see_one_blas_thread_and_the_dataset(self, small_synth,
                                                                 monkeypatch, before):
        _, ds, _ = small_synth
        set_blas_threads(monkeypatch, before)
        monkeypatch.setattr(evaluation, "_worker_fold_job", report_worker_state)
        [row] = sweep(ds, TrainConfig(**FAST), lambda_grid_cells([0.0], [0.0]),
                      protocol="se", k=2, jobs=2)
        assert row.fold_maes == [1.0, 1.0] and row.mu_vf == len(ds)
        assert os.environ.get(BLAS_THREADS) == before
