"""Fold protocols, MAE, identity variance, checkpoint evaluation, sweeps."""

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import Executor, Future
from dataclasses import asdict
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from agecontrast import data, evaluation
from agecontrast.errors import IncompatibleDataError, WorkerDiedError
from agecontrast.evaluation import (Fold, evaluate_checkpoint, evaluate_mae,
                                    identity_variance, lambda_grid_cells,
                                    loss_set_cells, mean_absolute_error,
                                    split_lopo, split_protocol, split_random,
                                    split_subject_exclusive, sweep)
from agecontrast.losses import LossWeights
from agecontrast.model import ModelConfig, forward_values, init_model, predict_ages
from agecontrast.synth import SynthConfig, generate_dataset
from agecontrast.training import TrainConfig, train

from conftest import cli_env, make_dataset, protocol_report
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
        _, s_rows = forward_values(make_oracle_model(a), ds.inputs)
        assert evaluate_mae(s_rows, ds, split_random(ds, 2, 0)) == [0.0, 0.0]

    def test_evaluate_mae_empty_test_rejected(self, small_synth):
        # mean_absolute_error rejects the empty fold
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (4,), 4, ds.num_ages), 0)
        _, s_rows = forward_values(model, ds.inputs)
        with pytest.raises(ValueError, match="mean_absolute_error"):
            evaluate_mae(s_rows, ds, [Fold(np.array([], dtype=np.int64), len(ds))])


def make_oracle_dataset(a):
    from agecontrast.data import LabeledDataset
    ages = np.repeat(np.arange(1, a + 1), 2)
    return LabeledDataset(np.eye(a)[ages - 1], ages, ["A", "B"] * a, a)


def variance_of(model, ds):
    """identity_variance of the model's forward over ds."""
    return identity_variance(*forward_values(model, ds.inputs), ds)


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
        mu_vf, mu_vs = variance_of(model, ds)
        assert mu_vf == 0.0 and mu_vs == 0.0

    def test_hand_case(self):
        # one identity, f rows [0,0] and [2,0]: coordinate variances {1, 0}
        ds = make_dataset([1, 2], ["A", "A"], num_ages=3, input_dim=2)
        ds.inputs[0] = [0.0, 0.0]
        ds.inputs[1] = [2.0, 0.0]
        cfg = ModelConfig(input_dim=2, hidden_widths=(), feature_dim=2, num_ages=3)
        model = init_model(cfg, 0)
        model.weights[0][:] = np.eye(2)
        mu_vf, _ = variance_of(model, ds)
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
        _, mu_vs = variance_of(model, ds)
        assert mu_vs == pytest.approx(np.mean(per_identity), rel=1e-9)

    def test_requires_repeated_identity(self):
        ds = make_dataset([1, 2], ["A", "B"], num_ages=3)
        model = init_model(ModelConfig(ds.input_dim, (4,), 4, 3), 0)
        with pytest.raises(IncompatibleDataError, match=">= 2"):
            variance_of(model, ds)

    def test_matches_the_per_identity_loop_bitwise(self, small_synth):
        _, ds, _ = small_synth
        model = init_model(ModelConfig(ds.input_dim, (8,), 6, ds.num_ages), 2)
        f_rows, s_rows = forward_values(model, ds.inputs)
        assert identity_variance(f_rows, s_rows, ds) == identity_variance_loop(f_rows, s_rows, ds)

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
                    identity_variance(f_rows, s_rows, ds)
                return
            got = identity_variance(f_rows, s_rows, ds)
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
        expected = [mean_absolute_error(predict_ages(forward_values(model, ds.inputs[f.test])[1]),
                                        ds.ages[f.test]) for f in folds]
        npt.assert_allclose(report.fold_maes, expected, rtol=1e-13)
        assert (report.mu_vf, report.mu_vs) == variance_of(model, ds)

    def test_a_sweep_fold_scores_as_eval_scores_its_model(self):
        # At N=1k BLAS rounds some rows of a fold-sized forward differently
        # from the same rows of the whole forward.
        ds, _ = generate_dataset(SynthConfig(), 0)
        cfg = TrainConfig(epochs=1)
        [report], _ = sweep(ds, cfg, lambda_grid_cells([0.0], [0.0]), protocol="se", k=5)
        for i, fold in enumerate(split_protocol(ds, "se", 5, cfg.seed)):
            model, _ = train(ds.subset(fold.train), evaluation._fold_config(cfg, i))
            scored = evaluate_checkpoint(model, ds, "se", 5, cfg.seed)
            assert scored.fold_maes[i] == report.fold_maes[i]

    def test_one_cell_sweep_deterministic(self, small_synth):
        _, ds, _ = small_synth
        cfg = TrainConfig(seed=4, **FAST)
        r1 = protocol_report(ds, cfg, "se", k=3)
        r2 = protocol_report(ds, cfg, "se", k=3)
        assert r1.fold_maes == r2.fold_maes
        assert r1.mu_vf == r2.mu_vf and r1.mu_vs == r2.mu_vs
        assert len(r1.histories) == 3 and all(len(h) == 2 for h in r1.histories)

    def test_report_round_trips_to_dict(self, small_synth):
        _, ds, _ = small_synth
        cfg = TrainConfig(seed=4, **FAST)
        d = protocol_report(ds, cfg, "rs", k=2).to_dict()
        assert set(d) >= {"protocol", "fold_maes", "mean_mae", "mu_vf", "mu_vs", "config"}


class TestSweep:
    def test_grid_shape_and_order(self, small_synth):
        _, ds, _ = small_synth
        cells = lambda_grid_cells([0.0, 1.0, 10.0], [0.0, 1.0])
        assert len(cells) == 6
        assert [c.lambda_c for c in cells] == [0.0, 0.0, 1.0, 1.0, 10.0, 10.0]
        rows, pool = sweep(ds, TrainConfig(seed=1, **FAST), cells, protocol="se", k=2)
        assert pool == {"start_method": "in-process", "workers": 1,
                        "openblas_num_threads": os.environ.get(BLAS_THREADS)}
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
        base = TrainConfig(seed=3, weights=LossWeights(lambda_c=5.0, lambda_t=2.0), **FAST)
        rows, _ = sweep(ds, base, lambda_grid_cells([0.0, 5.0], [0.0]), protocol="se", k=2)
        zero_row = rows[0]
        standalone = protocol_report(
            ds, TrainConfig(seed=3, weights=LossWeights(), **FAST), "se", k=2)
        assert zero_row.fold_maes == standalone.fold_maes
        assert zero_row.mean_mae == standalone.mean_mae
        assert zero_row.mu_vf == standalone.mu_vf
        assert zero_row.mu_vs == standalone.mu_vs

    def test_a_daemonic_process_sweeps_in_process(self, small_synth, monkeypatch):
        # A daemonic process, such as a multiprocessing pool worker, may have no children.
        _, ds, _ = small_synth
        cfg, cells = TrainConfig(**FAST), lambda_grid_cells([0.0], [0.0])
        serial, _ = sweep(ds, cfg, cells, protocol="se", k=2)
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert sweep(ds, cfg, cells, protocol="se", k=2, jobs=2) == (serial, {
            "start_method": "in-process", "workers": 1,
            "openblas_num_threads": os.environ.get(BLAS_THREADS)})

    def test_empty_grid_rejected(self, small_synth):
        _, ds, _ = small_synth
        with pytest.raises(ValueError, match="empty"):
            sweep(ds, TrainConfig(**FAST), [], protocol="se", k=2)


# `sweep --loss-sets --epochs 2 --protocol se --k 3` on `gen --seed 0`
# before a fold's MAE came from the whole-dataset forward, per cell:
# fold MAEs, mean MAE, mu_vf, mu_vs. A fold-sized forward may round
# some rows differently in the last bits.
README_LOSS_SET_SWEEP = [
    [8.406505983824355, 9.086925616746942, 9.586069020434323,
     9.026500207001874, 0.04467998638947008, 1.1462934238161606],  # MV
    [8.410481193209511, 9.094518386548467, 9.585789717590371,
     9.030263099116118, 0.04461323857072156, 1.1348724241729362],  # MV+KLD
    [8.368335784622802, 9.07089807415121, 9.597501514920738,
     9.012245124564915, 0.045374185706789694, 1.2724852595324643],  # MV+Cosine
    [8.404149784375829, 9.083810984697395, 9.584786537577061,
     9.024249102216762, 0.044705570124125134, 1.1515777095504942],  # MV+Triplet
    [8.407965245856428, 9.091620965513254, 9.585143799897129,
     9.028243337088936, 0.04463464951484578, 1.1400389556031647],  # MV+KLD+Triplet
    [8.365650943244338, 9.0678743833904, 9.59570228259816,
     9.009742536410966, 0.04540048512520165, 1.2783907063728481],  # MV+Cosine+Triplet
]


def test_loss_set_sweep_drifts_only_in_the_last_bits():
    ds, _ = generate_dataset(SynthConfig(), 0)
    reports, _ = sweep(ds, TrainConfig(epochs=2), loss_set_cells(), protocol="se", k=3)
    npt.assert_allclose([[*r.fold_maes, r.mean_mae, r.mu_vf, r.mu_vs] for r in reports],
                        README_LOSS_SET_SWEEP, rtol=1e-12, atol=0)


BLAS_THREADS = "OPENBLAS_NUM_THREADS"


class FakePool(Executor):
    """Stands in for ProcessPoolExecutor and starts no process: it runs its
    initializer at construction and each job at submit, in this process.
    Executor's own map submits the jobs."""

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.max_workers = max_workers
        self.start_method = mp_context.get_start_method()
        self.initargs = initargs
        self.submitted, self.futures, self.env_at_submit, self.shutdowns = [], [], [], []
        initializer(*initargs)

    def submit(self, fn, /, *args):
        self.submitted.append((fn, *args))
        self.env_at_submit.append(os.environ.get(BLAS_THREADS))
        self.futures.append(Future())
        try:
            self.futures[-1].set_result(fn(*args))
        except Exception as exc:
            self.futures[-1].set_exception(exc)
        return self.futures[-1]

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


class Unfinished(Future):
    def result(self, timeout=None):
        raise AssertionError("waited on a job after an earlier job failed")


class FailFirstPool(FakePool):
    """The first job submitted fails; the others never finish."""

    def submit(self, fn, /, *args):
        self.submitted.append((fn, *args))
        self.futures.append(Future() if len(self.submitted) == 1 else Unfinished())
        if len(self.submitted) == 1:
            [(cfg, _)] = args
            self.futures[0].set_exception(
                RuntimeError(f"job 0 failed, lambda_t={cfg.weights.lambda_t}"))
        return self.futures[-1]


def report_worker_state(ds, task):
    """A fold job whose MAE is the worker's OPENBLAS_NUM_THREADS and whose
    mu_vf is the size of the dataset the worker was started with."""
    return float(os.environ[BLAS_THREADS]), float(len(data._pool_dataset)), 0.0, []


def die_in_job(ds, task):
    os._exit(1)


def fake_pools(monkeypatch, pool_type=FakePool) -> list:
    """Makes the dataset pool use pool_type in place of a process pool;
    returns the list of pools it makes."""
    made = []

    def make(*args, **kwargs):
        made.append(pool_type(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(data, "_pool_dataset", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    return made


def set_blas_threads(monkeypatch, value):
    if value is None:
        monkeypatch.delenv(BLAS_THREADS, raising=False)
    else:
        monkeypatch.setenv(BLAS_THREADS, value)


class TestSweepPool:
    """The pool of a process whose BLAS runs more than one thread; the
    gate's answer is pinned, so the tests do not depend on this machine."""

    start_method = "spawn"

    @pytest.fixture(autouse=True)
    def gate(self, monkeypatch):
        monkeypatch.setattr(data, "_pool_start_method", lambda method: self.start_method)

    def test_pool_size_is_capped_by_the_job_count(self, small_synth, monkeypatch):
        _, ds, _ = small_synth
        pools = fake_pools(monkeypatch)
        cfg = TrainConfig(seed=2, **FAST)
        rows, how = sweep(ds, cfg, lambda_grid_cells([0.0], [0.0]), protocol="se", k=2, jobs=64)
        [pool] = pools
        assert pool.max_workers == 2 and pool.start_method == self.start_method
        assert how == {"start_method": self.start_method, "workers": 2,
                       "openblas_num_threads": os.environ.get(BLAS_THREADS)}
        assert rows == sweep(ds, cfg, lambda_grid_cells([0.0], [0.0]), protocol="se", k=2)[0]

    def test_jobs_carry_cfg_and_fold_and_workers_get_the_dataset_at_start(self, small_synth, monkeypatch):
        _, ds, _ = small_synth
        pools = fake_pools(monkeypatch)
        sweep(ds, TrainConfig(seed=2, **FAST), loss_set_cells(), protocol="se", k=2, jobs=2)
        [pool] = pools
        assert pool.initargs[0] is ds and pool.initargs[1:] == (np.geterr(),)
        assert len(pool.submitted) == 12 and pool.shutdowns == [True]
        for job, task in pool.submitted:
            assert [type(a) for a in task] == [TrainConfig, Fold]
            assert len(pickle.dumps((job, task))) * 10 < len(pickle.dumps(ds))

    def test_longest_jobs_go_first_and_rows_keep_cell_order(self, small_synth, monkeypatch):
        _, ds, _ = small_synth
        pools = fake_pools(monkeypatch)
        cfg = TrainConfig(seed=2, **FAST)
        pooled, _ = sweep(ds, cfg, loss_set_cells(), protocol="se", k=2, jobs=2)
        weights = [(c.weights.lambda_t > 0, c.weights.lambda_c > 0)
                   for _, (c, _) in pools[0].submitted]
        assert weights == sorted(weights, reverse=True)
        assert weights[:4] == [(True, True)] * 4 and weights[-2:] == [(False, False)] * 2
        serial, _ = sweep(ds, cfg, loss_set_cells(), protocol="se", k=2, jobs=1)
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
        assert len(pools[0].futures) == 12 and all(f.cancelled() for f in pools[0].futures[1:])
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
        monkeypatch.setattr(evaluation, "_fold_job", report_worker_state)
        [row], _ = sweep(ds, TrainConfig(**FAST), lambda_grid_cells([0.0], [0.0]),
                         protocol="se", k=2, jobs=2)
        assert row.fold_maes == [1.0, 1.0] and row.mu_vf == len(ds)
        assert os.environ.get(BLAS_THREADS) == before


class TestForkedSweepPool(TestSweepPool):
    """The same pool when the gate allows fork: the same initializer
    arguments, job order, cancelling and thread-count window, and real
    forked workers that get the dataset."""

    start_method = "fork"


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_dead_sweep_worker_raises_and_leaves_no_process(small_synth, monkeypatch,
                                                          start_method):
    _, ds, _ = small_synth
    monkeypatch.setattr(data, "_pool_start_method", lambda method: start_method)
    monkeypatch.setattr(evaluation, "_fold_job", die_in_job)
    start = time.perf_counter()
    with pytest.raises(WorkerDiedError, match="worker process died"):
        sweep(ds, TrainConfig(**FAST), lambda_grid_cells([0.0], [0.0]), protocol="se",
              k=2, jobs=2)
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def _fresh_interpreter(script: str, blas_threads=None) -> list:
    """What script prints as JSON, run by a new interpreter whose
    OPENBLAS_NUM_THREADS is unset or blas_threads."""
    env = cli_env()
    if blas_threads is not None:
        env[BLAS_THREADS] = blas_threads
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Records OPENBLAS_NUM_THREADS at the moment numpy is first requested.
WATCH_NUMPY = """
import json, os, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Watch())
import agecontrast.cli
from agecontrast.data import _pool_start_method
print(json.dumps([seen, _pool_start_method()]))
"""

# numpy loads before the CLI can give its default; the gate is asked
# before and after a fork, in the parent and in the child.
NUMPY_FIRST = """
import json, os
import numpy
import agecontrast.cli
from agecontrast.data import _pool_start_method
answers = [_pool_start_method()]
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    os.write(write, _pool_start_method().encode())
    os._exit(0)
os.waitpid(pid, 0)
answers += [_pool_start_method(), os.read(read, 16).decode()]
print(json.dumps(answers))
"""


# OpenBLAS runs no more threads than this process may use cores.
multi_core = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                reason="a one-core BLAS runs one thread")


class TestPoolStartMethod:
    def test_cli_gives_blas_one_thread_before_numpy_loads_and_the_gate_forks(self):
        assert _fresh_interpreter(WATCH_NUMPY) == [["1"], "fork"]

    @multi_core
    def test_a_thread_count_set_by_the_user_wins_and_the_gate_spawns(self):
        assert _fresh_interpreter(WATCH_NUMPY, "3") == [["3"], "spawn"]

    @multi_core
    def test_numpy_loaded_first_spawns_also_right_after_a_fork(self):
        assert _fresh_interpreter(NUMPY_FIRST) == ["spawn", "spawn", "spawn"]
