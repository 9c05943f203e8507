"""Adam contract, training-loop determinism, batched-loss consistency."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from agecontrast.data import TripletBatch
from agecontrast.errors import IncompatibleDataError, OptimizationError
from agecontrast.losses import LossWeights
from agecontrast.model import ModelConfig, init_model
from agecontrast.synth import SynthConfig, generate_dataset
from agecontrast import training
from agecontrast.training import (ADAM_EPS, AdamState, TrainConfig, adam_step,
                                  build_batch_loss, train)

from conftest import make_dataset
import loss_reference as ref

TINY = ModelConfig(input_dim=6, hidden_widths=(10,), feature_dim=6, num_ages=5)


class TestAdam:
    def test_zero_gradients_fixed_point(self):
        # fresh state + zero gradients: parameters unchanged exactly
        model = init_model(TINY, 0)
        before = [p.copy() for p in model.parameters()]
        state = AdamState.for_model(model)
        adam_step(model, np.zeros_like(model.flat), state, TrainConfig())
        for p, b in zip(model.parameters(), before):
            npt.assert_array_equal(p, b)
        assert state.step == 1

    def test_zero_gradients_decay_moments(self):
        model = init_model(TINY, 0)
        state = AdamState.for_model(model)
        state.m += 1.0
        state.v += 1.0
        adam_step(model, np.zeros_like(model.flat), state, TrainConfig())
        assert np.all(state.m == 0.9) and np.all(state.v == 0.999)

    def test_first_step_closed_form(self):
        # constant gradient g: first update is -lr * g / (|g| + eps)
        cfg = TrainConfig(learning_rate=0.001)
        model = init_model(ModelConfig(1, (), 1, 2), 3)
        before = [p.copy() for p in model.parameters()]
        adam_step(model, np.full_like(model.flat, 0.5), AdamState.for_model(model), cfg)
        expected_delta = -0.001 * 0.5 / (0.5 + ADAM_EPS)
        for p, b in zip(model.parameters(), before):
            npt.assert_allclose(p - b, expected_delta, rtol=1e-12)

    def test_sign_of_step_follows_gradient(self):
        cfg = TrainConfig(learning_rate=0.01)
        model = init_model(ModelConfig(1, (), 1, 2), 3)
        before = [p.copy() for p in model.parameters()]
        adam_step(model, np.full_like(model.flat, -2.0), AdamState.for_model(model), cfg)
        for p, b in zip(model.parameters(), before):
            assert np.all(p > b)

    def test_non_finite_gradient_aborts_with_name_and_step(self):
        model = init_model(TINY, 0)
        state = AdamState.for_model(model)
        grad = np.zeros_like(model.flat)
        model.config.param_views(grad)[3][0] = np.nan  # the second layer's bias
        name = model.param_names()[3]
        with pytest.raises(OptimizationError, match=rf"{name} at step 1"):
            adam_step(model, grad, state, TrainConfig())
        for p, b in zip(model.parameters(), init_model(TINY, 0).parameters()):
            npt.assert_array_equal(p, b)  # checked before any parameter moves

    def test_gradient_count_checked(self):
        model = init_model(TINY, 0)
        with pytest.raises(ValueError, match="gradients"):
            adam_step(model, [], AdamState.for_model(model), TrainConfig())


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(hidden_widths=(8.9,)),
    lambda: TrainConfig(hidden_widths=(True,)),
    lambda: TrainConfig(feature_dim=7.5),
    lambda: TrainConfig(feature_dim=8.0),
    lambda: ModelConfig(8.9, (3,), 7, 10),
    lambda: ModelConfig(8, (3.5,), 7, 10),
    lambda: ModelConfig(8, (3,), 7.5, 10),
    lambda: ModelConfig(8, (3,), 7, 10.7),
    lambda: ModelConfig(True, (3,), 7, 10),
    lambda: ModelConfig(8, (3,), 7, "10"),
], ids=["train-width-8.9", "train-width-True", "train-feature-7.5", "train-feature-8.0",
        "model-input-8.9", "model-width-3.5", "model-feature-7.5", "model-ages-10.7",
        "model-input-True", "model-ages-str"])
def test_widths_must_be_integers_not_truncated(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_numpy_integer_widths_become_ints():
    cfg = TrainConfig(hidden_widths=(np.int64(8),), feature_dim=np.int32(7))
    assert cfg.hidden_widths == (8,) and type(cfg.feature_dim) is int
    model_cfg = ModelConfig(np.int64(8), (np.int16(3),), 7, np.uint8(10))
    assert model_cfg == ModelConfig(8, (3,), 7, 10)
    assert all(type(d) is int for d in model_cfg.layer_dims)


@pytest.fixture(scope="module")
def train_ds():
    cfg = SynthConfig(num_identities=12, samples_per_identity=4, num_ages=10,
                      input_dim=12, identity_dims=5, age_dims=3, noise_std=0.05)
    return generate_dataset(cfg, 9)[0]


SMALL_TRAIN = dict(epochs=3, batch_size=16, hidden_widths=(12,), feature_dim=8)


class TestTrain:
    def test_zero_epochs_returns_initialization(self, train_ds):
        cfg = TrainConfig(epochs=0, seed=5, **{k: v for k, v in SMALL_TRAIN.items() if k != "epochs"})
        model, history = train(train_ds, cfg)
        init = init_model(cfg.model_config(train_ds), 5)
        for p, q in zip(model.parameters(), init.parameters()):
            npt.assert_array_equal(p, q)
        assert history == []

    def test_bitwise_deterministic(self, train_ds):
        cfg = TrainConfig(seed=2, weights=LossWeights(lambda_c=1.0, lambda_t=1.0),
                          **SMALL_TRAIN)
        m1, h1 = train(train_ds, cfg)
        m2, h2 = train(train_ds, cfg)
        for p, q in zip(m1.parameters(), m2.parameters()):
            npt.assert_array_equal(p, q)
        assert h1 == h2

    def test_history_composition_identity(self, train_ds):
        w = LossWeights(lambda_c=2.0, lambda_t=0.5)
        cfg = TrainConfig(seed=3, weights=w, **SMALL_TRAIN)
        _, history = train(train_ds, cfg)
        assert len(history) == cfg.epochs
        for b in history:
            assert b.total == (b.l_s + w.lambda_m * b.l_m + w.lambda_v * b.l_v
                               + w.lambda_c * b.l_c + w.lambda_t * b.l_t)

    def test_mv_baseline_skips_contrastive_terms(self, train_ds):
        cfg = TrainConfig(seed=3, weights=LossWeights(), **SMALL_TRAIN)
        _, history = train(train_ds, cfg)
        assert all(b.l_c == 0.0 and b.l_t == 0.0 for b in history)
        assert all(b.l_s > 0 and b.l_m >= 0 and b.l_v >= 0 for b in history)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_epoch_streams_are_the_spawned_children(self, train_ds, monkeypatch, seed):
        states = []
        draw = training.iter_epoch_batches

        def recording(ds, batch_size, rng):
            states.append(rng.bit_generator.state)
            return draw(ds, batch_size, rng)

        monkeypatch.setattr(training, "iter_epoch_batches", recording)
        train(train_ds, TrainConfig(seed=seed, **SMALL_TRAIN))
        children = np.random.SeedSequence(seed).spawn(SMALL_TRAIN["epochs"])
        assert states == [np.random.default_rng(c).bit_generator.state for c in children]

    def test_loss_mostly_non_increasing_on_separable_data(self):
        # 480 anchors per epoch average the per-epoch pair resampling noise
        # out of the contrastive terms
        cfg = SynthConfig(num_identities=120, samples_per_identity=4, num_ages=8,
                          input_dim=10, identity_dims=4, age_dims=3, noise_std=0.0)
        hits = total = 0
        for seed in range(3):
            ds, _ = generate_dataset(cfg, seed)
            tc = TrainConfig(epochs=15, batch_size=24, hidden_widths=(16,),
                             feature_dim=8, seed=seed,
                             weights=LossWeights(lambda_c=1.0, lambda_t=1.0))
            _, history = train(ds, tc)
            totals = [b.total for b in history]
            hits += sum(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
            total += len(totals) - 1
        assert hits / total >= 0.9

    def test_single_identity_rejected_when_triplet_active(self):
        ds = make_dataset([1, 2, 3, 4], ["A"] * 4, num_ages=5)
        cfg = TrainConfig(epochs=1, batch_size=4, hidden_widths=(4,), feature_dim=4,
                          weights=LossWeights(lambda_t=1.0))
        with pytest.raises(IncompatibleDataError, match="negative"):
            train(ds, cfg)
        # same dataset trains fine without the triplet term
        ok_cfg = TrainConfig(epochs=1, batch_size=4, hidden_widths=(4,), feature_dim=4)
        train(ds, ok_cfg)

    def test_single_age_rejected_when_triplet_active(self):
        ds = make_dataset([2, 2, 2], ["A", "B", "C"], num_ages=5)
        cfg = TrainConfig(epochs=1, batch_size=3, hidden_widths=(4,), feature_dim=4,
                          weights=LossWeights(lambda_t=0.5))
        with pytest.raises(IncompatibleDataError):
            train(ds, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestBatchLossAgainstPerSample:
    """The batched training composition must equal the mean of the
    plain-numpy per-sample reference evaluated one sample at a time."""

    def _per_sample_means(self, model, ds, triplets, weights):
        outs = {i: ref.forward(model, ds.inputs[i]) for i in
                sorted({j for t in triplets for j in (t.a, t.p, t.n) if j is not None})}
        anchors = [t.a for t in triplets]
        l_s = np.mean([ref.ce(outs[i][2], int(ds.ages[i])) for i in anchors])
        l_m = np.mean([ref.mean(outs[i][1], int(ds.ages[i])) for i in anchors])
        l_v = np.mean([ref.variance(outs[i][1]) for i in anchors])
        pairs = [t for t in triplets if t.p is not None]
        if weights.pair_loss == "cosine":
            l_c = np.mean([ref.cosine(outs[t.a][0], outs[t.p][0])
                           for t in pairs]) if pairs else 0.0
        else:
            l_c = np.mean([ref.kld(outs[t.a][2], outs[t.p][2])
                           for t in pairs]) if pairs else 0.0
        trips = [t for t in triplets if t.p is not None and t.n is not None]
        l_t = np.mean([ref.triplet(outs[t.a][1], outs[t.p][1], outs[t.n][1], weights.alpha)
                       for t in trips]) if trips else 0.0
        return l_s, l_m, l_v, l_c, l_t

    @pytest.mark.parametrize("pair_loss", ["cosine", "kld"])
    def test_terms_match(self, train_ds, pair_loss):
        weights = LossWeights(lambda_c=3.0, lambda_t=0.7, pair_loss=pair_loss)
        model = init_model(ModelConfig(train_ds.input_dim, (12,), 8, train_ds.num_ages), 1)
        triplets = TripletBatch([0, 1, 2, 3], [4, -1, 6, 7], [8, 9, -1, 10])
        bd, _ = build_batch_loss(model, train_ds, triplets, weights)
        expected = self._per_sample_means(model, train_ds, triplets, weights)
        for got, want, name in zip((bd.l_s, bd.l_m, bd.l_v, bd.l_c, bd.l_t),
                                   expected, ("l_s", "l_m", "l_v", "l_c", "l_t")):
            assert got == pytest.approx(want, rel=1e-10), name

    @pytest.mark.parametrize("slots", [([0, -2], [-1, -1], [-1, -1]), ([0, 1], [48, -1], [-1, -1])],
                             ids=["negative-anchor", "positive-past-the-end"])
    def test_rows_outside_the_dataset_are_refused(self, train_ds, slots):
        # 48 rows: a negative index must not wrap around to the last rows.
        weights = LossWeights(lambda_c=3.0)
        model = init_model(ModelConfig(train_ds.input_dim, (12,), 8, train_ds.num_ages), 1)
        with pytest.raises(IndexError, match=r"out of range 0\.\.47"):
            build_batch_loss(model, train_ds, TripletBatch(*slots), weights)

    def test_all_null_positives_skip_pair_terms(self, train_ds):
        weights = LossWeights(lambda_c=3.0, lambda_t=0.7)
        model = init_model(ModelConfig(train_ds.input_dim, (12,), 8, train_ds.num_ages), 1)
        triplets = TripletBatch([0, 1], [-1, -1], [8, 9])
        bd, _ = build_batch_loss(model, train_ds, triplets, weights)
        assert bd.l_c == 0.0 and bd.l_t == 0.0 and bd.l_s > 0.0


# The 2-epoch history (l_s, l_m, l_v, l_c, l_t, total) of the README's
# `train` config on the default synthetic set, recorded when the step's
# products ran in blocks under OpenBLAS's one-thread size and the variance
# term used the moment form. Either change moves only the last bits.
README_TRAIN_HISTORY = [
    (4.666646957055767, 94.0435184242055, 215.96023732387306, 0.4093322432716686,
     0.19710830916001004, 38.563793249967226),
    (5.184759647572558, 77.10899471965374, 102.59033268248595, 0.3216388063910568,
     0.19481178001570157, 29.14727506955387),
]


def test_readme_train_history_drifts_only_in_the_last_bits():
    ds, _ = generate_dataset(SynthConfig(), 0)
    cfg = TrainConfig(epochs=2, seed=0, weights=LossWeights(lambda_c=10.0, lambda_t=1.0))
    _, history = train(ds, cfg)
    npt.assert_allclose([b.as_row() for b in history], README_TRAIN_HISTORY, rtol=1e-12, atol=0)


# The benchmark's state: an N=1k training set, a second default set made
# after it, one warm-up call, then a timed 3-epoch call with the cosine
# and triplet terms on. It runs in a fresh interpreter, which reads its
# own counters: the heap of this test process (after many other tests)
# hid the per-step faults of a step that freed its arrays (9 faults per
# call here against 21,000 in a fresh interpreter).
PAGE_FAULT_PROBE = """
import resource
from agecontrast.losses import LossWeights
from agecontrast.synth import SynthConfig, generate_dataset
from agecontrast.training import TrainConfig, train

ds, _ = generate_dataset(SynthConfig(), 0)
heldout = generate_dataset(SynthConfig(), 1)
cfg = TrainConfig(epochs=3, weights=LossWeights(lambda_c=10.0, lambda_t=1.0))
train(ds, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(ds, cfg)
print(len(ds), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_train_steps_take_no_page_faults():
    # A step writes into arrays the train() call allocates once; a step
    # that frees ~100 KB arrays has them faulted in again by the next one.
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", PAGE_FAULT_PROBE], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    rows, faults = map(int, proc.stdout.split())
    steps = 3 * -(-rows // TrainConfig().batch_size)
    assert steps == 48
    assert faults < steps, f"{faults} minor page faults in {steps} steps"
