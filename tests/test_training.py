"""Adam contract, training-loop determinism, batched-loss consistency."""

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
        zeros = [np.zeros_like(p) for p in model.parameters()]
        adam_step(model, zeros, state, TrainConfig())
        for p, b in zip(model.parameters(), before):
            npt.assert_array_equal(p, b)
        assert state.step == 1

    def test_zero_gradients_decay_moments(self):
        model = init_model(TINY, 0)
        state = AdamState.for_model(model)
        for m in state.m:
            m += 1.0
        for v in state.v:
            v += 1.0
        zeros = [np.zeros_like(p) for p in model.parameters()]
        adam_step(model, zeros, state, TrainConfig())
        assert all(np.all(m == 0.9) for m in state.m)
        assert all(np.all(v == 0.999) for v in state.v)

    def test_first_step_closed_form(self):
        # constant gradient g: first update is -lr * g / (|g| + eps)
        cfg = TrainConfig(learning_rate=0.001)
        model = init_model(ModelConfig(1, (), 1, 2), 3)
        before = [p.copy() for p in model.parameters()]
        grads = [np.full_like(p, 0.5) for p in model.parameters()]
        adam_step(model, grads, AdamState.for_model(model), cfg)
        expected_delta = -0.001 * 0.5 / (0.5 + ADAM_EPS)
        for p, b in zip(model.parameters(), before):
            npt.assert_allclose(p - b, expected_delta, rtol=1e-12)

    def test_sign_of_step_follows_gradient(self):
        cfg = TrainConfig(learning_rate=0.01)
        model = init_model(ModelConfig(1, (), 1, 2), 3)
        before = [p.copy() for p in model.parameters()]
        grads = [np.full_like(p, -2.0) for p in model.parameters()]
        adam_step(model, grads, AdamState.for_model(model), cfg)
        for p, b in zip(model.parameters(), before):
            assert np.all(p > b)

    def test_non_finite_gradient_aborts_with_name_and_step(self):
        model = init_model(TINY, 0)
        state = AdamState.for_model(model)
        grads = [np.zeros_like(p) for p in model.parameters()]
        grads[3][0] = np.nan  # layer1.bias... second pair's weight slot
        name = model.param_names()[3]
        with pytest.raises(OptimizationError, match=rf"{name} at step 1"):
            adam_step(model, grads, state, TrainConfig())

    def test_gradient_count_checked(self):
        model = init_model(TINY, 0)
        with pytest.raises(ValueError, match="gradients"):
            adam_step(model, [], AdamState.for_model(model), TrainConfig())


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
        _, bd = build_batch_loss(model, train_ds, triplets, weights)
        expected = self._per_sample_means(model, train_ds, triplets, weights)
        for got, want, name in zip((bd.l_s, bd.l_m, bd.l_v, bd.l_c, bd.l_t),
                                   expected, ("l_s", "l_m", "l_v", "l_c", "l_t")):
            assert got == pytest.approx(want, rel=1e-10), name

    def test_all_null_positives_skip_pair_terms(self, train_ds):
        weights = LossWeights(lambda_c=3.0, lambda_t=0.7)
        model = init_model(ModelConfig(train_ds.input_dim, (12,), 8, train_ds.num_ages), 1)
        triplets = TripletBatch([0, 1], [-1, -1], [8, 9])
        _, bd = build_batch_loss(model, train_ds, triplets, weights)
        assert bd.l_c == 0.0 and bd.l_t == 0.0 and bd.l_s > 0.0
