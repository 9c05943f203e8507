"""Model: init rules, forward consistency, prediction, checkpoints."""

import hypothesis.extra.numpy as hnp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from agecontrast.autodiff import grad_check
from agecontrast.model import (Model, ModelConfig, forward_batch, forward_values, init_model,
                               load_model, predict_ages, save_model)

import loss_reference as ref
import tape_ops as ops

TINY = ModelConfig(input_dim=8, hidden_widths=(16,), feature_dim=8, num_ages=5)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(input_dim=0, hidden_widths=(4,), feature_dim=4, num_ages=5)
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, hidden_widths=(0,), feature_dim=4, num_ages=5)


def test_init_deterministic_per_seed():
    a, b = init_model(TINY, 7), init_model(TINY, 7)
    for pa, pb in zip(a.parameters(), b.parameters()):
        npt.assert_array_equal(pa, pb)
    c = init_model(TINY, 8)
    assert any(not np.array_equal(pa, pc)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_init_biases_zero():
    m = init_model(TINY, 0)
    for b in m.biases:
        npt.assert_array_equal(b, np.zeros_like(b))


def test_init_weight_variance_tracks_fan_in():
    cfg = ModelConfig(input_dim=256, hidden_widths=(), feature_dim=256, num_ages=3)
    m = init_model(cfg, 1)
    var = m.weights[0].var()
    target = 2.0 / 256
    assert abs(var - target) / target < 0.2


def test_forward_shapes_and_distribution():
    m = init_model(TINY, 2)
    x_rows = np.random.default_rng(0).normal(0, 1, (10, 8))
    acts, s, shifted, total = forward_batch(m, x_rows)
    assert [a.shape for a in acts] == [(10, 8), (10, 16), (10, 8)]
    npt.assert_array_equal(acts[0], x_rows)
    assert s.shape == shifted.shape == (10, 5) and total.shape == (10, 1)
    npt.assert_allclose(s.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    z = acts[-1] @ m.weights[-1] + m.biases[-1]
    npt.assert_array_equal(s, ops.softmax_rows(z).data)
    npt.assert_array_equal(shifted, z - z.max(axis=1, keepdims=True))
    npt.assert_array_equal(total, np.exp(shifted).sum(axis=1, keepdims=True))


def test_forward_zero_head_is_uniform():
    m = init_model(TINY, 2)
    m.weights[-1][:] = 0.0
    _, s, shifted, _ = forward_batch(m, np.ones((1, 8)))
    npt.assert_allclose(s, np.full((1, 5), 0.2), rtol=1e-15)
    npt.assert_array_equal(shifted, np.zeros((1, 5)))


def test_forward_rejects_bad_input():
    m = init_model(TINY, 2)
    with pytest.raises(ValueError, match=r"\(n, 8\)"):
        forward_batch(m, np.ones((1, 9)))
    with pytest.raises(ValueError, match=r"\(n, 8\)"):
        forward_batch(m, np.ones(8))
    with pytest.raises(ValueError, match="finite"):
        forward_batch(m, np.array([[np.nan] + [0.0] * 7]))


def test_forward_matches_straight_line_reimplementation():
    # Independent second implementation of the same matrices, one row at a time.
    m = init_model(TINY, 11)
    x_rows = np.random.default_rng(1).normal(0, 1, (5, 8))
    acts, s, shifted, _ = forward_batch(m, x_rows)
    for i, x in enumerate(x_rows):
        f_ref, s_ref, z_ref = ref.forward(m, x)
        npt.assert_allclose(acts[-1][i], f_ref, rtol=1e-13)
        npt.assert_allclose(s[i], s_ref, rtol=1e-13)
        npt.assert_allclose(shifted[i], z_ref - z_ref.max(), rtol=1e-13, atol=1e-13)


def test_forward_batch_and_values_agree_with_forward():
    m = init_model(TINY, 4)
    x_rows = np.random.default_rng(2).normal(0, 1, (6, 8))
    acts, sb, shifted, total = forward_batch(m, x_rows)
    fb = acts[-1]
    fv, sv = forward_values(m, x_rows)
    npt.assert_allclose(fb, fv, rtol=1e-13)
    npt.assert_allclose(sb, sv, rtol=1e-13)
    for i in range(6):
        acts_i, si, _, _ = forward_batch(m, x_rows[i:i + 1])
        npt.assert_allclose(fb[i], acts_i[-1][0], rtol=1e-12)
        npt.assert_allclose(sb[i], si[0], rtol=1e-12)
    # Into given arrays (relu outputs, logits, softmax), with the same bits.
    out = tuple(np.full((6, d), np.nan) for d in (16, 8, 5, 5))
    acts_o, s_o, shifted_o, total_o = forward_batch(m, x_rows, out)
    assert acts_o[1] is out[0] and acts_o[2] is out[1]
    assert shifted_o is out[2] and s_o is out[3]
    for got, want in zip((*acts_o, s_o, shifted_o, total_o), (*acts, sb, shifted, total)):
        npt.assert_array_equal(got, want)


def _predict(s):
    return predict_ages(np.atleast_2d(s))[0]


class TestPredictAge:
    def test_one_hot(self):
        s = np.zeros(10)
        s[6] = 1.0
        assert _predict(s) == 7.0

    def test_uniform(self):
        assert _predict(np.full(5, 0.2)) == pytest.approx(3.0, abs=1e-12)

    def test_direct_evaluation(self):
        assert _predict(np.array([0.2, 0.8])) == pytest.approx(1.8, abs=1e-12)

    def test_range(self):
        ages = predict_ages(np.random.default_rng(3).dirichlet(np.ones(7), size=50))
        assert np.all((1.0 <= ages) & (ages <= 7.0))

    def test_monotone_under_upward_mass_shift(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = rng.dirichlet(np.ones(8))
            j = rng.integers(0, 7)
            k = rng.integers(j + 1, 8)
            delta = s[j] * rng.uniform(0, 1)
            shifted = s.copy()
            shifted[j] -= delta
            shifted[k] += delta
            assert _predict(shifted) >= _predict(s) - 1e-12

    def test_batch_agrees(self):
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.ones(6), size=9)
        ages = predict_ages(rows)
        for i in range(9):
            assert ages[i] == pytest.approx(float(rows[i] @ np.arange(1, 7)), abs=1e-12)


def test_checkpoint_round_trip_bitwise(tmp_path):
    m = init_model(TINY, 13)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.config == m.config
    for pa, pb in zip(m.parameters(), loaded.parameters()):
        npt.assert_array_equal(pa, pb)
    # and saving the loaded model reproduces the same bytes
    path2 = tmp_path / "model2.json"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.lists(st.integers(1, 4), min_size=3, max_size=5))
def test_any_finite_checkpoint_loads_back_bitwise(tmp_path, data, dims):
    config = ModelConfig(dims[0], tuple(dims[1:-2]), dims[-2], dims[-1])
    finite = st.floats(allow_nan=False, allow_infinity=False)
    params = [data.draw(hnp.arrays(np.float64, p.shape, elements=finite))
              for p in init_model(config, 0).parameters()]
    save_model(Model(config, params[0::2], params[1::2]), tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    assert loaded.config == config
    assert [(p.shape, p.tobytes()) for p in loaded.parameters()] == [
        (p.shape, p.tobytes()) for p in params]


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="format"):
        load_model(path)
    path.write_text('[1, 2]')
    with pytest.raises(ValueError, match="format"):
        load_model(path)
    path.write_text('{"format": "agecontrast-checkpoint-v1", "config": {}}')
    with pytest.raises(ValueError, match="malformed"):
        load_model(path)


def test_unpacked_forward_is_differentiable_end_to_end():
    # The composed forward that the fused train step is checked against.
    m = init_model(TINY, 19)
    x_rows = np.random.default_rng(6).normal(0, 1, (2, 8))

    def loss_of(*params):
        _, s, _ = ops.forward_batch(ops.Tracked(TINY, params[0::2], params[1::2]), x_rows)
        return ops.sum_all(ops.mul(s, s))

    assert grad_check(ops.pullback(loss_of), *m.parameters()) < 1e-4


def test_tracked_forward_populates_tape():
    m = init_model(TINY, 23)
    tape = ops.Tape()
    tracked = ops.track(m, tape)
    assert tracked.config == m.config
    assert all(t.data is p for t, p in zip(tracked.parameters(), m.parameters()))
    f, s, z = ops.forward_batch(tracked, np.ones((1, 8)))
    npt.assert_array_equal(s.data, forward_batch(m, np.ones((1, 8)))[1])
    assert f.tracked and s.tracked and z.tracked
    grads = tape.backward(ops.add(ops.sum_all(f), ops.sum_all(ops.mul(s, s))))
    assert all(p.node in grads for p in tracked.parameters())
