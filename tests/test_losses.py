"""Loss suite: values against direct-evaluation oracles, fixed points,
invariances, gradients, the weighted composition, and property tests
against the plain-numpy per-sample reference.

The terms are called as the one-node tape wrappers of ``tape_ops``
(``ce_sum`` ... ``triplet_mean``), each the package's closed form
(``losses.ce_rows`` ... ``triplet_rows``) recorded as one node."""

import math
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecontrast.autodiff import grad_check, softmax_parts
from agecontrast.losses import LossBreakdown, LossWeights, total_loss

import loss_reference as ref
from tape_ops import (Tape, ce_sum, cosine_mean, kld_mean, mean_sum, pullback, triplet_mean,
                      variance_sum)

row = np.atleast_2d


def rand_dist(rng, n, rows=None):
    z = rng.normal(0, 1, n if rows is None else (rows, n))
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmaxCE:
    # ce_sum takes logits; log() of a distribution is one logit row for it.
    def test_perfect_prediction(self):
        z = np.full(4, -800.0)
        z[2] = 0.0
        assert ce_sum(row(z), [3]).item() == 0.0

    def test_uniform(self):
        assert ce_sum(np.zeros((1, 6)), [2]).item() == pytest.approx(math.log(6), rel=1e-12)

    def test_direct_evaluation(self):
        assert ce_sum(np.log([[0.1, 0.9]]), [1]).item() == pytest.approx(
            -math.log(0.1), rel=1e-12)
        assert ce_sum(np.log([[0.1, 0.9], [0.5, 0.5]]), [1, 2]).item() == pytest.approx(
            -math.log(0.1) - math.log(0.5), rel=1e-12)
        # the value does not depend on a shift of the row
        assert ce_sum(np.log([[0.1, 0.9]]) + 300.0, [1]).item() == pytest.approx(
            -math.log(0.1), rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ce_sum([[0.5, 0.5]], [3])
        with pytest.raises(ValueError, match="out of range"):
            ce_sum([[0.5, 0.5], [0.5, 0.5]], [1, 0])
        with pytest.raises(ValueError, match="out of range"):
            mean_sum([[0.5, 0.5]], [3])


class TestMeanLoss:
    def test_exact_mean_is_zero(self):
        s = np.zeros(9)
        s[4] = 1.0
        assert mean_sum(row(s), [5]).item() == 0.0

    def test_direct_evaluation(self):
        assert mean_sum([[0.5, 0.5]], [1]).item() == pytest.approx(0.125, abs=1e-15)

    def test_symmetric_mean(self):
        assert mean_sum(np.full((1, 3), 1 / 3), [2]).item() == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rand_dist(rng, 7, rows=3)
            y = rng.integers(1, 8, 3)
            means = s @ np.arange(1, 8)
            assert mean_sum(s, y).item() == pytest.approx(
                (0.5 * (means - y) ** 2).sum(), rel=1e-12)


class TestVarianceLoss:
    def test_one_hot_is_zero(self):
        assert variance_sum(np.eye(5)).item() == 0.0

    def test_uniform_three(self):
        assert variance_sum(np.full((1, 3), 1 / 3)).item() == pytest.approx(2 / 3, rel=1e-12)

    def test_bimodal(self):
        assert variance_sum([[0.5, 0.0, 0.5]]).item() == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        labels = np.arange(1, 9, dtype=float)
        for _ in range(20):
            s = rand_dist(rng, 8)
            mu = (labels * s).sum()
            expected = (s * (labels - mu) ** 2).sum()
            assert variance_sum(row(s)).item() == pytest.approx(expected, rel=1e-12)
            assert variance_sum(row(s)).item() >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_non_negative_and_exact_on_peaked_rows(self, data):
        # One logit raised by 30-60 leaves the other labels ~1e-13..1e-26 of
        # the mass; the moment form E[j^2] - E[j]^2 came out negative on
        # about 1% of such rows.
        k = data.draw(st.integers(2, 80), label="labels")
        z = data.draw(hnp.arrays(np.float64, (1, k), elements=st.floats(-1.0, 1.0)))
        z[0, data.draw(st.integers(0, k - 1), label="peak")] += data.draw(st.floats(30.0, 60.0))
        s = softmax_parts(z)[0]
        got = variance_sum(s).item()
        exact = [Fraction(p) for p in s[0]]
        mu = sum(j * p for j, p in enumerate(exact, start=1))
        want = sum(p * (j - mu) ** 2 for j, p in enumerate(exact, start=1))
        assert got >= 0.0
        assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 12) * want


class TestCosineLoss:
    def test_parallel_is_zero(self):
        f = np.array([1.0, 2.0, -3.0])
        assert cosine_mean(row(f), row(2.0 * f)).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_is_one(self):
        assert cosine_mean([[1.0, 0.0]], [[0.0, 5.0]]).item() == pytest.approx(1.0, abs=1e-12)

    def test_antiparallel_is_two(self):
        f = np.array([0.3, -0.7])
        assert cosine_mean(row(f), row(-f)).item() == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        fa, fp = rng.normal(0, 1, (2, 6)), rng.normal(0, 1, (2, 6))
        base = cosine_mean(fa, fp).item()
        for c in (1e-3, 0.5, 3.0, 1e4):
            assert abs(cosine_mean(c * fa, fp).item() - base) < 1e-12
            assert abs(cosine_mean(fa, c * fp).item() - base) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = cosine_mean(rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (3, 4))).item()
            assert 0.0 <= v <= 2.0

    def test_tiny_norm_row_is_exact(self):
        # A norm of 1e-8 is far above NORM_FLOOR, so the cosine is exact.
        assert cosine_mean([[1e-8, 0.0, 0.0]], [[1.0, 0.0, 0.0]]).item() == 0.0
        assert cosine_mean([[1e-8, 0.0, 0.0]], [[0.0, 1.0, 0.0]]).item() == 1.0
        fa, fp = np.array([3e-9, -4e-9, 1e-9]), np.array([0.2, 0.7, -1.0])
        assert cosine_mean(row(fa), row(fp)).item() == pytest.approx(
            ref.cosine(fa, fp), rel=1e-14)

    def test_zero_row_is_finite(self):
        tape = Tape()
        fa, fp = tape.watch(np.zeros((2, 3))), tape.watch(np.ones((2, 3)))
        loss = cosine_mean(fa, fp)
        assert loss.item() == 1.0  # cos = 0 for the dead rows
        grads = tape.backward(loss)
        assert all(np.all(np.isfinite(grads[t.node])) for t in (fa, fp))

    def test_zero_row_leaves_other_rows_exact(self):
        fa = np.array([[0.0, 0.0], [1.0, 0.0]])
        fp = np.array([[1.0, 1.0], [1.0, 1.0]])
        expected = (1.0 + (1.0 - 1.0 / math.sqrt(2.0))) / 2.0
        assert cosine_mean(fa, fp).item() == pytest.approx(expected, rel=1e-14)


class TestTripletMarginLoss:
    def test_margin_satisfied(self):
        s = np.array([[0.6, 0.4]])
        sn = np.array([[0.1, 0.9]])  # ||s - sn||^2 = 0.5
        assert triplet_mean(s, s, sn, 0.2).item() == 0.0

    def test_all_equal_hinge(self):
        s = np.array([[0.5, 0.5]])
        assert triplet_mean(s, s, s, 0.2).item() == pytest.approx(0.2, rel=1e-12)

    def test_direct_evaluation(self):
        v = triplet_mean([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 0.0]], 0.0).item()
        assert v == pytest.approx(2.0, rel=1e-12)
        # the mean over rows: hinges 2.0 and 0.0
        v = triplet_mean([[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]],
                         [[1.0, 0.0], [0.0, 1.0]], 0.0).item()
        assert v == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_distances(self):
        # loss = max(dpos - dneg + alpha, 0) on squared distances by construction
        def hinge(dpos_sq, dneg_sq, alpha=0.3):
            sa = np.zeros((1, 3))
            sp = np.array([[math.sqrt(dpos_sq), 0.0, 0.0]])
            sn = np.array([[0.0, math.sqrt(dneg_sq), 0.0]])
            return triplet_mean(sa, sp, sn, alpha).item()

        grid = [0.0, 0.1, 0.5, 1.0, 2.0]
        for dneg in grid:
            vals = [hinge(dpos, dneg) for dpos in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for dpos in grid:
            vals = [hinge(dpos, dneg) for dneg in grid]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_negative_alpha_rejected(self):
        s = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="alpha"):
            triplet_mean(s, s, s, -0.1)


class TestKLDLoss:
    # kld_mean takes the anchor's and the positive's logits.
    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.normal(0, 3, (2, 6))
            assert kld_mean(z, z).item() == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert kld_mean(rng.normal(0, 3, (2, 5)), rng.normal(0, 3, (2, 5))).item() >= 0.0

    def test_direct_evaluation(self):
        expected = 0.5 * (0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1))
        assert kld_mean(np.log([[0.9, 0.1]]), np.log([[0.5, 0.5]])).item() == pytest.approx(
            expected, rel=1e-12)
        assert expected == pytest.approx(0.255413, abs=5e-7)

    def test_clamped_zero_entries_stay_finite(self):
        # The anchor gives label 2 a probability of about e^-100, far below
        # any floor: the divergence stays finite and exact.
        v = kld_mean([[50.0, -50.0]], [[0.0, 0.0]]).item()
        assert np.isfinite(v)
        assert v == pytest.approx((50.0 - math.log(2.0)) / 2.0, rel=1e-14)


class TestNoProbabilityFloor:
    """Collapsed rows: a probability far below any floor keeps its exact
    log, so the loss is the true one and its gradient does not vanish."""

    def test_ce_of_a_collapsed_row_is_exact_with_a_gradient(self):
        tape = Tape()
        z = tape.watch([[50.0, -50.0]])
        loss = ce_sum(z, [2])
        assert loss.item() == pytest.approx(100.0, rel=1e-15)
        grad = tape.backward(loss)[z.node]
        np.testing.assert_allclose(grad, [[1.0, -1.0]], rtol=1e-15)

    def test_kld_of_collapsed_rows_is_finite_and_checks(self):
        za = np.array([[50.0, -50.0, 0.0], [-50.0, 50.0, 50.0]])
        zp = np.array([[-50.0, 50.0, 0.0], [0.0, 0.0, -50.0]])
        assert np.isfinite(kld_mean(za, zp).item())
        assert grad_check(pullback(kld_mean), za, zp) < 1e-4
        assert grad_check(pullback(lambda z: ce_sum(z, [2, 3])), za) < 1e-4


class TestGradients:
    # The 100-point sweep lives in the selfcheck/acceptance suites; these
    # are quick spot checks per loss on two-row batches.
    def test_each_loss(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            s = rand_dist(rng, 6, rows=2)
            y = rng.integers(1, 7, 2)
            assert grad_check(pullback(lambda x: ce_sum(x, y)), rng.normal(0, 2, (2, 6))) < 1e-4
            assert grad_check(pullback(lambda x: mean_sum(x, y)), s) < 1e-4
            assert grad_check(pullback(variance_sum), s) < 1e-4
            assert grad_check(pullback(cosine_mean), *rng.normal(0, 1, (2, 2, 5))) < 1e-4
            assert grad_check(pullback(kld_mean), *rng.normal(0, 2, (2, 2, 6))) < 1e-4


class TestTotalLoss:
    def test_softmax_only(self):
        total, bd = total_loss(1.7, weights=LossWeights(lambda_m=0, lambda_v=0))
        assert total == 1.7 and bd.total == 1.7

    def test_mv_baseline_composition(self):
        total, bd = total_loss(1.0, 2.0, 3.0, weights=LossWeights())
        assert total == pytest.approx(1.0 + 0.2 * 2.0 + 0.05 * 3.0, rel=1e-15)
        assert bd.l_c == 0.0 and bd.l_t == 0.0

    def test_reference_ternary_composition(self):
        w = LossWeights(lambda_c=10.0, lambda_t=1.0)
        total, bd = total_loss(1.0, 1.0, 1.0, 1.0, 1.0, w)
        assert total == pytest.approx(1.0 + 0.2 + 0.05 + 10.0 + 1.0, rel=1e-15)
        assert bd.total == total

    def test_breakdown_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = LossWeights(lambda_m=rng.uniform(0, 1), lambda_v=rng.uniform(0, 1),
                            lambda_c=rng.uniform(0, 10), lambda_t=rng.uniform(0, 2))
            parts = rng.uniform(0, 3, 5)
            _, bd = total_loss(*parts, weights=w)
            recomposed = (bd.l_s + w.lambda_m * bd.l_m + w.lambda_v * bd.l_v
                          + w.lambda_c * bd.l_c + w.lambda_t * bd.l_t)
            assert bd.total == recomposed


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_c=-1.0)
    with pytest.raises(ValueError):
        LossWeights(alpha=float("nan"))
    with pytest.raises(ValueError):
        LossWeights(pair_loss="other")


def test_breakdown_row_round_trip():
    bd = LossBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert bd.as_row() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert LossBreakdown.FIELDS == ("l_s", "l_m", "l_v", "l_c", "l_t", "total")


# ---------------------------------------------------------------------------
# Properties: a batch of B rows against B single-row calls and against the
# plain-numpy per-sample reference.

CLOSE = dict(rel=1e-12, abs=1e-12)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def batches(draw):
    """(distribution rows x3, labels, feature rows x2, logit rows x2) for
    one batch; distribution rows may hold exact zeros and a row of zero
    weights becomes uniform; logits reach +-50."""
    b = draw(st.integers(1, 4))
    k = draw(st.integers(2, 8))
    d = draw(st.integers(1, 6))
    weights = hnp.arrays(np.float64, (b, k), elements=st.floats(0.0, 1.0))
    dists = []
    for _ in range(3):
        w = draw(weights)
        w = np.where(w.sum(axis=1, keepdims=True) > 0, w, 1.0)
        dists.append(w / w.sum(axis=1, keepdims=True))
    ages = draw(hnp.arrays(np.int64, b, elements=st.integers(1, k)))
    features = hnp.arrays(np.float64, (b, d), elements=st.floats(-1e3, 1e3))
    logits = hnp.arrays(np.float64, (b, k), elements=st.floats(-50.0, 50.0))
    return dists, ages, draw(features), draw(features), (draw(logits), draw(logits))


def _each_row(fn, *arrays):
    return [fn(*(a[i:i + 1] for a in arrays)).item() for i in range(len(arrays[0]))]


@PROPERTY
@given(batches(), st.floats(0.0, 1.0))
def test_batch_equals_its_single_row_calls(batch, alpha):
    (s_a, s_p, s_n), ages, f_a, f_p, (z_a, z_p) = batch
    sums = {
        "ce": (ce_sum, (z_a, ages)),
        "mean": (mean_sum, (s_a, ages)),
        "variance": (variance_sum, (s_a,)),
    }
    for name, (fn, args) in sums.items():
        assert fn(*args).item() == pytest.approx(sum(_each_row(fn, *args)), **CLOSE), name
    means = {
        "cosine": (cosine_mean, (f_a, f_p)),
        "kld": (kld_mean, (z_a, z_p)),
        "triplet": (lambda a, p, n: triplet_mean(a, p, n, alpha), (s_a, s_p, s_n)),
    }
    for name, (fn, args) in means.items():
        assert fn(*args).item() == pytest.approx(np.mean(_each_row(fn, *args)), **CLOSE), name


@PROPERTY
@given(batches(), st.floats(0.0, 1.0))
def test_batch_matches_numpy_reference(batch, alpha):
    (s_a, s_p, s_n), ages, f_a, f_p, (z_a, z_p) = batch
    rows = range(len(ages))
    checks = [
        ("ce", ce_sum(z_a, ages), sum(ref.ce(z_a[i], ages[i]) for i in rows)),
        ("mean", mean_sum(s_a, ages), sum(ref.mean(s_a[i], ages[i]) for i in rows)),
        ("variance", variance_sum(s_a), sum(ref.variance(s_a[i]) for i in rows)),
        ("cosine", cosine_mean(f_a, f_p),
         np.mean([ref.cosine(f_a[i], f_p[i]) for i in rows])),
        ("kld", kld_mean(z_a, z_p), np.mean([ref.kld(z_a[i], z_p[i]) for i in rows])),
        ("triplet", triplet_mean(s_a, s_p, s_n, alpha),
         np.mean([ref.triplet(s_a[i], s_p[i], s_n[i], alpha) for i in rows])),
    ]
    for name, got, want in checks:
        assert got.item() == pytest.approx(want, rel=1e-10, abs=1e-10), name
