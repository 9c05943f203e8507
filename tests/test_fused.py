"""Properties of the closed-form pullbacks.

Each loss term (cross-entropy, the mean/variance pair, cosine, triplet
hinge and KL), recorded as one tape node over the package's closed
form, and the oracle's ``linear`` and unique-index ``take_rows``, is
checked three ways over random shapes: its value against the
plain-numpy reference in ``loss_reference``, its closed-form pullback
against central finite differences, and that pullback against the
gradient of the same formula composed from small tape primitives
(``tape_ops``) where the composition is exact. The inputs reach logits
of +-50, collapsed rows and all-zero feature rows; hinges are kept away
from their kink.

The train step's value and pullback (``build_batch_loss``) are checked
bitwise against the same objective composed node by node from
``tape_ops``.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from agecontrast.autodiff import grad_check
from agecontrast.data import LabeledDataset, TripletBatch
from agecontrast.losses import NORM_FLOOR, LossWeights, total_loss
from agecontrast.model import ModelConfig, init_model
from agecontrast.training import StepBuffers, build_batch_loss

import loss_reference as ref
import tape_ops as ops
from tape_ops import Tape, ce_sum, cosine_mean, kld_mean, mean_variance, triplet_mean

PROPERTY = settings(max_examples=30, deadline=None)
GRAD_TOL = 1e-4


def tape_grads(fn, *points):
    """Tape gradients of a scalar function at the given arrays."""
    return ops.pullback(fn)(*points)[1](1.0)


def assert_grads_close(got, want):
    for g, w in zip(got, want):
        npt.assert_allclose(g, w, rtol=1e-9, atol=1e-12 * max(1.0, np.abs(w).max()))


def projected(node_fn, coef):
    """A scalar through a fixed random projection, so the pullback sees a
    non-uniform gradient."""
    return lambda *xs: ops.weighted_sum([node_fn(*xs)], [coef])


@st.composite
def shapes(draw, max_rows=4, max_cols=6):
    return draw(st.integers(1, max_rows)), draw(st.integers(2, max_cols))


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def logits(draw, rows, cols):
    """Logits in [-50, 50]; sometimes row 0 is collapsed onto one label."""
    z = draw(hnp.arrays(np.float64, (rows, cols), elements=floats(-50.0, 50.0)))
    if draw(st.booleans()):
        z[0] = -50.0
        z[0, draw(st.integers(0, cols - 1))] = 50.0
    return z


# ---------------------------------------------------------------------------
# linear and take_rows

@PROPERTY
@given(st.data())
def test_linear(data):
    n, k = data.draw(shapes())
    m = data.draw(st.integers(1, 5))
    x, w, b, c = (data.draw(hnp.arrays(np.float64, shape, elements=floats(-3.0, 3.0)))
                  for shape in ((n, k), (k, m), (m,), (n, m)))
    npt.assert_array_equal(ops.linear(x, w, b).data, x @ w + b)
    fn = projected(ops.linear, c)
    assert grad_check(ops.pullback(fn), x, w, b) < GRAD_TOL
    composed = projected(lambda x, w, b: ops.add_rowvec(ops.matmul(x, w), b), c)
    assert_grads_close(tape_grads(fn, x, w, b), tape_grads(composed, x, w, b))


@PROPERTY
@given(st.data())
def test_take_rows_unique_indices(data):
    n, k = data.draw(shapes(max_rows=6))
    m = data.draw(hnp.arrays(np.float64, (n, k), elements=floats(-3.0, 3.0)))
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    c = data.draw(hnp.arrays(np.float64, (len(idx), k), elements=floats(-3.0, 3.0)))
    npt.assert_array_equal(ops.take_rows(m, idx).data, m[idx])
    fn = projected(lambda t: ops.take_rows(t, idx), c)
    assert grad_check(ops.pullback(fn), m) < GRAD_TOL
    scattered = np.zeros((n, k))
    scattered[idx] = c
    npt.assert_array_equal(tape_grads(fn, m)[0], scattered)


# ---------------------------------------------------------------------------
# Log-domain terms: cross-entropy and KL from logits

@PROPERTY
@given(st.data())
def test_ce_sum(data):
    n, k = data.draw(shapes())
    z = data.draw(logits(n, k))
    ages = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, k)))
    got = ce_sum(z, ages).item()
    assert got == pytest.approx(sum(ref.ce(z[i], ages[i]) for i in range(n)), rel=1e-12)
    assert grad_check(ops.pullback(lambda t: ce_sum(t, ages)), z) < GRAD_TOL


@PROPERTY
@given(st.data())
def test_kld_mean(data):
    n, k = data.draw(shapes())
    za, zp = data.draw(logits(n, k)), data.draw(logits(n, k))
    got = kld_mean(za, zp).item()
    assert np.isfinite(got)
    want = np.mean([ref.kld(za[i], zp[i]) for i in range(n)])
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert grad_check(ops.pullback(kld_mean), za, zp) < GRAD_TOL


@PROPERTY
@given(st.data())
def test_log_domain_terms_match_the_composed_softmax(data):
    # On moderate logits log(softmax) is exact enough to compose, so the
    # closed-form pullbacks must equal the tape's chain rule.
    n, k = data.draw(shapes())
    za, zp = (data.draw(hnp.arrays(np.float64, (n, k), elements=floats(-4.0, 4.0)))
              for _ in range(2))
    ages = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, k)))
    onehot = np.eye(k)[ages - 1]

    def ce_composed(z):
        picked = ops.row_sum(ops.mul(ops.softmax_rows(z), onehot))
        return ops.mul(ops.sum_all(ops.log(picked)), -1.0)

    def kld_composed(za, zp):
        log_a, log_p = ops.log(ops.softmax_rows(za)), ops.log(ops.softmax_rows(zp))
        per_row = ops.row_sum(ops.mul(ops.softmax_rows(zp), ops.sub(log_p, log_a)))
        return ops.mul(ops.sum_all(per_row), 1.0 / (k * n))

    assert_grads_close(tape_grads(lambda z: ce_sum(z, ages), za), tape_grads(ce_composed, za))
    assert_grads_close(tape_grads(kld_mean, za, zp), tape_grads(kld_composed, za, zp))


# ---------------------------------------------------------------------------
# Probability-domain terms: the mean/variance pair and the triplet hinge

@PROPERTY
@given(st.data())
def test_mean_variance(data):
    n, k = data.draw(shapes())
    s = ops.softmax_rows(data.draw(logits(n, k))).data
    ages = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, k)))
    got = mean_variance(s, ages).data
    assert got[0] == pytest.approx(sum(ref.mean(s[i], ages[i]) for i in range(n)),
                                   rel=1e-12, abs=1e-12)
    assert got[1] == pytest.approx(sum(ref.variance(s[i]) for i in range(n)),
                                   rel=1e-10, abs=1e-10)
    c = data.draw(hnp.arrays(np.float64, 2, elements=floats(-2.0, 2.0)))
    fn = projected(lambda t: mean_variance(t, ages), c)
    assert grad_check(ops.pullback(fn), s) < GRAD_TOL
    labels = np.arange(1.0, k + 1.0)[:, None]

    def composed(t):
        mu = ops.matmul(t, labels)
        diff = ops.sub(mu, ages[:, None].astype(float))
        second = ops.matmul(t, labels * labels)
        mass = ops.matmul(t, np.ones_like(labels))
        # sum_j s_j (j - mu)^2 = second - 2 mu^2 + mu^2 sum_j s_j, off the simplex too
        mu2 = ops.mul(mu, mu)
        var = ops.add(ops.sub(second, ops.mul(mu2, 2.0)), ops.mul(mu2, mass))
        return ops.add(ops.mul(ops.sum_all(ops.mul(diff, diff)), 0.5 * c[0]),
                       ops.mul(ops.sum_all(var), c[1]))

    assert_grads_close(tape_grads(fn, s), tape_grads(composed, s))


@PROPERTY
@given(st.data(), floats(0.0, 1.0))
def test_triplet_mean(data, alpha):
    n, k = data.draw(shapes())
    sa, sp, sn = (ops.softmax_rows(data.draw(logits(n, k))).data for _ in range(3))
    gap = ((sa - sp) ** 2).sum(axis=1) - ((sa - sn) ** 2).sum(axis=1) + alpha
    assume(np.all(np.abs(gap) > 1e-3))
    got = triplet_mean(sa, sp, sn, alpha).item()
    want = np.mean([ref.triplet(sa[i], sp[i], sn[i], alpha) for i in range(n)])
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    fn = lambda a, p, q: triplet_mean(a, p, q, alpha)  # noqa: E731
    assert grad_check(ops.pullback(fn), sa, sp, sn) < GRAD_TOL

    def composed(a, p, q):
        dp, dn = ops.sub(a, p), ops.sub(a, q)
        hinge = ops.add(ops.sub(ops.row_sum(ops.mul(dp, dp)), ops.row_sum(ops.mul(dn, dn))),
                        alpha)
        return ops.mul(ops.sum_all(ops.relu(hinge)), 1.0 / n)

    assert_grads_close(tape_grads(fn, sa, sp, sn), tape_grads(composed, sa, sp, sn))


# ---------------------------------------------------------------------------
# Feature-domain term: cosine

def cosine_composed(fa, fp):
    floor = NORM_FLOOR * NORM_FLOOR
    na = ops.sqrt(ops.clamp_min(ops.row_sum(ops.mul(fa, fa)), floor))
    nb = ops.sqrt(ops.clamp_min(ops.row_sum(ops.mul(fp, fp)), floor))
    per_row = ops.sub(1.0, ops.div(ops.row_sum(ops.mul(fa, fp)), ops.mul(na, nb)))
    return ops.mul(ops.sum_all(per_row), 1.0 / fa.data.shape[0])


@PROPERTY
@given(st.data())
def test_cosine_mean(data):
    n, d = data.draw(shapes())
    fa, fp = (data.draw(hnp.arrays(np.float64, (n, d), elements=floats(-1e3, 1e3)))
              for _ in range(2))
    # no row too close to zero for a finite difference of step 1e-5
    assume(np.all(np.linalg.norm(fa, axis=1) > 1e-2) and np.all(np.linalg.norm(fp, axis=1) > 1e-2))
    got = cosine_mean(fa, fp).item()
    want = np.mean([ref.cosine(fa[i], fp[i]) for i in range(n)])
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert grad_check(ops.pullback(cosine_mean), fa, fp) < GRAD_TOL
    assert_grads_close(tape_grads(cosine_mean, fa, fp), tape_grads(cosine_composed, fa, fp))


@PROPERTY
@given(st.data())
def test_cosine_mean_with_a_zero_feature_row(data):
    # A row whose norm is below NORM_FLOOR (all zero, or tiny) has its norm
    # floored: a zero row's cosine is 0 and its partner gets no gradient
    # from it, and the other rows are unaffected. The loss is not
    # differentiable in such a row itself, so the finite differences run
    # over the partner only.
    n, d = data.draw(shapes())
    fa, fp = (data.draw(hnp.arrays(np.float64, (n, d), elements=floats(-3.0, 3.0)))
              for _ in range(2))
    assume(np.all(np.linalg.norm(fp, axis=1) > 1e-2))
    zero = data.draw(st.booleans())
    fa[0] = 0.0 if zero else fa[0] * 1e-14
    got = cosine_mean(fa, fp).item()
    assert got == pytest.approx(np.mean([ref.cosine(fa[i], fp[i]) for i in range(n)]),
                                rel=1e-12, abs=1e-12)
    assert grad_check(ops.pullback(lambda t: cosine_mean(fa, t)), fp) < GRAD_TOL
    grads = tape_grads(cosine_mean, fa, fp)
    assert all(np.all(np.isfinite(g)) for g in grads)
    if zero:
        npt.assert_array_equal(grads[1][0], 0.0)
    assert_grads_close(grads, tape_grads(cosine_composed, fa, fp))


# ---------------------------------------------------------------------------
# The train step: one node against the composed tape

WEIGHT_SETS = {
    "cosine+triplet": LossWeights(lambda_c=10.0, lambda_t=1.0),
    "kld+triplet": LossWeights(lambda_c=2.0, lambda_t=0.7, pair_loss="kld"),
    "triplet-only": LossWeights(lambda_m=0.0, lambda_v=0.0, lambda_t=1.0, alpha=0.5),
    "mv-only": LossWeights(),
    "mean-only+kld": LossWeights(lambda_v=0.0, lambda_c=1.0, pair_loss="kld"),
}


@st.composite
def step_cases(draw):
    """(model, dataset, batch, weights): random widths, null positive
    and negative slots (or none with a positive), down to one slot, and
    optionally one input row that is dead in every relu layer."""
    config = ModelConfig(draw(st.integers(1, 6)), tuple(draw(st.lists(st.integers(1, 6),
                                                                       max_size=2))),
                         draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = init_model(config, int(rng.integers(2 ** 31)))
    for b in model.biases:
        b += rng.normal(0.0, 0.5, b.shape)
    rows = draw(st.integers(2, 12))
    ds = LabeledDataset(rng.normal(0.0, 2.0, (rows, config.input_dim)),
                        rng.integers(1, config.num_ages + 1, rows),
                        [f"p{i % 3}" for i in range(rows)], config.num_ages)
    slots = draw(st.integers(1, rows))
    a = rng.permutation(rows)[:slots]
    p = np.where(rng.random(slots) < draw(st.sampled_from([0.0, 0.3, 1.0])),
                 rng.integers(0, rows, slots), -1)
    n = np.where(rng.random(slots) < 0.7, rng.integers(0, rows, slots), -1)
    if draw(st.booleans()):
        ds.inputs[a[0]] = 0.0
        for b in model.biases[:-1]:
            b[:] = -np.abs(b) - 0.1
    return model, ds, TripletBatch(a, p, n), WEIGHT_SETS[draw(st.sampled_from(sorted(WEIGHT_SETS)))]


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_fused_step_matches_the_composed_tape_bitwise(case):
    model, ds, batch, weights = case
    # Buffers with spare rows, every float holding nan: what a step reads
    # before writing (a previous step's values) would reach the result.
    buffers = StepBuffers(model.config, 3 * len(batch) + 2)
    for value in vars(buffers).values():
        for arr in value if isinstance(value, list) else [value]:
            if arr.dtype.kind == "f":
                arr.fill(np.nan)
    breakdown, pull = build_batch_loss(model, ds, batch, weights, buffers)
    fused_grads = pull(1.0)
    # The gradients are the buffer that Adam reads.
    assert all(np.shares_memory(g, buffers.grad) for g in fused_grads)
    tape = Tape()
    composed_params = ops.track(model, tape)
    composed = ops.composed_batch_loss(composed_params, ds, batch, weights)
    assert composed.item() == breakdown.total
    composed_grads = tape.backward(composed)
    assert len(fused_grads) == len(model.parameters())
    for f, c in zip(fused_grads, composed_params.parameters()):
        npt.assert_array_equal(f, composed_grads[c.node])


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_total_is_the_total_loss_of_its_terms(case):
    # A step weighs its five terms as the epoch history in train_log.csv does.
    model, ds, batch, weights = case
    b, _ = build_batch_loss(model, ds, batch, weights)
    assert b.total == total_loss(b.l_s, b.l_m, b.l_v, b.l_c, b.l_t, weights=weights).total
