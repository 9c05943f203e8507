"""The finite-difference oracle, and the test-side tape it checks.

``grad_check`` takes ``(value, pull)`` functions, the package's one
differentiation contract. The tape cases run on ``tape_ops``: its
primitive values, backward rules and accumulation, which the package's
closed-form pullbacks are compared against.
"""

import numpy as np
import numpy.testing as npt
import pytest

from agecontrast.autodiff import grad_check

import tape_ops as ops
from tape_ops import Tape, Tensor


def test_relu_values():
    npt.assert_array_equal(ops.relu([-1.0, 0.0, 2.0]).data, [0.0, 0.0, 2.0])


def test_matmul_identity():
    m = np.arange(12, dtype=float).reshape(3, 4)
    npt.assert_array_equal(ops.matmul(np.eye(3), m).data, m)


def test_matmul_vector_cases():
    # vectors enter as (n, 1) columns or (1, n) rows; bare 1-D operands are rejected
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = np.array([5.0, 6.0])
    npt.assert_array_equal(ops.matmul(a, v[:, None]).data[:, 0], a @ v)
    npt.assert_array_equal(ops.matmul(v[None, :], a).data[0], v @ a)
    for x, y in ((a, v), (v, a)):
        with pytest.raises(ValueError, match="matmul"):
            ops.matmul(x, y)


@pytest.mark.parametrize("op,shapes", [
    ("add", ((3,), (4,))),
    ("mul", ((2, 2), (3,))),
    ("matmul", ((2, 3), (2, 3))),
    ("sub", ((3,), (4,))),
    ("add_rowvec", ((2, 3), (2,))),
])
def test_shape_mismatch_diagnostics(op, shapes):
    a, b = (np.zeros(s) for s in shapes)
    with pytest.raises(ValueError, match=op):
        getattr(ops, op)(a, b)


def test_untracked_ops_stay_off_tape():
    out = ops.add([1.0], [2.0])
    assert not out.tracked and out.tape is None


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    x1, x2 = t1.watch([1.0]), t2.watch([1.0])
    with pytest.raises(ValueError, match="different tapes"):
        ops.weighted_sum([x1, x2], [1.0, 1.0])


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(ops.softmax_rows([[0.0, 0.0, 0.0]]).data, [[1 / 3] * 3])

    def test_limit_case(self):
        s = ops.softmax_rows([[7.0, 107.0], [107.0, 7.0]]).data
        assert abs(s[0, 1] - 1.0) < 1e-12 and abs(s[1, 0] - 1.0) < 1e-12

    def test_direct_evaluation(self):
        z = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 4.0]])
        expected = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        npt.assert_allclose(ops.softmax_rows(z).data, expected, rtol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = ops.softmax_rows(rng.normal(0, 5, (3, 9))).data
            npt.assert_allclose(s.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.all(s > 0)

    def test_shift_invariance_bitwise(self):
        z = np.array([[1.0, 2.0, 3.0], [0.5, -2.0, 7.0]])
        shift = np.array([[100.0], [-40.0]])
        npt.assert_array_equal(ops.softmax_rows(z).data, ops.softmax_rows(z + shift).data)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ops.softmax_rows([[1.0, np.inf]])
        with pytest.raises(ValueError, match="non-finite"):
            ops.softmax_rows([[1.0, np.nan]])


class TestBackward:
    def test_sum_gives_ones(self):
        tape = Tape()
        x = tape.watch(np.arange(6, dtype=float).reshape(2, 3))
        grads = tape.backward(ops.sum_all(x))
        npt.assert_array_equal(grads[x.node], np.ones((2, 3)))

    def test_dot_self_gradient(self):
        tape = Tape()
        x = tape.watch([1.0, 2.0])
        grads = tape.backward(ops.sum_all(ops.mul(x, x)))
        npt.assert_array_equal(grads[x.node], [2.0, 4.0])

    def test_fanout_accumulates(self):
        tape = Tape()
        z = tape.watch(3.0)
        grads = tape.backward(ops.add(z, z))
        assert float(grads[z.node]) == 2.0

    def test_fanout_never_writes_into_a_pullback_result(self):
        # weighted_sum passes read-only broadcast views and add_rowvec hands
        # its gradient to m as is; summing in place would fail on the first
        # and change y's gradient through the second.
        tape = Tape()
        x = tape.watch(np.ones((2, 3)))
        v = tape.watch(np.zeros(3))
        y = ops.add_rowvec(x, v)
        grads = tape.backward(ops.weighted_sum([y, x], [2.0, 5.0]))
        npt.assert_array_equal(grads[y.node], np.full((2, 3), 2.0))
        npt.assert_array_equal(grads[x.node], np.full((2, 3), 7.0))
        npt.assert_array_equal(grads[v.node], [4.0, 4.0, 4.0])

    def test_loss_must_be_scalar(self):
        tape = Tape()
        x = tape.watch([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(ops.relu(x))

    def test_loss_must_be_on_tape(self):
        tape = Tape()
        tape.watch([1.0])
        with pytest.raises(ValueError, match="tape"):
            tape.backward(Tensor(1.0))


def squares(x):
    return (x * x).sum(), lambda g: [2.0 * g * x]


class TestGradCheck:
    def test_sum_of_squares(self):
        assert grad_check(squares, [1.0, 2.0, 3.0]) < 1e-7

    def test_constant_function(self):
        assert grad_check(lambda x: (4.0, lambda g: [np.zeros_like(x)]), [1.0, 2.0]) == 0.0

    def test_non_finite_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            # crosses zero at x - eps
            grad_check(lambda x: (np.log(x).sum(), lambda g: [g / x]), [1e-6])

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(squares, [1.0], eps=0.0)

    def test_needs_a_point(self):
        # with no point nothing would be checked, and 0.0 would read as a pass
        with pytest.raises(ValueError, match="at least one point"):
            grad_check(lambda: (1.0, lambda g: []))

    def test_wrong_gradient_of_second_point_fails(self):
        # sum(x*y), with y's gradient shifted by 0.01 per coordinate
        def product(x, y):
            return (x * y).sum(), lambda g: [g * y, g * x]

        def wrong(x, y):
            return (x * y).sum(), lambda g: [g * y, g * x + 0.01 * g]

        x, y = [1.0, 2.0, 3.0], [0.5, -1.0, 2.0]
        assert grad_check(product, x, y) < 1e-7
        assert grad_check(wrong, x, y) > 5e-3

    def test_nan_analytic_gradient_gives_inf(self):
        # a nan gradient must fail the check, not vanish in max()
        assert grad_check(lambda x: ((x * x).sum(), lambda g: [x * np.nan]), [1.0, 2.0]) == np.inf

    def test_perturbs_every_coordinate_of_every_point_in_order(self):
        seen = []

        def record(x, y):
            seen.append(np.concatenate([x.ravel(), y.ravel()]))
            return x.sum() + y.sum(), lambda g: [np.full(x.shape, g), np.full(y.shape, g)]

        grad_check(record, [[1.0, 2.0]], [3.0], eps=0.5)
        expected = [[1.0, 2.0, 3.0]]
        for j in range(3):
            for step in (0.5, -0.5):
                point = [1.0, 2.0, 3.0]
                point[j] += step
                expected.append(point)
        npt.assert_array_equal(seen, expected)

    def test_pull_must_give_one_gradient_per_point(self):
        with pytest.raises(ValueError, match="one gradient per point"):
            grad_check(lambda x, y: (x.sum(), lambda g: [np.ones(x.shape)]), [1.0], [2.0])


class TestGradCheckOfSharedBuffers:
    """Like a train step, the function writes its forward into a buffer
    that every call shares, and its pull reads that buffer and returns a
    view of it. grad_check must pull before the next evaluation
    overwrites the buffer, and copy what it pulled. With eps 0.5 the
    central differences of a quadratic are exact, so a gradient read at
    a perturbed point fails by far."""

    @staticmethod
    def squares(scale):
        buf = np.empty(3)

        def fn(x):
            np.copyto(buf, x)

            def pull(g):
                return [np.multiply(buf, scale * g, out=buf)[:]]

            return (buf * buf).sum(), pull

        return fn

    def test_correct_gradient_passes(self):
        assert grad_check(self.squares(2.0), [0.5, -1.0, 2.0], eps=0.5) < 1e-12

    def test_wrong_gradient_fails(self):
        # 2.2 x against 2 x: a relative error of 0.1 at every coordinate
        assert grad_check(self.squares(2.2), [0.5, -1.0, 2.0], eps=0.5) == pytest.approx(
            0.1, rel=1e-9)


def _signed_away_from(rng, n, margin=5e-2, scale=1.0):
    return (margin + rng.uniform(0.0, scale, n)) * rng.choice([-1.0, 1.0], n)


def _primitive_cases(rng):
    """(fn, points) builders, one point per operand; each fn reduces its
    primitive to a scalar through a random constant so the pullback sees
    a non-uniform gradient."""
    c4 = rng.normal(0, 1, 4)
    c3 = rng.normal(0, 1, 3)
    c31 = rng.normal(0, 1, (3, 1))
    c34 = rng.normal(0, 1, (3, 4))
    c32 = rng.normal(0, 1, (3, 2))

    def normal(*shapes):
        return [rng.normal(0, 1, shape) for shape in shapes]

    def reduce(t, c):
        return ops.sum_all(ops.mul(t, c))

    return {
        "add": (lambda a, b: reduce(ops.add(a, b), c4), normal(4, 4)),
        "add_scalar_bcast": (lambda a, b: reduce(ops.add(a, b), c4), normal(4, 1)),
        "sub": (lambda a, b: reduce(ops.sub(a, b), c4), normal(4, 4)),
        "mul": (lambda a, b: reduce(ops.mul(a, b), c4), normal(4, 4)),
        "div": (lambda a, b: reduce(ops.div(a, b), c4),
                [rng.normal(0, 1, 4), rng.uniform(1.0, 2.0, 4)]),
        "matmul_2d2d": (lambda a, b: reduce(ops.matmul(a, b), c32), normal((3, 4), (4, 2))),
        "matmul_2d_column": (lambda a, b: reduce(ops.matmul(a, b), c31),
                             normal((3, 4), (4, 1))),
        "matmul_row_2d": (lambda a, b: reduce(ops.matmul(a, b), c4[None, :]),
                          normal((1, 3), (3, 4))),
        "relu": (lambda x: reduce(ops.relu(x), c4), [_signed_away_from(rng, 4)]),
        "clamp_min": (lambda x: reduce(ops.clamp_min(x, 0.5), c4),
                      [0.5 + _signed_away_from(rng, 4)]),
        "log": (lambda x: reduce(ops.log(x), c4), [rng.uniform(0.1, 3.0, 4)]),
        "sqrt": (lambda x: reduce(ops.sqrt(x), c4), [rng.uniform(0.1, 3.0, 4)]),
        "sum_all": (lambda x: ops.sum_all(ops.mul(x, c4)), normal(4)),
        "row_sum": (lambda x: reduce(ops.row_sum(x), c3), normal((3, 4))),
        "softmax_rows": (lambda x: reduce(ops.softmax_rows(x), c34),
                         [rng.normal(0, 2, (3, 4))]),
        "add_rowvec": (lambda m, v: reduce(ops.add_rowvec(m, v), c34), normal((3, 4), 4)),
        "take_rows": (lambda x: reduce(ops.take_rows(x, [0, 2, 3]), c34.T[:3]),
                      normal((4, 3))),
        "linear": (lambda x, w, b: reduce(ops.linear(x, w, b), c32), normal((3, 4), (4, 2), 2)),
        "weighted_sum": (lambda a, b: ops.weighted_sum([a, b, 2.0], [c4, 0.5, 3.0]),
                         normal(4, (2, 3))),
    }


PRIMITIVE_NAMES = sorted(_primitive_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("name", PRIMITIVE_NAMES)
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(hash(name) % (2 ** 32))
    worst = 0.0
    for _ in range(100):
        fn, points = _primitive_cases(rng)[name]
        worst = max(worst, grad_check(ops.pullback(fn), *points))
    assert worst < 1e-4, f"{name}: max relative error {worst}"


@pytest.mark.parametrize("indices", [[1, 1], [2, 0], [-1, 0], [0, 3]])
def test_take_rows_needs_strictly_increasing_indices_in_range(indices):
    with pytest.raises(ValueError, match="take_rows"):
        ops.take_rows(np.zeros((3, 2)), indices)


def test_take_rows_assigns_each_row_gradient():
    tape = Tape()
    m = tape.watch(np.arange(8, dtype=float).reshape(4, 2))
    out = ops.take_rows(m, [0, 2, 3])
    npt.assert_array_equal(out.data, m.data[[0, 2, 3]])
    grads = tape.backward(ops.weighted_sum([out], [[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
    npt.assert_array_equal(grads[m.node], [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0], [5.0, 6.0]])


def test_linear_is_bitwise_matmul_plus_bias():
    rng = np.random.default_rng(12)
    for rows in (1, 7, 64, 300):
        x, w, b = rng.normal(0, 1, (rows, 20)), rng.normal(0, 1, (20, 9)), rng.normal(0, 1, 9)
        npt.assert_array_equal(ops.linear(x, w, b).data, ops.add_rowvec(ops.matmul(x, w), b).data)
    with pytest.raises(ValueError, match="linear"):
        ops.linear(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="linear"):
        ops.linear(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3))


def test_tracked_linear_is_the_plain_products():
    # Products past OpenBLAS's one-thread size too: M*N*K above 2**18.
    rng = np.random.default_rng(13)
    for (n, k, m) in ((5, 512, 512), (7, 300, 290), (192, 64, 64)):
        x, w, b = rng.normal(0, 1, (n, k)), rng.normal(0, 1, (k, m)), rng.normal(0, 1, m)
        c = rng.normal(0, 1, (n, m))
        tape = Tape()
        xt, wt, bt = tape.watch(x), tape.watch(w), tape.watch(b)
        out = ops.linear(xt, wt, bt)
        npt.assert_array_equal(out.data, x @ w + b)
        grads = tape.backward(ops.weighted_sum([out], [c]))
        npt.assert_array_equal(grads[xt.node], c @ w.T)
        npt.assert_array_equal(grads[wt.node], x.T @ c)
        npt.assert_array_equal(grads[bt.node], c.sum(axis=0))


def test_weighted_sum_value_and_validation():
    assert ops.weighted_sum([1.5, 2.0], [1.0, 0.25]).item() == 2.0
    assert ops.weighted_sum([np.array([1.0, 2.0])], [(3.0, 0.5)]).item() == 4.0
    with pytest.raises(ValueError, match="weighted_sum"):
        ops.weighted_sum([1.0, 2.0], [1.0])


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(99)
        tape = Tape()
        x = tape.watch(rng.normal(0, 1, (4, 3)))
        w = tape.watch(rng.normal(0, 1, (3, 2)))
        h = ops.relu(ops.matmul(x, w))
        loss = ops.sum_all(ops.mul(h, h))
        grads = tape.backward(loss)
        return loss.data.copy(), grads[x.node].copy(), grads[w.node].copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        npt.assert_array_equal(a, b)
