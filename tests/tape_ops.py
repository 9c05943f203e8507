"""A reverse-mode gradient tape and the train step composed on it: the
test oracle for the package's closed-form ``(value, pull)`` pullbacks.

A ``Tape`` records one node per operation, with its operands' handles
and one pullback, and ``Tape.backward`` propagates a scalar's gradient
to every node. ``ce_sum`` ... ``triplet_mean`` record each loss term's
closed form as one node; the primitives (``add`` ... ``take_rows``)
compose the same formulas step by step. ``composed_batch_loss`` is the
train step as the package once ran it: a stacked forward of ``linear``
and ``relu`` nodes, ``softmax_rows``, one ``take_rows`` gather per loss
operand, one node per term and a weighted sum, 24 nodes with the
default model and every term on; it is the oracle for
``training.build_batch_loss``. ``pullback`` turns a function of tape
tensors into the contract of ``autodiff.grad_check``.

A tape is single-writer. Untracked tensors are immutable value carriers.
"""

from dataclasses import dataclass

import numpy as np

from agecontrast.autodiff import softmax_parts
from agecontrast.losses import (ce_rows, cosine_rows, kld_rows, mean_variance_rows,
                                triplet_rows, weighted_total)
from agecontrast.model import Model, ModelConfig

def _as_array(values):
    # order="C" keeps row-major layout without promoting 0-d scalars the
    # way ascontiguousarray would.
    return np.asarray(values, dtype=np.float64, order="C")


class Tensor:
    """A dense float64 array, optionally tracked as one node on one tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: "Tape | None" = None, node: int | None = None):
        self.data = _as_array(data)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def tracked(self) -> bool:
        return self.node is not None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements, expected 1")
        return self.data.item()


class Tape:
    """Append-only operation record; append order is topological order."""

    def __init__(self):
        # Per node: the operands' handles (None for an untracked operand)
        # and the joint pullback, None for a leaf.
        self._parents = []
        self._pullbacks = []

    def __len__(self) -> int:
        return len(self._parents)

    def watch(self, values) -> Tensor:
        """Register a leaf whose gradient should be available after backward."""
        return Tensor(values, self, self._append((), None))

    def _append(self, parents, pullback) -> int:
        self._parents.append(parents)
        self._pullbacks.append(pullback)
        return len(self._parents) - 1

    def backward(self, loss: Tensor) -> dict:
        """Propagate d(loss)/d(node) to every node reachable from ``loss``.

        Returns a map from node handle to gradient array; gradients
        accumulate additively across fan-out. Handles absent from the map
        did not influence the loss (their gradient is zero). A gradient may
        be a read-only view: copy it before writing to it.
        """
        if loss.node is None or loss.tape is not self:
            raise ValueError("backward: loss was not recorded on this tape")
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        grads = [None] * len(self._parents)
        grads[loss.node] = np.ones_like(loss.data)
        for node in range(loss.node, -1, -1):
            gout = grads[node]
            if gout is None or self._pullbacks[node] is None:
                continue
            for parent, g in zip(self._parents[node], self._pullbacks[node](gout)):
                if parent is None:
                    continue
                # Never in place: a contribution may be a view of another gradient.
                grads[parent] = g if grads[parent] is None else grads[parent] + g
        return {node: g for node, g in enumerate(grads) if g is not None}


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(out, pullback, operands) -> Tensor:
    """One tape node with value ``out`` over ``operands``.

    ``pullback`` maps the gradient of ``out`` to one gradient per
    operand, each an array of its operand's shape; the tape drops those
    of untracked operands. With no operand tracked the result is
    untracked and the pullback never runs.
    """
    out = _as_array(out)
    tapes = {id(t.tape): t.tape for t in operands if t.tracked}
    if len(tapes) > 1:
        raise ValueError("operands were recorded on different tapes")
    if not tapes:
        return Tensor(out)
    tape = tapes.popitem()[1]
    return Tensor(out, tape, tape._append(tuple(t.node for t in operands), pullback))


def record(out, pairs):
    """``node`` with one pullback per operand."""
    return node(out, lambda g: [pull(g) for _, pull in pairs], [t for t, _ in pairs])


def weighted_sum(terms, coefs) -> Tensor:
    """``sum_i sum(coefs[i] * terms[i])`` as one scalar node.

    A term is a tensor or a float constant; its coefficient is a float
    or an array broadcasting against it. The value accumulates term by
    term in the order given (``losses.weighted_total``).
    """
    terms = [_lift(t) for t in terms]
    if len(terms) != len(coefs):
        raise ValueError(f"weighted_sum: {len(terms)} terms for {len(coefs)} coefficients")
    coefs = [np.asarray(c, dtype=np.float64) for c in coefs]
    total = weighted_total([t.data for t in terms], coefs)
    return node(total, lambda g: [np.broadcast_to(g * c, t.data.shape)
                                  for t, c in zip(terms, coefs)], terms)


def pullback(fn):
    """A function of tensors returning a scalar tensor, as a function of
    arrays returning ``(value, pull)``: the points are watched on a new
    tape, and pull(g) is g times the tape gradient of each."""
    def wrapped(*points):
        tape = Tape()
        xs = [tape.watch(p) for p in points]
        out = fn(*xs)

        def pull(g):
            grads = tape.backward(out) if out.tracked else {}
            return [g * grads.get(x.node, np.zeros(x.shape)) for x in xs]

        return out.item(), pull

    return wrapped


@dataclass
class Tracked:
    """A model's parameters as tape leaves, laid out like ``Model``'s."""

    config: ModelConfig
    weights: list
    biases: list
    parameters = Model.parameters


def track(model: Model, tape: Tape) -> Tracked:
    """Every parameter of model registered on the tape; the tracked
    values are the model's own arrays, not copies."""
    return Tracked(model.config, [tape.watch(w) for w in model.weights],
                   [tape.watch(b) for b in model.biases])


# ---------------------------------------------------------------------------
# Primitives

def _check_binary(op, a, b):
    # Identical shapes, or a size-1 operand broadcast against the other.
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _reduce_to(shape, g):
    return g if g.shape == shape else np.asarray(g.sum()).reshape(shape)


def add(a, b):
    a, b = _lift(a), _lift(b)
    _check_binary("add", a, b)
    ash, bsh = a.data.shape, b.data.shape
    return record(a.data + b.data, [(a, lambda g: _reduce_to(ash, g)),
                                    (b, lambda g: _reduce_to(bsh, g))])


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _check_binary("sub", a, b)
    ash, bsh = a.data.shape, b.data.shape
    return record(a.data - b.data, [(a, lambda g: _reduce_to(ash, g)),
                                    (b, lambda g: _reduce_to(bsh, -g))])


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _check_binary("mul", a, b)
    ad, bd = a.data, b.data
    return record(ad * bd, [(a, lambda g: _reduce_to(ad.shape, g * bd)),
                            (b, lambda g: _reduce_to(bd.shape, g * ad))])


def div(a, b):
    a, b = _lift(a), _lift(b)
    _check_binary("div", a, b)
    ad, bd = a.data, b.data
    return record(ad / bd, [(a, lambda g: _reduce_to(ad.shape, g / bd)),
                            (b, lambda g: _reduce_to(bd.shape, -g * ad / (bd * bd)))])


def matmul(a, b):
    """Matrix product of two matrices; a vector enters as a (n, 1) column."""
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    return record(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def clamp_min(a, floor):
    a = _lift(a)
    ad = a.data
    return record(np.maximum(ad, floor), [(a, lambda g: g * (ad > floor))])


def log(a):
    a = _lift(a)
    ad = a.data
    return record(np.log(ad), [(a, lambda g: g / ad)])


def sqrt(a):
    a = _lift(a)
    out = np.sqrt(a.data)
    return record(out, [(a, lambda g: g / (2.0 * out))])


def sum_all(a):
    a = _lift(a)
    ad = a.data
    return record(ad.sum(), [(a, lambda g: np.full(ad.shape, float(g)))])


def row_sum(a):
    a = _lift(a)
    ad = a.data
    if ad.ndim != 2:
        raise ValueError(f"row_sum: expected a matrix, got shape {ad.shape}")
    return record(ad.sum(axis=1), [(a, lambda g: np.broadcast_to(g[:, None], ad.shape))])


def add_rowvec(m, v):
    """Add a vector to every row of a matrix."""
    m, v = _lift(m), _lift(v)
    md, vd = m.data, v.data
    if md.ndim != 2 or vd.ndim != 1 or md.shape[1] != vd.shape[0]:
        raise ValueError(f"add_rowvec: shape mismatch {md.shape} vs {vd.shape}")
    return record(md + vd, [(m, lambda g: g), (v, lambda g: g.sum(axis=0))])


def linear(x, w, b):
    """``x @ w + b``: a (n, k) matrix times a (k, m) matrix plus a bias
    added to every row, as one node."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    xd, wd, bd = x.data, w.data, b.data
    if (xd.ndim != 2 or wd.ndim != 2 or bd.ndim != 1
            or xd.shape[1] != wd.shape[0] or wd.shape[1] != bd.shape[0]):
        raise ValueError(f"linear: incompatible shapes {xd.shape}, {wd.shape} and {bd.shape}")
    return record(xd @ wd + bd, [(x, lambda g: g @ wd.T), (w, lambda g: xd.T @ g),
                                 (b, lambda g: g.sum(axis=0))])


def relu(a):
    # Subgradient 0 at the kink: the mask is strict.
    a = _lift(a)
    pre = a.data
    return record(np.maximum(pre, 0.0), [(a, lambda g: g * (pre > 0.0))])


def softmax_rows(logits):
    """Row-wise stabilized softmax of a logit matrix."""
    z = _lift(logits)
    zd = z.data
    if zd.ndim != 2:
        raise ValueError(f"softmax_rows: expected a matrix, got shape {zd.shape}")
    s = softmax_parts(zd)[0]
    return record(s, [(z, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True)))])


def take_rows(m, indices):
    """Gather the rows of a matrix at strictly increasing indices.

    No row repeats, so the pullback assigns each row's gradient instead
    of accumulating it.
    """
    m = _lift(m)
    md = m.data
    idx = np.asarray(indices, dtype=np.intp)
    if md.ndim != 2 or idx.ndim != 1:
        raise ValueError(f"take_rows: expected matrix and index vector, got {md.shape} and {idx.shape}")
    if idx.size and (idx[0] < 0 or idx[-1] >= md.shape[0] or np.any(idx[1:] <= idx[:-1])):
        raise ValueError(f"take_rows: indices must increase strictly within 0..{md.shape[0] - 1}")

    def pull(g):
        out = np.zeros(md.shape)
        out[idx] = g
        return out

    return record(md[idx], [(m, pull)])


# ---------------------------------------------------------------------------
# Loss terms, one node each over the package's closed forms

def _rows(*blocks) -> list[Tensor]:
    """The operands as tensors, checked to be matrices of one shape."""
    ts = [_lift(x) for x in blocks]
    shape = ts[0].data.shape
    if len(shape) != 2 or any(t.data.shape != shape for t in ts):
        raise ValueError(f"expected row blocks of one (rows, width) shape, "
                         f"got {[t.data.shape for t in ts]}")
    return ts


def ce_sum(logits, ages) -> Tensor:
    """Summed cross-entropy -log s_y over the rows of a logit matrix."""
    (z,) = _rows(logits)
    return node(*ce_rows(*softmax_parts(z.data), ages), [z])


def mean_variance(s_rows, ages) -> Tensor:
    """The pair (sum_i 0.5*(mean_i - y_i)^2, sum_i var_i) over the rows of
    a distribution matrix, as one node with a (2,) value."""
    (s,) = _rows(s_rows)
    return node(*mean_variance_rows(s.data, ages), [s])


def mean_sum(s_rows, ages) -> Tensor:
    """Summed penalty 0.5*(mean - y)^2 on each row's distribution mean."""
    return weighted_sum([mean_variance(s_rows, ages)], [(1.0, 0.0)])


def variance_sum(s_rows) -> Tensor:
    """Summed variance of each row's distribution, sum_j s_j (j - mean)^2."""
    s_rows = _lift(s_rows)
    # The variance does not depend on the labels; any valid label serves.
    ones = np.ones(s_rows.data.shape[:1], dtype=np.int64)
    return weighted_sum([mean_variance(s_rows, ones)], [(0.0, 1.0)])


def cosine_mean(f_anchor, f_pos) -> Tensor:
    """Mean cosine embedding loss 1 - cos(f_a, f_p) over row pairs."""
    fa, fp = _rows(f_anchor, f_pos)
    return node(*cosine_rows(fa.data, fp.data), [fa, fp])


def kld_mean(z_anchor, z_pos) -> Tensor:
    """Mean KL divergence KL(s_p || s_a), scaled by 1/A, from two logit matrices."""
    za, zp = _rows(z_anchor, z_pos)
    return node(*kld_rows(softmax_parts(za.data), softmax_parts(zp.data)), [za, zp])


def triplet_mean(s_a, s_p, s_n, alpha: float) -> Tensor:
    """Mean hinge max(||s_a - s_p||^2 - ||s_a - s_n||^2 + alpha, 0) per row triplet."""
    ta, tp, tn = _rows(s_a, s_p, s_n)
    return node(*triplet_rows(ta.data, tp.data, tn.data, alpha), [ta, tp, tn])


# ---------------------------------------------------------------------------
# The train step, composed

def forward_batch(model, x_rows):
    """(F, S, Z) of a model whose parameters may be tracked, one node per layer."""
    h = _lift(x_rows)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = relu(linear(h, w, b))
    logits = linear(h, model.weights[-1], model.biases[-1])
    return h, softmax_rows(logits), logits


def composed_batch_loss(params: Tracked, ds, batch, weights):
    """The batch loss of ``training.build_batch_loss`` composed node by node."""
    a = batch.a
    num_a = len(a)
    empty = np.empty(0, dtype=np.intp)
    pos = np.flatnonzero(batch.p >= 0) if weights.lambda_c > 0 or weights.lambda_t > 0 else empty
    trip = np.flatnonzero(batch.n[pos] >= 0) if weights.lambda_t > 0 else empty
    num_p = len(pos)
    rows = np.concatenate([a, batch.p[pos], batch.n[pos[trip]]])
    f, s, z = forward_batch(params, ds.inputs[rows])

    def anchor_block(t):
        return t if len(rows) == num_a else take_rows(t, np.arange(num_a))

    ages = ds.ages[a]
    scale = 1.0 / num_a
    terms, coefs = [ce_sum(anchor_block(z), ages)], [scale]
    if weights.lambda_m > 0 or weights.lambda_v > 0:
        terms.append(mean_variance(anchor_block(s), ages))
        coefs.append((scale * weights.lambda_m, scale * weights.lambda_v))
    if weights.lambda_c > 0 and num_p:
        pair_rows = num_a + np.arange(num_p)
        pair = cosine_mean if weights.pair_loss == "cosine" else kld_mean
        t = f if weights.pair_loss == "cosine" else z
        terms.append(pair(take_rows(t, pos), take_rows(t, pair_rows)))
        coefs.append(weights.lambda_c)
    if weights.lambda_t > 0 and len(trip):
        terms.append(triplet_mean(take_rows(s, pos[trip]), take_rows(s, num_a + trip),
                                  take_rows(s, num_a + num_p + np.arange(len(trip))),
                                  weights.alpha))
        coefs.append(weights.lambda_t)
    return weighted_sum(terms, coefs)
