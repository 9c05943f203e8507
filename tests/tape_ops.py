"""Tape primitives, and the train step composed from them, as a test oracle.

The package records a train step as one tape node and each loss term as
one node. These primitives are defined here through the same public
``autodiff.record`` hook, so the loss formulas can be composed step by
step and the fused nodes' closed-form pullbacks compared against the
composition's. ``linear``, ``relu``, ``softmax_rows`` and ``take_rows``
are the nodes the package's train step was made of, and
``composed_batch_loss`` is that step: a stacked forward, one gather per
loss operand, one node per loss term and a weighted sum, 24 nodes with
the default model and every term on. It is the oracle for
``training.build_batch_loss``.
"""

import numpy as np

from agecontrast import autodiff as ad
from agecontrast.autodiff import Tensor
from agecontrast.losses import ce_sum, cosine_mean, kld_mean, mean_variance, triplet_mean
from agecontrast.model import Model
from agecontrast.training import _inner_blocked, _row_blocked


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def record(out, pairs):
    """``autodiff.record`` with one pullback per operand."""
    return ad.record(out, lambda g: [pull(g) for _, pull in pairs], [t for t, _ in pairs])


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
    added to every row, as one node.

    Untracked, it is exactly ``x @ w + b``. Tracked, the products run in
    the train step's one-thread blocks.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    xd, wd, bd = x.data, w.data, b.data
    if (xd.ndim != 2 or wd.ndim != 2 or bd.ndim != 1
            or xd.shape[1] != wd.shape[0] or wd.shape[1] != bd.shape[0]):
        raise ValueError(f"linear: incompatible shapes {xd.shape}, {wd.shape} and {bd.shape}")
    if not any(t.tracked for t in (x, w, b)):
        return Tensor(xd @ wd + bd)
    return record(_row_blocked(xd, wd, np.empty((xd.shape[0], wd.shape[1]))) + bd,
                  [(x, lambda g: _row_blocked(g, wd.T, np.empty(xd.shape))),
                   (w, lambda g: _inner_blocked(xd, g, np.empty(wd.shape), np.empty(wd.shape))),
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
    s = ad.softmax_parts(zd, "softmax_rows")[0]
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


def forward_batch(model, x_rows):
    """(F, S, Z) of a model whose parameters may be tracked, one node per layer."""
    h = _lift(x_rows)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = relu(linear(h, w, b))
    logits = linear(h, model.weights[-1], model.biases[-1])
    return h, softmax_rows(logits), logits


def composed_batch_loss(params: Model, ds, batch, weights):
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
    return ad.weighted_sum(terms, coefs)
