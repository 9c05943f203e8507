"""Elementwise and matrix tape primitives, kept as a test oracle.

The package's tape has only the few large nodes a train step uses. These
small primitives are defined here through the same public
``autodiff.record`` hook, so the loss formulas can be composed step by
step (the way the package composed them before its losses were fused)
and the fused nodes' closed-form pullbacks compared against the
composition's. ``take_rows`` here accumulates repeated indices with
``np.add.at``; it is the oracle for the package's unique-index gather.
"""

import numpy as np

from agecontrast.autodiff import Tensor, record


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def take_rows(m, indices):
    """Gather rows of a matrix; duplicate indices accumulate gradient."""
    m = _lift(m)
    md = m.data
    idx = np.asarray(indices, dtype=np.intp)

    def pull(g):
        out = np.zeros(md.shape)
        np.add.at(out, idx, g)
        return out

    return record(md[idx], [(m, pull)])

