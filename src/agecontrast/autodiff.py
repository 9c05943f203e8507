"""Dense float64 tensors with a reverse-mode gradient tape.

Values are numpy arrays. Every differentiable primitive records parent
handles and a pullback closure on the active tape, so any scalar built
from tracked inputs can be differentiated with ``Tape.backward``. The
independent check for all analytic gradients is ``grad_check``, a
central finite-difference oracle.

A tape is single-writer: build the graph and call backward on one thread
of control. Untracked tensors are immutable value carriers and can be
shared freely between readers.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError

Array = np.ndarray
Pullback = Callable[[Array], Array]


def _as_array(values) -> Array:
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
    def size(self) -> int:
        return self.data.size

    @property
    def tracked(self) -> bool:
        return self.node is not None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements, expected 1")
        return self.data.item()

    def sum(self) -> "Tensor":
        return sum_all(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        tag = f", node={self.node}" if self.tracked else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class Tape:
    """Append-only operation record; append order is topological order."""

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._pullbacks: list[tuple[Pullback, ...]] = []
        self._shapes: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._parents)

    def watch(self, values) -> Tensor:
        """Register a leaf whose gradient should be available after backward."""
        arr = _as_array(values)
        node = self._append((), (), arr.shape)
        return Tensor(arr, self, node)

    def _append(self, parents: tuple[int, ...], pullbacks: tuple[Pullback, ...],
                shape: tuple[int, ...]) -> int:
        self._parents.append(parents)
        self._pullbacks.append(pullbacks)
        self._shapes.append(shape)
        return len(self._parents) - 1

    def backward(self, loss: Tensor) -> dict[int, Array]:
        """Propagate d(loss)/d(node) to every node reachable from ``loss``.

        Returns a map from node handle to gradient array; gradients
        accumulate additively across fan-out. Handles absent from the map
        did not influence the loss (their gradient is zero).
        """
        if loss.node is None or loss.tape is not self:
            raise ValueError("backward: loss was not recorded on this tape")
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        grads: list[Array | None] = [None] * len(self._parents)
        grads[loss.node] = np.ones_like(loss.data)
        for node in range(loss.node, -1, -1):
            gout = grads[node]
            if gout is None:
                continue
            for parent, pull in zip(self._parents[node], self._pullbacks[node]):
                buf = grads[parent]
                if buf is None:
                    buf = np.zeros(self._shapes[parent])
                    grads[parent] = buf
                buf += pull(gout)
        return {node: g for node, g in enumerate(grads) if g is not None}


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _single_tape(tensors: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in tensors:
        if t.node is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands were recorded on different tapes")
    return tape


def _record(out: Array, pairs: list[tuple[Tensor, Pullback]]) -> Tensor:
    tape = _single_tape([t for t, _ in pairs])
    if tape is None:
        return Tensor(out)
    tracked = [(t.node, pull) for t, pull in pairs if t.node is not None]
    parents = tuple(node for node, _ in tracked)
    pulls = tuple(pull for _, pull in tracked)
    return Tensor(out, tape, tape._append(parents, pulls, out.shape))


def _check_binary(op: str, a: Tensor, b: Tensor) -> None:
    # Elementwise ops accept identical shapes, or a size-1 operand broadcast
    # against the other.
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _reduce_to(shape: tuple[int, ...], g: Array) -> Array:
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("add", a, b)
    ash, bsh = a.data.shape, b.data.shape
    return _record(a.data + b.data,
                   [(a, lambda g: _reduce_to(ash, g)),
                    (b, lambda g: _reduce_to(bsh, g))])


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("sub", a, b)
    ash, bsh = a.data.shape, b.data.shape
    return _record(a.data - b.data,
                   [(a, lambda g: _reduce_to(ash, g)),
                    (b, lambda g: _reduce_to(bsh, -g))])


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("mul", a, b)
    ad, bd = a.data, b.data
    return _record(ad * bd,
                   [(a, lambda g: _reduce_to(ad.shape, g * bd)),
                    (b, lambda g: _reduce_to(bd.shape, g * ad))])


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_binary("div", a, b)
    ad, bd = a.data, b.data
    return _record(ad / bd,
                   [(a, lambda g: _reduce_to(ad.shape, g / bd)),
                    (b, lambda g: _reduce_to(bd.shape, -g * ad / (bd * bd)))])


def matmul(a, b) -> Tensor:
    """Matrix product of two matrices; a vector enters as a (n, 1) column."""
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    return _record(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def relu(a) -> Tensor:
    # Subgradient 0 at the kink: the mask is strict.
    a = _lift(a)
    ad = a.data
    return _record(np.maximum(ad, 0.0), [(a, lambda g: g * (ad > 0.0))])


def clamp_min(a, floor: float) -> Tensor:
    a = _lift(a)
    ad = a.data
    return _record(np.maximum(ad, floor), [(a, lambda g: g * (ad > floor))])


def log(a) -> Tensor:
    a = _lift(a)
    ad = a.data
    return _record(np.log(ad), [(a, lambda g: g / ad)])


def sqrt(a) -> Tensor:
    a = _lift(a)
    out = np.sqrt(a.data)
    return _record(out, [(a, lambda g: g / (2.0 * out))])


def sum_all(a) -> Tensor:
    a = _lift(a)
    ad = a.data
    return _record(np.asarray(ad.sum()),
                   [(a, lambda g: np.full(ad.shape, float(g)))])


def row_sum(a) -> Tensor:
    a = _lift(a)
    ad = a.data
    if ad.ndim != 2:
        raise ValueError(f"row_sum: expected a matrix, got shape {ad.shape}")
    return _record(ad.sum(axis=1),
                   [(a, lambda g: np.broadcast_to(g[:, None], ad.shape))])


def softmax_rows(logits) -> Tensor:
    """Row-wise stabilized softmax of a logit matrix."""
    z = _lift(logits)
    zd = z.data
    if zd.ndim != 2:
        raise ValueError(f"softmax_rows: expected a matrix, got shape {zd.shape}")
    if not np.all(np.isfinite(zd)):
        raise NonFiniteError("softmax_rows: non-finite logit")
    e = np.exp(zd - zd.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    return _record(s, [(z, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True)))])


def add_rowvec(m, v) -> Tensor:
    """Add a vector to every row of a matrix."""
    m, v = _lift(m), _lift(v)
    md, vd = m.data, v.data
    if md.ndim != 2 or vd.ndim != 1 or md.shape[1] != vd.shape[0]:
        raise ValueError(f"add_rowvec: shape mismatch {md.shape} vs {vd.shape}")
    return _record(md + vd,
                   [(m, lambda g: g), (v, lambda g: g.sum(axis=0))])


def take_rows(m, indices) -> Tensor:
    """Gather rows of a matrix; duplicate indices accumulate gradient."""
    m = _lift(m)
    md = m.data
    idx = np.asarray(indices, dtype=np.intp)
    if md.ndim != 2 or idx.ndim != 1:
        raise ValueError(f"take_rows: expected matrix and index vector, got {md.shape} and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= md.shape[0]):
        raise ValueError(f"take_rows: index out of range for {md.shape[0]} rows")

    def pull(g: Array) -> Array:
        out = np.zeros(md.shape)
        np.add.at(out, idx, g)
        return out

    return _record(md[idx], [(m, pull)])


def grad_check(fn, *points, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``fn`` receives one Tensor per point (tracked for the analytic pass,
    untracked for the difference evaluations) and must return a scalar
    Tensor. Every coordinate of every point is perturbed in turn, with
    the other points held at their values. Returns the max over all
    coordinates of ``|analytic - central| / max(1, |central|)``.
    """
    ps = [_as_array(p) for p in points]
    if not ps:
        raise ValueError("grad_check: needs at least one point")
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")

    tape = Tape()
    xs = [tape.watch(p.copy()) for p in ps]
    out = fn(*xs)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("grad_check: function must return a scalar tensor")
    grads = tape.backward(out) if out.tracked else {}

    flats = [p.ravel().copy() for p in ps]

    def evaluate() -> float:
        return fn(*(Tensor(f.reshape(p.shape)) for f, p in zip(flats, ps))).item()

    worst = 0.0
    for k, (p, x, flat) in enumerate(zip(ps, xs, flats)):
        analytic = grads.get(x.node, np.zeros_like(p)).ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = evaluate()
            flat[j] = orig - eps
            f_minus = evaluate()
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(
                    f"grad_check: non-finite function value near coordinate {j} of point {k}")
            central = (f_plus - f_minus) / (2.0 * eps)
            err = abs(analytic[j] - central) / max(1.0, abs(central))
            if not np.isfinite(err):  # a nan analytic gradient must fail, not vanish in max()
                return float("inf")
            worst = max(worst, err)
    return worst
