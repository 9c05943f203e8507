"""Dense float64 tensors with a reverse-mode gradient tape.

Values are numpy arrays. Every differentiable primitive records one node
with parent handles and a pullback closure on the active tape (through
``record``), so any scalar built from tracked inputs can be
differentiated with ``Tape.backward``. The primitives are the few a
train step is made of, each one node however large: ``linear``,
``relu``, ``softmax_rows``, ``take_rows`` and ``weighted_sum``; the loss
terms add their own fused nodes in ``losses``. The independent check
for all analytic gradients is ``grad_check``, a central
finite-difference oracle.

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

    def __repr__(self) -> str:
        tag = f", node={self.node}" if self.tracked else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class Tape:
    """Append-only operation record; append order is topological order."""

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._pullbacks: list[tuple[Pullback, ...]] = []

    def __len__(self) -> int:
        return len(self._parents)

    def watch(self, values) -> Tensor:
        """Register a leaf whose gradient should be available after backward."""
        arr = _as_array(values)
        node = self._append((), ())
        return Tensor(arr, self, node)

    def _append(self, parents: tuple[int, ...], pullbacks: tuple[Pullback, ...]) -> int:
        self._parents.append(parents)
        self._pullbacks.append(pullbacks)
        return len(self._parents) - 1

    def backward(self, loss: Tensor) -> dict[int, Array]:
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
        grads: list[Array | None] = [None] * len(self._parents)
        grads[loss.node] = np.ones_like(loss.data)
        for node in range(loss.node, -1, -1):
            gout = grads[node]
            if gout is None:
                continue
            for parent, pull in zip(self._parents[node], self._pullbacks[node]):
                g = pull(gout)
                # Never in place: a contribution may be a view of another gradient.
                grads[parent] = g if grads[parent] is None else grads[parent] + g
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


def record(out, pairs: Sequence[tuple[Tensor, Pullback]]) -> Tensor:
    """One tape node with value ``out``, one pullback per operand.

    Each pullback maps the gradient of ``out`` to the gradient of its
    operand, an array of the operand's shape. Untracked
    operands are dropped; with none tracked the result is untracked. This
    is how every primitive, and every fused loss, defines its node.
    """
    out = _as_array(out)
    tape = _single_tape([t for t, _ in pairs])
    if tape is None:
        return Tensor(out)
    tracked = [(t.node, pull) for t, pull in pairs if t.node is not None]
    parents = tuple(node for node, _ in tracked)
    pulls = tuple(pull for _, pull in tracked)
    return Tensor(out, tape, tape._append(parents, pulls))


# OpenBLAS runs a matrix product on one thread when M*N*K <= 2**18 and
# wakes its thread pool above that. At a train step's sizes the pool
# costs more than it saves, and the worker processes of a sweep (one per
# core) then oversubscribe the cores: on 2 vCPUs with OpenBLAS 0.3.31,
# `sweep --loss-sets --jobs 2` ran twice as long with one stacked product.
# So the products of a tracked ``linear`` run in blocks that each stay
# under the limit.
_ONE_THREAD_MNK = 2 ** 18


def _block_rows(inner: int, outer: int) -> int:
    return max(1, _ONE_THREAD_MNK // max(1, inner * outer))


def _row_blocked(a: Array, b: Array) -> Array:
    """``a @ b`` computed over blocks of rows of ``a``."""
    step = _block_rows(*b.shape)
    if a.shape[0] <= step:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], step):
        np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


def _inner_blocked(a: Array, b: Array) -> Array:
    """``a.T @ b`` summed over blocks of the shared row dimension."""
    step = _block_rows(a.shape[1], b.shape[1])
    out = a[:step].T @ b[:step]
    for i in range(step, a.shape[0], step):
        out += a[i:i + step].T @ b[i:i + step]
    return out


def linear(x, w, b) -> Tensor:
    """``x @ w + b``: a (n, k) matrix times a (k, m) matrix plus a bias
    added to every row, as one node.

    Untracked, it is exactly ``x @ w + b``. Tracked, the products run in
    blocks that keep each one on a single BLAS thread, which may change
    the last bits of the values and gradients.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    xd, wd, bd = x.data, w.data, b.data
    if (xd.ndim != 2 or wd.ndim != 2 or bd.ndim != 1
            or xd.shape[1] != wd.shape[0] or wd.shape[1] != bd.shape[0]):
        raise ValueError(f"linear: incompatible shapes {xd.shape}, {wd.shape} and {bd.shape}")
    if _single_tape((x, w, b)) is None:
        return Tensor(xd @ wd + bd)
    return record(_row_blocked(xd, wd) + bd,
                  [(x, lambda g: _row_blocked(g, wd.T)), (w, lambda g: _inner_blocked(xd, g)),
                   (b, lambda g: g.sum(axis=0))])


def relu(a) -> Tensor:
    # Subgradient 0 at the kink: the mask is strict.
    a = _lift(a)
    ad = a.data
    return record(np.maximum(ad, 0.0), [(a, lambda g: g * (ad > 0.0))])


def softmax_parts(z: Array, op: str) -> tuple[Array, Array, Array]:
    """(s, shifted, total) of a finite logit matrix: the row softmax, the
    logits less their row max (none is exponentiated above 0) and the row
    sums of their exponentials, so log s = shifted - log(total) exactly."""
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(f"{op}: non-finite logit")
    shifted = z - z.max(axis=1, keepdims=True)
    s = np.exp(shifted)
    total = s.sum(axis=1, keepdims=True)
    s /= total  # in place, so keeping shifted adds no matrix to peak memory
    return s, shifted, total


def softmax_rows(logits) -> Tensor:
    """Row-wise stabilized softmax of a logit matrix."""
    z = _lift(logits)
    zd = z.data
    if zd.ndim != 2:
        raise ValueError(f"softmax_rows: expected a matrix, got shape {zd.shape}")
    s = softmax_parts(zd, "softmax_rows")[0]
    return record(s, [(z, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True)))])


def take_rows(m, indices) -> Tensor:
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

    def pull(g: Array) -> Array:
        out = np.zeros(md.shape)
        out[idx] = g
        return out

    return record(md[idx], [(m, pull)])


def weighted_sum(terms, coefs) -> Tensor:
    """``sum_i sum(coefs[i] * terms[i])`` as one scalar node.

    A term is a tensor or a float constant; its coefficient is a float
    or an array broadcasting against it. The value accumulates term by
    term in the order given.
    """
    terms = [_lift(t) for t in terms]
    if len(terms) != len(coefs):
        raise ValueError(f"weighted_sum: {len(terms)} terms for {len(coefs)} coefficients")
    coefs = [np.asarray(c, dtype=np.float64) for c in coefs]
    total = 0.0
    for t, c in zip(terms, coefs):
        total += float(np.sum(c * t.data))
    return record(total, [(t, lambda g, c=c, shape=t.data.shape: np.broadcast_to(g * c, shape))
                          for t, c in zip(terms, coefs)])


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
