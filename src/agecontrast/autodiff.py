"""Dense float64 tensors with a reverse-mode gradient tape.

Values are numpy arrays. A differentiable operation records one node on
the active tape through ``record``: its operands' handles and one
pullback that maps the gradient of its value to the gradients of all
its operands, so any scalar built from tracked inputs can be
differentiated with ``Tape.backward``. The package records few and
large nodes: a train step is one node over the model's parameter
arrays, whose pullback runs the whole network backwards
(``training.build_batch_loss``); each loss term in ``losses`` is one
node for checking it alone; ``weighted_sum`` combines terms.
``softmax_parts`` is the one row softmax they share. The independent
check for all analytic gradients is ``grad_check``, a central
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
Pullback = Callable[[Array], Sequence[Array]]


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
        # Per node: the operands' handles (None for an untracked operand)
        # and the joint pullback, None for a leaf.
        self._parents: list[tuple[int | None, ...]] = []
        self._pullbacks: list[Pullback | None] = []

    def __len__(self) -> int:
        return len(self._parents)

    def watch(self, values) -> Tensor:
        """Register a leaf whose gradient should be available after backward."""
        arr = _as_array(values)
        node = self._append((), None)
        return Tensor(arr, self, node)

    def _append(self, parents: tuple[int | None, ...], pullback: Pullback | None) -> int:
        self._parents.append(parents)
        self._pullbacks.append(pullback)
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


def record(out, pullback: Pullback, operands: Sequence[Tensor]) -> Tensor:
    """One tape node with value ``out`` over ``operands``.

    ``pullback`` maps the gradient of ``out`` to one gradient per
    operand, each an array of its operand's shape; the tape drops those
    of untracked operands. With no operand tracked the result is
    untracked and the pullback never runs.
    """
    out = _as_array(out)
    tape = _single_tape(operands)
    if tape is None:
        return Tensor(out)
    return Tensor(out, tape, tape._append(tuple(t.node for t in operands), pullback))


def softmax_parts(z: Array, op: str, out: tuple[Array, Array] | None = None
                  ) -> tuple[Array, Array, Array]:
    """(s, shifted, total) of a finite logit matrix: the row softmax, the
    logits less their row max (none is exponentiated above 0) and the row
    sums of their exponentials, so log s = shifted - log(total) exactly.

    ``out`` is an optional (s, shifted) pair of arrays of z's shape to
    write into; shifted may be z itself.
    """
    if not np.all(np.isfinite(z)):
        raise NonFiniteError(f"{op}: non-finite logit")
    s_out, shifted_out = (None, None) if out is None else out
    shifted = np.subtract(z, z.max(axis=1, keepdims=True), out=shifted_out)
    s = np.exp(shifted, out=s_out)
    total = s.sum(axis=1, keepdims=True)
    s /= total  # in place, so keeping shifted adds no matrix to peak memory
    return s, shifted, total


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
    return record(total, lambda g: [np.broadcast_to(g * c, t.data.shape)
                                    for t, c in zip(terms, coefs)], terms)


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
