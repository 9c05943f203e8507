"""The package's differentiation contract and its finite-difference oracle.

A differentiable function returns ``(value, pull)``: its value and a
closed-form pullback that maps the gradient of the value to the
gradients of all its inputs at once. Each loss term in ``losses``
follows it, and so does a whole train step
(``training.build_batch_loss``), whose pullback runs the network
backwards into one gradient vector. ``softmax_parts`` is the one row
softmax they share. The independent check for all analytic gradients is
``grad_check``, a central finite-difference oracle over functions of
that contract.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError

Array = np.ndarray


def softmax_parts(z: Array, out: tuple[Array, Array] | None = None
                  ) -> tuple[Array, Array, Array]:
    """(s, shifted, total) of a finite logit matrix: the row softmax, the
    logits less their row max (none is exponentiated above 0) and the row
    sums of their exponentials, so log s = shifted - log(total) exactly.

    ``out`` is an optional (s, shifted) pair of arrays of z's shape to
    write into; shifted may be z itself.
    """
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("non-finite logit")
    s_out, shifted_out = (None, None) if out is None else out
    shifted = np.subtract(z, z.max(axis=1, keepdims=True), out=shifted_out)
    s = np.exp(shifted, out=s_out)
    total = s.sum(axis=1, keepdims=True)
    s /= total  # in place, so keeping shifted adds no matrix to peak memory
    return s, shifted, total


def grad_check(fn, *points, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``fn`` receives one array per point and returns ``(value, pull)``,
    a scalar and a pullback whose ``pull(1.0)`` gives one gradient per
    point. The pullback runs once, right after the first evaluation, and
    its gradients are copied, so it may return views of buffers that
    later evaluations overwrite. Every coordinate of every point is then
    perturbed in turn, with the other points held at their values.
    Returns the max over all coordinates of
    ``|analytic - central| / max(1, |central|)``.
    """
    ps = [np.asarray(p, dtype=np.float64, order="C") for p in points]
    if not ps:
        raise ValueError("grad_check: needs at least one point")
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")

    _, pull = fn(*(p.copy() for p in ps))
    grads = [np.array(g, dtype=np.float64).ravel() for g in pull(1.0)]
    if [g.size for g in grads] != [p.size for p in ps]:
        raise ValueError("grad_check: pull must return one gradient per point")

    flats = [p.ravel().copy() for p in ps]

    def evaluate() -> float:
        return float(fn(*(f.reshape(p.shape) for f, p in zip(flats, ps)))[0])

    worst = 0.0
    for k, (analytic, flat) in enumerate(zip(grads, flats)):
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
