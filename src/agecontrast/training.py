"""Adam training loop over triplet batches.

One epoch passes every sample as anchor once. For each batch the anchors
(and, when contrastive weights are active, their positives/negatives)
run through the network in one stacked call of ``model.forward_batch``,
and the weighted objective comes with its closed-form pullback
(``build_batch_loss``).
The step calls that pullback, which scatters each loss term's row-block
gradients (``losses``) into the stacked rows and runs the softmax, head
and relu layers backwards into one gradient vector laid out like
``Model.flat``; Adam then makes one update over the parameter vector.
A step writes every large array into ``StepBuffers`` that a ``train()``
call allocates once, or takes from the last call of the same shape.
Everything is deterministic per (dataset, config): epoch e samples with
child e of the config seed's ``SeedSequence``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Array
from .data import LabeledDataset, TripletBatch, has_triplet_negatives, iter_epoch_batches
from .errors import ConfigError, IncompatibleDataError, NonFiniteError, OptimizationError
from .losses import (LossBreakdown, LossWeights, ce_rows, cosine_rows, kld_rows,
                     mean_variance_rows, total_loss, triplet_rows)
from .model import Model, ModelConfig, forward_batch, init_model, integral

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 30
    batch_size: int = 64
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    hidden_widths: tuple[int, ...] = (64,)
    feature_dim: int = 64

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "hidden_widths", tuple(
            integral("hidden_widths", w) for w in self.hidden_widths))
        object.__setattr__(self, "feature_dim", integral("feature_dim", self.feature_dim))

    def model_config(self, ds: LabeledDataset) -> ModelConfig:
        """The network this config trains on ds; rejects widths below 1."""
        return ModelConfig(ds.input_dim, self.hidden_widths, self.feature_dim, ds.num_ages)


@dataclass
class AdamState:
    """First/second moment vectors aligned with ``Model.flat``, and two
    scratch vectors of that size, so an update allocates no array."""

    m: Array
    v: Array
    step: int = 0
    scratch: tuple[Array, Array] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def adam_step(model: Model, grad: Array, state: AdamState, cfg: TrainConfig) -> None:
    """Standard Adam update with bias correction of ``model.flat`` in
    place, from a gradient vector laid out like it."""
    p, grad = model.flat, np.asarray(grad)
    if grad.shape != p.shape:
        raise ValueError(f"adam_step: {grad.size} gradients for {p.size} parameters")
    state.step += 1
    t = state.step
    finite = np.isfinite(grad)
    if not finite.all():
        ends = np.cumsum([np.prod(shape) for shape in model.config.param_shapes])
        name = model.param_names()[int(np.searchsorted(ends, np.argmin(finite), side="right"))]
        raise OptimizationError(f"non-finite gradient for {name} at step {t}")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.m, state.v
    step, root = state.scratch
    m *= b1
    m += np.multiply(grad, 1.0 - b1, out=step)
    v *= b2
    np.multiply(grad, grad, out=step)
    v += np.multiply(step, 1.0 - b2, out=step)
    # lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= cfg.learning_rate
    np.sqrt(np.divide(v, 1.0 - b2 ** t, out=root), out=root)
    root += ADAM_EPS
    step /= root
    p -= step


# ---------------------------------------------------------------------------
# The train step's objective and its pullback

class StepBuffers:
    """Every large array of a train step over up to ``rows`` stacked rows.

    A step gathers its input rows into ``x`` and keeps each relu layer's
    output, the logits (shifted in place by their row max) and the
    softmax; its pullback writes their gradients, and the parameter
    gradients into ``grad``, laid out like ``Model.flat``. Freed after
    every step, these arrays of about 100 KB were handed back to the OS
    and faulted in again by the next step.
    """

    def __init__(self, config: ModelConfig, rows: int):
        dims = config.layer_dims
        hidden, ages = dims[1:-1], dims[-1]
        self.x = np.empty((rows, dims[0]))
        self.acts = [np.empty((rows, d)) for d in hidden]
        self.act_grads = [np.empty((rows, d)) for d in hidden]
        self.mask = np.empty((rows, max(hidden)), dtype=bool)
        self.shifted, self.s, self.s_grad, self.z_grad = (np.empty((rows, ages)) for _ in range(4))
        self.grad = np.empty(sum(int(np.prod(shape)) for shape in config.param_shapes))
        self.param_grads = config.param_views(self.grad)


def build_batch_loss(model: Model, ds: LabeledDataset, batch: TripletBatch,
                     weights: LossWeights, buffers: StepBuffers | None = None):
    """The weighted loss of a batch and its pullback to the parameters.

    The anchors, then the positives and the negatives the active terms
    use, run through one stacked ``forward_batch``; each term reads its
    row blocks from it. Anchors receive the supervised terms; contrastive
    terms only cover triplet slots whose candidates existed. Returns
    (LossBreakdown, pull): ``pull(g)`` scatters the terms' block
    gradients, scaled by g, into the stacked rows, runs the forward
    backwards and returns the gradients of the parameters in
    ``parameters()`` order, views of ``buffers.grad``. Forward and
    pullback write into ``buffers`` (a fresh set for this batch when
    None), so call pull before the buffers serve another batch.
    """
    a = batch.a
    num_a = len(a)
    empty = np.empty(0, dtype=np.intp)
    # Anchor slots with a positive, then those of them with a negative too.
    pos = np.flatnonzero(batch.p >= 0) if weights.lambda_c > 0 or weights.lambda_t > 0 else empty
    trip = np.flatnonzero(batch.n[pos] >= 0) if weights.lambda_t > 0 else empty
    num_p = len(pos)
    rows = np.concatenate([a, batch.p[pos], batch.n[pos[trip]]])
    n = len(rows)
    buf = StepBuffers(model.config, n) if buffers is None else buffers
    ws = model.weights

    if rows.min() < 0 or rows.max() >= len(ds):
        raise IndexError(f"batch row index out of range 0..{len(ds) - 1}")
    # Checked above: mode="raise" would gather through a temporary copy.
    x = np.take(ds.inputs, rows, axis=0, out=buf.x[:n], mode="clip")
    acts, s, shifted, total = forward_batch(
        model, x, tuple(out[:n] for out in (*buf.acts, buf.shifted, buf.s)))

    ages = ds.ages[a]
    scale = 1.0 / num_a
    anchors, pairs, negatives = slice(0, num_a), slice(num_a, num_a + num_p), slice(num_a + num_p, n)
    f = acts[-1]
    # Per active term: its coefficient, its (value, pull) and where each
    # of its row blocks sits among the stacked logits, softmax or features.
    terms = {"ce": (scale, *ce_rows(s[anchors], shifted[anchors], total[anchors], ages),
                    [("z", anchors)])}
    if weights.lambda_m > 0 or weights.lambda_v > 0:
        terms["mv"] = ((scale * weights.lambda_m, scale * weights.lambda_v),
                       *mean_variance_rows(s[anchors], ages), [("s", anchors)])
    if weights.lambda_c > 0 and num_p:
        if weights.pair_loss == "cosine":
            terms["pair"] = (weights.lambda_c, *cosine_rows(f[pos], f[pairs]),
                             [("f", pos), ("f", pairs)])
        else:
            terms["pair"] = (weights.lambda_c, *kld_rows((s[pos], shifted[pos], total[pos]),
                                                         (s[pairs], shifted[pairs], total[pairs])),
                             [("z", pos), ("z", pairs)])
    if weights.lambda_t > 0 and len(trip):
        terms["hinge"] = (weights.lambda_t, *triplet_rows(s[pos[trip]], s[num_a + trip],
                                                          s[negatives], weights.alpha),
                          [("s", pos[trip]), ("s", num_a + trip), ("s", negatives)])

    def pull(g):
        gz, gs = buf.z_grad[:n], buf.s_grad[:n]
        gz.fill(0.0)
        gs.fill(0.0)
        into, f_grads = {"z": gz, "s": gs}, []
        # No stacked element gets more than two block gradients (an anchor's
        # supervised term and its pair or hinge term), and a sum of two
        # does not depend on their order, so this matches the composed
        # tape of tests/tape_ops.py (one node per term, one gather per
        # block) bit for bit.
        for coef, _, term_pull, blocks in terms.values():
            for (dest, rows_of), d in zip(blocks, term_pull(g * np.asarray(coef))):
                if dest == "f":
                    f_grads.append((rows_of, d))  # added after the head's pullback
                else:
                    into[dest][rows_of] += d
        if "mv" in terms or "hinge" in terms:
            # The softmax pullback s * (gs - rowsum(gs * s)); shifted is free now.
            gs -= np.multiply(gs, s, out=shifted).sum(axis=1, keepdims=True)
            gs *= s
            gz += gs

        grads, g_out = buf.param_grads, gz
        for layer in range(len(ws) - 1, -1, -1):
            h_in, gw = acts[layer], grads[2 * layer]
            np.matmul(h_in.T, g_out, out=gw)
            np.sum(g_out, axis=0, out=grads[2 * layer + 1])
            if layer == 0:
                break
            g_in = np.matmul(g_out, ws[layer].T, out=buf.act_grads[layer - 1][:n])
            for rows_of, d in f_grads if layer == len(ws) - 1 else ():
                g_in[rows_of] += d
            g_out = np.multiply(g_in, np.greater(h_in, 0.0, out=buf.mask[:n, :h_in.shape[1]]),
                                out=g_in)
        return grads

    l_m, l_v = terms["mv"][1] * scale if "mv" in terms else (0.0, 0.0)
    breakdown = total_loss(
        float(terms["ce"][1]) * scale, float(l_m) if weights.lambda_m > 0 else 0.0,
        float(l_v) if weights.lambda_v > 0 else 0.0,
        *(float(terms[name][1]) if name in terms else 0.0 for name in ("pair", "hinge")),
        weights=weights)
    return breakdown, pull


# ---------------------------------------------------------------------------
# Training loop

# The last train() call's StepBuffers and AdamState (~1.4 MB, alive until the
# next call), for the next call of the same (ModelConfig, rows): freed, they
# could lie at the top of the heap, go back to the OS and be faulted in again.
_spare: dict = {}


def train(ds: LabeledDataset, cfg: TrainConfig) -> tuple[Model, list[LossBreakdown]]:
    """Train a fresh model on the dataset; returns it with the per-epoch
    loss history (term means recomposed into the weighted total)."""
    if cfg.weights.lambda_t > 0 and not has_triplet_negatives(ds):
        raise IncompatibleDataError(
            "triplet margin loss is active but no anchor has a valid negative "
            "(single identity or single age): dataset is protocol-incompatible")
    config = cfg.model_config(ds)
    key = (config, 3 * min(cfg.batch_size, len(ds)))  # anchors, positives, negatives
    buffers, state = _spare.pop(key, (None, None))
    try:
        buffers = buffers or StepBuffers(*key)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate a model with layer dimensions "
                          f"{config.layer_dims} and its train step: {exc}") from exc
    state = state or AdamState(np.empty_like(buffers.grad), np.empty_like(buffers.grad))
    state.m[:] = state.v[:] = state.step = 0
    model = init_model(config, cfg.seed)
    history: list[LossBreakdown] = []
    for epoch in range(cfg.epochs):
        # Child `epoch` of SeedSequence(cfg.seed).spawn, without spawning every epoch first.
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(epoch,)))
        sums = np.zeros(5)
        batches = 0
        for batch in iter_epoch_batches(ds, cfg.batch_size, rng):
            breakdown = _train_step(model, state, ds, batch, cfg, buffers)
            sums += [breakdown.l_s, breakdown.l_m, breakdown.l_v, breakdown.l_c, breakdown.l_t]
            batches += 1
        means = sums / batches
        history.append(total_loss(*means, weights=cfg.weights))
    _spare.clear()
    _spare[key] = buffers, state
    return model, history


def _train_step(model: Model, state: AdamState, ds: LabeledDataset, batch: TripletBatch,
                cfg: TrainConfig, buffers: StepBuffers) -> LossBreakdown:
    try:
        breakdown, pull = build_batch_loss(model, ds, batch, cfg.weights, buffers)
    except NonFiniteError as exc:
        raise OptimizationError(f"training diverged at step {state.step + 1}: {exc}") from exc
    pull(1.0)  # fills buffers.grad
    adam_step(model, buffers.grad, state, cfg)
    return breakdown
