"""Adam training loop over triplet batches.

One epoch passes every sample as anchor once. For each batch the anchors
(and, when contrastive weights are active, their positives/negatives)
run through the network in one tracked stacked forward; each loss term
is one fused tape node over its row blocks and the weighted total is one
more. The total backpropagates through the tape and Adam updates the
parameters in place. Everything is deterministic per (dataset, config):
epoch e samples with child e of the config seed's ``SeedSequence``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape
from .data import LabeledDataset, TripletBatch, has_triplet_negatives, iter_epoch_batches
from .errors import IncompatibleDataError, NonFiniteError, OptimizationError
from .losses import (LossBreakdown, LossWeights, ce_sum, cosine_mean, kld_mean,
                     mean_variance, total_loss, triplet_mean)
from .model import Model, ModelConfig, forward_batch, init_model

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
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))

    def model_config(self, ds: LabeledDataset) -> ModelConfig:
        """The network this config trains on ds; rejects widths below 1."""
        return ModelConfig(ds.input_dim, self.hidden_widths, self.feature_dim, ds.num_ages)


@dataclass
class AdamState:
    """First/second moment accumulators aligned with Model.parameters()."""

    m: list[Array]
    v: list[Array]
    step: int = 0

    @classmethod
    def for_model(cls, model: Model) -> "AdamState":
        params = model.parameters()
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(model: Model, grads: list[Array], state: AdamState,
              cfg: TrainConfig) -> tuple[Model, AdamState]:
    """Standard Adam update with bias correction; parameters update in place."""
    params = model.parameters()
    if len(grads) != len(params):
        raise ValueError(f"adam_step: {len(grads)} gradients for {len(params)} parameters")
    names = model.param_names()
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != {p.shape} for {names[i]}")
        if not np.all(np.isfinite(g)):
            raise OptimizationError(f"non-finite gradient for {names[i]} at step {t}")
        m, v = state.m[i], state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return model, state


# ---------------------------------------------------------------------------
# Batched loss composition

def build_batch_loss(params: Model, ds: LabeledDataset,
                     batch: TripletBatch, weights: LossWeights):
    """Forward the batch once and compose the weighted loss.

    The anchors, then the positives and the negatives the active terms
    use, run through one stacked forward; each term reads its row blocks
    from it. Anchors receive the supervised terms; contrastive terms only
    cover triplet slots whose candidates existed. Returns (total,
    LossBreakdown); total is a tracked scalar when params are.
    """
    a = batch.a
    num_a = len(a)
    empty = np.empty(0, dtype=np.intp)
    # Anchor slots with a positive, then those of them with a negative too.
    pos = np.flatnonzero(batch.p >= 0) if weights.lambda_c > 0 or weights.lambda_t > 0 else empty
    trip = np.flatnonzero(batch.n[pos] >= 0) if weights.lambda_t > 0 else empty
    num_p = len(pos)
    rows = np.concatenate([a, batch.p[pos], batch.n[pos[trip]]])
    f, s, z = forward_batch(params, ds.inputs[rows])

    def anchor_block(t):
        return t if len(rows) == num_a else ad.take_rows(t, np.arange(num_a))

    ages = ds.ages[a]
    scale = 1.0 / num_a
    ce = ce_sum(anchor_block(z), ages)
    terms, coefs = [ce], [scale]
    l_m = l_v = l_c = l_t = 0.0
    if weights.lambda_m > 0 or weights.lambda_v > 0:
        mv = mean_variance(anchor_block(s), ages)
        terms.append(mv)
        coefs.append((scale * weights.lambda_m, scale * weights.lambda_v))
        if weights.lambda_m > 0:
            l_m = float(mv.data[0]) * scale
        if weights.lambda_v > 0:
            l_v = float(mv.data[1]) * scale

    if weights.lambda_c > 0 and num_p:
        pair_rows = num_a + np.arange(num_p)
        if weights.pair_loss == "cosine":
            pair = cosine_mean(ad.take_rows(f, pos), ad.take_rows(f, pair_rows))
        else:
            pair = kld_mean(ad.take_rows(z, pos), ad.take_rows(z, pair_rows))
        terms.append(pair)
        coefs.append(weights.lambda_c)
        l_c = pair.item()

    if weights.lambda_t > 0 and len(trip):
        hinge = triplet_mean(ad.take_rows(s, pos[trip]), ad.take_rows(s, num_a + trip),
                             ad.take_rows(s, num_a + num_p + np.arange(len(trip))),
                             weights.alpha)
        terms.append(hinge)
        coefs.append(weights.lambda_t)
        l_t = hinge.item()

    total = ad.weighted_sum(terms, coefs)
    return total, LossBreakdown(ce.item() * scale, l_m, l_v, l_c, l_t, total.item())


# ---------------------------------------------------------------------------
# Training loop

def train(ds: LabeledDataset, cfg: TrainConfig) -> tuple[Model, list[LossBreakdown]]:
    """Train a fresh model on the dataset; returns it with the per-epoch
    loss history (term means recomposed into the weighted total)."""
    if cfg.weights.lambda_t > 0 and not has_triplet_negatives(ds):
        raise IncompatibleDataError(
            "triplet margin loss is active but no anchor has a valid negative "
            "(single identity or single age): dataset is protocol-incompatible")
    model = init_model(cfg.model_config(ds), cfg.seed)
    state = AdamState.for_model(model)
    history: list[LossBreakdown] = []
    for epoch in range(cfg.epochs):
        # Child `epoch` of SeedSequence(cfg.seed).spawn, without spawning every epoch first.
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(epoch,)))
        sums = np.zeros(5)
        batches = 0
        for batch in iter_epoch_batches(ds, cfg.batch_size, rng):
            breakdown = _train_step(model, state, ds, batch, cfg)
            sums += [breakdown.l_s, breakdown.l_m, breakdown.l_v, breakdown.l_c, breakdown.l_t]
            batches += 1
        means = sums / batches
        _, epoch_breakdown = total_loss(*means, weights=cfg.weights)
        history.append(epoch_breakdown)
    return model, history


def _train_step(model: Model, state: AdamState, ds: LabeledDataset,
                batch: TripletBatch, cfg: TrainConfig) -> LossBreakdown:
    tape = Tape()
    tracked = model.track(tape)
    try:
        total, breakdown = build_batch_loss(tracked, ds, batch, cfg.weights)
    except NonFiniteError as exc:
        raise OptimizationError(f"training diverged at step {state.step + 1}: {exc}") from exc
    grad_map = tape.backward(total)
    grads = [grad_map.get(t.node, np.zeros(t.shape)) for t in tracked.parameters()]
    adam_step(model, grads, state, cfg)
    return breakdown
