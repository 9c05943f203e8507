"""Adam training loop over triplet batches.

One epoch passes every sample as anchor once. For each batch the anchors
(and, when contrastive weights are active, their positives/negatives)
run through the network in one tracked batched forward; the combined
loss backpropagates through the tape and Adam updates the parameters
in place. Everything is deterministic per (dataset, config): epoch
sampling uses seeds spawned from the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tape
from .data import LabeledDataset, Triplet, has_triplet_negatives, iter_epoch_batches
from .errors import IncompatibleDataError, NonFiniteError, OptimizationError
from .losses import (LossBreakdown, LossWeights, ce_sum, cosine_mean, kld_mean,
                     mean_sum, total_loss, triplet_mean, variance_sum)
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
    triplets_per_anchor: int = 1

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.triplets_per_anchor < 1:
            raise ValueError(f"triplets_per_anchor must be >= 1, got {self.triplets_per_anchor}")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))

    def model_config(self, ds: LabeledDataset) -> ModelConfig:
        return ModelConfig(ds.input_dim, self.hidden_widths, self.feature_dim, ds.num_ages)

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "weights": self.weights.to_dict(),
            "seed": self.seed,
            "hidden_widths": list(self.hidden_widths),
            "feature_dim": self.feature_dim,
            "triplets_per_anchor": self.triplets_per_anchor,
        }


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
                     triplets: list[Triplet], weights: LossWeights):
    """Forward the batch and compose the weighted loss.

    Anchors receive the supervised terms; contrastive terms only cover
    triplet slots whose candidates existed. Returns (total,
    LossBreakdown); total is a tracked scalar when params are.
    """
    anchors = np.array([t.a for t in triplets], dtype=np.int64)
    f_a, s_a = forward_batch(params, ds.inputs[anchors])
    need_pos = weights.lambda_c > 0 or weights.lambda_t > 0
    need_neg = weights.lambda_t > 0

    pos_rows = [(bi, t.p) for bi, t in enumerate(triplets) if t.p is not None]
    trip_rows = [(bi, t.p, t.n) for bi, t in enumerate(triplets)
                 if t.p is not None and t.n is not None]

    f_p = s_p = s_n = None
    if need_pos and pos_rows:
        f_p, s_p = forward_batch(params, ds.inputs[[p for _, p in pos_rows]])
    if need_neg and trip_rows:
        _, s_n = forward_batch(params, ds.inputs[[n for _, _, n in trip_rows]])

    ages = ds.ages[anchors]
    scale = 1.0 / len(anchors)
    l_s = ce_sum(s_a, ages) * scale
    l_m = mean_sum(s_a, ages) * scale if weights.lambda_m > 0 else 0.0
    l_v = variance_sum(s_a) * scale if weights.lambda_v > 0 else 0.0

    l_c = 0.0
    if weights.lambda_c > 0 and pos_rows:
        sel = [bi for bi, _ in pos_rows]
        if weights.pair_loss == "cosine":
            l_c = cosine_mean(ad.take_rows(f_a, sel), f_p)
        else:
            l_c = kld_mean(ad.take_rows(s_a, sel), s_p)

    l_t = 0.0
    if weights.lambda_t > 0 and trip_rows:
        pos_slot = {bi: k for k, (bi, _) in enumerate(pos_rows)}
        a_sel = [bi for bi, _, _ in trip_rows]
        p_sel = [pos_slot[bi] for bi, _, _ in trip_rows]
        l_t = triplet_mean(
            ad.take_rows(s_a, a_sel), ad.take_rows(s_p, p_sel), s_n, weights.alpha)

    return total_loss(l_s, l_m, l_v, l_c, l_t, weights)


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
    epoch_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.epochs)
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(epoch_seeds[epoch])
        sums = np.zeros(5)
        batches = 0
        for triplets in iter_epoch_batches(ds, cfg.batch_size, rng, cfg.triplets_per_anchor):
            breakdown = _train_step(model, state, ds, triplets, cfg)
            sums += [breakdown.l_s, breakdown.l_m, breakdown.l_v, breakdown.l_c, breakdown.l_t]
            batches += 1
        means = sums / batches
        _, epoch_breakdown = total_loss(*means, weights=cfg.weights)
        history.append(epoch_breakdown)
    return model, history


def _train_step(model: Model, state: AdamState, ds: LabeledDataset,
                triplets: list[Triplet], cfg: TrainConfig) -> LossBreakdown:
    tape = Tape()
    tracked = model.track(tape)
    try:
        total, breakdown = build_batch_loss(tracked, ds, triplets, cfg.weights)
    except NonFiniteError as exc:
        raise OptimizationError(f"training diverged at step {state.step + 1}: {exc}") from exc
    grad_map = tape.backward(total)
    grads = [grad_map.get(t.node, np.zeros(t.shape)) for t in tracked.parameters()]
    adam_step(model, grads, state, cfg)
    return breakdown
