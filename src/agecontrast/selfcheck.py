"""Built-in verification suites.

Three suites back the ``selfcheck`` command: the gradient suite compares
the closed-form pullback of every batched loss term, and of the whole
batch loss of a train step through a tiny model (once with the KL pair
term, once with cosine), against the central finite-difference oracle;
the sampler suite checks triplet constraints and candidate sets against
a brute-force filter; the split suite asserts the fold invariants of
all three protocols.

Check points are seeded, and sampled away from non-smooth kinks (relu
preactivations, hinge boundaries) so the difference quotient is valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import grad_check, softmax_parts
from .data import (LabeledDataset, TripletBatch, negative_set, positive_set,
                   sample_triplet_batch)
from .losses import (LossWeights, ce_rows, cosine_rows, kld_rows, mean_variance_rows,
                     triplet_rows)
from .model import Model, ModelConfig, forward_values, init_model
from .synth import SynthConfig, generate_dataset
from .training import build_batch_loss
from .evaluation import split_lopo, split_protocol

GRAD_EPS = 1e-5
GRAD_TOL = 1e-4
KINK_MARGIN = 1e-3


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _softmax(z: np.ndarray) -> np.ndarray:
    return softmax_parts(z)[0]


def _random_distributions(rng: np.random.Generator, batch: int, num_ages: int) -> np.ndarray:
    return _softmax(rng.normal(0.0, 1.0, (batch, num_ages)))


def _triplet_logits(rng: np.random.Generator, batch: int, num_ages: int, alpha: float):
    """(z_a, z_p, z_n) logit rows, every hinge on their softmax rows
    clearly one-sided."""
    rows = []
    while len(rows) < batch:
        z = rng.normal(0.0, 1.0, (3, num_ages))
        sa, sp, sn = _softmax(z)
        gap = ((sa - sp) ** 2).sum() - ((sa - sn) ** 2).sum() + alpha
        if abs(gap) > KINK_MARGIN:
            rows.append(z)
    return [np.array(block) for block in zip(*rows)]


def _loss_cases(rng: np.random.Generator):
    """Named (value, pull) functions of (batch, width) row blocks, one
    per loss term; each case takes the batch size and returns (fn, blocks)."""
    a, d = 7, 8  # age labels and feature width

    def half(coef, ages):
        # One half of the mean/variance pair, as a scalar.
        def fn(s):
            value, pull = mean_variance_rows(s, ages)
            return float(np.dot(coef, value)), lambda g: pull(g * np.asarray(coef))
        return fn

    def case_ce(batch):
        ages = rng.integers(1, a + 1, batch)
        return lambda z: ce_rows(*softmax_parts(z), ages), [rng.normal(0.0, 1.0, (batch, a))]

    def case_mean(batch):
        ages = rng.integers(1, a + 1, batch)
        return half((1.0, 0.0), ages), [_random_distributions(rng, batch, a)]

    def case_variance(batch):
        # The variance does not depend on the labels; any valid label serves.
        return half((0.0, 1.0), np.ones(batch)), [_random_distributions(rng, batch, a)]

    def case_cosine(batch):
        return cosine_rows, list(rng.normal(0.0, 1.0, (2, batch, d)))

    def case_triplet(batch):
        alpha = 0.2
        return (lambda s_a, s_p, s_n: triplet_rows(s_a, s_p, s_n, alpha),
                [_softmax(z) for z in _triplet_logits(rng, batch, a, alpha)])

    def case_kld(batch):
        return (lambda za, zp: kld_rows(softmax_parts(za), softmax_parts(zp)),
                list(rng.normal(0.0, 1.0, (2, batch, a))))

    return {
        "softmax_ce": case_ce,
        "mean_loss": case_mean,
        "variance_loss": case_variance,
        "cosine_loss": case_cosine,
        "triplet_margin_loss": case_triplet,
        "kld_loss": case_kld,
    }


def _end_to_end_points(rng: np.random.Generator, config: ModelConfig, weights: LossWeights):
    """A (model, dataset, triplets) check point with every relu
    preactivation and the triplet hinge away from their kinks."""
    batch = 4
    while True:
        model = init_model(config, seed=int(rng.integers(2 ** 31)))
        for w in model.weights:
            w += 0.1 * rng.normal(0.0, 1.0, w.shape)
        for b in model.biases:
            b += 0.1 * rng.normal(0.0, 1.0, b.shape)
        ds = LabeledDataset(rng.normal(0.0, 1.0, (batch * 3, config.input_dim)),
                            rng.integers(1, config.num_ages + 1, batch * 3),
                            [f"p{i}" for i in range(batch * 3)], config.num_ages)
        slots = np.arange(batch)
        triplets = TripletBatch(slots, batch + slots, 2 * batch + slots)
        if _away_from_kinks(model, ds, triplets, weights):
            return model, ds, triplets


def _away_from_kinks(model, ds, triplets, weights) -> bool:
    idx = np.concatenate([triplets.a, triplets.p, triplets.n])
    h = ds.inputs[idx]
    for w, b in list(zip(model.weights, model.biases))[:-1]:
        pre = h @ w + b
        if np.min(np.abs(pre)) < KINK_MARGIN:
            return False
        h = np.maximum(pre, 0.0)
    _, s = forward_values(model, ds.inputs)
    sa, sp, sn = s[triplets.a], s[triplets.p], s[triplets.n]
    gap = ((sa - sp) ** 2).sum(axis=1) - ((sa - sn) ** 2).sum(axis=1) + weights.alpha
    return bool(np.min(np.abs(gap)) >= KINK_MARGIN)


def gradient_suite(points: int = 100) -> list[CheckResult]:
    """grad_check every loss term at seeded random points, alternating
    batches of 1 and 3 rows, then the batch loss of a train step through
    a tiny model with respect to every parameter array: all five terms
    with the KL pair term, and with the cosine one."""
    results = []
    rng = np.random.default_rng(20240)
    for name, make_case in _loss_cases(rng).items():
        worst = 0.0
        for i in range(points):
            fn, blocks = make_case(1 if i % 2 == 0 else 3)
            worst = max(worst, grad_check(fn, *blocks, eps=GRAD_EPS))
        results.append(CheckResult(
            f"gradients.{name}", worst < GRAD_TOL, f"max relative error {worst:.3g}"))

    config = ModelConfig(input_dim=8, hidden_widths=(16,), feature_dim=8, num_ages=5)
    step_points = max(1, points // 10)
    for name, weights in (
            ("total_loss", LossWeights(lambda_c=10.0, lambda_t=1.0, pair_loss="kld")),
            ("end_to_end", LossWeights(lambda_c=10.0, lambda_t=1.0))):
        worst = 0.0
        for _ in range(step_points):
            model, ds, triplets = _end_to_end_points(rng, config, weights)

            def fn(*params):
                breakdown, pull = build_batch_loss(
                    Model(config, list(params[0::2]), list(params[1::2])), ds, triplets, weights)
                return breakdown.total, pull

            worst = max(worst, grad_check(fn, *model.parameters(), eps=GRAD_EPS))
        results.append(CheckResult(
            f"gradients.{name}", worst < GRAD_TOL,
            f"max relative error {worst:.3g} over {step_points} parameter points"))
    return results


def sampler_suite() -> list[CheckResult]:
    results = []
    cfg = SynthConfig(num_identities=40, samples_per_identity=5, num_ages=20,
                      input_dim=8, identity_dims=4, age_dims=2, noise_std=0.1)
    ds, _ = generate_dataset(cfg, seed=7)
    batch = len(ds)
    ages, identities = ds.ages, np.asarray(ds.identities)
    violations = 0
    seen = 0
    seed = 0
    while seen < 100_000:
        b = sample_triplet_batch(ds, batch, seed)
        p, n = b.p[b.p >= 0], b.n[b.n >= 0]
        ap, an = b.a[b.p >= 0], b.a[b.n >= 0]
        violations += int(np.sum((ages[p] != ages[ap]) | (identities[p] == identities[ap])))
        violations += int(np.sum((ages[n] == ages[an]) | (identities[n] == identities[an])))
        seen += len(b)
        seed += 1
    results.append(CheckResult(
        "sampler.triplet_constraints", violations == 0,
        f"{violations} violations in {seen} triplets"))

    mismatches = 0
    for anchor in range(len(ds)):
        brute_pos = {j for j in range(len(ds))
                     if ds.ages[j] == ds.ages[anchor] and ds.identities[j] != ds.identities[anchor]}
        brute_neg = {j for j in range(len(ds))
                     if ds.ages[j] != ds.ages[anchor] and ds.identities[j] != ds.identities[anchor]}
        if positive_set(ds, anchor) != brute_pos or negative_set(ds, anchor) != brute_neg:
            mismatches += 1
    results.append(CheckResult(
        "sampler.candidate_sets_vs_brute_force", mismatches == 0,
        f"{mismatches} anchors disagree with the brute-force filter"))
    return results


def split_suite() -> list[CheckResult]:
    results = []
    cfg = SynthConfig(num_identities=82, samples_per_identity=3, num_ages=30,
                      input_dim=8, identity_dims=4, age_dims=2, noise_std=0.1)
    ds, _ = generate_dataset(cfg, seed=11)

    for protocol, k in (("rs", 5), ("se", 5), ("lopo", 0)):
        folds = split_protocol(ds, protocol, k, seed=3)
        covered = np.concatenate([f.test for f in folds])
        partition_ok = (len(covered) == len(ds) and
                        np.array_equal(np.sort(covered), np.arange(len(ds))))
        disjoint_ok = all(
            len(np.intersect1d(f.train, f.test)) == 0 and
            len(f.train) + len(f.test) == len(ds) for f in folds)
        results.append(CheckResult(
            f"splits.{protocol}_partition", partition_ok and disjoint_ok,
            f"{len(folds)} folds cover {len(covered)}/{len(ds)} samples"))

    se_ok = True
    for fold in split_protocol(ds, "se", 5, seed=3):
        train_ids = {ds.identities[i] for i in fold.train}
        test_ids = {ds.identities[i] for i in fold.test}
        if train_ids & test_ids:
            se_ok = False
    results.append(CheckResult("splits.se_identity_disjoint", se_ok))

    lopo = split_lopo(ds)
    lopo_ok = (len(lopo) == 82 and
               all(len({ds.identities[i] for i in f.test}) == 1 for f in lopo))
    results.append(CheckResult(
        "splits.lopo_one_fold_per_identity", lopo_ok, f"{len(lopo)} folds for 82 identities"))
    return results


def run_all(gradient_points: int = 100) -> list[CheckResult]:
    return gradient_suite(points=gradient_points) + sampler_suite() + split_suite()
