"""Training losses over batches of logits, distributions and features.

Every loss takes one row per sample (or per pair or triplet). Each is
one plain function of its row blocks that returns the value and a
closed-form pullback (``autodiff``'s ``(value, pull)`` contract); the
train step (``training.build_batch_loss``) calls them on its stacked
forward's rows. The log-domain terms (``ce_rows``, ``kld_rows``) take
the ``softmax_parts`` of logits and work in log-probabilities by
log-sum-exp, so they are exact, with no probability floor, for any
finite logits, and pull back to the logits. The probability-domain
terms (``mean_variance_rows``, ``triplet_rows``) take softmax
distributions, and ``cosine_rows`` takes features. The supervised terms
(cross-entropy and the mean/variance pair) sum over rows; the pair and
triplet terms (cosine, KL, triplet hinge) average over them. All are
non-negative at valid inputs and zero exactly at their documented
minimizer. ``total_loss`` combines their values as

    total = l_s + lambda_m*l_m + lambda_v*l_v + lambda_c*l_c + lambda_t*l_t

The mean and variance terms follow Pan et al., "Mean-Variance Loss for
Deep Age Estimation from a Face" (CVPR 2018); the triplet hinge follows
FaceNet (Schroff et al., CVPR 2015); log-sum-exp follows Blanchard,
Higham and Higham, "Accurately computing the log-sum-exp and softmax
functions" (IMA J. Numer. Anal. 2021).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Feature norms below this are raised to it inside the cosine loss, so an
# all-zero feature row gives a cosine of 0 and passes no gradient through
# its norm.
NORM_FLOOR = 1e-12

PAIR_LOSSES = ("cosine", "kld")


@dataclass(frozen=True)
class LossWeights:
    """Weights for the combined objective.

    lambda_c weights the positive-pair loss (cosine by default, KL when
    pair_loss="kld"); lambda_t weights the triplet hinge with margin
    alpha.
    """

    lambda_m: float = 0.2
    lambda_v: float = 0.05
    lambda_c: float = 0.0
    lambda_t: float = 0.0
    alpha: float = 0.2
    pair_loss: str = "cosine"

    def __post_init__(self):
        for name in ("lambda_m", "lambda_v", "lambda_c", "lambda_t", "alpha"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"LossWeights: {name} must be finite and >= 0, got {v}")
        if self.pair_loss not in PAIR_LOSSES:
            raise ValueError(f"LossWeights: pair_loss must be one of {PAIR_LOSSES}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values and the weighted total for one step or epoch."""

    l_s: float
    l_m: float
    l_v: float
    l_c: float
    l_t: float
    total: float

    FIELDS = ("l_s", "l_m", "l_v", "l_c", "l_t", "total")

    def as_row(self) -> list[float]:
        return [self.l_s, self.l_m, self.l_v, self.l_c, self.l_t, self.total]


def _checked_ages(ages, rows: int, num_ages: int) -> np.ndarray:
    ages = np.asarray(ages, dtype=np.int64)
    if ages.shape != (rows,):
        raise ValueError(f"expected {rows} age labels, got shape {ages.shape}")
    bad = np.flatnonzero((ages < 1) | (ages > num_ages))
    if bad.size:
        raise ValueError(f"age label {ages[bad[0]]} out of range 1..{num_ages}")
    return ages


# Each term is a plain function of its row blocks that returns (value,
# pull); pull maps the gradient of the value to the gradients of the
# blocks.

def ce_rows(s, shifted, total, ages):
    """Summed cross-entropy -log s_y of rows given by their
    ``softmax_parts``, as (value, pull); pull gives the logits' gradient.

    Each row's term is lse(z) - z_y, exact for any finite logits: a row
    whose probability of the true label underflows still has its full
    loss and the gradient s - onehot(y).
    """
    ages = _checked_ages(ages, *s.shape)
    rows, cols = np.arange(len(ages)), ages - 1

    def pull(g):
        d = s.copy()
        d[rows, cols] -= 1.0
        return [g * d]

    log_s_y = shifted[rows, cols] - np.log(total[:, 0])
    return -log_s_y.sum(), pull


def mean_variance_rows(s, ages):
    """The pair (sum_i 0.5*(mean_i - y_i)^2, sum_i var_i) over the rows of
    a distribution matrix, as a (2,) value and its pull.

    mean_i = sum_j j*s_ij over labels j = 1..A, and var_i is computed in
    the centered form sum_j s_ij (j - mean_i)^2: a sum of non-negative
    terms, where the moment form E[j^2] - E[j]^2 cancels to negative
    values on sharply peaked rows. The pull is exact off the simplex too:
    d var_i / d s_ij = (j - mean_i)^2 - 2 j mean_i (1 - sum_k s_ik).
    """
    labels = np.arange(1, s.shape[1] + 1, dtype=np.float64)
    ages = _checked_ages(ages, *s.shape).astype(np.float64)
    mu = s @ labels
    diff = mu - ages
    dev = labels - mu[:, None]
    dev *= dev
    value = np.array([0.5 * (diff * diff).sum(), (s * dev).sum()])

    def pull(g):
        off_simplex = (2.0 * mu * (1.0 - s.sum(axis=1)))[:, None]
        return [g[0] * diff[:, None] * labels + g[1] * (dev - off_simplex * labels)]

    return value, pull


def cosine_rows(fa, fp):
    """Mean cosine embedding loss 1 - cos(f_a, f_p) over two feature row
    blocks, as (value, pull): zero iff the features are positive scalar
    multiples, 2 when antiparallel."""
    # Squared norms are floored at NORM_FLOOR**2 before the sqrt, so a dead
    # (all-zero) feature row neither divides by zero nor feeds nan into the
    # gradient; the floored norm passes no gradient, and every row with
    # norm >= NORM_FLOOR is exact.
    floor = NORM_FLOOR * NORM_FLOOR
    sq_a, sq_p = (fa * fa).sum(axis=1), (fp * fp).sum(axis=1)
    na, nb = np.sqrt(np.maximum(sq_a, floor)), np.sqrt(np.maximum(sq_p, floor))
    cos = (fa * fp).sum(axis=1) / (na * nb)
    scale = 1.0 / fa.shape[0]

    def pull(g):
        return [-g * scale * (fp / (na * nb)[:, None]
                              - (cos * (sq_a > floor) / (na * na))[:, None] * fa),
                -g * scale * (fa / (na * nb)[:, None]
                              - (cos * (sq_p > floor) / (nb * nb))[:, None] * fp)]

    return (1.0 - cos).sum() * scale, pull


def kld_rows(parts_a, parts_p):
    """Mean KL divergence KL(s_p || s_a) of each positive's age
    distribution from its anchor's, scaled by 1/A, of two row blocks given
    by their ``softmax_parts``, as (value, pull); pull gives the two logit
    blocks' gradients. The log-probabilities come from log-sum-exp, so
    the divergence is exact and finite for any finite logits."""
    s_a, shifted_a, total_a = parts_a
    s_p, shifted_p, total_p = parts_p
    d = (shifted_p - np.log(total_p)) - (shifted_a - np.log(total_a))  # log s_p - log s_a
    per_row = (s_p * d).sum(axis=1)
    rows, cols = s_a.shape
    scale = 1.0 / (cols * rows)
    mass = s_p.sum(axis=1, keepdims=True)  # 1 up to rounding

    def pull(g):
        return [g * scale * (s_a * mass - s_p),
                g * scale * s_p * (d - per_row[:, None] + 1.0 - mass)]

    return (per_row * (1.0 / cols)).sum() * (1.0 / rows), pull


def triplet_rows(s_a, s_p, s_n, alpha: float):
    """Mean hinge on squared distances between age distributions,
    max(||s_a - s_p||^2 - ||s_a - s_n||^2 + alpha, 0) per row triplet of
    three distribution row blocks, as (value, pull)."""
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"triplet_rows: alpha must be finite and >= 0, got {alpha}")
    dp = s_a - s_p
    dn = s_a - s_n
    gap = (dp * dp).sum(axis=1) - (dn * dn).sum(axis=1) + float(alpha)
    scale = 1.0 / dp.shape[0]
    # Subgradient 0 at the kink: only strictly positive hinges pass gradient.
    active = (gap > 0.0)[:, None] * (2.0 * scale)

    def pull(g):
        return [g * active * (dp - dn), -g * active * dp, g * active * dn]

    return np.maximum(gap, 0.0).sum() * scale, pull


def weighted_total(values, coefs) -> float:
    """sum_i sum(coefs[i] * values[i]), accumulated term by term in the
    order given; a coefficient is a float or an array broadcasting
    against its value."""
    total = 0.0
    for value, coef in zip(values, coefs):
        total += float(np.sum(np.asarray(coef, dtype=np.float64) * value))
    return total


def total_loss(l_s, l_m=0.0, l_v=0.0, l_c=0.0, l_t=0.0,
               weights: LossWeights = LossWeights()) -> tuple[float, LossBreakdown]:
    """Weighted combination of the loss values, as (total, LossBreakdown).

    Terms whose weight is zero contribute nothing (and need not have
    been computed: pass 0.0).
    """
    terms, coefs = [l_s], [1.0]
    for lam, term in ((weights.lambda_m, l_m), (weights.lambda_v, l_v),
                      (weights.lambda_c, l_c), (weights.lambda_t, l_t)):
        if lam != 0.0:
            terms.append(term)
            coefs.append(lam)
    total = weighted_total(terms, coefs)
    return total, LossBreakdown(float(l_s), float(l_m), float(l_v), float(l_c), float(l_t),
                                total)
