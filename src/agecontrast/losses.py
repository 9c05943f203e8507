"""Training losses over batches of logits, distributions and features.

Every loss takes one row per sample (or per pair or triplet) and returns
one tape node with a closed-form pullback, so a term costs one node
however many rows it covers. The log-domain terms (``ce_sum``,
``kld_mean``) take logits and work in log-probabilities by log-sum-exp,
so they are exact, with no probability floor, for any finite logits.
The probability-domain terms (``mean_variance``, ``triplet_mean``) take
softmax distributions, and ``cosine_mean`` takes features. The
supervised terms (``ce_sum``, ``mean_variance`` and its two halves
``mean_sum`` and ``variance_sum``) sum over rows; the pair and triplet
terms (``cosine_mean``, ``kld_mean``, ``triplet_mean``) average over
them. All are non-negative at valid inputs and zero exactly at their
documented minimizer. ``total_loss`` combines them as

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

from . import autodiff as ad
from .autodiff import Tensor

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


def _rows(*blocks) -> list[Tensor]:
    """The operands as tensors, checked to be matrices of one shape."""
    ts = [x if isinstance(x, Tensor) else Tensor(x) for x in blocks]
    shape = ts[0].data.shape
    if len(shape) != 2 or any(t.data.shape != shape for t in ts):
        raise ValueError(f"expected row blocks of one (rows, width) shape, "
                         f"got {[t.data.shape for t in ts]}")
    return ts


def _checked_ages(ages, rows: int, num_ages: int) -> np.ndarray:
    ages = np.asarray(ages, dtype=np.int64)
    if ages.shape != (rows,):
        raise ValueError(f"expected {rows} age labels, got shape {ages.shape}")
    bad = np.flatnonzero((ages < 1) | (ages > num_ages))
    if bad.size:
        raise ValueError(f"age label {ages[bad[0]]} out of range 1..{num_ages}")
    return ages


def ce_sum(logits, ages) -> Tensor:
    """Summed cross-entropy -log s_y over the rows of a logit matrix.

    Each row's term is lse(z) - z_y, exact for any finite logits: a row
    whose probability of the true label underflows still has its full
    loss and the gradient s - onehot(y).
    """
    (z,) = _rows(logits)
    ages = _checked_ages(ages, *z.data.shape)
    s, shifted, total = ad.softmax_parts(z.data, "ce_sum")
    rows, cols = np.arange(len(ages)), ages - 1

    def pull(g):
        d = s.copy()
        d[rows, cols] -= 1.0
        return g * d

    log_s_y = shifted[rows, cols] - np.log(total[:, 0])
    return ad.record(-log_s_y.sum(), [(z, pull)])


def mean_variance(s_rows, ages) -> Tensor:
    """The pair (sum_i 0.5*(mean_i - y_i)^2, sum_i var_i) over the rows of
    a distribution matrix, as one node with a (2,) value.

    mean_i = sum_j j*s_ij over labels j = 1..A; the variance is computed
    in the moment form E[j^2] - E[j]^2, which equals sum_j s_ij (j -
    mean_i)^2 on the simplex that softmax rows satisfy by construction.
    """
    (s,) = _rows(s_rows)
    sd = s.data
    labels = np.arange(1, sd.shape[1] + 1, dtype=np.float64)
    ages = _checked_ages(ages, *sd.shape).astype(np.float64)
    mu = sd @ labels
    diff = mu - ages
    second = sd @ (labels * labels)
    value = [0.5 * (diff * diff).sum(), (second - mu * mu).sum()]

    def pull(g):
        return (g[0] * diff[:, None] * labels
                + g[1] * (labels * labels - 2.0 * mu[:, None] * labels))

    return ad.record(value, [(s, pull)])


def mean_sum(s_rows, ages) -> Tensor:
    """Summed penalty 0.5*(mean - y)^2 on each row's distribution mean."""
    return ad.weighted_sum([mean_variance(s_rows, ages)], [(1.0, 0.0)])


def variance_sum(s_rows) -> Tensor:
    """Summed variance of each row's distribution, sum_j s_j (j - mean)^2."""
    s_rows = s_rows if isinstance(s_rows, Tensor) else Tensor(s_rows)
    # The variance does not depend on the labels; any valid label serves.
    ones = np.ones(s_rows.data.shape[:1], dtype=np.int64)
    return ad.weighted_sum([mean_variance(s_rows, ones)], [(0.0, 1.0)])


def cosine_mean(f_anchor, f_pos) -> Tensor:
    """Mean cosine embedding loss 1 - cos(f_a, f_p) over row pairs: zero
    iff the features are positive scalar multiples, 2 when antiparallel."""
    fa_t, fp_t = _rows(f_anchor, f_pos)
    fa, fp = fa_t.data, fp_t.data
    # Squared norms are floored at NORM_FLOOR**2 before the sqrt, so a dead
    # (all-zero) feature row neither divides by zero nor feeds nan into the
    # gradient; the floored norm passes no gradient, and every row with
    # norm >= NORM_FLOOR is exact.
    floor = NORM_FLOOR * NORM_FLOOR
    sq_a, sq_p = (fa * fa).sum(axis=1), (fp * fp).sum(axis=1)
    na, nb = np.sqrt(np.maximum(sq_a, floor)), np.sqrt(np.maximum(sq_p, floor))
    cos = (fa * fp).sum(axis=1) / (na * nb)
    scale = 1.0 / fa.shape[0]

    def pull_a(g):
        return -g * scale * (fp / (na * nb)[:, None]
                             - (cos * (sq_a > floor) / (na * na))[:, None] * fa)

    def pull_p(g):
        return -g * scale * (fa / (na * nb)[:, None]
                             - (cos * (sq_p > floor) / (nb * nb))[:, None] * fp)

    return ad.record((1.0 - cos).sum() * scale, [(fa_t, pull_a), (fp_t, pull_p)])


def kld_mean(z_anchor, z_pos) -> Tensor:
    """Mean KL divergence KL(s_p || s_a) of each positive's age
    distribution from its anchor's, scaled by 1/A, from the two logit
    matrices. The log-probabilities come from log-sum-exp, so the
    divergence is exact and finite for any finite logits."""
    za, zp = _rows(z_anchor, z_pos)
    s_a, shifted_a, total_a = ad.softmax_parts(za.data, "kld_mean")
    s_p, shifted_p, total_p = ad.softmax_parts(zp.data, "kld_mean")
    d = (shifted_p - np.log(total_p)) - (shifted_a - np.log(total_a))  # log s_p - log s_a
    per_row = (s_p * d).sum(axis=1)
    scale = 1.0 / (za.data.shape[1] * za.data.shape[0])
    mass = s_p.sum(axis=1, keepdims=True)  # 1 up to rounding

    def pull_a(g):
        return g * scale * (s_a * mass - s_p)

    def pull_p(g):
        return g * scale * s_p * (d - per_row[:, None] + 1.0 - mass)

    value = (per_row * (1.0 / za.data.shape[1])).sum() * (1.0 / za.data.shape[0])
    return ad.record(value, [(za, pull_a), (zp, pull_p)])


def triplet_mean(s_a, s_p, s_n, alpha: float) -> Tensor:
    """Mean hinge on squared distances between age distributions:
    max(||s_a - s_p||^2 - ||s_a - s_n||^2 + alpha, 0) per row triplet.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"triplet_mean: alpha must be finite and >= 0, got {alpha}")
    ta, tp, tn = _rows(s_a, s_p, s_n)
    dp = ta.data - tp.data
    dn = ta.data - tn.data
    gap = (dp * dp).sum(axis=1) - (dn * dn).sum(axis=1) + float(alpha)
    scale = 1.0 / dp.shape[0]
    # Subgradient 0 at the kink: only strictly positive hinges pass gradient.
    active = (gap > 0.0)[:, None] * (2.0 * scale)
    return ad.record(np.maximum(gap, 0.0).sum() * scale,
                     [(ta, lambda g: g * active * (dp - dn)),
                      (tp, lambda g: -g * active * dp),
                      (tn, lambda g: g * active * dn)])


def _scalar(x) -> float:
    return x.item() if isinstance(x, Tensor) else float(x)


def total_loss(l_s, l_m=0.0, l_v=0.0, l_c=0.0, l_t=0.0,
               weights: LossWeights = LossWeights()):
    """Weighted combination of the loss terms.

    Terms whose weight is zero contribute nothing (and need not have
    been computed: pass 0.0). Accepts scalar tensors or plain floats;
    returns (total, LossBreakdown) where total is one tape node when any
    input is a tensor, and a float otherwise.
    """
    terms, coefs = [l_s], [1.0]
    for lam, term in ((weights.lambda_m, l_m), (weights.lambda_v, l_v),
                      (weights.lambda_c, l_c), (weights.lambda_t, l_t)):
        if lam != 0.0:
            terms.append(term)
            coefs.append(lam)
    total = ad.weighted_sum(terms, coefs)
    if not any(isinstance(t, Tensor) for t in terms):
        total = total.item()
    breakdown = LossBreakdown(
        l_s=_scalar(l_s), l_m=_scalar(l_m), l_v=_scalar(l_v),
        l_c=_scalar(l_c), l_t=_scalar(l_t), total=_scalar(total),
    )
    return total, breakdown
