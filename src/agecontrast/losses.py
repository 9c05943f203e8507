"""Training losses over batches of features and age distributions.

Every loss takes one row per sample (or per pair or triplet) and returns
a scalar tensor that is differentiable through the gradient tape. The
supervised terms (``ce_sum``, ``mean_sum``, ``variance_sum``) sum over
rows; the pair and triplet terms (``cosine_mean``, ``kld_mean``,
``triplet_mean``) average over them. All are non-negative at valid inputs
and zero exactly at their documented minimizer. ``total_loss`` combines
them as

    total = l_s + lambda_m*l_m + lambda_v*l_v + lambda_c*l_c + lambda_t*l_t

The mean and variance terms follow Pan et al., "Mean-Variance Loss for
Deep Age Estimation from a Face" (CVPR 2018); the triplet hinge follows
FaceNet (Schroff et al., CVPR 2015).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Probability floor applied before logarithms (cross-entropy and KL).
PROB_FLOOR = 1e-12

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

    def to_dict(self) -> dict:
        return {
            "lambda_m": self.lambda_m, "lambda_v": self.lambda_v,
            "lambda_c": self.lambda_c, "lambda_t": self.lambda_t,
            "alpha": self.alpha, "pair_loss": self.pair_loss,
        }


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


def _rows(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _label_column(num_ages: int) -> np.ndarray:
    return np.arange(1, num_ages + 1, dtype=np.float64)[:, None]


def _checked_ages(ages, num_ages: int) -> np.ndarray:
    ages = np.asarray(ages, dtype=np.int64)
    bad = np.flatnonzero((ages < 1) | (ages > num_ages))
    if bad.size:
        raise ValueError(f"age label {ages[bad[0]]} out of range 1..{num_ages}")
    return ages


def ce_sum(s_rows, ages) -> Tensor:
    """Summed cross-entropy -log s_y over the rows of a distribution matrix."""
    s_rows = _rows(s_rows)
    ages = _checked_ages(ages, s_rows.data.shape[1])
    onehot = np.zeros(s_rows.data.shape)
    onehot[np.arange(len(ages)), ages - 1] = 1.0
    picked = ad.row_sum(s_rows * onehot)
    return -ad.sum_all(ad.log(ad.clamp_min(picked, PROB_FLOOR)))


def mean_sum(s_rows, ages) -> Tensor:
    """Summed penalty 0.5*(mean - y)^2 on each row's distribution mean."""
    s_rows = _rows(s_rows)
    num_ages = s_rows.data.shape[1]
    ages = _checked_ages(ages, num_ages).astype(np.float64)[:, None]
    diff = ad.matmul(s_rows, _label_column(num_ages)) - ages
    return 0.5 * ad.sum_all(diff * diff)


def variance_sum(s_rows) -> Tensor:
    """Summed variance of each row's distribution, sum_j s_j (j - mean)^2.

    Computed in the moment form E[j^2] - E[j]^2, which equals the
    definition on the simplex that softmax rows satisfy by construction.
    """
    s_rows = _rows(s_rows)
    labels = _label_column(s_rows.data.shape[1])
    mu = ad.matmul(s_rows, labels)
    second = ad.matmul(s_rows, labels * labels)
    return ad.sum_all(second - mu * mu)


def cosine_mean(f_anchor, f_pos) -> Tensor:
    """Mean cosine embedding loss 1 - cos(f_a, f_p) over row pairs: zero
    iff the features are positive scalar multiples, 2 when antiparallel."""
    f_anchor, f_pos = _rows(f_anchor), _rows(f_pos)
    dots = ad.row_sum(f_anchor * f_pos)
    # Squared norms are floored at NORM_FLOOR**2 before the sqrt, so a dead
    # (all-zero) feature row neither divides by zero nor feeds nan through
    # the sqrt pullback; every row with norm >= NORM_FLOOR is exact.
    floor = NORM_FLOOR * NORM_FLOOR
    na = ad.sqrt(ad.clamp_min(ad.row_sum(f_anchor * f_anchor), floor))
    nb = ad.sqrt(ad.clamp_min(ad.row_sum(f_pos * f_pos), floor))
    per_pair = 1.0 - dots / (na * nb)
    return ad.sum_all(per_pair) * (1.0 / f_anchor.data.shape[0])


def kld_mean(s_anchor, s_pos) -> Tensor:
    """Mean KL divergence of each anchor distribution from its positive's,
    scaled by 1/A, with entries floored at PROB_FLOOR before the logs."""
    s_anchor, s_pos = _rows(s_anchor), _rows(s_pos)
    num_ages = s_anchor.data.shape[1]
    log_a = ad.log(ad.clamp_min(s_anchor, PROB_FLOOR))
    log_p = ad.log(ad.clamp_min(s_pos, PROB_FLOOR))
    per_pair = ad.row_sum(s_pos * (log_p - log_a)) * (1.0 / num_ages)
    return ad.sum_all(per_pair) * (1.0 / s_anchor.data.shape[0])


def triplet_mean(s_a, s_p, s_n, alpha: float) -> Tensor:
    """Mean hinge on squared distances between age distributions:
    max(||s_a - s_p||^2 - ||s_a - s_n||^2 + alpha, 0) per row triplet.
    """
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError(f"triplet_mean: alpha must be finite and >= 0, got {alpha}")
    s_a = _rows(s_a)
    dp = s_a - s_p
    dn = s_a - s_n
    gap = ad.row_sum(dp * dp) - ad.row_sum(dn * dn) + float(alpha)
    return ad.sum_all(ad.relu(gap)) * (1.0 / s_a.data.shape[0])


def _scalar(x) -> float:
    return x.item() if isinstance(x, Tensor) else float(x)


def total_loss(l_s, l_m=0.0, l_v=0.0, l_c=0.0, l_t=0.0,
               weights: LossWeights = LossWeights()):
    """Weighted combination of the loss terms.

    Terms whose weight is zero contribute nothing (and need not have
    been computed: pass 0.0). Accepts scalar tensors or plain floats;
    returns (total, LossBreakdown) where total has the same kind as the
    inputs so it can be backpropagated.
    """
    total = l_s
    for lam, term in ((weights.lambda_m, l_m), (weights.lambda_v, l_v),
                      (weights.lambda_c, l_c), (weights.lambda_t, l_t)):
        if lam != 0.0:
            total = total + term * lam
    breakdown = LossBreakdown(
        l_s=_scalar(l_s), l_m=_scalar(l_m), l_v=_scalar(l_v),
        l_c=_scalar(l_c), l_t=_scalar(l_t), total=_scalar(total),
    )
    return total, breakdown
