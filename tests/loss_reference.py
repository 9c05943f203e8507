"""Plain-numpy per-sample reference for the forward pass and the loss terms.

Each function takes one sample (or one pair or triplet) as 1-D arrays and
follows the definition directly, with no tape and no batching, so it is an
independent value oracle for the batched implementations.
"""

import numpy as np

from agecontrast.losses import NORM_FLOOR, PROB_FLOOR


def forward(model, x):
    """(f, s) for one input vector: relu layers, then the softmax head."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in list(zip(model.weights, model.biases))[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    z = h @ model.weights[-1] + model.biases[-1]
    e = np.exp(z - z.max())
    return h, e / e.sum()


def ce(s, y):
    return -np.log(max(s[y - 1], PROB_FLOOR))


def mean(s, y):
    diff = float(np.arange(1, len(s) + 1) @ s) - y
    return 0.5 * diff * diff


def variance(s):
    labels = np.arange(1, len(s) + 1)
    return float((s * (labels - labels @ s) ** 2).sum())


def cosine(f_a, f_p):
    na = np.sqrt(max(f_a @ f_a, NORM_FLOOR ** 2))
    nb = np.sqrt(max(f_p @ f_p, NORM_FLOOR ** 2))
    return 1.0 - (f_a @ f_p) / (na * nb)


def kld(s_a, s_p):
    log_a = np.log(np.maximum(s_a, PROB_FLOOR))
    log_p = np.log(np.maximum(s_p, PROB_FLOOR))
    return float((s_p * (log_p - log_a)).sum()) / len(s_a)


def triplet(s_a, s_p, s_n, alpha):
    return max(((s_a - s_p) ** 2).sum() - ((s_a - s_n) ** 2).sum() + alpha, 0.0)
