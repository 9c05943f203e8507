"""Plain-numpy per-sample reference for the forward pass and the loss terms.

Each function takes one sample (or one pair or triplet) as 1-D arrays and
follows the definition directly, with no tape and no batching, so it is an
independent value oracle for the batched implementations. Cross-entropy
and KL take logits and use exact log-sum-exp, as the package does.
"""

import numpy as np

from agecontrast.losses import NORM_FLOOR


def forward(model, x):
    """(f, s, z) for one input vector: relu layers, then the softmax head."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in list(zip(model.weights, model.biases))[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    z = h @ model.weights[-1] + model.biases[-1]
    e = np.exp(z - z.max())
    return h, e / e.sum(), z


def log_softmax(z):
    """log s_j = z_j - log sum_k exp(z_k), with the max shifted out."""
    m = z.max()
    return z - m - np.log(np.exp(z - m).sum())


def ce(z, y):
    return -log_softmax(z)[y - 1]


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


def kld(z_a, z_p):
    log_a, log_p = log_softmax(z_a), log_softmax(z_p)
    return float((np.exp(log_p) * (log_p - log_a)).sum()) / len(z_a)


def triplet(s_a, s_p, s_n, alpha):
    return max(((s_a - s_p) ** 2).sum() - ((s_a - s_n) ** 2).sum() + alpha, 0.0)
