"""Contrastive age estimation on labeled input vectors.

Trains a small feature extractor and age-distribution head under a
combined objective (softmax + mean + variance + cosine contrast +
triplet margin) with constraint-checked triplet sampling, three
cross-validation protocols, and an identity-variance diagnostic — all
verifiable end to end on synthetic data.
"""

__version__ = "0.1.0"
