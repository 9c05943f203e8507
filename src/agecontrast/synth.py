"""Synthetic labeled datasets with factorized identity and age signals.

Each identity gets a fixed random code embedded in the first
identity_dims coordinates; each sample draws an age from a four-bin
prior and embeds it through strictly monotone saturating curves in the
next age_dims coordinates. Zero-mean Gaussian noise is added on every
coordinate. With noise off, identity is exactly recoverable from the
identity block and age rank order from any age coordinate, so the two
factors are genuinely disentangled.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import json

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError

Array = np.ndarray

# Default bin prior: the four coarse age bands of a large mugshot-style
# corpus (counts 7469 / 31682 / 15649 / 334), normalized.
DEFAULT_BIN_COUNTS = (7469.0, 31682.0, 15649.0, 334.0)

# Label ranges per bin; the last bin is "60 and older" and clips to A.
BIN_BOUNDS = ((1, 19), (20, 39), (40, 59), (60, None))


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; ``seed`` is the one a ``gen`` run passes to
    ``generate_dataset``."""

    num_identities: int = 200
    samples_per_identity: int = 5
    num_ages: int = 60
    input_dim: int = 64
    identity_dims: int = 24
    age_dims: int = 8
    noise_std: float = 0.1
    age_bin_weights: tuple[float, float, float, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.num_identities < 2:
            raise ConfigError("num_identities must be >= 2")
        if self.samples_per_identity < 1:
            raise ConfigError("samples_per_identity must be >= 1")
        if self.num_ages < 2:
            raise ConfigError("num_ages must be >= 2")
        if self.identity_dims < 1 or self.age_dims < 1:
            raise ConfigError("identity_dims and age_dims must be >= 1")
        if self.identity_dims + self.age_dims > self.input_dim:
            raise ConfigError(
                f"identity_dims + age_dims = {self.identity_dims + self.age_dims} "
                f"exceeds input_dim = {self.input_dim}")
        if not np.isfinite(self.noise_std) or self.noise_std < 0:
            raise ConfigError("noise_std must be finite and >= 0")
        if self.age_bin_weights is not None:
            w = tuple(float(v) for v in self.age_bin_weights)
            if len(w) != 4 or not all(0 <= v < np.inf for v in w) or sum(w) <= 0:
                raise ConfigError(
                    "age_bin_weights must be 4 finite non-negative values with positive sum")
            object.__setattr__(self, "age_bin_weights", w)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def bin_weights(self) -> tuple[float, ...]:
        return self.age_bin_weights if self.age_bin_weights is not None else DEFAULT_BIN_COUNTS


@dataclass
class GroundTruth:
    """Latents behind each sample: identity codes and the drawn ages."""

    identity_codes: dict[str, Array]
    sample_identities: list[str]
    sample_ages: Array


def feasible_bins(cfg: SynthConfig) -> list[tuple[int, int, float]]:
    """(lo, hi, normalized weight) for every bin with labels inside 1..A."""
    raw = cfg.bin_weights()
    bins = []
    for (lo, hi), w in zip(BIN_BOUNDS, raw):
        hi = cfg.num_ages if hi is None else min(hi, cfg.num_ages)
        lo = max(lo, 1)
        if lo <= hi and w > 0:
            bins.append((lo, hi, float(w)))
    if not bins:
        raise ConfigError("no feasible age bin for this num_ages / weight combination")
    total = sum(w for _, _, w in bins)
    return [(lo, hi, w / total) for lo, hi, w in bins]


def age_curve(age: int, cfg: SynthConfig) -> Array:
    """Strictly increasing saturating embedding of an age into age_dims
    coordinates; different gains/centers per coordinate keep it nonlinear."""
    t = (age - 1) / (cfg.num_ages - 1)
    k = np.arange(cfg.age_dims, dtype=np.float64)
    gains = 1.5 + k
    centers = (k + 1.0) / (cfg.age_dims + 1.0)
    return np.tanh(gains * (t - centers))


def generate_dataset(cfg: SynthConfig, seed: int) -> tuple[LabeledDataset, GroundTruth]:
    """Deterministic per (cfg, seed); identities use spawned child seeds
    so generation could fan out per identity without changing results."""
    bins = feasible_bins(cfg)
    probs = np.array([w for _, _, w in bins])
    child_seeds = np.random.SeedSequence(seed).spawn(cfg.num_identities)
    num_samples = cfg.num_identities * cfg.samples_per_identity
    inputs = np.zeros((num_samples, cfg.input_dim))
    ages = np.empty(num_samples, dtype=np.int64)
    codes: dict[str, Array] = {}
    identities: list[str] = []
    for i in range(cfg.num_identities):
        ident = f"id{i:05d}"
        rng = np.random.default_rng(child_seeds[i])
        code = rng.normal(0.0, 1.0, cfg.identity_dims)
        codes[ident] = code
        for _ in range(cfg.samples_per_identity):
            b = int(rng.choice(len(bins), p=probs))
            lo, hi, _ = bins[b]
            age = int(rng.integers(lo, hi + 1))
            x = inputs[len(identities)]
            x[:cfg.identity_dims] = code
            x[cfg.identity_dims:cfg.identity_dims + cfg.age_dims] = age_curve(age, cfg)
            x += cfg.noise_std * rng.standard_normal(cfg.input_dim)
            ages[len(identities)] = age
            identities.append(ident)
    truth = GroundTruth(codes, identities, ages)
    return LabeledDataset(inputs, ages, identities, cfg.num_ages), truth


def prior_baseline_mae(ds: LabeledDataset) -> float:
    """MAE of the constant predictor that always answers the age median."""
    med = float(np.median(ds.ages))
    return float(np.mean(np.abs(ds.ages - med)))


def save_ground_truth(truth: GroundTruth, path) -> None:
    payload = {
        "identity_codes": {k: [float(v) for v in arr] for k, arr in truth.identity_codes.items()},
        "sample_identities": truth.sample_identities,
        "sample_ages": [int(a) for a in truth.sample_ages],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def load_ground_truth(path) -> GroundTruth:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return GroundTruth(
        {k: np.array(v) for k, v in payload["identity_codes"].items()},
        list(payload["sample_identities"]),
        np.array(payload["sample_ages"], dtype=np.int64),
    )
