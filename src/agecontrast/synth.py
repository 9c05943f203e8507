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

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError
from .manifest import write_json

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
            if len(w) != 4 or not all(0 <= v < np.inf for v in w) or not 0 < sum(w) < np.inf:
                raise ConfigError("age_bin_weights must be 4 finite non-negative values "
                                  "with a positive finite sum")
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
    """Deterministic per (cfg, seed). Identity i draws from child i of
    ``SeedSequence(seed).spawn``: its code, then for each of its samples
    a bin, an age in the bin and a noise row.

    A bin is drawn the way ``Generator.choice(len(bins), p=probs)`` draws
    it: one ``rng.random()`` looked up on the right in the normalized
    cdf, here without choice's per-call argument checks. Each drawn age's
    curve is computed once. A row is its code and curve plus
    ``noise_std`` times its noise, so the draws and the arithmetic are
    those of the per-sample choice-and-``age_curve`` loop kept in
    ``tests/test_synth.py``, and every dataset byte is unchanged. Sizes
    numpy cannot allocate are a ConfigError, raised before any draw.
    """
    bins = feasible_bins(cfg)
    cdf = np.array([w for _, _, w in bins]).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    bin_lo = [lo for lo, _, _ in bins]
    bin_end = [hi + 1 for _, hi, _ in bins]
    per = cfg.samples_per_identity
    num_samples = cfg.num_identities * per
    try:
        inputs = np.empty((num_samples, cfg.input_dim))
        codes = np.empty((cfg.num_identities, cfg.identity_dims))
        ages = np.empty(num_samples, dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate {num_samples} samples of input_dim "
                          f"{cfg.input_dim}: {exc}") from exc
    for i in range(cfg.num_identities):
        # Child i of SeedSequence(seed).spawn, without spawning every identity first.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        codes[i] = rng.normal(0.0, 1.0, cfg.identity_dims)
        for row in range(i * per, (i + 1) * per):
            b = bisect_right(cdf, rng.random())
            ages[row] = rng.integers(bin_lo[b], bin_end[b])
            rng.standard_normal(out=inputs[row])
    drawn, age_index = np.unique(ages, return_inverse=True)
    curves = np.array([age_curve(age, cfg) for age in drawn.tolist()])
    # A value is its code, curve or 0.0 plus noise_std times its noise.
    # Adding in the other order gives the same bits, since x + y == y + x;
    # adding 0.0 turns a -0.0 product into 0.0, as adding the zero did.
    d, a = cfg.identity_dims, cfg.age_dims
    inputs *= cfg.noise_std
    inputs.reshape(cfg.num_identities, per, -1)[:, :, :d] += codes[:, None]
    inputs[:, d:d + a] += curves[age_index]
    inputs[:, d + a:] += 0.0
    names = [f"id{i:05d}" for i in range(cfg.num_identities)]
    identities = [ident for ident in names for _ in range(per)]
    truth = GroundTruth(dict(zip(names, codes)), identities, ages)
    return LabeledDataset(inputs, ages, identities, cfg.num_ages), truth


def save_ground_truth(truth: GroundTruth, path) -> None:
    write_json(path, {
        "identity_codes": {k: arr.tolist() for k, arr in truth.identity_codes.items()},
        "sample_identities": truth.sample_identities,
        "sample_ages": truth.sample_ages.tolist(),
    })
