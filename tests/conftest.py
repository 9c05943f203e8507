import os
from pathlib import Path

import numpy as np
import pytest

from agecontrast.data import LabeledDataset
from agecontrast.evaluation import SweepCell, sweep
from agecontrast.synth import SynthConfig, generate_dataset


SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env() -> dict:
    """This environment with the package on PYTHONPATH and without
    OPENBLAS_NUM_THREADS, so a new interpreter sees the CLI's default."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": SRC}


def make_dataset(ages, identities, num_ages, input_dim=4, seed=0):
    """Hand-rolled dataset with given labels and random inputs."""
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(0.0, 1.0, (len(ages), input_dim)), ages,
                          identities, num_ages)


def prior_baseline_mae(ds: LabeledDataset) -> float:
    """MAE of the constant predictor that always answers the age median."""
    med = float(np.median(ds.ages))
    return float(np.mean(np.abs(ds.ages - med)))


def protocol_report(ds, cfg, protocol: str, k: int):
    """The EvalReport of cfg under a protocol, split with cfg's seed: a
    serial sweep of one cell that keeps cfg's pair weights."""
    w = cfg.weights
    [report], _ = sweep(ds, cfg, [SweepCell("cfg", w.lambda_c, w.lambda_t, w.pair_loss)],
                        protocol, k)
    return report


@pytest.fixture(scope="session")
def grid_dataset():
    """6 identities x ages 1..5, one sample each: every anchor has exactly
    5 positive and 20 negative candidates."""
    ages, idents = [], []
    for ident in "ABCDEF":
        for age in range(1, 6):
            ages.append(age)
            idents.append(ident)
    return make_dataset(ages, idents, num_ages=5, seed=3)


@pytest.fixture(scope="session")
def small_synth():
    cfg = SynthConfig(num_identities=24, samples_per_identity=4, num_ages=15,
                      input_dim=16, identity_dims=6, age_dims=4, noise_std=0.05)
    ds, truth = generate_dataset(cfg, seed=5)
    return cfg, ds, truth
