"""Evaluation protocols, MAE, the identity-variance diagnostic, sweeps.

Three fold protocols are supported: random split (rs), subject-exclusive
k-fold (se, identities never cross the train/test boundary) and
leave-one-person-out (lopo). The identity-variance diagnostic reports
the within-identity variance of features f and of the softmax output s
(scaled by 100), averaged per coordinate and then per identity; higher
values mean the representation depends less on who the person is.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import LabeledDataset
from .errors import IncompatibleDataError
from .losses import LossBreakdown
from .model import Model, forward_values, predict_ages
from .training import TrainConfig, train

Array = np.ndarray

PROTOCOLS = ("rs", "se", "lopo")

# Softmax outputs are scaled by this factor before the variance is taken,
# so their diagnostic lands on a comparable magnitude to the features'.
S_VARIANCE_SCALE = 100.0

ESTIMATOR_NOTES = {
    "variance": "population (ddof=0), averaged per coordinate then per identity",
    "s_scale": S_VARIANCE_SCALE,
    "learning_rate_schedule": "constant",
}


@dataclass(frozen=True)
class Fold:
    """Sorted test indices of one fold over n samples; train is the rest."""

    test: Array
    n: int

    @property
    def train(self) -> Array:
        mask = np.ones(self.n, dtype=bool)
        mask[self.test] = False
        return np.flatnonzero(mask)


def split_random(ds: LabeledDataset, k: int, seed: int) -> list[Fold]:
    """Seeded permutation chunked into k near-equal test folds
    (larger folds first when N % k != 0)."""
    n = len(ds)
    if k < 2:
        raise ValueError(f"split_random: k must be >= 2, got {k}")
    if k > n:
        raise IncompatibleDataError(f"random split needs >= {k} samples, dataset has {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return _folds_from_chunks(np.array_split(perm, k), n)


def split_subject_exclusive(ds: LabeledDataset, k: int, seed: int) -> list[Fold]:
    """Identities (not samples) are partitioned into k folds; every
    sample of an identity lands in that identity's fold."""
    identities = ds.unique_identities()
    if k < 2:
        raise ValueError(f"split_subject_exclusive: k must be >= 2, got {k}")
    if k > len(identities):
        raise IncompatibleDataError(
            f"subject-exclusive split needs >= {k} identities, dataset has {len(identities)}")
    order = np.random.default_rng(seed).permutation(len(identities))
    chunks = []
    for ident_ids in np.array_split(order, k):
        test = np.sort(np.concatenate(
            [ds.indices_of_identity(identities[i]) for i in ident_ids]))
        chunks.append(test)
    return _folds_from_chunks(chunks, len(ds))


def split_lopo(ds: LabeledDataset) -> list[Fold]:
    """One fold per identity; the fold's test set is that identity's samples."""
    identities = ds.unique_identities()
    if len(identities) < 2:
        raise IncompatibleDataError("leave-one-person-out needs at least 2 identities")
    chunks = [ds.indices_of_identity(ident) for ident in identities]
    return _folds_from_chunks(chunks, len(ds))


def _folds_from_chunks(test_chunks, n: int) -> list[Fold]:
    return [Fold(np.sort(np.asarray(test, dtype=np.int64)), n) for test in test_chunks]


def split_protocol(ds: LabeledDataset, protocol: str, k: int = 5, seed: int = 0) -> list[Fold]:
    if protocol == "rs":
        return split_random(ds, k, seed)
    if protocol == "se":
        return split_subject_exclusive(ds, k, seed)
    if protocol == "lopo":
        return split_lopo(ds)
    raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")


def mean_absolute_error(predicted, actual) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError(f"mean_absolute_error: bad shapes {predicted.shape} vs {actual.shape}")
    return float(np.mean(np.abs(predicted - actual)))


def evaluate_mae(model: Model, ds: LabeledDataset, test_indices) -> float:
    """MAE of the model's age estimates over the given sample indices."""
    idx = np.asarray(test_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("evaluate_mae: empty test set")
    _, s_rows = forward_values(model, ds.inputs[idx])
    return mean_absolute_error(predict_ages(s_rows), ds.ages[idx])


def identity_variance(model: Model, ds: LabeledDataset) -> tuple[float, float]:
    """Within-identity variance of f and of s*S_VARIANCE_SCALE.

    Per identity with >= 2 samples: population variance per coordinate
    across that identity's samples, averaged over coordinates; the
    result is averaged over those identities.
    """
    return _identity_variance_of(*forward_values(model, ds.inputs), ds)


def _identity_variance_of(f_rows: Array, s_rows: Array,
                          ds: LabeledDataset) -> tuple[float, float]:
    vf, vs = [], []
    for ident in ds.unique_identities():
        idx = ds.indices_of_identity(ident)
        if idx.size < 2:
            continue
        vf.append(float(np.mean(np.var(f_rows[idx], axis=0))))
        vs.append(float(np.mean(np.var(s_rows[idx] * S_VARIANCE_SCALE, axis=0))))
    if not vf:
        raise IncompatibleDataError("identity_variance needs an identity with >= 2 samples")
    return float(np.mean(vf)), float(np.mean(vs))


@dataclass
class EvalReport:
    protocol: str
    k: int
    seed: int
    fold_maes: list[float]
    fold_sizes: list[int]
    mean_mae: float
    mu_vf: float
    mu_vs: float
    histories: list[list[LossBreakdown]]
    config: dict
    notes: dict = field(default_factory=lambda: dict(ESTIMATOR_NOTES))

    def to_dict(self) -> dict:
        # fold_sizes goes to the per-fold CSV, not into the report.
        return {
            "protocol": self.protocol,
            "k": self.k,
            "seed": self.seed,
            "fold_maes": self.fold_maes,
            "mean_mae": self.mean_mae,
            "mu_vf": self.mu_vf,
            "mu_vs": self.mu_vs,
            "histories": [[b.as_row() for b in h] for h in self.histories],
            "config": self.config,
            "notes": self.notes,
        }


def evaluate_checkpoint(model: Model, ds: LabeledDataset, protocol: str,
                        k: int = 5, seed: int = 0) -> EvalReport:
    """Per-fold MAE of a fixed model plus its identity-variance pair.

    The model is fixed, so one forward over the whole dataset serves
    every fold's MAE and the identity variance.
    """
    folds = split_protocol(ds, protocol, k, seed)
    f_rows, s_rows = forward_values(model, ds.inputs)
    predicted = predict_ages(s_rows)
    fold_maes = [mean_absolute_error(predicted[fold.test], ds.ages[fold.test])
                 for fold in folds]
    mu_vf, mu_vs = _identity_variance_of(f_rows, s_rows, ds)
    return EvalReport(
        protocol=protocol, k=len(folds), seed=seed,
        fold_maes=fold_maes, fold_sizes=[len(fold.test) for fold in folds],
        mean_mae=float(np.mean(fold_maes)),
        mu_vf=mu_vf, mu_vs=mu_vs, histories=[],
        config={"checkpoint": asdict(model.config), "predict_mode": "mean"},
    )


def _derive_fold_seed(seed: int, fold_index: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(fold_index)]).generate_state(1)[0])


def _fold_job(args) -> tuple[float, float, float, list[LossBreakdown]]:
    ds, cfg, fold = args
    model, history = train(ds.subset(fold.train), cfg)
    mae = evaluate_mae(model, ds, fold.test)
    mu_vf, mu_vs = identity_variance(model, ds)
    return mae, mu_vf, mu_vs, history


def run_protocol(ds: LabeledDataset, cfg: TrainConfig, protocol: str,
                 k: int = 5, split_seed: int = 0, jobs: int = 1) -> EvalReport:
    """Train on every fold's train split, score its test split.

    Fold jobs get derived seeds and are independent, so they may run in
    parallel (jobs > 1) without changing any number. The identity
    variance is measured on the full dataset with each fold's model and
    averaged.
    """
    folds = split_protocol(ds, protocol, k, split_seed)
    payloads = [(ds, replace(cfg, seed=_derive_fold_seed(cfg.seed, i)), fold)
                for i, fold in enumerate(folds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_fold_job, payloads))
    else:
        results = [_fold_job(p) for p in payloads]
    fold_maes = [r[0] for r in results]
    return EvalReport(
        protocol=protocol, k=len(folds), seed=split_seed,
        fold_maes=fold_maes, fold_sizes=[len(fold.test) for fold in folds],
        mean_mae=float(np.mean(fold_maes)),
        mu_vf=float(np.mean([r[1] for r in results])),
        mu_vs=float(np.mean([r[2] for r in results])),
        histories=[r[3] for r in results],
        config=asdict(cfg),
    )


# ---------------------------------------------------------------------------
# Sweeps

@dataclass(frozen=True)
class SweepCell:
    label: str
    lambda_c: float
    lambda_t: float
    pair_loss: str = "cosine"

    def config(self, base_cfg: TrainConfig) -> TrainConfig:
        """base_cfg with this cell's pair weights; rejects invalid weights."""
        return replace(base_cfg, weights=replace(
            base_cfg.weights, lambda_c=self.lambda_c, lambda_t=self.lambda_t,
            pair_loss=self.pair_loss))


@dataclass
class SweepRow:
    label: str
    lambda_c: float
    lambda_t: float
    pair_loss: str
    fold_maes: list[float]
    mean_mae: float
    mu_vf: float
    mu_vs: float


def lambda_grid_cells(lambda_cs, lambda_ts) -> list[SweepCell]:
    """Cartesian grid, ordered lambda_c-major."""
    return [SweepCell(f"lc{lc:g}_lt{lt:g}", float(lc), float(lt))
            for lc in lambda_cs for lt in lambda_ts]


def loss_set_cells(lambda_c: float = 0.0, lambda_t: float = 0.0) -> list[SweepCell]:
    """The six loss-combination rows of the ablation table; a zero weight
    falls back to the table's lambda_c = 10 or lambda_t = 1."""
    lambda_c, lambda_t = lambda_c or 10.0, lambda_t or 1.0
    return [
        SweepCell("MV", 0.0, 0.0),
        SweepCell("MV+KLD", lambda_c, 0.0, pair_loss="kld"),
        SweepCell("MV+Cosine", lambda_c, 0.0),
        SweepCell("MV+Triplet", 0.0, lambda_t),
        SweepCell("MV+KLD+Triplet", lambda_c, lambda_t, pair_loss="kld"),
        SweepCell("MV+Cosine+Triplet", lambda_c, lambda_t),
    ]


def sweep(ds: LabeledDataset, base_cfg: TrainConfig, cells: list[SweepCell],
          protocol: str = "se", k: int = 5, split_seed: int = 0,
          jobs: int = 1) -> list[SweepRow]:
    """Retrain and evaluate every cell under shared seeds; one row per cell."""
    if not cells:
        raise ValueError("sweep: empty grid")
    configs = [cell.config(base_cfg) for cell in cells]  # all checked before any training
    rows = []
    for cell, cfg in zip(cells, configs):
        report = run_protocol(ds, cfg, protocol, k, split_seed, jobs)
        rows.append(SweepRow(
            label=cell.label, lambda_c=cell.lambda_c, lambda_t=cell.lambda_t,
            pair_loss=cell.pair_loss, fold_maes=report.fold_maes,
            mean_mae=report.mean_mae, mu_vf=report.mu_vf, mu_vs=report.mu_vs))
    return rows
