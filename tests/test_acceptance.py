"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the PASS/FAIL line
per criterion alongside pytest's own verdicts.
"""

import json
import time
import numpy as np
import pytest

from agecontrast.cli import main
from agecontrast.data import negative_set, positive_set, sample_triplet_batch
from agecontrast.evaluation import split_lopo, split_protocol, split_subject_exclusive
from agecontrast.autodiff import softmax_parts
from agecontrast.losses import (LossWeights, cosine_rows, kld_rows, mean_variance_rows,
                                triplet_rows)
from agecontrast.evaluation import evaluate_mae, identity_variance, mean_absolute_error
from agecontrast.model import forward_values
from agecontrast.manifest import sha256_file
from agecontrast.selfcheck import GRAD_TOL, gradient_suite
from agecontrast.synth import SynthConfig, generate_dataset
from agecontrast.training import TrainConfig, train

from conftest import make_dataset, prior_baseline_mae, protocol_report

FULL_LOSS = LossWeights(lambda_m=0.2, lambda_v=0.05, lambda_c=10.0, lambda_t=1.0)
MV_BASELINE = LossWeights(lambda_m=0.2, lambda_v=0.05)


def report(number: int, name: str, ok: bool, detail: str = ""):
    suffix = f" - {detail}" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}){suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    results = gradient_suite(points=100)
    elapsed = time.perf_counter() - started
    names = {r.name for r in results}
    assert {"gradients.softmax_ce", "gradients.mean_loss", "gradients.variance_loss",
            "gradients.cosine_loss", "gradients.triplet_margin_loss",
            "gradients.kld_loss", "gradients.total_loss",
            "gradients.end_to_end"} <= names
    bad = [r.name for r in results if not r.passed]
    ok = not bad and elapsed < 60.0
    report(1, "gradient suite", ok,
           f"{len(results)} checks at tolerance {GRAD_TOL:g}, {elapsed:.1f}s (< 60s)"
           + (f"; failing: {', '.join(bad)}" if bad else ""))


@pytest.fixture(scope="module")
def thousand_sample_dataset():
    # randomized labels over 90 identities: every candidate-set shape occurs
    rng = np.random.default_rng(77)
    n = 1000
    ages = rng.integers(1, 31, n)
    idents = [f"p{i:03d}" for i in rng.integers(0, 90, n)]
    return make_dataset(list(ages), idents, num_ages=30, input_dim=3, seed=7)


def test_criterion_2_sampler_correctness(thousand_sample_dataset):
    ds = thousand_sample_dataset
    violations = 0
    seen = 0
    for seed in range(100):
        for t in sample_triplet_batch(ds, len(ds), seed):
            if t.p is not None and not (ds.ages[t.p] == ds.ages[t.a]
                                        and ds.identities[t.p] != ds.identities[t.a]):
                violations += 1
            if t.n is not None and not (ds.ages[t.n] != ds.ages[t.a]
                                        and ds.identities[t.n] != ds.identities[t.a]):
                violations += 1
            seen += 1

    mismatches = 0
    for a in range(len(ds)):
        brute_pos = {j for j in range(len(ds))
                     if ds.ages[j] == ds.ages[a] and ds.identities[j] != ds.identities[a]}
        brute_neg = {j for j in range(len(ds))
                     if ds.ages[j] != ds.ages[a] and ds.identities[j] != ds.identities[a]}
        if positive_set(ds, a) != brute_pos or negative_set(ds, a) != brute_neg:
            mismatches += 1

    ok = seen >= 100_000 and violations == 0 and mismatches == 0
    report(2, "sampler correctness", ok,
           f"{seen} triplets, {violations} constraint violations, "
           f"{mismatches}/{len(ds)} brute-force mismatches")


def test_criterion_3_protocol_invariants():
    cfg = SynthConfig(num_identities=82, samples_per_identity=4, num_ages=40,
                      input_dim=8, identity_dims=4, age_dims=2, noise_std=0.1)
    ds, _ = generate_dataset(cfg, 13)

    problems = []
    for protocol, k in (("rs", 5), ("se", 5), ("lopo", 0)):
        folds = split_protocol(ds, protocol, k, seed=2)
        covered = np.sort(np.concatenate([f.test for f in folds]))
        if not np.array_equal(covered, np.arange(len(ds))):
            problems.append(f"{protocol} does not partition")
    for fold in split_subject_exclusive(ds, 5, seed=2):
        if {ds.identities[i] for i in fold.train} & {ds.identities[i] for i in fold.test}:
            problems.append("se identity leak")
    lopo = split_lopo(ds)
    if len(lopo) != 82:
        problems.append(f"lopo folds {len(lopo)} != 82")

    report(3, "protocol invariants", not problems,
           "; ".join(problems) or "rs/se/lopo partition, se disjoint, 82 lopo folds")


def test_criterion_4_loss_fixed_points():
    rng = np.random.default_rng(40)
    problems = []

    for _ in range(20):
        z = rng.normal(0, 1, (4, 8))
        if kld_rows(softmax_parts(z), softmax_parts(z))[0] != 0.0:
            problems.append("kld(s,s) != 0")
        f = rng.normal(0, 1, (4, 8))
        for c in (1e-6, 0.5, 7.0, 1e5):
            if cosine_rows(f, c * f)[0] > 1e-12:
                problems.append("cosine(f, c*f) above 1e-12")
    if mean_variance_rows(np.eye(6), np.ones(6))[0][1] != 0.0:
        problems.append("variance(one-hot) != 0")
    for _ in range(20):
        sa, sp, sn = (rng.dirichlet(np.ones(6))[None, :] for _ in range(3))
        alpha = float(rng.uniform(0, 0.5))
        margin_ok = ((sa - sn) ** 2).sum() >= ((sa - sp) ** 2).sum() + alpha
        if margin_ok and triplet_rows(sa, sp, sn, alpha)[0] != 0.0:
            problems.append("satisfied triplet margin not 0")
    y = rng.uniform(1, 9, 50)
    if mean_absolute_error(y, y) != 0.0:
        problems.append("MAE of perfect predictions != 0")

    report(4, "loss fixed points", not problems, "; ".join(sorted(set(problems))) or
           "kld/cosine/variance/triplet/mae all zero at their minimizers")


@pytest.fixture(scope="module")
def default_scale_runs():
    """Per seed: SE fold 0 of the default synthetic set, a full-loss run and
    an MV-baseline run under identical seeds, plus MAEs and diagnostics."""
    runs = []
    started = time.perf_counter()
    for seed in (0, 1, 2):
        ds, _ = generate_dataset(SynthConfig(), seed)
        fold = split_subject_exclusive(ds, 5, seed)[0]
        train_ds = ds.subset(fold.train)
        full_cfg = TrainConfig(weights=FULL_LOSS, seed=seed)
        mv_cfg = TrainConfig(weights=MV_BASELINE, seed=seed)
        f_full, s_full = forward_values(train(train_ds, full_cfg)[0], ds.inputs)
        f_mv, s_mv = forward_values(train(train_ds, mv_cfg)[0], ds.inputs)
        runs.append({
            "seed": seed,
            "mae_full": evaluate_mae(s_full, ds, [fold])[0],
            "baseline": prior_baseline_mae(ds),
            "vf_full": identity_variance(f_full, s_full, ds)[0],
            "vf_mv": identity_variance(f_mv, s_mv, ds)[0],
        })
    return runs, time.perf_counter() - started


def test_criterion_5_synthetic_learning_beats_prior(default_scale_runs):
    runs, elapsed = default_scale_runs
    wins = sum(r["mae_full"] < r["baseline"] for r in runs)
    detail = ", ".join(f"seed {r['seed']}: {r['mae_full']:.2f} vs {r['baseline']:.2f}"
                       for r in runs)
    report(5, "synthetic learning beats prior", wins >= 2 and elapsed < 120.0,
           f"{wins}/3 seeds, {elapsed:.0f}s (< 120s); {detail}")


def test_criterion_6_identity_variance_direction(default_scale_runs):
    runs, _ = default_scale_runs
    wins = sum(r["vf_full"] > r["vf_mv"] for r in runs)
    detail = ", ".join(f"seed {r['seed']}: {r['vf_full']:.3f} vs {r['vf_mv']:.3f}"
                       for r in runs)
    report(6, "identity-variance direction", wins >= 2, f"{wins}/3 seeds; {detail}")


@pytest.fixture(scope="module")
def sweep_dataset():
    cfg = SynthConfig(num_identities=16, samples_per_identity=3, num_ages=10,
                      input_dim=12, identity_dims=5, age_dims=3, noise_std=0.05)
    return generate_dataset(cfg, 21)[0]


def test_criterion_7_ablation_structure(sweep_dataset, tmp_path):
    from agecontrast.data import save_dataset

    csv = tmp_path / "ds.csv"
    save_dataset(sweep_dataset, csv)
    problems = []

    loss_out = tmp_path / "loss_sets"
    loss_out.mkdir()
    assert main(["sweep", "--dataset", str(csv), "--loss-sets", "--epochs", "2",
                 "--batch-size", "16", "--protocol", "se", "--k", "2", "--seed", "4",
                 "--out", str(loss_out)]) == 0
    rows = [json.loads(line) for line in
            (loss_out / "sweep_rows.jsonl").read_text().splitlines()]
    if [r["label"] for r in rows] != ["MV", "MV+KLD", "MV+Cosine", "MV+Triplet",
                                      "MV+KLD+Triplet", "MV+Cosine+Triplet"]:
        problems.append("loss-set rows wrong")

    grid_out = tmp_path / "grid"
    grid_out.mkdir()
    assert main(["sweep", "--dataset", str(csv), "--grid-lambda-c", "0,1,10",
                 "--grid-lambda-t", "0,1", "--epochs", "2", "--batch-size", "16",
                 "--protocol", "se", "--k", "2", "--seed", "4",
                 "--out", str(grid_out)]) == 0
    grid_rows = [json.loads(line) for line in
                 (grid_out / "sweep_rows.jsonl").read_text().splitlines()]
    if len(grid_rows) != 6:
        problems.append(f"grid rows {len(grid_rows)} != 6")

    zero = next(r for r in grid_rows if r["lambda_c"] == 0.0 and r["lambda_t"] == 0.0)
    base = TrainConfig(epochs=2, batch_size=16, seed=4, weights=MV_BASELINE)
    standalone = protocol_report(sweep_dataset, base, "se", k=2)
    if zero["fold_maes"] != standalone.fold_maes or zero["mu_vf"] != standalone.mu_vf:
        problems.append("zero cell differs from standalone MV run")

    report(7, "ablation structure", not problems,
           "; ".join(problems) or "6 loss-set rows, 6 grid cells, zero cell bitwise-equal")


def test_criterion_8_command_idempotence(sweep_dataset, tmp_path):
    from agecontrast.data import save_dataset

    csv = tmp_path / "ds.csv"
    save_dataset(sweep_dataset, csv)

    def run_twice(label, argv, artifacts):
        sums = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{label}_{attempt}"
            out.mkdir()
            assert main(argv + ["--out", str(out)]) == 0
            sums.append([sha256_file(out / a) for a in artifacts])
        return sums[0] == sums[1]

    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("num_identities = 8\nsamples_per_identity = 3\nnum_ages = 10\n"
                       "input_dim = 8\nidentity_dims = 3\nage_dims = 2\n")
    checks = {
        "gen": run_twice("gen", ["gen", "--config", str(gen_cfg), "--seed", "5"],
                         ["dataset.csv", "dataset.meta.json", "dataset.truth.json"]),
        "train": run_twice("train", ["train", "--dataset", str(csv), "--epochs", "2",
                                     "--batch-size", "16", "--lambda-c", "10",
                                     "--lambda-t", "1", "--seed", "5"],
                           ["checkpoint.json", "train_log.csv"]),
    }
    train_out = tmp_path / "train_x"  # reuse the checkpoint from the train check
    checks["eval"] = run_twice(
        "eval", ["eval", "--checkpoint", str(train_out / "checkpoint.json"),
                 "--dataset", str(csv), "--protocol", "se", "--k", "2", "--seed", "5"],
        ["eval_report.json", "eval_folds.csv"])
    checks["sweep"] = run_twice(
        "sweep", ["sweep", "--dataset", str(csv), "--grid-lambda-c", "0,1",
                  "--grid-lambda-t", "1", "--epochs", "1", "--batch-size", "16",
                  "--protocol", "se", "--k", "2", "--seed", "5"],
        ["sweep_rows.jsonl", "sweep.csv"])

    bad = [name for name, ok in checks.items() if not ok]
    report(8, "command idempotence", not bad,
           "; ".join(f"{name} artifacts differ" for name in bad)
           or "gen/train/eval/sweep artifacts bitwise-identical on rerun")
