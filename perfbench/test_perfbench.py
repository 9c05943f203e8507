"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402


def span(sid, parent, name, start, end, attrs=None):
    return [sid, parent, name, start, end, attrs]


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        span("1.0", None, "root", 0.0, 10.0),
        span("1.1", "1.0", "a", 1.0, 4.0),
        span("1.2", "1.1", "grandchild", 2.0, 3.0),
        span("1.3", "1.0", "b", 3.0, 6.0),     # overlaps a: the union counts once
        span("1.4", "1.0", "c", 8.0, 12.0),    # runs past its parent: clipped
        span("2.0", "1.0", "worker", 6.5, 7.0),  # child in another process
    ]
    own = tracing.self_times(spans)
    assert own["1.0"] == pytest.approx(10.0 - (5.0 + 2.0 + 0.5))
    assert own["1.1"] == pytest.approx(3.0 - 1.0)
    assert own["1.2"] == pytest.approx(1.0)
    assert own["1.4"] == pytest.approx(4.0)


def test_layer_metrics_from_a_hand_built_trace():
    spans = [
        span("1.0", None, "evaluation.run_protocol", 0.0, 10.0,
             {"jobs": 2, "payload_bytes": 500}),
        span("2.0", "1.0", "training.train", 0.0, 4.0),
        span("2.1", "2.0", "data.sample", 0.0, 1.0,
             {"drawn": 4, "null_p": 1, "null_n": 0, "complete": 3}),
        span("2.2", "2.0", "losses.compose", 1.0, 2.0),
        span("2.3", "2.2", "model.forward_batch", 1.2, 1.7, {"rows": 4}),
        span("2.4", "2.0", "training.adam", 2.5, 3.0),
        span("3.0", "1.0", "training.train", 1.0, 7.0),
    ]
    m, ratios = tracing.layer_metrics(spans, iterations=1)
    assert m["data.sample_us_per_anchor"] == pytest.approx(1.0 / 4 * 1e6)
    assert m["data.useful_triplet_ratio"] == pytest.approx(0.75)
    assert m["data.null_positive_slots"] == 1
    assert m["losses.compose_self_s"] == pytest.approx(0.5)
    assert m["model.forward_rows"] == 4
    assert m["training.steps"] == 1
    assert m["training.step_ms_p50"] == pytest.approx(3000.0)
    assert m["training.train_self_s"] == pytest.approx((4.0 - 2.5) + 6.0)
    assert m["evaluation.fold_jobs"] == 2
    assert m["evaluation.fold_train_s"] == pytest.approx(10.0)
    assert m["evaluation.pool_busy_share"] == pytest.approx(10.0 / 20.0)
    assert m["evaluation.payload_bytes"] == 500
    assert ratios["evaluation.pool_busy_share"]["base_jobs_x_wall_s"] == pytest.approx(20.0)
    assert set(m) | {"cli.import_s", "cli.gen_s", "cli.eval_s", "trace.overhead"} == set(
        tracing.LAYER_METRICS)


def test_install_records_spans_and_undo_restores_the_program():
    from agecontrast import data, training
    from agecontrast.losses import LossWeights
    from agecontrast.synth import SynthConfig, generate_dataset
    original = training.iter_epoch_batches
    tracer = tracing.Tracer()
    missing, undo = tracing.install(tracer)
    try:
        assert missing == []
        assert training.iter_epoch_batches is not original
        ds, _ = generate_dataset(SynthConfig(num_identities=6, samples_per_identity=4), 0)
        training.train(ds, training.TrainConfig(
            epochs=1, batch_size=8, weights=LossWeights(lambda_c=1.0, lambda_t=1.0)))
    finally:
        undo()
    assert training.iter_epoch_batches is original is data.iter_epoch_batches
    names = {s[2] for s in tracer.spans}
    assert {"training.train", "data.sample", "losses.compose", "model.forward_batch",
            "autodiff.backward", "training.adam"} <= names
    m, _ = tracing.layer_metrics(tracer.spans, 1)
    assert m["data.triplets_drawn"] == len(ds)
    assert m["training.steps"] == 3
    assert m["model.forward_rows"] >= len(ds)
    assert m["autodiff.tape_nodes_per_step"] > 0


# ---------------------------------------------------------------------------
# Output checks fail on injected faults

def grid():
    """4 identities x ages 1..3, plus a second age-1 sample of identity A (12)."""
    ages = [a for _ in range(4) for a in (1, 2, 3)] + [1]
    identities = [i for i in "ABCD" for _ in range(3)] + ["A"]
    return ages, identities


def test_triplet_check_passes_valid_and_fails_same_identity_positive():
    ages, identities = grid()

    def check(triplets):
        return oracles.check_triplets(ages, identities, triplets)

    assert check([(0, 3, 4), (1, 4, 3)]) == []
    assert any("positive 12" in f for f in check([(0, 12, 4)]))
    assert any("negative 6" in f for f in check([(0, 3, 6)]))
    assert any("empty positive" in f for f in check([(0, None, 4)]))
    assert any("repeats" in f for f in check([(0, 3, 4), (0, 3, 4)]))


SWEEP_CSV = (b"label,lambda_c,lambda_t,pair_loss,mean_mae,mu_vf,mu_vs\n"
             + b"".join(f"R{i},0.0,0.0,cosine,4.8,0.14,17.6\n".encode() for i in range(6)))


def test_sweep_check_fails_on_one_changed_byte():
    assert oracles.check_sweep([SWEEP_CSV, SWEEP_CSV]) == []
    changed = bytearray(SWEEP_CSV)
    changed[-3] = ord("7")
    assert oracles.check_sweep([SWEEP_CSV, bytes(changed)]) != []
    assert oracles.check_sweep([SWEEP_CSV]) != []
    assert oracles.check_sweep([SWEEP_CSV.replace(b"4.8", b"nan")] * 2) != []


@pytest.fixture(scope="module")
def lopo_eval(tmp_path_factory):
    """A small real gen -> eval lopo run through the CLI."""
    from agecontrast import cli
    from agecontrast.model import ModelConfig, init_model, save_model
    work = tmp_path_factory.mktemp("lopo")
    (work / "gen").mkdir()
    (work / "eval").mkdir()
    (work / "gen.cfg").write_text("num_identities = 7\nsamples_per_identity = 3\n")
    save_model(init_model(ModelConfig(64, (8,), 8, 60), 3), work / "checkpoint.json")
    assert cli.main(["gen", "--config", str(work / "gen.cfg"), "--seed", "2",
                     "--out", str(work / "gen")]) == 0
    assert cli.main(["eval", "--checkpoint", str(work / "checkpoint.json"),
                     "--dataset", str(work / "gen" / "dataset.csv"), "--protocol", "lopo",
                     "--out", str(work / "eval")]) == 0
    return work


def lopo_check(work):
    return oracles.check_lopo_eval(work / "gen" / "dataset.csv", work / "checkpoint.json",
                                   work / "eval" / "eval_folds.csv",
                                   work / "eval" / "eval_report.json")


def test_lopo_check_passes_real_output_and_fails_a_perturbed_mae(lopo_eval):
    assert lopo_check(lopo_eval) == []
    report_path = lopo_eval / "eval" / "eval_report.json"
    original = report_path.read_text()
    report = json.loads(original)
    report["mean_mae"] += 1e-6
    report_path.write_text(json.dumps(report))
    try:
        assert any("mean MAE" in f for f in lopo_check(lopo_eval))
    finally:
        report_path.write_text(original)

    folds_path = lopo_eval / "eval" / "eval_folds.csv"
    original = folds_path.read_text()
    folds_path.write_text(original.rsplit("\n", 2)[0] + "\n")  # drop the last fold
    try:
        assert any("rows" in f for f in lopo_check(lopo_eval))
    finally:
        folds_path.write_text(original)


def test_manifest_check_fails_on_a_changed_output(lopo_eval):
    manifest = lopo_eval / "gen" / "manifest.json"
    assert oracles.check_manifest(manifest, Path("/")) == []
    truth = lopo_eval / "gen" / "dataset.truth.json"
    original = truth.read_bytes()
    truth.write_bytes(original + b" ")
    try:
        assert oracles.check_manifest(manifest, Path("/")) != []
    finally:
        truth.write_bytes(original)


def test_held_out_check_fails_when_the_model_is_no_better_than_the_median():
    true_ages = np.array([10.0, 20.0, 30.0])
    assert oracles.check_beats_median(true_ages + 0.5, true_ages, [20, 20])[2] == []
    assert oracles.check_beats_median(np.full(3, 20.0), true_ages, [20, 20])[2] != []
