"""The benchmark's span wrappers and output checks still read the package.

``perfbench/tracing.py`` patches functions by name; a renamed or deleted
target makes its per-layer metrics read 0 without any error. Its sampler
wrapper counts null slots by iterating a batch, and ``perfbench/oracles.py``
checks sampled ``(a, p, n)`` tuples, so a change to the batch type could
zero the ``data.*`` metrics or break the benchmark's check. These tests
load both modules (without editing them) and run them on the package.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from agecontrast.data import iter_epoch_batches, sample_triplet_batch, save_dataset

from conftest import cli_env, make_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def _bindings() -> dict:
    """Every name bound in an agecontrast module or class namespace."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "agecontrast" or name.startswith("agecontrast.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, fn in vars(value).items():
                    out[(name, f"{attr}.{member}")] = fn
    return out


# Targets whose code the package no longer has: a train step calls its
# closed-form pullback directly, so there is no tape to time, and a sweep
# runs its fold jobs through one pool, so no protocol run remains to wrap.
REMOVED = ["agecontrast.autodiff.Tape.backward", "agecontrast.evaluation.run_protocol"]


def test_install_finds_every_target_and_undo_restores_them():
    tracing = _load_tracing()
    import agecontrast.cli  # noqa: F401  (loads every module install patches)

    before = _bindings()
    missing, undo = tracing.install(tracing.Tracer())
    try:
        assert missing == REMOVED
        during = _bindings()
        patched = {key for key, value in before.items() if during[key] is not value}
        for module_name, attr, _ in tracing.TARGETS:
            if f"{module_name}.{attr}" in REMOVED:
                continue
            assert (module_name, attr) in patched, f"{module_name}.{attr} was not wrapped"
    finally:
        undo()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_traced_train_records_its_forward(small_synth):
    # A train step's forward is the one ``model.forward_batch``, so the
    # benchmark's forward metrics see training, not only evaluation.
    from agecontrast.losses import LossWeights
    from agecontrast.training import TrainConfig, train

    _, ds, _ = small_synth
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    _, undo = tracing.install(tracer)
    try:
        train(ds, TrainConfig(epochs=1, batch_size=32,
                              weights=LossWeights(lambda_c=1.0, lambda_t=1.0)))
    finally:
        undo()
    assert "model.forward_batch" in {s[2] for s in tracer.spans}
    metrics, _ = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["model.forward_rows"] >= len(ds)


def test_sampler_span_counts_match_the_batch_arrays():
    # Z's age-4 row has no positive; Z's age-3 row has no negative, since
    # every row of another identity shares its age.
    ds = make_dataset([3, 3, 3, 4], ["W", "V", "Z", "Z"], num_ages=5)
    batch = next(iter_epoch_batches(ds, len(ds), np.random.default_rng(0)))
    counts = _load_tracing()._batch_counts(batch)
    assert counts == {
        "drawn": len(batch.a),
        "null_p": int(np.sum(batch.p < 0)),
        "null_n": int(np.sum(batch.n < 0)),
        "complete": int(np.sum((batch.p >= 0) & (batch.n >= 0))),
    }
    assert counts["null_p"] == 1 and counts["null_n"] == 1


def test_oracle_accepts_sampled_triplets(small_synth):
    _, ds, truth = small_synth
    oracles = _load("oracles")
    batch = sample_triplet_batch(ds, len(ds), seed=4)
    triplets = [(t.a, t.p, t.n) for t in batch]
    assert oracles.check_triplets(truth.sample_ages, truth.sample_identities, triplets) == []
    # the oracle does catch a broken slot
    a, p, n = triplets[0]
    assert oracles.check_triplets(truth.sample_ages, truth.sample_identities,
                                  [(a, a, n)] + triplets[1:]) != []


def test_traced_cli_sweep_records_the_fold_jobs_of_its_workers(small_synth, tmp_path):
    # The CLI forks its pool workers, which keep the launcher's span
    # wrappers and write their spans to files of their own.
    _, ds, _ = small_synth
    save_dataset(ds, tmp_path / "dataset.csv")
    (tmp_path / "out").mkdir()
    (tmp_path / "trace").mkdir()
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), str(tmp_path / "trace"), "sweep",
         "--dataset", str(tmp_path / "dataset.csv"), "--loss-sets", "--protocol", "se",
         "--k", "2", "--epochs", "1", "--jobs", "2", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    spans = _load_tracing().read_spans(tmp_path / "trace")
    [cli_span] = [s for s in spans if s[2] == "cli.sweep"]
    trains = [s for s in spans if s[2] == "training.train"]
    workers = {s[0].split(".")[0] for s in trains}
    assert len(trains) == 6 * 2
    assert 1 <= len(workers) <= 2 and cli_span[0].split(".")[0] not in workers
    # Each fold job scores its model once, in the worker that trained it.
    for name in ("evaluation.evaluate_mae", "evaluation.identity_variance"):
        scored = [s for s in spans if s[2] == name]
        assert len(scored) == len(trains) and {s[0].split(".")[0] for s in scored} == workers


def test_traced_eval_scores_its_model_once(small_synth):
    from agecontrast.evaluation import evaluate_checkpoint
    from agecontrast.model import ModelConfig, init_model

    _, ds, _ = small_synth
    model = init_model(ModelConfig(ds.input_dim, (8,), 6, ds.num_ages), 0)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    _, undo = tracing.install(tracer)
    try:
        evaluate_checkpoint(model, ds, "se", k=4)
    finally:
        undo()
    names = [s[2] for s in tracer.spans]
    assert [names.count(f"evaluation.{name}") for name in (
        "evaluate_mae", "identity_variance")] == [1, 1]
    metrics, _ = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["evaluation.evaluate_mae_calls"] == 1
