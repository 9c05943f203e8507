"""CLI: artifacts, idempotence, exit codes, flag/config resolution."""

import dataclasses
import errno
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agecontrast.cli import GEN_SCHEMA, TRAIN_SCHEMA, main
from agecontrast.losses import LossWeights
from agecontrast import manifest
from agecontrast.manifest import sha256_file
from agecontrast.model import ModelConfig, init_model, load_model, save_model
from agecontrast import selfcheck
from agecontrast.training import TrainConfig

from conftest import SRC, cli_env


def run_in_new_interpreter(*argv, env=None) -> tuple[int, list[str]]:
    """Exit code and stderr lines of the CLI run as a user runs it (in
    ``cli_env()`` unless env is given). Under pytest numpy is loaded
    before the CLI can give OpenBLAS its one-thread default, so an
    in-process sweep spawns; a new interpreter forks. Also checks that
    the command leaves no process of its session behind."""
    proc = subprocess.Popen([sys.executable, "-m", "agecontrast", *argv],
                            env=env or cli_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, err.splitlines()


GEN_CFG = """
# tiny synthetic set
num_identities = 10
samples_per_identity = 3
num_ages = 12
input_dim = 10
identity_dims = 4
age_dims = 3
noise_std = 0.05
"""


@pytest.fixture()
def tiny_dataset(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CFG)
    out = tmp_path / "gen"
    out.mkdir()
    assert main(["gen", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    return out / "dataset.csv"


class TestGen:
    def test_default_config_writes_1000_rows(self, tmp_path):
        out = tmp_path / "g"
        out.mkdir()
        assert main(["gen", "--seed", "0", "--out", str(out)]) == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert len(lines) == 1001  # header + 200 identities x 5
        meta = json.loads((out / "dataset.meta.json").read_text())
        assert meta == {"input_dim": 64, "num_ages": 60}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert sorted(Path(f).name for f in manifest["outputs"]) == [
            "dataset.cache.npy", "dataset.csv", "dataset.meta.json", "dataset.truth.json"]

    def test_identical_checksums_on_rerun(self, tmp_path):
        sums = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(GEN_CFG)
            assert main(["gen", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
            sums.append([sha256_file(out / f) for f in (
                "dataset.csv", "dataset.meta.json", "dataset.cache.npy", "dataset.truth.json")])
        assert sums[0] == sums[1]

    def test_missing_output_dir_exits_2_without_files(self, tmp_path):
        missing = tmp_path / "nope"
        assert main(["gen", "--seed", "0", "--out", str(missing)]) == 2
        assert not missing.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("identities = 5\n")
        out = tmp_path / "o"
        out.mkdir()
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2

    def test_invalid_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("num_identities = 1\n")
        out = tmp_path / "o"
        out.mkdir()
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2


class TestTrain:
    def test_zero_epochs_checkpoint_equals_initialization(self, tiny_dataset, tmp_path):
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                     "--seed", "5", "--out", str(out)]) == 0
        model = load_model(out / "checkpoint.json")
        fresh = init_model(model.config, 5)
        for p, q in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(p, q)
        assert (out / "train_log.csv").read_text().splitlines() == [
            "epoch,l_s,l_m,l_v,l_c,l_t,total"]

    def test_train_writes_log_and_manifest(self, tiny_dataset, tmp_path):
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "3",
                     "--batch-size", "15", "--lambda-c", "10", "--lambda-t", "1",
                     "--seed", "1", "--out", str(out)]) == 0
        log = (out / "train_log.csv").read_text().splitlines()
        assert len(log) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["weights"]["lambda_c"] == 10.0
        assert manifest["config"]["weights"]["lambda_t"] == 1.0
        assert str(tiny_dataset) in manifest["inputs"]

    def test_flags_override_config_file(self, tiny_dataset, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs = 9\nlambda_c = 2.5\nhidden_widths = 8,8\n")
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
                     "--epochs", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1  # flag wins
        assert manifest["config"]["weights"]["lambda_c"] == 2.5
        assert manifest["config"]["hidden_widths"] == [8, 8]

    def test_rerun_is_bitwise_idempotent(self, tiny_dataset, tmp_path):
        sums = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "2",
                         "--seed", "3", "--out", str(out)]) == 0
            sums.append([sha256_file(out / f) for f in ("checkpoint.json", "train_log.csv")])
        assert sums[0] == sums[1]

    def test_single_identity_dataset_with_triplet_exits_2(self, tmp_path):
        csv = tmp_path / "one.csv"
        csv.write_text("identity,age,v0\n" + "".join(f"A,{i},0.5\n" for i in (1, 2, 3)))
        (tmp_path / "one.meta.json").write_text('{"input_dim": 1, "num_ages": 5}')
        out = tmp_path / "o"
        out.mkdir()
        assert main(["train", "--dataset", str(csv), "--lambda-t", "1",
                     "--epochs", "1", "--out", str(out)]) == 2

    def test_non_json_sidecar_exits_2(self, tiny_dataset, tmp_path, capsys):
        tiny_dataset.with_name("dataset.meta.json").write_text("not json")
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                     "--out", str(out)]) == 2
        assert "error: metadata sidecar" in capsys.readouterr().err

    def test_deeply_nested_sidecar_exits_2(self, tiny_dataset, tmp_path, capsys):
        # json raises RecursionError, not a ValueError, past its nesting limit
        tiny_dataset.with_name("dataset.meta.json").write_text("[" * 200_000)
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                     "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: metadata sidecar")

    @pytest.mark.parametrize("which", ["csv", "sidecar"])
    def test_directory_in_place_of_a_dataset_file_exits_2(self, tiny_dataset, tmp_path,
                                                          capsys, which):
        csv = tmp_path / "d.csv"
        if which == "csv":
            csv.mkdir()
            tiny_dataset.with_name("dataset.meta.json").rename(tmp_path / "d.meta.json")
        else:
            tiny_dataset.rename(csv)
            (tmp_path / "d.meta.json").mkdir()
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(csv), "--epochs", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        name = "dataset file" if which == "csv" else "metadata sidecar"
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {name}"), err

    def test_non_utf8_csv_exits_2(self, tiny_dataset, tmp_path, capsys):
        lines = tiny_dataset.read_bytes().split(b"\n")
        lines[1] = b"\xff\xfe" + lines[1]
        tiny_dataset.write_bytes(b"\n".join(lines))
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                     "--out", str(out)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    def test_diverging_run_exits_2_with_one_error_line(self, tiny_dataset, tmp_path):
        out = tmp_path / "t"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "agecontrast", "train", "--dataset", str(tiny_dataset),
             "--lr", "1e300", "--epochs", "2", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: training diverged at step 2: non-finite logit"]
        assert list(out.iterdir()) == []

    def test_overflowed_last_step_exits_2_without_checkpoint(self, tiny_dataset, tmp_path,
                                                            capsys):
        # 30 rows and batch 64: the one step leaves weights near 1e300, which
        # are finite but overflow the next forward.
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--lr", "1e300",
                     "--epochs", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged at its last step: non-finite logit"]
        assert list(out.iterdir()) == []

    def test_huge_learning_rate_reports_the_exact_cross_entropy(self, tmp_path):
        # lr 1e6 collapses the softmax rows in the first epoch. A floor on the
        # probabilities used to pin l_s near -ln(1e-12) = 27.6 (27.04 here)
        # with a zero gradient; log-sum-exp reports the whole loss.
        out = tmp_path / "t"
        out.mkdir()
        assert main(["gen", "--seed", "0", "--out", str(out)]) == 0
        assert main(["train", "--dataset", str(out / "dataset.csv"), "--lr", "1e6",
                     "--lambda-c", "10", "--lambda-t", "1", "--epochs", "3", "--seed", "0",
                     "--out", str(out)]) == 0
        rows = (out / "train_log.csv").read_text().splitlines()[1:]
        l_s = [float(row.split(",")[1]) for row in rows]
        assert len(l_s) == 3 and all(v > 100.0 for v in l_s), l_s

    def test_non_utf8_config_exits_2(self, tiny_dataset, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"epochs = \xff\n")
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config file {cfg}: byte 9 is not UTF-8 text"]

    def test_directory_config_exits_2(self, tiny_dataset, tmp_path, capsys):
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--config", str(tmp_path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read config file {tmp_path}: Is a directory"]

    def test_schema_keys_are_the_config_fields(self):
        train_keys = {f.name for f in dataclasses.fields(TrainConfig)} - {"weights"}
        weight_keys = {f.name for f in dataclasses.fields(LossWeights)}
        assert set(TRAIN_SCHEMA) == train_keys | weight_keys

    def test_removed_key_exits_2_with_allowed_keys(self, tiny_dataset, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("cosine_form = one_minus\n")
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown config key 'cosine_form'" in err
        assert "allowed keys: " + ", ".join(sorted(TRAIN_SCHEMA)) in err


class TestEval:
    def test_se_folds_and_mean(self, tiny_dataset, tmp_path):
        train_out = tmp_path / "t"
        train_out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "2",
                     "--seed", "2", "--out", str(train_out)]) == 0
        out = tmp_path / "e"
        out.mkdir()
        assert main(["eval", "--checkpoint", str(train_out / "checkpoint.json"),
                     "--dataset", str(tiny_dataset), "--protocol", "se", "--k", "5",
                     "--seed", "0", "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["protocol"] == "se" and len(report["fold_maes"]) == 5
        assert report["mean_mae"] == pytest.approx(
            sum(report["fold_maes"]) / 5, rel=1e-15)
        folds_csv = (out / "eval_folds.csv").read_text().splitlines()
        assert len(folds_csv) == 6

    def test_perfect_oracle_checkpoint_gives_zero_mae(self, tmp_path):
        from test_evaluation import make_oracle_dataset, make_oracle_model
        from agecontrast.data import save_dataset
        from agecontrast.model import save_model

        ds = make_oracle_dataset(5)
        csv = tmp_path / "oracle.csv"
        save_dataset(ds, csv)
        ckpt = tmp_path / "oracle.json"
        save_model(make_oracle_model(5), ckpt)
        out = tmp_path / "e"
        out.mkdir()
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv),
                     "--protocol", "rs", "--k", "2", "--out", str(out)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["fold_maes"] == [0.0, 0.0] and report["mean_mae"] == 0.0

    def test_lopo_infeasible_exits_2(self, tmp_path):
        csv = tmp_path / "one.csv"
        csv.write_text("identity,age,v0\nA,1,0.5\nA,2,0.25\n")
        (tmp_path / "one.meta.json").write_text('{"input_dim": 1, "num_ages": 5}')
        train_out = tmp_path / "t"
        train_out.mkdir()
        assert main(["train", "--dataset", str(csv), "--epochs", "0",
                     "--out", str(train_out)]) == 0
        out = tmp_path / "e"
        out.mkdir()
        assert main(["eval", "--checkpoint", str(train_out / "checkpoint.json"),
                     "--dataset", str(csv), "--protocol", "lopo", "--out", str(out)]) == 2


class TestEvalBoundary:
    """Bad eval/sweep arguments exit 2 with one error line, no traceback."""

    @pytest.fixture()
    def checkpoint(self, tiny_dataset, tmp_path):
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                     "--out", str(out)]) == 0
        return out / "checkpoint.json"

    def _eval(self, checkpoint, dataset, tmp_path, *extra):
        out = tmp_path / "e"
        out.mkdir(exist_ok=True)
        return main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--out", str(out), *extra])

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_k_below_two_exits_2(self, checkpoint, tiny_dataset, tmp_path, capsys, k):
        assert self._eval(checkpoint, tiny_dataset, tmp_path, "--k", k) == 2
        assert "error: --k must be >= 2" in capsys.readouterr().err

    def test_non_json_checkpoint_exits_2(self, tiny_dataset, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert self._eval(bad, tiny_dataset, tmp_path) == 2
        assert "error: cannot read checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        '[]',
        '{"format": "agecontrast-checkpoint-v1"}',
        '{"format": "agecontrast-checkpoint-v1", "config": {"input_dim": 10, '
        '"hidden_widths": [4], "feature_dim": 4, "num_ages": 12}, "parameters": [{}]}',
        *(json.dumps({
            "format": "agecontrast-checkpoint-v1",
            "config": {"input_dim": 10, "hidden_widths": [], "feature_dim": 1, "num_ages": 12},
            "parameters": [{"shape": [10, 1], "data": [0.0] * 9 + [bad]},
                           {"shape": [1], "data": [0.0]},
                           {"shape": [1, 12], "data": [0.0] * 12},
                           {"shape": [12], "data": [0.0] * 12}]})
          for bad in (float("nan"), float("-inf"))),
        pytest.param("[" * 200_000, id="nested-200000"),
    ])
    def test_schema_broken_checkpoint_exits_2(self, tiny_dataset, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert self._eval(bad, tiny_dataset, tmp_path) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot read checkpoint")

    def test_overflowing_checkpoint_exits_2(self, checkpoint, tiny_dataset, tmp_path, capsys):
        model = load_model(checkpoint)
        for p in model.parameters():
            p *= 1e300
        save_model(model, checkpoint)
        assert self._eval(checkpoint, tiny_dataset, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint {checkpoint} overflows" in err
        assert list((tmp_path / "e").iterdir()) == []

    @pytest.mark.parametrize("key", ["input_dim", "num_ages"])
    def test_checkpoint_dataset_mismatch_exits_2(self, checkpoint, tiny_dataset, tmp_path,
                                                 capsys, key):
        config = load_model(checkpoint).config
        changed = dataclasses.replace(config, **{key: getattr(config, key) + 1})
        save_model(init_model(changed, 0), checkpoint)
        assert self._eval(checkpoint, tiny_dataset, tmp_path) == 2
        assert f"error: checkpoint {checkpoint} has {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda config: config.pop("hidden_widths"),   # its default would fit the weights
        lambda config: config.pop("input_dim"),
        lambda config: config.update(dropout=0.5),
    ], ids=["missing-defaulted-key", "missing-key", "unknown-key"])
    def test_checkpoint_config_keys_must_be_exact(self, checkpoint, tiny_dataset, tmp_path,
                                                  capsys, edit):
        payload = json.loads(checkpoint.read_text())
        edit(payload["config"])
        checkpoint.write_text(json.dumps(payload))
        assert self._eval(checkpoint, tiny_dataset, tmp_path) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read checkpoint {checkpoint}")
        assert f"config keys {list(payload['config'])} are not ModelConfig's" in line
        assert list((tmp_path / "e").iterdir()) == []

    @pytest.fixture()
    def three_rows(self, tmp_path):
        csv = tmp_path / "three.csv"
        csv.write_text("identity,age,v0\nA,1,0.5\nB,2,0.25\nC,3,0.0\n")
        (tmp_path / "three.meta.json").write_text('{"input_dim": 1, "num_ages": 5}')
        return csv

    def test_rs_k_above_samples_exits_2(self, three_rows, tmp_path, capsys):
        checkpoint = tmp_path / "c.json"
        save_model(init_model(ModelConfig(1, (2,), 2, 5), 0), checkpoint)
        assert self._eval(checkpoint, three_rows, tmp_path, "--protocol", "rs", "--k", "4") == 2
        assert "error: random split needs >= 4 samples" in capsys.readouterr().err

    def test_sweep_rs_k_above_samples_exits_2(self, three_rows, tmp_path, capsys):
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(three_rows), "--loss-sets", "--protocol", "rs",
                     "--k", "4", "--epochs", "1", "--out", str(out)]) == 2
        assert "error: random split needs >= 4 samples" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_divergence_exits_2(self, tiny_dataset, tmp_path, capfd, jobs):
        # capfd also sees what pool workers write to stderr
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset), "--loss-sets", "--lr", "1e300",
                     "--epochs", "2", "--jobs", jobs, "--out", str(out)]) == 2
        assert capfd.readouterr().err.splitlines() == [
            "error: training diverged at step 2: non-finite logit"]
        assert list(out.iterdir()) == []

    def test_forked_sweep_divergence_exits_2(self, tiny_dataset, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        assert run_in_new_interpreter(
            "sweep", "--dataset", str(tiny_dataset), "--loss-sets", "--lr", "1e300",
            "--epochs", "2", "--jobs", "2", "--out", str(out)) == (
                2, ["error: training diverged at step 2: non-finite logit"])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_overflowing_fold_model_exits_2(self, tiny_dataset, tmp_path, capfd, jobs):
        # one step per fold trains without a non-finite value, but the
        # fold's model then overflows when it is scored, as train reports it
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset), "--loss-sets", "--lr", "1e300",
                     "--epochs", "1", "--jobs", jobs, "--out", str(out)]) == 2
        assert capfd.readouterr().err.splitlines() == [
            "error: training diverged at its last step: non-finite logit"]
        assert list(out.iterdir()) == []

    def test_eval_jobs_flag_is_gone(self, checkpoint, tiny_dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self._eval(checkpoint, tiny_dataset, tmp_path, "--jobs", "2")
        assert exc.value.code == 2

    def test_sweep_zero_jobs_exits_2(self, tiny_dataset, tmp_path, capsys):
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset), "--loss-sets", "--jobs", "0",
                     "--out", str(out)]) == 2
        assert "error: --jobs must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []


# Found first on PYTHONPATH, this ends every process the interpreter forks
# as soon as it starts, as the OOM killer would end a pool worker.
KILL_FORKED_CHILDREN = "import os\nos.register_at_fork(after_in_child=lambda: os._exit(3))\n"

DEAD_WORKER = "error: a worker process died before finishing its job (killed, e.g. out of memory)"


class TestDeadWorker:
    """A pool worker that dies ends gen or sweep with exit 2 and one error
    line, and leaves no process behind."""

    @pytest.fixture()
    def env(self, tmp_path):
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(KILL_FORKED_CHILDREN)
        return {**cli_env(), "PYTHONPATH": os.pathsep.join([str(site), SRC])}

    def test_sweep(self, tiny_dataset, tmp_path, env):
        out = tmp_path / "s"
        out.mkdir()
        assert run_in_new_interpreter(
            "sweep", "--dataset", str(tiny_dataset), "--loss-sets", "--epochs", "1",
            "--k", "2", "--jobs", "2", "--out", str(out), env=env) == (2, [DEAD_WORKER])

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="gen formats on one CPU")
    def test_gen(self, tmp_path, env):
        """...and leaves an earlier gen's files as they were, with no .tmp."""
        # 5,000 rows of 64 values: enough for two CSV workers
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("num_identities = 1000\n")
        out = tmp_path / "g"
        out.mkdir()
        assert run_in_new_interpreter("gen", "--config", str(cfg), "--seed", "1",
                                      "--out", str(out)) == (0, [])
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        assert run_in_new_interpreter("gen", "--config", str(cfg), "--out", str(out),
                                      env=env) == (2, [DEAD_WORKER])
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before


# The files each command writes into its --out directory.
OUTPUTS = {
    "gen": ["dataset.csv", "dataset.meta.json", "dataset.cache.npy", "dataset.truth.json",
            "manifest.json"],
    "train": ["checkpoint.json", "train_log.csv", "manifest.json"],
    "eval": ["eval_report.json", "eval_folds.csv", "manifest.json"],
    "sweep": ["sweep_rows.jsonl", "sweep.csv", "manifest.json"],
}


@pytest.fixture()
def argv(tiny_dataset, tmp_path):
    """Each command's flags but --seed and --out, on the tiny dataset."""
    trained = tmp_path / "t"
    trained.mkdir()
    assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                 "--out", str(trained)]) == 0
    train_flags = ["--dataset", str(tiny_dataset), "--epochs", "1"]
    return {"gen": ["gen", "--config", str(tmp_path / "gen.cfg")],
            "train": ["train", *train_flags],
            "eval": ["eval", "--dataset", str(tiny_dataset),
                     "--checkpoint", str(trained / "checkpoint.json")],
            "sweep": ["sweep", *train_flags, "--loss-sets", "--k", "2"]}


def files(out: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in out.iterdir() if f.is_file()}


def manifest_holds(out: Path) -> bool:
    """Whether out has no manifest.json, or one whose every listed file
    hashes to its recorded sha256."""
    if not (out / "manifest.json").exists():
        return True
    listed = json.loads((out / "manifest.json").read_text())
    return all(sha256_file(path) == digest
               for path, digest in {**listed["inputs"], **listed["outputs"]}.items())


class TestUnwritableOutput:
    """A directory in place of any one output of an earlier run exits 2
    with one error line that names it, and leaves no .tmp file and the
    earlier run's other files, manifest included, as they were."""

    @pytest.mark.parametrize("command, output", [
        (command, output) for command, outputs in OUTPUTS.items() for output in outputs])
    def test_exits_2_with_one_error_line(self, argv, tmp_path, capsys, command, output):
        out = tmp_path / "o"
        out.mkdir()
        assert main([*argv[command], "--seed", "1", "--out", str(out)]) == 0
        (out / output).unlink()
        (out / output).mkdir()
        before = files(out)
        capsys.readouterr()
        assert main([*argv[command], "--seed", "2", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and f"{out / output}'" in line
        assert (out / output).is_dir() and list((out / output).iterdir()) == []
        assert list(tmp_path.rglob("*.tmp")) == []
        assert files(out) == before


class TestCommit:
    """A command's outputs and its manifest.json reach disk together, and
    the manifest times the whole command."""

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_a_failed_move_leaves_no_stale_manifest(self, argv, tmp_path, capsys, monkeypatch,
                                                    command):
        """The k-th move of a run over an earlier one fails, for every k."""
        out = tmp_path / "o"
        out.mkdir()
        replace, moves, fail_at = os.replace, [], 0

        def replace_or_fail(src, dst):
            moves.append(dst)
            if len(moves) == fail_at:
                raise OSError(errno.EIO, os.strerror(errno.EIO), str(src), None, str(dst))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_or_fail)
        for k in range(1, len(OUTPUTS[command]) + 1):
            fail_at = 0
            assert main([*argv[command], "--seed", "1", "--out", str(out)]) == 0
            moves.clear()
            fail_at = k
            capsys.readouterr()
            assert main([*argv[command], "--seed", "2", "--out", str(out)]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and f"'{moves[-1]}'" in line
            assert list(tmp_path.rglob("*.tmp")) == [] and manifest_holds(out)
        assert [Path(m).name for m in moves] == OUTPUTS[command]

    @pytest.mark.parametrize("command", OUTPUTS)
    def test_each_file_is_hashed_once(self, argv, tmp_path, monkeypatch, command):
        """Every file the manifest lists is read once to hash it, an
        output as its .tmp or as itself."""
        reads = Counter()

        def counting_open(path, mode="r", *args, **kwargs):
            if mode == "rb":
                reads[str(path).removesuffix(".tmp")] += 1
            return open(path, mode, *args, **kwargs)

        out = tmp_path / "o"
        out.mkdir()
        monkeypatch.setattr(manifest, "open", counting_open, raising=False)
        assert main([*argv[command], "--out", str(out)]) == 0
        listed = json.loads((out / "manifest.json").read_text())
        assert reads == Counter([*listed["inputs"], *listed["outputs"]])

    def test_the_manifest_times_the_whole_command(self, argv, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        start = datetime.now(timezone.utc)
        assert main([*argv["gen"], "--out", str(out)]) == 0
        end = datetime.now(timezone.utc)
        listed = json.loads((out / "manifest.json").read_text())
        started = datetime.fromisoformat(listed["started_utc"])
        assert start <= started <= started + timedelta(seconds=listed["duration_s"]) <= end


# Found first on PYTHONPATH, this prints "ready" when the CLI first opens a
# dataset sidecar or a dataset.csv.tmp, which it does inside cli.main after
# every import, and "worker" with its pid in each process the interpreter
# forks. A tiny gen ends within milliseconds of that open, so it waits there
# for the signal.
SAY_READY = """
import os, sys, time

def say_ready(event, args, said=[]):
    path = str(args[0]) if event == "open" else ""
    if not said and path.endswith((".meta.json", "dataset.csv.tmp")):
        said.append(True)
        print("ready", flush=True)
        if path.endswith(".tmp"):
            time.sleep(60)

sys.addaudithook(say_ready)
os.register_at_fork(after_in_child=lambda: print("worker", os.getpid(), flush=True))
"""


def ignores(pid: str, signum: int) -> bool:
    """Whether signum is in the process's ignored-signal mask; a process
    that has ended raises FileNotFoundError."""
    with open(f"/proc/{pid}/status") as status:
        mask = next(line for line in status if line.startswith("SigIgn:")).split()[1]
    return bool(int(mask, 16) >> (signum - 1) & 1)


SWEEP = ["sweep", "--dataset", "{dataset}", "--loss-sets", "--epochs", "2000", "--k", "2",
         "--jobs", "2"]
GEN = ["gen", "--config", "{config}", "--seed", "4"]


class TestInterrupt:
    """SIGINT or SIGTERM to a command's process group, or to the command
    alone, ends it with exit 128 + the signal's number and one error line,
    and leaves no process and no .tmp behind, and the files in its --out as
    they were: none, or those of an earlier gen."""

    CASES = [
        pytest.param(["train", "--dataset", "{dataset}", "--epochs", "100000"], 0, True,
                     id="train"),
        pytest.param(SWEEP, 2, True, id="sweep-jobs-2"),
        pytest.param(GEN, 0, True, id="gen"),
        pytest.param(SWEEP, 2, False, id="sweep-jobs-2-parent-only"),
        pytest.param(GEN, 0, False, id="gen-parent-only"),
    ]

    @pytest.fixture()
    def env(self, tmp_path):
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(SAY_READY)
        return {**cli_env(), "PYTHONPATH": os.pathsep.join([str(site), SRC])}

    @pytest.mark.parametrize("argv, workers, to_session", CASES)
    def test_sigint_exits_130(self, tiny_dataset, tmp_path, env, argv, workers, to_session):
        self.interrupt(tiny_dataset, tmp_path, env, argv, workers, signal.SIGINT, to_session)

    @pytest.mark.parametrize("argv, workers, to_session", CASES)
    def test_sigterm_exits_143(self, tiny_dataset, tmp_path, env, argv, workers, to_session):
        self.interrupt(tiny_dataset, tmp_path, env, argv, workers, signal.SIGTERM, to_session)

    @staticmethod
    def interrupt(tiny_dataset, tmp_path, env, argv, workers, signum, to_session):
        # gen runs over the finished gen of tiny_dataset.
        out = tiny_dataset.parent if argv[0] == "gen" else tmp_path / "o"
        out.mkdir(exist_ok=True)
        before = files(out)
        argv = [a.format(dataset=tiny_dataset, config=tmp_path / "gen.cfg") for a in argv]
        proc = subprocess.Popen(
            [sys.executable, "-m", "agecontrast", *argv, "--out", str(out)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        watchdog = threading.Timer(60, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            assert proc.stdout.readline() == "ready\n"
            started = [proc.stdout.readline().split() for _ in range(workers)]
            assert [w[:1] for w in started] == [["worker"]] * workers
            for _, pid in started:  # the hook runs before the worker's initializer
                deadline = time.monotonic() + 30
                while not ignores(pid, signum):
                    assert time.monotonic() < deadline, f"worker {pid} never ignored {signum}"
                    time.sleep(0.01)
            (os.killpg if to_session else os.kill)(proc.pid, signum)
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert (proc.returncode, err.splitlines()) == (128 + signum, ["error: interrupted"])
        deadline = time.monotonic() + 2
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the session outlived it by 2 s"
            time.sleep(0.05)
        assert files(out) == before and list(tmp_path.rglob("*.tmp")) == []


class TestSweep:
    def test_loss_sets_emit_six_rows(self, tiny_dataset, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset), "--loss-sets",
                     "--epochs", "1", "--batch-size", "15", "--protocol", "se",
                     "--k", "2", "--seed", "0", "--out", str(out)]) == 0
        rows = [json.loads(line) for line in
                (out / "sweep_rows.jsonl").read_text().splitlines()]
        assert [r["label"] for r in rows] == [
            "MV", "MV+KLD", "MV+Cosine", "MV+Triplet", "MV+KLD+Triplet",
            "MV+Cosine+Triplet"]
        csv = (out / "sweep.csv").read_text().splitlines()
        assert csv[0] == "label,lambda_c,lambda_t,pair_loss,mean_mae,mu_vf,mu_vs"
        assert len(csv) == 7

    def test_lambda_grid_rows_ordered_by_lambda_c(self, tiny_dataset, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset),
                     "--grid-lambda-c", "0,1,10", "--grid-lambda-t", "0",
                     "--epochs", "1", "--batch-size", "15", "--protocol", "rs",
                     "--k", "2", "--seed", "0", "--out", str(out)]) == 0
        rows = [json.loads(line) for line in
                (out / "sweep_rows.jsonl").read_text().splitlines()]
        assert [r["lambda_c"] for r in rows] == [0.0, 1.0, 10.0]

    def test_jobs_do_not_change_sweep_artifacts(self, tiny_dataset, tmp_path):
        # The second input has the default widths and 300 rows, so a stacked
        # batch of 64 anchors, their positives and negatives makes products
        # above M*N*K = 2**18, where OpenBLAS may use more than one thread.
        cfg = tmp_path / "gen300.cfg"
        cfg.write_text("num_identities = 60\n")
        gen = tmp_path / "gen300"
        gen.mkdir()
        assert main(["gen", "--config", str(cfg), "--seed", "3", "--out", str(gen)]) == 0
        for dataset, batch in ((tiny_dataset, "15"), (gen / "dataset.csv", "64")):
            outputs = []
            for jobs in ("1", "2"):
                out = tmp_path / f"{dataset.parent.name}-jobs{jobs}"
                out.mkdir()
                assert main(["sweep", "--dataset", str(dataset), "--loss-sets",
                             "--epochs", "2", "--batch-size", batch, "--protocol", "se",
                             "--k", "2", "--seed", "1", "--jobs", jobs,
                             "--out", str(out)]) == 0
                outputs.append([(out / name).read_bytes()
                                for name in ("sweep.csv", "sweep_rows.jsonl")])
            assert outputs[0] == outputs[1], dataset

    def test_forked_sweep_writes_the_bytes_of_a_serial_one(self, tiny_dataset, tmp_path):
        outputs, pools = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            out.mkdir()
            assert run_in_new_interpreter(
                "sweep", "--dataset", str(tiny_dataset), "--loss-sets", "--epochs", "2",
                "--batch-size", "15", "--protocol", "se", "--k", "2", "--seed", "1",
                "--jobs", jobs, "--out", str(out)) == (0, [])
            outputs.append([(out / name).read_bytes()
                            for name in ("sweep.csv", "sweep_rows.jsonl")])
            pools.append(json.loads((out / "manifest.json").read_text())["pool"])
        assert outputs[0] == outputs[1]
        assert pools == [
            {"start_method": "in-process", "workers": 1, "openblas_num_threads": "1"},
            {"start_method": "fork", "workers": 2, "openblas_num_threads": "1"}]

    def test_missing_grid_exits_2(self, tiny_dataset, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset), "--out", str(out)]) == 2

    def test_empty_grid_exits_2(self, tiny_dataset, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset),
                     "--grid-lambda-c", "", "--grid-lambda-t", "0",
                     "--out", str(out)]) == 2


class TestRejectedBeforeWork:
    """A value a config dataclass rejects, from a flag or a config file,
    exits 2 with one error line before anything is written."""

    @pytest.fixture()
    def paths(self, tiny_dataset, tmp_path):
        trained = tmp_path / "t"
        trained.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                     "--out", str(trained)]) == 0
        return {"dataset": str(tiny_dataset), "checkpoint": str(trained / "checkpoint.json")}

    @pytest.mark.parametrize("argv, config, message", [
        (["gen", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["gen"], "seed = -1", "seed must be >= 0, got -1"),
        (["gen"], "age_bin_weights = 1, 1, 1, inf", "age_bin_weights must be 4 finite"),
        (["gen"], "age_bin_weights = 1e308, 1e308, 0, 0", "with a positive finite sum"),
        (["gen"], f"input_dim = {2 ** 60}",
         f"cannot allocate 1000 samples of input_dim {2 ** 60}"),
        (["gen"], f"samples_per_identity = {2 ** 60}",
         f"cannot allocate {200 * 2 ** 60} samples of input_dim 64"),
        (["gen"], f"num_identities = {2 ** 60}",
         f"cannot allocate {5 * 2 ** 60} samples of input_dim 64"),
        (["train", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["train"], "seed = -1", "seed must be >= 0, got -1"),
        (["train"], "hidden_widths = 0", "ModelConfig: all dimensions must be >= 1"),
        (["train"], "feature_dim = -1", "ModelConfig: all dimensions must be >= 1"),
        (["train"], f"hidden_widths = {2 ** 60}", f"layer dimensions [10, {2 ** 60}, 64, 12]"),
        (["train"], f"feature_dim = {2 ** 60}", f"layer dimensions [10, 64, {2 ** 60}, 12]"),
        (["sweep", "--loss-sets"], f"hidden_widths = {2 ** 60}", "cannot allocate a model"),
        (["sweep", "--loss-sets", "--jobs", "2"], f"hidden_widths = {2 ** 60}",
         "cannot allocate a model"),
        (["eval", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
        (["sweep", "--loss-sets", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["sweep", "--grid-lambda-c=-1", "--grid-lambda-t", "0"], None,
         "lambda_c must be finite and >= 0, got -1.0"),
        (["sweep", "--grid-lambda-c=nan", "--grid-lambda-t", "0"], None,
         "lambda_c must be finite and >= 0, got nan"),
        (["sweep", "--grid-lambda-c", "0", "--grid-lambda-t=-1"], None,
         "lambda_t must be finite and >= 0, got -1.0"),
        (["sweep", "--grid-lambda-c", "0", "--grid-lambda-t=nan"], None,
         "lambda_t must be finite and >= 0, got nan"),
    ], ids=["gen-flag-seed", "gen-file-seed", "gen-inf-bin-weight", "gen-bin-weight-sum-inf",
            "gen-input-dim-2**60", "gen-samples-per-identity-2**60", "gen-num-identities-2**60",
            "train-flag-seed", "train-file-seed", "hidden-width-0", "feature-dim-neg",
            "hidden-width-2**60", "feature-dim-2**60", "sweep-hidden-width-2**60",
            "sweep-jobs-2-hidden-width-2**60", "eval-flag-seed", "sweep-flag-seed",
            "grid-lambda-c-neg", "grid-lambda-c-nan", "grid-lambda-t-neg", "grid-lambda-t-nan"])
    def test_exits_2_with_one_error_line(self, paths, tmp_path, capsys, argv, config, message):
        inputs = {"gen": [], "eval": ["--dataset", paths["dataset"],
                                      "--checkpoint", paths["checkpoint"]]}
        argv = [*argv, *inputs.get(argv[0], ["--dataset", paths["dataset"], "--epochs", "1"])]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        out = tmp_path / "o"
        out.mkdir()
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    (out / "gen.cfg").write_text(GEN_CFG)
    assert main(["gen", "--config", str(out / "gen.cfg"), "--seed", "3", "--out", str(out)]) == 0
    return out / "dataset.csv"


# Keys a config file may no longer set: any value exits 2 as an unknown key.
REMOVED_TRAIN_KEYS = ["triplets_per_anchor"]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf", "", "x", "1,2", "0.5"])
@pytest.mark.parametrize("command, key", [*(("gen", key) for key in GEN_SCHEMA),
                                          *(("train", key) for key in TRAIN_SCHEMA),
                                          *(("train", key) for key in REMOVED_TRAIN_KEYS)])
def test_any_config_value_exits_0_or_2(tiny_csv, tmp_path, capsys, command, key, value):
    # Sizes stay those of the 30-row set unless the key under test sets one.
    out = tmp_path / "o"
    out.mkdir()
    cfg = tmp_path / "run.cfg"
    if command == "gen":
        kept = [line for line in GEN_CFG.splitlines() if line.split(" = ")[0] != key]
        cfg.write_text("\n".join([*kept, f"{key} = {value}"]) + "\n")
        argv = ["gen"]
    else:
        cfg.write_text(f"{key} = {value}\n")
        epochs = [] if key == "epochs" else ["--epochs", "1"]
        argv = ["train", "--dataset", str(tiny_csv), *epochs]
    code = main([*argv, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert list(out.iterdir()) == []
    if key in REMOVED_TRAIN_KEYS:
        assert code == 2 and err[0].startswith(f"error: unknown config key {key!r}")


@pytest.fixture(scope="module")
def twelve_rows(tmp_path_factory):
    """A 12-row set (input_dim 8, num_ages 10) and an untrained checkpoint for it."""
    out = tmp_path_factory.mktemp("twelve")
    (out / "gen.cfg").write_text("num_identities = 4\nsamples_per_identity = 3\n"
                                 "num_ages = 10\ninput_dim = 8\nidentity_dims = 4\n"
                                 "age_dims = 3\n")
    assert main(["gen", "--config", str(out / "gen.cfg"), "--out", str(out)]) == 0
    assert main(["train", "--dataset", str(out / "dataset.csv"), "--epochs", "0",
                 "--out", str(out)]) == 0
    return out / "dataset.csv", out / "checkpoint.json"


# Raw JSON texts: non-finite, fractional, boolean, string, null, out of
# range, a float too large for a layer, 2**60 and 10**30.
JSON_VALUES = ["Infinity", "-Infinity", "NaN", "8.5", "true", '"8"', "null", "-1", "0",
               "1e30", "1152921504606846976", "1000000000000000000000000000000"]


@pytest.mark.parametrize("value", JSON_VALUES)
@pytest.mark.parametrize("source, key", [
    ("sidecar", "input_dim"), ("sidecar", "num_ages"),
    *(("checkpoint", key) for key in ("input_dim", "hidden_widths", "hidden_widths[0]",
                                      "feature_dim", "num_ages"))])
def test_any_json_dimension_exits_0_or_2(twelve_rows, tmp_path, capsys, source, key, value):
    # sidecar values run `train`, checkpoint values run `eval`
    dataset, checkpoint = twelve_rows
    csv = tmp_path / "dataset.csv"
    csv.write_bytes(dataset.read_bytes())
    meta = {"input_dim": 8, "num_ages": 10}
    payload = json.loads(checkpoint.read_text())
    target = meta if source == "sidecar" else payload["config"]
    if key == "hidden_widths[0]":
        target["hidden_widths"] = ["VALUE"]
    else:
        target[key] = "VALUE"
    (tmp_path / "dataset.meta.json").write_text(json.dumps(meta).replace('"VALUE"', value))
    (tmp_path / "checkpoint.json").write_text(json.dumps(payload).replace('"VALUE"', value))
    out = tmp_path / "o"
    out.mkdir()
    if source == "sidecar":
        argv = ["train", "--dataset", str(csv), "--epochs", "1"]
    else:
        argv = ["eval", "--dataset", str(csv), "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--k", "2"]
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def small_checkpoint(twelve_rows, tmp_path_factory):
    """The 12-row set and the bytes of a checkpoint small enough that a
    mutated byte often lands in its JSON structure."""
    out = tmp_path_factory.mktemp("mutated")
    save_model(init_model(ModelConfig(8, (4,), 3, 10), 0), out / "checkpoint.json")
    return twelve_rows[0], (out / "checkpoint.json").read_bytes(), out


# (kind, position as a fraction of the checkpoint's length, value)
CHECKPOINT_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
    st.tuples(st.just("replace"), st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
    st.tuples(st.just("nest"), st.just(0.0), st.integers(1, 250_000)))


def mutate(raw: bytes, kind: str, at: float, value: int) -> bytes:
    i = int(at * len(raw))
    if kind == "truncate":
        return raw[:i]
    if kind == "replace":
        return raw[:i] + bytes([value]) + raw[i + 1:]
    return b"[" * value + raw


@settings(max_examples=40, deadline=None)
@example(mutation=("nest", 0.0, 200_000))
@given(mutation=CHECKPOINT_MUTATIONS)
def test_mutated_checkpoint_exits_0_or_2(small_checkpoint, mutation):
    dataset, raw, out = small_checkpoint
    checkpoint = out / "mutated.json"
    checkpoint.write_bytes(mutate(raw, *mutation))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                     "--k", "2", "--out", str(out)])
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestArtifactKeyOrder:
    """The config dataclasses' field order defines these artifacts' bytes
    (through ``dataclasses.asdict``); a reordered field must fail here."""

    TRAIN = ["learning_rate", "epochs", "batch_size", "weights", "seed", "hidden_widths",
             "feature_dim"]
    WEIGHTS = ["lambda_m", "lambda_v", "lambda_c", "lambda_t", "alpha", "pair_loss"]
    MODEL = ["input_dim", "hidden_widths", "feature_dim", "num_ages"]

    @staticmethod
    def _config(out):
        return json.loads((out / "manifest.json").read_text())["config"]

    def test_gen_manifest(self, tiny_dataset):
        assert list(self._config(tiny_dataset.parent)) == [
            "num_identities", "samples_per_identity", "num_ages", "input_dim", "identity_dims",
            "age_dims", "noise_std", "age_bin_weights", "seed"]

    def test_train_manifest_and_checkpoint(self, tiny_dataset, tmp_path):
        out = tmp_path / "t"
        out.mkdir()
        assert main(["train", "--dataset", str(tiny_dataset), "--epochs", "0",
                     "--out", str(out)]) == 0
        config = self._config(out)
        assert list(config) == self.TRAIN and list(config["weights"]) == self.WEIGHTS
        checkpoint = json.loads((out / "checkpoint.json").read_text())
        assert list(checkpoint["config"]) == self.MODEL

    def test_sweep_manifest_and_rows(self, tiny_dataset, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset), "--grid-lambda-c", "1",
                     "--grid-lambda-t", "0", "--epochs", "1", "--k", "2",
                     "--out", str(out)]) == 0
        config = self._config(out)
        assert list(config) == [*self.TRAIN, "protocol", "k", "cells"]
        assert list(config["weights"]) == self.WEIGHTS
        for line in (out / "sweep_rows.jsonl").read_text().splitlines():
            assert list(json.loads(line)) == [
                "label", "lambda_c", "lambda_t", "pair_loss", "fold_maes", "mean_mae",
                "mu_vf", "mu_vs"]


def test_sweep_seed_from_a_config_file_also_seeds_the_split(tiny_dataset, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("seed = 3\n")
    tables = []
    for name, extra in (("file", ["--config", str(cfg)]), ("flag", ["--seed", "3"])):
        out = tmp_path / name
        out.mkdir()
        assert main(["sweep", "--dataset", str(tiny_dataset), "--grid-lambda-c", "1",
                     "--grid-lambda-t", "0", "--epochs", "1", "--k", "2", *extra,
                     "--out", str(out)]) == 0
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]


def test_readme_names_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config files")[1].split("\n## ")[0]
    tables = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| ") and cells[0].endswith(" key") and cells[0] != "key":
            current = tables.setdefault(cells[0], [])
        elif line.startswith("| `"):
            current.append(cells[0].strip("`"))
    assert tables == {"`gen` key": list(GEN_SCHEMA), "`train`/`sweep` key": list(TRAIN_SCHEMA)}


def poisoned(fn):
    """A (value, pull) function with its value kept and every pulled
    gradient shifted by 0.01 per coordinate: a corrupted gradient for
    selfcheck to name."""
    def wrapped(*args):
        value, pull = fn(*args)
        return value, lambda g: [d + 0.01 * g for d in pull(g)]
    return wrapped


class TestSelfcheck:
    def test_quick_selfcheck_passes(self, capsys):
        assert main(["selfcheck", "--gradient-points", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS gradients.cosine_loss" in out
        assert "all" in out and "checks passed" in out

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_gradient_points_below_one_exits_2(self, capsys, points):
        assert main(["selfcheck", "--gradient-points", points]) == 2
        captured = capsys.readouterr()
        assert "error: --gradient-points must be >= 1" in captured.err
        assert "PASS" not in captured.out

    def test_full_selfcheck_within_budget(self, capsys):
        import time

        started = time.perf_counter()
        assert main(["selfcheck"]) == 0
        assert time.perf_counter() - started < 120.0

    def test_corrupted_gradient_is_named(self, monkeypatch):
        loss_cases = selfcheck._loss_cases

        def cases_with_poisoned_cosine(rng):
            cases = loss_cases(rng)
            make_cosine = cases["cosine_loss"]

            def make_poisoned(batch):
                fn, blocks = make_cosine(batch)
                return poisoned(fn), blocks

            cases["cosine_loss"] = make_poisoned
            return cases

        monkeypatch.setattr(selfcheck, "_loss_cases", cases_with_poisoned_cosine)
        results = selfcheck.run_all(gradient_points=2)
        failing = [r.name for r in results if not r.passed]
        assert failing == ["gradients.cosine_loss"]

    def test_corrupted_end_to_end_is_named(self, monkeypatch):
        # gradients.end_to_end checks the cosine step; gradients.total_loss
        # checks the same function with the KL pair term, left intact here.
        build = selfcheck.build_batch_loss

        def poisoned_build(model, ds, batch, weights):
            return (poisoned(build) if weights.pair_loss == "cosine" else build)(
                model, ds, batch, weights)

        monkeypatch.setattr(selfcheck, "build_batch_loss", poisoned_build)
        results = selfcheck.run_all(gradient_points=2)
        failing = [r.name for r in results if not r.passed]
        assert failing == ["gradients.end_to_end"]


def test_module_invocation_round_trip(tmp_path):
    # exercise the real process entry once
    out = tmp_path / "g"
    out.mkdir()
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CFG)
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "agecontrast", "gen", "--config", str(cfg),
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "dataset.csv").exists()
    bad = subprocess.run(
        [sys.executable, "-m", "agecontrast", "gen", "--out", str(tmp_path / "missing")],
        capture_output=True, text=True, env=env)
    assert bad.returncode == 2
    usage = subprocess.run(
        [sys.executable, "-m", "agecontrast", "--not-a-flag"],
        capture_output=True, text=True, env=env)
    assert usage.returncode == 2
