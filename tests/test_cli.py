import contextlib
import csv
import io
import json
import logging
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molmatch import cli, encoder, meta, metrics
from molmatch.checkpoint import load_checkpoint, save_checkpoint
from molmatch.cli import _save_model, main
from molmatch.episodes import load_registry, sample_episode
from molmatch.meta import finetune_and_predict
from helpers import (
    SCENARIO_CONFIG,
    cli_scenario,
    distinct_smiles,
    first_name_offset,
    poison_first_gradient,
)
from molmatch.config import RunConfig
from molmatch.meta import init_model

# finite boundary values of train's numeric keys: each passes validation
BOUNDARY_RATES = st.sampled_from([0.0, 1e-300, 1.0, 1e39, 1e50, 1e150, 1e300, 1.7e308])

TINY_CONFIG = """\
[train]
max_epochs = 2
batch_tasks = 2
inner_steps = 1
seed = 1
[encoder]
layers = 2
hidden = 8
[protocol]
support_size = 4
query_size = 8
eval_repeats = 2
"""


def tiny_run_config():
    cfg = RunConfig()
    cfg.train.max_epochs = 2
    cfg.train.batch_tasks = 2
    cfg.train.inner_steps = 1
    cfg.train.seed = 1
    cfg.encoder.layers = 2
    cfg.encoder.hidden = 8
    cfg.protocol.support_size = 4
    cfg.protocol.query_size = 8
    cfg.protocol.eval_repeats = 2
    return cfg


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic dataset plus a once-trained tiny checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    config = root / "run.cfg"
    ckpt = root / "model.ckpt"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    assert main(["synth", "--out", str(data), "--train", "3", "--test", "2",
                 "--molecules", "12", "--seed", "0"]) == 0
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(ckpt)]) == 0
    return {"root": root, "data": data, "config": config, "ckpt": ckpt}


@pytest.fixture(scope="module")
def large_tasks(tmp_path_factory):
    """Test tasks of 40 molecules: more than the tiny protocol's two
    episodes (support 4 + at most 8 queries each) can use."""
    data = tmp_path_factory.mktemp("cli-large") / "data"
    assert main(["synth", "--out", str(data), "--train", "0", "--test", "2",
                 "--molecules", "40", "--seed", "0"]) == 0
    return data


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def main_without_warnings(argv):
    """``main(argv)``'s exit code, asserting that the run let no warning
    through: the CLI must silence numpy itself."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # numpy warns once per location otherwise
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code


def one_error_line(capsys):
    """The run's stderr, which must be a single line."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    return err[0]


def unwritable(path, problem):
    """``path``, or one like it, that cannot be written as a file for the
    reason ``problem`` gives: it is a directory, or its directory does
    not exist."""
    if problem == "is a directory":
        path.mkdir()
        return path
    return path.parent / "absent" / path.name


def assert_refused_before_work(capsys, bad, problem):
    """Nothing on stdout and one ``data error`` line naming ``bad``."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"data error: {bad}: {problem}"]


def task_file_smiles(workspace, split, index):
    task_files = sorted((workspace["data"] / split).glob("*.jsonl"))
    rows = [json.loads(line) for line in task_files[index].read_text().splitlines()]
    return [r["smiles"] for r in rows]


def overflowing_checkpoint(tmp_path):
    """A tiny checkpoint whose weights are all 1e30: finite as stored, but
    the forward pass overflows."""
    cfg = tiny_run_config()
    model = init_model(cfg)
    model = model.replace_values({k: np.full(t.shape, 1e30) for k, t in model.tensors().items()})
    path = tmp_path / "overflow.ckpt"
    _save_model(path, model, cfg, epoch=0)
    return path


def scaled_encoder_checkpoint(tmp_path, layers=5):
    """A hidden-16 checkpoint whose encoder ``input_w``, ``w1`` and ``w2``
    are scaled by 1e30: finite as stored (float32), but each layer
    multiplies the embeddings by about 1e60, so at 5 layers the frozen
    encoding overflows and at 3 its last level is finite but near 1e210."""
    cfg = tiny_run_config()
    cfg.encoder.layers, cfg.encoder.hidden = layers, 16
    model = init_model(cfg)
    model = model.replace_values({
        name: t.values * 1e30 for name, t in model.tensors().items()
        if name.startswith("encoder.") and name.endswith(("input_w", ".w1", ".w2"))
    })
    path = tmp_path / "scaled.ckpt"
    _save_model(path, model, cfg, epoch=0)
    return path


class TestScenario:
    @pytest.mark.parametrize("share_qk", ["true", "false"])
    def test_every_subcommand_is_deterministic(self, tmp_path, share_qk):
        # the second run builds new tensors at new addresses, so this also
        # keeps maps keyed by tensor identity from leaking into an output
        config = SCENARIO_CONFIG.replace("[matcher]\n", f"[matcher]\nshare_qk = {share_qk}\n")
        first = cli_scenario(tmp_path / "a", config)
        assert len(first) == 16  # 3 layers: 3 PCA files
        assert cli_scenario(tmp_path / "b", config) == first


class TestSynth:
    def test_layout_and_counts(self, workspace):
        data = workspace["data"]
        assert len(list((data / "train").glob("*.jsonl"))) == 3
        assert len(list((data / "test").glob("*.jsonl"))) == 2
        rows = (data / "train" / "synth-0000.jsonl").read_text().splitlines()
        assert len(rows) == 12
        record = json.loads(rows[0])
        assert set(record) == {"smiles", "label"}

    def test_bad_molecule_count_is_config_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "d"), "--molecules", "3"]) == 2

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_root_holding_task_files_is_refused(self, tmp_path, capsys, split):
        # writing into an old dataset would leave its tasks beside the new ones
        out = tmp_path / "st"
        assert main(["synth", "--out", str(out), "--train", "5", "--test", "2",
                     "--molecules", "12"]) == 0
        (out / "valid" / "mine.jsonl").write_text("", encoding="utf-8")
        for other in {"train", "valid", "test"} - {split}:
            for path in (out / other).glob("*.jsonl"):
                path.unlink()
        before = {p: p.is_file() and p.read_bytes() for p in out.rglob("*")}
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--train", "2", "--test", "1",
                     "--molecules", "12", "--seed", "9"]) == 3
        assert one_error_line(capsys) == (
            f"data error: {out}: already holds task files; synth needs a fresh --out"
        )
        assert {p: p.is_file() and p.read_bytes() for p in out.rglob("*")} == before

    def test_existing_root_without_task_files_is_written(self, tmp_path):
        (tmp_path / "train").mkdir()
        (tmp_path / "train" / "notes.txt").write_text("kept", encoding="utf-8")
        assert main(["synth", "--out", str(tmp_path), "--train", "2", "--test", "1",
                     "--molecules", "12"]) == 0
        assert len(list(tmp_path.rglob("*.jsonl"))) == 3
        assert (tmp_path / "train" / "notes.txt").read_text(encoding="utf-8") == "kept"


class TestTrain:
    def test_checkpoint_and_log_written(self, workspace):
        assert workspace["ckpt"].is_file()
        log_rows = read_csv((workspace["root"] / "model.ckpt.log.csv").read_text())
        assert log_rows[0] == ["epoch", "mean_outer_loss", "wall_seconds", "val_metric"]
        assert len(log_rows) == 3  # two epochs
        assert float(log_rows[1][1]) > 0

    def test_early_stopped_checkpoint_records_best_epoch(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--train", "3", "--valid", "2", "--test", "0",
                     "--molecules", "12", "--seed", "0"]) == 0
        config = tmp_path / "stop.cfg"
        config.write_text(
            TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 20\nearly_stop = true\npatience = 2"),
            encoding="utf-8",
        )
        ckpt = tmp_path / "stop.ckpt"
        assert main(["train", "--config", str(config), "--data", str(data), "--out", str(ckpt)]) == 0
        scores = [float(r[3]) for r in read_csv((tmp_path / "stop.ckpt.log.csv").read_text())[1:]]
        best_epoch = scores.index(max(scores))
        assert best_epoch + 1 < len(scores) < 20  # stopped, and after the best epoch
        assert load_checkpoint(ckpt)[1]["epoch"] == best_epoch + 1
        assert f"best validation after epoch {best_epoch + 1}" in capsys.readouterr().err

    @staticmethod
    def early_stop_run(tmp_path, valid_lines=None):
        """Synthetic data with a valid split, optionally cut to its first
        ``valid_lines`` examples, and an early-stopping config."""
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--train", "3", "--valid", "1", "--test", "0",
                     "--molecules", "12", "--seed", "0"]) == 0
        if valid_lines is not None:
            (task,) = (data / "valid").glob("*.jsonl")
            task.write_text("".join(task.read_text().splitlines(True)[:valid_lines]))
        config = tmp_path / "stop.cfg"
        config.write_text(
            TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 30\nearly_stop = true\npatience = 3"),
            encoding="utf-8",
        )
        return ["train", "--config", str(config), "--data", str(data),
                "--out", str(tmp_path / "m.ckpt")]

    def test_no_usable_validation_task_is_data_error(self, tmp_path, capsys):
        argv = self.early_stop_run(tmp_path, valid_lines=3)  # cannot field a 4-example support
        capsys.readouterr()
        assert main(argv) == 3
        assert "no valid task can satisfy" in one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "stop.cfg"]

    def test_numerical_error_while_validating_is_numerical_abort(self, tmp_path, monkeypatch,
                                                                 capsys):
        argv = self.early_stop_run(tmp_path)
        capsys.readouterr()

        calls = []
        real = meta._match_rows

        def overflowing(*args):
            calls.append(args)
            probs, attention, ok = real(*args)
            return probs, attention, np.zeros_like(ok)

        monkeypatch.setattr(meta, "_match_rows", overflowing)
        assert main(argv) == 4
        assert one_error_line(capsys) == "numerical abort: task synth-0003: non-finite prediction"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "stop.cfg"]
        assert len(calls) == 1

    def test_single_class_validation_queries_are_data_error(self, tmp_path, capsys):
        argv = self.early_stop_run(tmp_path)
        (task,) = (tmp_path / "data" / "valid").glob("*.jsonl")
        rows = [json.loads(line) for line in task.read_text().splitlines()[:6]]
        # two positives: the balanced 4-example support takes both
        task.write_text("".join(
            json.dumps({"smiles": r["smiles"], "label": int(i < 2)}) + "\n" for i, r in enumerate(rows)
        ))
        capsys.readouterr()
        assert main(argv) == 3
        assert "both classes in its queries" in one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "stop.cfg"]

    def test_repeated_runs_give_equal_logs_apart_from_wall_seconds(self, tmp_path, capsys):
        # README's determinism promise: wall_seconds is the log's one timing column
        argv = self.early_stop_run(tmp_path)
        logs = []
        for run in ("a", "b"):
            assert main(argv[:-1] + [str(tmp_path / f"{run}.ckpt")]) == 0
            rows = read_csv((tmp_path / f"{run}.ckpt.log.csv").read_text())
            timing = rows[0].index("wall_seconds")
            logs.append([row[:timing] + row[timing + 1 :] for row in rows])
        capsys.readouterr()
        assert logs[0] == logs[1]
        assert logs[0][0] == ["epoch", "mean_outer_loss", "val_metric"]
        assert all(row[2] for row in logs[0][1:])  # validation scored every epoch

    def test_retraining_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "again.ckpt"
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(again)]) == 0
        assert again.read_bytes() == workspace["ckpt"].read_bytes()

    def test_workers_env_override(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("MOLMATCH_WORKERS", "3")
        workers = []

        def spy(registry, cfg, **kwargs):
            workers.append(cfg.train.workers)
            return meta.meta_train(registry, cfg, **kwargs)

        monkeypatch.setattr(cli, "meta_train", spy)
        out = tmp_path / "workers.ckpt"
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(out)]) == 0
        assert workers == [3]
        # merged in slot order, and the worker count stays out of the file
        assert out.read_bytes() == workspace["ckpt"].read_bytes()

    def test_checkpoint_bytes_do_not_depend_on_workers(self, workspace, tmp_path):
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.ckpt"
            assert main(["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                         "--out", str(out), "--workers", workers]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert "workers" not in load_checkpoint(out)[1]["config"]["train"]

    def test_a_snapshot_carrying_workers_still_loads(self, workspace, tmp_path):
        tensors, metadata = load_checkpoint(workspace["ckpt"])
        metadata["config"]["train"]["workers"] = 2
        old = tmp_path / "old.ckpt"
        save_checkpoint(old, tensors, metadata)
        assert cli._load_model(old)[1].train.workers == 2

    def test_bad_workers_env_is_config_error(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("MOLMATCH_WORKERS", "several")
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_zero_workers_env_names_the_config_key(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MOLMATCH_WORKERS", "0")
        capsys.readouterr()
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(tmp_path / "x.ckpt")]) == 2
        assert one_error_line(capsys) == "config error: train.workers must be >= 1"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["out", "log"])
    @pytest.mark.parametrize("problem", ["its directory does not exist", "is a directory"])
    def test_unwritable_output_path_is_data_error_before_training(
        self, workspace, tmp_path, monkeypatch, capsys, bad, problem
    ):
        calls = []
        real = cli.meta_train
        monkeypatch.setattr(cli, "meta_train", lambda *a, **k: calls.append(a) or real(*a, **k))
        paths = {"out": tmp_path / "m.ckpt", "log": tmp_path / "m.log.csv"}
        paths[bad] = unwritable(paths[bad], problem)
        made = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--out", str(paths["out"]), "--log", str(paths["log"])]) == 3
        assert one_error_line(capsys) == f"data error: {paths[bad]}: {problem}"
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == made

    @pytest.mark.parametrize("log_name", ["m.ckpt", "./m.ckpt", "sub/../m.ckpt"])
    def test_log_naming_the_checkpoint_is_config_error_before_reading_data(
        self, workspace, tmp_path, monkeypatch, capsys, log_name
    ):
        # the log would overwrite the checkpoint written just before it
        calls = []
        monkeypatch.setattr(cli, "load_registry", lambda *a, **k: calls.append(a))
        (tmp_path / "sub").mkdir()
        out = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--out", str(out), "--log", f"{tmp_path}/{log_name}"]) == 2
        assert one_error_line(capsys) == f"config error: --log and --out name the same file: {out}"
        assert calls == []
        assert not out.exists()

    def test_unknown_config_key_is_config_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nlearning_rate = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_negative_seed_is_config_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "x.ckpt"), "--seed", "-1"]) == 2

    def test_infinite_rate_is_config_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "inf.cfg"
        config.write_text(TINY_CONFIG.replace("[train]", "[train]\nmeta_lr = inf"), encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(config), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 2
        assert "train.meta_lr must be finite" in one_error_line(capsys)
        assert not out.exists()

    def test_weights_not_finite_as_float32_are_numerical_abort(self, workspace, tmp_path, capsys):
        # a meta_lr of 1e39 passes validation, and its step leaves finite
        # float64 weights past float32's range
        config = tmp_path / "huge.cfg"
        config.write_text(
            TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 1\nmeta_lr = 1e39"),
            encoding="utf-8",
        )
        out = tmp_path / "m.ckpt"
        code = main_without_warnings(["train", "--config", str(config),
                                      "--data", str(workspace["data"]), "--out", str(out)])
        assert code == 4
        line = one_error_line(capsys)
        assert line.startswith("numerical abort: weight ") and "not finite as stored" in line
        assert list(tmp_path.iterdir()) == [config]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_outer_step_is_one_line_numerical_abort(self, workspace, tmp_path,
                                                                 capsys, workers):
        # a meta_lr of 1e100 leaves finite weights that overflow the next
        # epoch's graph-tracked encoder, in the pool's threads at workers 2
        config = tmp_path / "huge.cfg"
        config.write_text(TINY_CONFIG.replace("[train]", "[train]\nmeta_lr = 1e100"),
                          encoding="utf-8")
        code = main_without_warnings(["train", "--config", str(config),
                                      "--data", str(workspace["data"]),
                                      "--out", str(tmp_path / "m.ckpt"), "--workers", str(workers)])
        assert code == 4
        line = one_error_line(capsys)
        assert line.startswith("numerical abort: task ")
        assert list(tmp_path.iterdir()) == [config]

    def test_overflowing_optimizer_step_is_numerical_abort(self, workspace, tmp_path, capsys):
        # a meta_lr of 1e308 overflows the first Adam step to infinite weights
        config = tmp_path / "huge.cfg"
        config.write_text(
            TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 1\nmeta_lr = 1e308"),
            encoding="utf-8",
        )
        code = main_without_warnings(["train", "--config", str(config),
                                      "--data", str(workspace["data"]),
                                      "--out", str(tmp_path / "m.ckpt")])
        assert code == 4
        line = one_error_line(capsys)
        assert line.startswith("numerical abort: epoch 0: non-finite weight ")
        assert line.endswith(" after the optimizer step")
        assert list(tmp_path.iterdir()) == [config]

    def test_overflowing_inner_step_is_one_line_numerical_abort(self, workspace, tmp_path,
                                                                 capsys):
        # an inner rate of 1e300 overflows the adapted w, so the next inner
        # step's match overflows to a NaN loss
        config = tmp_path / "huge.cfg"
        config.write_text(
            TINY_CONFIG.replace("max_epochs = 2", "max_epochs = 1\nalpha = 1e300"),
            encoding="utf-8",
        )
        code = main_without_warnings(["train", "--config", str(config),
                                      "--data", str(workspace["data"]),
                                      "--out", str(tmp_path / "m.ckpt")])
        assert code == 4
        line = one_error_line(capsys)
        assert line.startswith("numerical abort: task ")
        assert line.endswith(": non-finite inner loss nan")
        assert list(tmp_path.iterdir()) == [config]

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(alpha=BOUNDARY_RATES, meta_lr=BOUNDARY_RATES, weight_decay=BOUNDARY_RATES,
           workers=st.sampled_from([1, 2]), epochs=st.sampled_from([1, 2]))
    def test_numeric_keys_train_or_abort_in_one_line(self, workspace, tmp_path_factory, alpha,
                                                     meta_lr, weight_decay, workers, epochs):
        root = tmp_path_factory.mktemp("fuzz")
        config = root / "fuzz.cfg"
        config.write_text(TINY_CONFIG.replace(
            "max_epochs = 2",
            f"max_epochs = {epochs}\nalpha = {alpha!r}\nmeta_lr = {meta_lr!r}\n"
            f"weight_decay = {weight_decay!r}\nworkers = {workers}",
        ), encoding="utf-8")
        out = root / "m.ckpt"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main_without_warnings(["train", "--config", str(config),
                                          "--data", str(workspace["data"]), "--out", str(out)])
        assert code in (0, 4)
        (line,) = err.getvalue().splitlines()
        if code == 0:
            assert line.startswith(f"saved checkpoint to {out} ")
        else:
            assert line.startswith("numerical abort: ")
            assert list(root.iterdir()) == [config]

    def test_missing_data_is_data_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "x.ckpt")]) == 3

    def test_non_utf8_config_is_config_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[train]\nseed = \xff\n")
        assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "x.ckpt")]) == 2
        assert one_error_line(capsys).startswith("config error:")


class TestEval:
    def test_csv_shape_and_repeatability(self, workspace, capsys):
        argv = ["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"])]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

        rows = read_csv(first)
        header = rows[0]
        assert header[:4] == ["task_id", "protocol", "support_size", "repeats"]
        for name in ("auroc", "auprc", "delta_auprc"):
            assert f"{name}_mean" in header
            assert f"{name}_std" in header  # repeats = 2 includes spread
        assert rows[-1][0] == "ALL"
        assert {r[0] for r in rows[1:-1]} == {"synth-0003", "synth-0004"}
        auroc_col = header.index("auroc_mean")
        for row in rows[1:]:
            if row[auroc_col]:
                assert 0.0 <= float(row[auroc_col]) <= 1.0

    def test_single_repeat_drops_spread_columns(self, workspace, capsys):
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"]),
                     "--repeats", "1"]) == 0
        header = read_csv(capsys.readouterr().out)[0]
        assert "auroc_mean" in header
        assert "auroc_std" not in header and "auroc_se" not in header

    def test_missing_checkpoint_is_data_error(self, workspace, tmp_path):
        assert main(["eval", "--ckpt", str(tmp_path / "absent.ckpt"),
                     "--data", str(workspace["data"])]) == 3

    def test_unsatisfiable_support_size_is_data_error(self, workspace, capsys):
        # no synthetic task can field a 40-example balanced support
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"]),
                     "--support-size", "40"]) == 3
        capsys.readouterr()

    def test_odd_balanced_support_size_is_config_error(self, workspace, tmp_path, capsys):
        eval_argv = ["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"]),
                     "--support-size", "7"]
        assert main(eval_argv) == 2
        assert one_error_line(capsys) == (
            "config error: protocol.support_size must be even for balanced sampling"
        )
        assert main(eval_argv + ["--protocol", "unbalanced"]) == 0
        assert read_csv(capsys.readouterr().out)[-1][0] == "ALL"
        config = tmp_path / "odd.cfg"
        config.write_text(TINY_CONFIG.replace("support_size = 4", "support_size = 7"),
                          encoding="utf-8")
        assert main(["train", "--config", str(config), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "x.ckpt")]) == 2
        assert one_error_line(capsys).startswith("config error:")

    def test_non_utf8_task_file_is_data_error(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        (data / "test" / "latin1.jsonl").write_bytes(b'{"smiles": "C\xe9", "label": 1}\n')
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(data)]) == 3
        assert one_error_line(capsys).startswith("data error:")

    def test_unread_splits_are_not_parsed(self, workspace, tmp_path, capsys, caplog):
        # eval parses only its --split: a malformed line in a train file
        # draws no warning and leaves the CSV as the clean registry gives it
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        argv = ["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(data)]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        with open(data / "train" / "synth-0000.jsonl", "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            assert main(argv) == 0
            assert capsys.readouterr().out == clean
            assert "synth-0000.jsonl" not in caplog.text
            assert main(argv + ["--split", "train"]) == 0
            capsys.readouterr()
            assert "synth-0000.jsonl line 13 skipped" in caplog.text

    def test_duplicate_id_in_an_unread_split_is_data_error(self, workspace, tmp_path, capsys):
        # the cross-split id check reads file names, so it covers every split
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        shutil.copy(data / "test" / "synth-0003.jsonl", data / "train" / "synth-0003.jsonl")
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(data)]) == 3
        assert one_error_line(capsys) == (
            "data error: task id 'synth-0003' appears in both 'train' and 'test'"
        )

    def test_corrupt_tensor_name_is_data_error(self, workspace, tmp_path, capsys):
        raw = bytearray(workspace["ckpt"].read_bytes())
        raw[first_name_offset(raw)] = 0xFF  # never valid UTF-8
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(bytes(raw))
        assert main(["eval", "--ckpt", str(corrupt), "--data", str(workspace["data"])]) == 3
        assert "bad tensor name" in capsys.readouterr().err

    def test_snapshot_with_deleted_taskrel_keys_evaluates(self, workspace, tmp_path, capsys):
        # checkpoints written while taskrel had eta and normalize, and the
        # matcher had heads, still load
        tensors, meta = load_checkpoint(workspace["ckpt"])
        meta["config"]["taskrel"].update(eta=0.0, normalize=True)
        meta["config"]["matcher"]["heads"] = 1
        legacy = tmp_path / "legacy.ckpt"
        save_checkpoint(legacy, tensors, meta)
        for ckpt in (workspace["ckpt"], legacy):
            assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace["data"])]) == 0
        current, old = capsys.readouterr().out.split("task_id,")[1:]
        assert current == old

    @pytest.mark.parametrize("data", ["data", "large_data"])
    def test_cached_task_rows_match_graph_path(self, workspace, large_tasks, data, monkeypatch,
                                               capsys):
        worst = []
        real = cli.score_task

        def checked(model, task, cfg, seeds):
            scored = real(model, task, cfg, seeds)
            for seed, (scores, _) in zip(seeds, scored):
                episode = sample_episode(task, cfg.protocol, seed)
                encoded = finetune_and_predict(
                    model, episode.support, [g for g, _ in episode.query], cfg, [*seed, 1]
                )
                worst.append(float(np.max(np.abs(scores - encoded[:, 0]))))
            return scored

        monkeypatch.setattr(cli, "score_task", checked)
        root = {"data": workspace["data"], "large_data": large_tasks}[data]
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(root)]) == 0
        capsys.readouterr()
        assert len(worst) == 4  # 2 tasks x 2 repeats
        assert max(worst) <= 1e-12

    @staticmethod
    def encoded_batches(monkeypatch, ckpt, data):
        batches = []
        frozen_batch = encoder._frozen_batch

        def counting(graphs, folded):
            batches.append(list(graphs))
            return frozen_batch(graphs, folded)

        monkeypatch.setattr(encoder, "_frozen_batch", counting)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
        return batches

    def test_each_task_molecule_encoded_once(self, workspace, monkeypatch, capsys):
        seen = sum(self.encoded_batches(monkeypatch, workspace["ckpt"], workspace["data"]), [])
        capsys.readouterr()
        assert len({id(g) for g in seen}) == len(seen)
        # 12-molecule tasks: every episode uses the whole task
        expected = [s for i in range(2) for s in task_file_smiles(workspace, "test", i)]
        assert sorted(g.source_smiles for g in seen) == sorted(expected)

    def test_large_tasks_encode_only_sampled_molecules(self, workspace, large_tasks, monkeypatch,
                                                       capsys):
        batches = self.encoded_batches(monkeypatch, workspace["ckpt"], large_tasks)
        capsys.readouterr()
        _, cfg = cli._load_model(workspace["ckpt"])
        expected = []
        for task_idx, task in enumerate(sorted(load_registry(large_tasks).split_tasks("test"),
                                               key=lambda t: t.task_id)):
            used = set()
            for rep in range(cfg.protocol.eval_repeats):
                episode = sample_episode(task, cfg.protocol, cli._eval_seed(cfg.train.seed, task_idx, rep))
                used.update(np.r_[episode.support_idx, episode.query_idx].tolist())
            assert len(used) < len(task.examples)  # tasks outgrow the episodes
            expected += [task.examples[i].graph.source_smiles for i in used]
        seen = sum(batches, [])
        assert len({id(g) for g in seen}) == len(seen)
        assert sorted(g.source_smiles for g in seen) == sorted(expected)
        assert all(
            len(b) == 1 or sum(g.n_atoms for g in b) <= encoder.FROZEN_BATCH_ATOMS for b in batches
        )

    def test_nan_checkpoint_is_numerical_abort(self, workspace, tmp_path, capsys):
        # the attention softmax turns the overflow into NaN inner losses
        code = main_without_warnings(["eval", "--ckpt", str(overflowing_checkpoint(tmp_path)),
                                      "--data", str(workspace["data"])])
        assert code == 4
        assert "non-finite inner loss" in one_error_line(capsys)

    def test_non_finite_prediction_is_numerical_abort(self, workspace, tmp_path, capsys):
        # a one-per-class support leaves no adaptation queries, so only the
        # prediction itself can show the overflow
        code = main_without_warnings(["eval", "--ckpt", str(overflowing_checkpoint(tmp_path)),
                                      "--data", str(workspace["data"]),
                                      "--support-size", "2", "--repeats", "2"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical abort: task synth-0003: non-finite prediction\n"

    def test_poisoned_episode_is_numerical_abort(self, workspace, large_tasks, monkeypatch, capsys):
        # a molecule of the first task's second episode, and not of its
        # first, encodes to NaN
        _, cfg = cli._load_model(workspace["ckpt"])
        task = sorted(load_registry(large_tasks).split_tasks("test"), key=lambda t: t.task_id)[0]
        first, second = (sample_episode(task, cfg.protocol, cli._eval_seed(cfg.train.seed, 0, rep))
                         for rep in range(2))
        candidates = sorted(set(second.support_idx.tolist()) - set(np.r_[first.support_idx,
                                                                         first.query_idx].tolist()))
        poisoned = task.examples[candidates[0]].smiles
        real = meta.encode_frozen

        def poisoning(graphs, params):
            levels = real(graphs, params)
            levels[:, [g.source_smiles == poisoned for g in graphs]] = np.nan
            return levels

        monkeypatch.setattr(meta, "encode_frozen", poisoning)
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(large_tasks)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical abort: task synth-0000: non-finite inner loss nan\n"

    def test_nonfinite_gradient_is_numerical_abort(self, workspace, tmp_path, monkeypatch, capsys):
        poison_first_gradient(monkeypatch)
        assert main(["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.ckpt")]) == 4
        assert "non-finite gradient" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"])]) == 4
        assert "non-finite gradient" in capsys.readouterr().err


class TestTiedScores:
    """A task that lists each molecule twice, with opposite labels, gives
    every such pair of queries one score: ``metrics.auprc`` warns, and the
    CLI turns its warnings into one log line instead of letting them out."""

    @staticmethod
    def tied_data(root):
        data = root / "data"
        assert main(["synth", "--out", str(data), "--train", "3", "--test", "0",
                     "--molecules", "12", "--seed", "0"]) == 0
        for split in ("valid", "test"):
            (data / split).mkdir(exist_ok=True)
            (data / split / f"tied-{split}.jsonl").write_text("".join(
                json.dumps({"smiles": s, "label": y}) + "\n"
                for s in distinct_smiles(20) for y in (0, 1)
            ), encoding="utf-8")
        config = root / "tied.cfg"
        config.write_text(TINY_CONFIG.replace("query_size = 8", "query_size = 64"), encoding="utf-8")
        return data, config

    @staticmethod
    def tie_lines(caplog):
        return [r.getMessage() for r in caplog.records if "tied scores" in r.getMessage()]

    def test_other_warnings_still_show(self, caplog):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            with caplog.at_level(logging.WARNING, logger="molmatch"):
                with cli._ties_logged("task t"):
                    for _ in range(3):
                        metrics.auprc([0.5, 0.5], [0, 1])
                    warnings.warn("unrelated", UserWarning)
        assert [str(w.message) for w in shown] == ["unrelated"]
        assert self.tie_lines(caplog) == [
            "task t: tied scores across classes; AUPRC depends on query order"
        ]

    def test_eval_logs_one_line_per_tied_task(self, workspace, tmp_path, capsys, caplog):
        data, _ = self.tied_data(tmp_path)
        shutil.copy(workspace["data"] / "test" / "synth-0003.jsonl", data / "test")
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            assert main_without_warnings(
                ["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(data)]
            ) == 0
        assert self.tie_lines(caplog) == [
            "task tied-test: tied scores across classes; AUPRC depends on query order"
        ]
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_early_stopping_train_logs_one_line(self, tmp_path, capsys, caplog):
        data, config = self.tied_data(tmp_path)
        config.write_text(config.read_text().replace(
            "max_epochs = 2", "max_epochs = 3\nearly_stop = true\npatience = 5"
        ), encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            assert main_without_warnings(["train", "--config", str(config), "--data", str(data),
                                          "--out", str(tmp_path / "m.ckpt")]) == 0
        assert self.tie_lines(caplog) == [
            "validation: tied scores across classes; AUPRC depends on query order"
        ]
        assert "RuntimeWarning" not in capsys.readouterr().err


class TestPredict:
    def write_inputs(self, workspace, tmp_path):
        support = tmp_path / "support.jsonl"
        lines = (workspace["data"] / "test" / "synth-0003.jsonl").read_text().splitlines()
        support.write_text("\n".join(lines[:8]) + "\n", encoding="utf-8")
        good = task_file_smiles(workspace, "test", 1)[:3]
        query = tmp_path / "query.txt"
        query.write_text("\n".join([good[0], "C(C", good[1], good[0], good[2]]) + "\n",
                         encoding="utf-8")
        return support, query, good

    def test_scores_errors_and_duplicates(self, workspace, tmp_path, capsys):
        support, query, good = self.write_inputs(workspace, tmp_path)
        assert main(["predict", "--ckpt", str(workspace["ckpt"]),
                     "--support", str(support), "--query", str(query)]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert rows[0] == ["smiles", "p_positive", "error"]
        body = rows[1:]
        assert [r[0] for r in body] == [good[0], "C(C", good[1], good[0], good[2]]
        bad_row = body[1]
        assert bad_row[1] == "" and "position" in bad_row[2]
        for row in (body[0], body[2], body[3], body[4]):
            assert row[2] == ""
            assert 0.0 <= float(row[1]) <= 1.0
        # duplicate query scores identically on both rows
        assert body[0][1] == body[3][1]

    def test_attention_export(self, workspace, tmp_path, capsys):
        support, query, _ = self.write_inputs(workspace, tmp_path)
        attn = tmp_path / "attn.csv"
        assert main(["predict", "--ckpt", str(workspace["ckpt"]), "--support", str(support),
                     "--query", str(query), "--attention-out", str(attn)]) == 0
        capsys.readouterr()
        rows = read_csv(attn.read_text())
        assert rows[0][:2] == ["layer", "query_index"]
        assert len(rows[0]) == 2 + 8  # one column per support example
        assert len(rows) == 1 + 2 * 4  # layers x parseable queries
        for row in rows[1:]:
            np.testing.assert_allclose(sum(float(v) for v in row[2:]), 1.0, atol=1e-6)

    @pytest.mark.parametrize("problem", ["its directory does not exist", "is a directory"])
    def test_unwritable_attention_path_is_data_error_before_scoring(
        self, workspace, tmp_path, capsys, problem
    ):
        support, query, _ = self.write_inputs(workspace, tmp_path)
        attn = unwritable(tmp_path / "attn.csv", problem)
        made = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["predict", "--ckpt", str(workspace["ckpt"]), "--support", str(support),
                     "--query", str(query), "--attention-out", str(attn)]) == 3
        assert_refused_before_work(capsys, attn, problem)
        assert sorted(tmp_path.rglob("*")) == made

    def test_config_shape_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        support, query, _ = self.write_inputs(workspace, tmp_path)
        tensors, meta = load_checkpoint(workspace["ckpt"])
        meta["config"]["encoder"]["hidden"] = 5  # the tensors are 8 wide
        mismatched = tmp_path / "mismatched.ckpt"
        save_checkpoint(mismatched, tensors, meta)
        assert main(["predict", "--ckpt", str(mismatched), "--support", str(support),
                     "--query", str(query)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "tensor 'encoder.input_w'" in err

    def test_malformed_support_records_are_skipped(self, workspace, tmp_path, capsys, caplog):
        # a non-string smiles and a JSON true label are malformed lines,
        # so the predictions are those of the eight good records alone
        support, query, _ = self.write_inputs(workspace, tmp_path)
        argv = ["predict", "--ckpt", str(workspace["ckpt"]),
                "--support", str(support), "--query", str(query)]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        with open(support, "a", encoding="utf-8") as fh:
            fh.write('{"smiles": ["C", "C", "O"], "label": 1}\n{"smiles": "CCF", "label": true}\n')
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            assert main(argv) == 0
        assert capsys.readouterr().out == clean
        skipped = ("molmatch", logging.WARNING, "support file: 2 malformed lines skipped")
        assert skipped in caplog.record_tuples
        assert "line 9 skipped: smiles must be a string" in caplog.text
        assert "line 10 skipped: label must be 0 or 1, got true" in caplog.text

    def test_all_malformed_support_is_data_error(self, workspace, tmp_path, capsys):
        support = tmp_path / "support.jsonl"
        support.write_text('{"smiles": "C(C", "label": 1}\nnot json\n', encoding="utf-8")
        query = tmp_path / "query.txt"
        query.write_text("CCO\n", encoding="utf-8")
        assert main(["predict", "--ckpt", str(workspace["ckpt"]),
                     "--support", str(support), "--query", str(query)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["support-latin1", "query-latin1", "query-directory"])
    def test_unreadable_input_is_data_error(self, workspace, tmp_path, capsys, bad):
        support, query, _ = self.write_inputs(workspace, tmp_path)
        if bad == "support-latin1":
            support.write_bytes(b'{"smiles": "C\xe9", "label": 1}\n')
        elif bad == "query-latin1":
            query.write_bytes(b"C\xe9\n")
        else:
            query = tmp_path
        assert main(["predict", "--ckpt", str(workspace["ckpt"]),
                     "--support", str(support), "--query", str(query)]) == 3
        assert one_error_line(capsys).startswith("data error:")

    def test_byte_order_marks_are_skipped(self, workspace, tmp_path, capsys):
        support, query, _ = self.write_inputs(workspace, tmp_path)
        argv = ["predict", "--ckpt", str(workspace["ckpt"]),
                "--support", str(support), "--query", str(query)]
        assert main(argv) == 0
        plain = capsys.readouterr()
        for path in (support, query):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(argv) == 0
        assert capsys.readouterr() == plain

    def test_non_finite_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        tensors, meta = load_checkpoint(workspace["ckpt"])
        tensors["matcher.wq0"][0, 0] = np.inf
        ckpt = tmp_path / "inf.ckpt"
        save_checkpoint(ckpt, tensors, meta)
        support = tmp_path / "support.jsonl"
        lines = (workspace["data"] / "test" / "synth-0003.jsonl").read_text().splitlines()
        labels = [json.loads(line)["label"] for line in lines]
        support.write_text(lines[labels.index(0)] + "\n" + lines[labels.index(1)] + "\n",
                           encoding="utf-8")
        query = tmp_path / "query.txt"
        query.write_text("CCO\nCCN\n", encoding="utf-8")
        assert main(["predict", "--ckpt", str(ckpt), "--support", str(support),
                     "--query", str(query)]) == 3
        line = one_error_line(capsys)
        assert line.startswith("data error: ") and "'matcher.wq0' holds non-finite" in line

    def test_non_finite_prediction_is_numerical_abort(self, workspace, tmp_path, capsys):
        support = tmp_path / "support.jsonl"
        lines = (workspace["data"] / "test" / "synth-0003.jsonl").read_text().splitlines()
        labels = [json.loads(line)["label"] for line in lines]
        support.write_text(lines[labels.index(0)] + "\n" + lines[labels.index(1)] + "\n",
                           encoding="utf-8")
        query = tmp_path / "query.txt"
        query.write_text("CCO\nCCN\n", encoding="utf-8")
        code = main_without_warnings(["predict", "--ckpt", str(overflowing_checkpoint(tmp_path)),
                                      "--support", str(support), "--query", str(query),
                                      "--attention-out", str(tmp_path / "attn.csv")])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical abort: finetune: non-finite prediction\n"
        assert not (tmp_path / "attn.csv").exists()

    def test_overflowing_encoding_is_one_line_numerical_abort(self, workspace, tmp_path, capsys):
        support, query, _ = self.write_inputs(workspace, tmp_path)
        ckpt = scaled_encoder_checkpoint(tmp_path)
        code = main_without_warnings(["predict", "--ckpt", str(ckpt), "--support", str(support),
                                      "--query", str(query)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical abort: task finetune: non-finite inner loss nan\n"

    def test_memory_grows_with_the_outputs_only(self, workspace, tmp_path, capsys):
        # At full width a request encoded as one batch holds about 110 KB
        # per query; streamed through the match, what stays per query is
        # its compact parsed graph and output row, about 2 KB.
        cfg = RunConfig()
        assert cfg.encoder.hidden == 300
        ckpt = tmp_path / "full.ckpt"
        _save_model(ckpt, init_model(cfg), cfg, epoch=0)
        support, _, _ = self.write_inputs(workspace, tmp_path)
        corpus = Path(cli.__file__).with_name("data") / "smiles_corpus.txt"
        smiles = [line.split("\t")[0] for line in corpus.read_text(encoding="utf-8").splitlines()
                  if line and line[0] != "#"]
        peaks = {}
        for n in (256, 1024):
            query = tmp_path / f"query-{n}.txt"
            query.write_text("\n".join(smiles[i % len(smiles)] for i in range(n)) + "\n",
                             encoding="utf-8")
            capsys.readouterr()
            tracemalloc.start()
            try:
                assert main(["predict", "--ckpt", str(ckpt), "--support", str(support),
                             "--query", str(query)]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(read_csv(capsys.readouterr().out)) == 1025
        per_query = (peaks[1024] - peaks[256]) / (1024 - 256)
        assert per_query < 3 * 1024, f"peak grows {per_query / 1024:.2f} KB per query"

    def test_single_class_support_warns(self, workspace, tmp_path, capsys, caplog):
        lines = (workspace["data"] / "test" / "synth-0003.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        positive = [r for r in rows if r["label"] == 1][:4]
        support = tmp_path / "support.jsonl"
        support.write_text("\n".join(json.dumps(r) for r in positive) + "\n", encoding="utf-8")
        query = tmp_path / "query.txt"
        query.write_text(task_file_smiles(workspace, "test", 1)[0] + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            assert main(["predict", "--ckpt", str(workspace["ckpt"]),
                         "--support", str(support), "--query", str(query)]) == 0
        assert "single-class" not in capsys.readouterr().err  # logged, not printed
        assert caplog.record_tuples == [
            ("molmatch", logging.WARNING, "single-class support set; predictions will be degenerate")
        ]


class TestTaskRel:
    def test_matrix_csv_and_sidecar(self, workspace, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        assert main(["taskrel", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out.read_text())
        ids = ["synth-0000", "synth-0001", "synth-0002"]
        assert rows[0] == ["task_id"] + ids
        assert [r[0] for r in rows[1:]] == ids
        matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-9)  # cosine default
        sidecar = json.loads((tmp_path / "rel.csv.meta.jsonl").read_text())
        assert sidecar["metric"] == "cosine"
        assert sidecar["mode"] == "adapted-w-delta"
        assert sidecar["n_tasks"] == 3
        assert sidecar["normalization"] == "none"

    def test_normalized_rows_sum_to_one(self, workspace, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        assert main(["taskrel", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"]),
                     "--out", str(out), "--normalize", "--metric", "euclidean"]) == 0
        capsys.readouterr()
        rows = read_csv(out.read_text())
        matrix = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-8)
        assert json.loads((tmp_path / "rel.csv.meta.jsonl").read_text())["normalization"] == "softmax"

    @pytest.mark.parametrize("metric", ["cosine", "dot", "euclidean"])
    def test_zero_task_vectors_are_data_error(self, workspace, tmp_path, capsys, metric):
        # with alpha = 0 adaptation never moves w, so every adapted-w-delta
        # vector is zero and relates its task to none
        cfg = tiny_run_config()
        cfg.train.alpha = 0.0
        ckpt = tmp_path / "still.ckpt"
        _save_model(ckpt, init_model(cfg), cfg, epoch=0)
        out = tmp_path / "rel.csv"
        assert main(["taskrel", "--ckpt", str(ckpt), "--data", str(workspace["data"]),
                     "--out", str(out), "--metric", metric]) == 3
        line = one_error_line(capsys)
        assert line.startswith("data error: ") and "task 'synth-0000' has a zero vector" in line
        assert not out.exists()

    @pytest.mark.parametrize("layers, metric, error", [
        (5, "cosine", "task synth-0000: non-finite mean support embedding"),
        (3, "dot", "dot relation matrix is not finite"),  # vectors near 1e210
    ])
    def test_non_finite_support_embedding_is_numerical_abort(
        self, workspace, tmp_path, capsys, layers, metric, error
    ):
        ckpt = scaled_encoder_checkpoint(tmp_path, layers)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["taskrel", "--ckpt", str(ckpt), "--data", str(workspace["data"]),
                     "--out", str(out / "rel.csv"), "--mode", "mean-support-embedding",
                     "--metric", metric])
        assert code == 4
        assert one_error_line(capsys) == f"numerical abort: {error}"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bad, problem", [
        ("matrix", "its directory does not exist"),
        ("matrix", "is a directory"),
        ("sidecar", "is a directory"),
    ])
    def test_unwritable_output_path_is_data_error_before_any_work(
        self, workspace, tmp_path, capsys, bad, problem
    ):
        out = tmp_path / "rel.csv"
        if bad == "matrix":
            out = path = unwritable(out, problem)
        else:
            path = unwritable(tmp_path / "rel.csv.meta.jsonl", problem)
        made = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["taskrel", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 3
        assert_refused_before_work(capsys, path, problem)
        assert sorted(tmp_path.rglob("*")) == made

    def test_too_few_tasks_is_data_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        assert main(["taskrel", "--ckpt", str(workspace["ckpt"]), "--data", str(workspace["data"]),
                     "--out", str(out), "--split", "valid"]) == 3
        capsys.readouterr()


class TestExportEmbeddings:
    def test_embeddings_and_pca_outputs(self, workspace, tmp_path, capsys):
        smiles = task_file_smiles(workspace, "train", 0)[:5]
        src = tmp_path / "mols.txt"
        src.write_text("\n".join(smiles) + "\n", encoding="utf-8")
        out = tmp_path / "emb.csv"
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]),
                     "--smiles", str(src), "--out", str(out), "--pca", "2"]) == 0
        capsys.readouterr()
        rows = read_csv(out.read_text())
        assert rows[0][:3] == ["molecule_index", "smiles", "layer"]
        assert len(rows[0]) == 3 + 8
        assert len(rows) == 1 + 5 * 2  # molecules x layers
        for layer in (1, 2):
            pca_rows = read_csv((tmp_path / f"emb.pca_layer{layer}.csv").read_text())
            assert pca_rows[0] == ["molecule_index", "pc_1", "pc_2"]
            assert len(pca_rows) == 6
        var_rows = read_csv((tmp_path / "emb.pca_variance.csv").read_text())
        assert var_rows[0] == ["layer", "component", "explained_variance_ratio"]
        assert len(var_rows) == 1 + 2 * 2

    @pytest.mark.parametrize("layers, pca, error", [
        (5, None, "embeddings are not finite"),
        (5, "2", "embeddings are not finite"),
        (3, "2", "PCA of layer 3 is not finite"),
    ])
    def test_non_finite_output_is_numerical_abort_writing_nothing(
        self, workspace, tmp_path, capsys, layers, pca, error
    ):
        src = tmp_path / "mols.txt"
        src.write_text("CCO\nCCN\nc1ccccc1\nCC(=O)O\n", encoding="utf-8")
        ckpt = scaled_encoder_checkpoint(tmp_path, layers)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["export-embeddings", "--ckpt", str(ckpt), "--smiles", str(src),
                "--out", str(out / "e.csv")]
        assert main(argv + (["--pca", pca] if pca else [])) == 4
        assert one_error_line(capsys) == f"numerical abort: {error}"
        assert list(out.iterdir()) == []

    def test_oversized_pca_is_config_error(self, workspace, tmp_path, capsys):
        src = tmp_path / "mols.txt"
        src.write_text("CCO\nCCC\n", encoding="utf-8")
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]),
                     "--smiles", str(src), "--out", str(tmp_path / "e.csv"), "--pca", "99"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_nonpositive_pca_writes_nothing(self, workspace, tmp_path, capsys, k):
        src = tmp_path / "mols.txt"
        src.write_text("CCO\nCCC\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]),
                     "--smiles", str(src), "--out", str(out / "e.csv"), "--pca", k]) == 2
        assert "--pca must be in [1, 2]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("problem", ["its directory does not exist", "is a directory"])
    def test_unwritable_output_path_is_data_error_before_encoding(
        self, workspace, tmp_path, capsys, problem
    ):
        src = tmp_path / "mols.txt"
        src.write_text("CCO\nCCC\n", encoding="utf-8")
        out = unwritable(tmp_path / "e.csv", problem)
        made = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]),
                     "--smiles", str(src), "--out", str(out)]) == 3
        assert_refused_before_work(capsys, out, problem)
        assert sorted(tmp_path.rglob("*")) == made

    @pytest.mark.parametrize("name", ["e.pca_layer2.csv", "e.pca_variance.csv"])
    def test_unwritable_pca_path_is_data_error_before_encoding(
        self, workspace, tmp_path, capsys, name
    ):
        src = tmp_path / "mols.txt"
        src.write_text("CCO\nCCC\n", encoding="utf-8")
        bad = unwritable(tmp_path / name, "is a directory")
        made = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]), "--smiles", str(src),
                     "--out", str(tmp_path / "e.csv"), "--pca", "2"]) == 3
        assert_refused_before_work(capsys, bad, "is a directory")
        assert sorted(tmp_path.rglob("*")) == made

    def test_unparseable_input_is_data_error(self, workspace, tmp_path, capsys):
        src = tmp_path / "mols.txt"
        src.write_text("C(C\n)(\n", encoding="utf-8")
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]),
                     "--smiles", str(src), "--out", str(tmp_path / "e.csv")]) == 3
        capsys.readouterr()


PREDICT = ["predict", "--ckpt", "{ckpt}", "--support", "{support}", "--query", "{query}"]


class TestOutputNamingAnInput:
    """An output that resolves to a file the command reads is refused
    before any data is read: exit 2, one line, nothing written."""

    @pytest.fixture
    def inputs(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        paths = {"dir": tmp_path, "data": data, "task": data / "train" / "synth-0000.jsonl"}
        for name in ("ckpt", "config"):
            paths[name] = tmp_path / workspace[name].name
            shutil.copy(workspace[name], paths[name])
        paths["support"] = tmp_path / "support.jsonl"
        shutil.copy(data / "test" / "synth-0003.jsonl", paths["support"])
        paths["query"] = tmp_path / "query.txt"
        paths["query"].write_text("\n".join(task_file_smiles(workspace, "test", 1)) + "\n",
                                  encoding="utf-8")
        return paths

    # the output is the last argument; the victim is the input it names
    @pytest.mark.parametrize("argv, victim", [
        (["taskrel", "--ckpt", "{ckpt}", "--data", "{data}", "--out", "{dir}/./model.ckpt"], "ckpt"),
        (["taskrel", "--ckpt", "{ckpt}", "--data", "{data}", "--out", "{task}"], "task"),
        (PREDICT + ["--attention-out", "{ckpt}"], "ckpt"),
        (PREDICT + ["--attention-out", "{query}"], "query"),
        (PREDICT + ["--attention-out", "{support}"], "support"),
        (["export-embeddings", "--ckpt", "{ckpt}", "--smiles", "{query}", "--out", "{query}"],
         "query"),
        (["train", "--config", "{config}", "--data", "{data}", "--out", "{task}"], "task"),
        (["train", "--config", "{config}", "--data", "{data}", "--out", "{config}"], "config"),
        (["train", "--config", "{config}", "--data", "{data}", "--out", "{dir}/new.ckpt",
          "--log", "{task}"], "task"),
    ], ids=["taskrel-ckpt", "taskrel-task-file", "predict-ckpt", "predict-query", "predict-support",
            "export-smiles", "train-task-file", "train-config", "train-log-task-file"])
    def test_is_config_error_leaving_the_input_intact(
        self, inputs, monkeypatch, capsys, argv, victim
    ):
        calls = []
        for name in ("load_registry", "_load_model"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        argv = [arg.format(**inputs) for arg in argv]
        before = inputs[victim].read_bytes()
        made = sorted(inputs["dir"].rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {argv[-1]}: is an input of this command"
        ]
        assert calls == []
        assert inputs[victim].read_bytes() == before
        assert sorted(inputs["dir"].rglob("*")) == made


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--data", "x"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["train", "--data", "d", "--out", "o"],
        ["eval", "--ckpt", "c", "--data", "d"],
        ["predict", "--ckpt", "c", "--support", "s", "--query", "q"],
        ["taskrel", "--ckpt", "c", "--data", "d", "--out", "o"],
        ["synth", "--out", "o"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_a_bad_flag(self, command, capsys):
        assert main(command + ["--seed", "-1"]) == 2
        assert "--seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
