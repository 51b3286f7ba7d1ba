import csv
import io
import json

import numpy as np
import pytest

from molmatch import cli, encoder
from molmatch.checkpoint import load_checkpoint
from molmatch.cli import _save_model, main
from molmatch.encoder import encode_multilevel
from molmatch.episodes import load_registry
from molmatch.meta import finetune_and_predict
from helpers import first_name_offset
from molmatch.config import RunConfig
from molmatch.meta import init_model

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


def task_file_smiles(workspace, split, index):
    task_files = sorted((workspace["data"] / split).glob("*.jsonl"))
    rows = [json.loads(line) for line in task_files[index].read_text().splitlines()]
    return [r["smiles"] for r in rows]


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

    def test_retraining_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "again.ckpt"
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(again)]) == 0
        assert again.read_bytes() == workspace["ckpt"].read_bytes()

    def test_workers_env_override(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("MOLMATCH_WORKERS", "3")
        out = tmp_path / "workers.ckpt"
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(out)]) == 0
        # merged in slot order: parameters must not depend on the cap
        # (metadata records the differing worker count, so compare tensors)
        from molmatch.checkpoint import load_checkpoint

        ours, meta = load_checkpoint(out)
        theirs, _ = load_checkpoint(workspace["ckpt"])
        assert meta["config"]["train"]["workers"] == 3
        assert set(ours) == set(theirs)
        for name in ours:
            assert ours[name].tobytes() == theirs[name].tobytes(), name

    def test_bad_workers_env_is_config_error(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("MOLMATCH_WORKERS", "several")
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_unknown_config_key_is_config_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nlearning_rate = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_negative_seed_is_config_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "x.ckpt"), "--seed", "-1"]) == 2

    def test_missing_data_is_data_error(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "x.ckpt")]) == 3


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

    def test_corrupt_tensor_name_is_data_error(self, workspace, tmp_path, capsys):
        raw = bytearray(workspace["ckpt"].read_bytes())
        raw[first_name_offset(raw)] = 0xFF  # never valid UTF-8
        corrupt = tmp_path / "corrupt.ckpt"
        corrupt.write_bytes(bytes(raw))
        assert main(["eval", "--ckpt", str(corrupt), "--data", str(workspace["data"])]) == 3
        assert "bad tensor name" in capsys.readouterr().err

    @pytest.mark.parametrize("data", ["data", "large_data"])
    def test_cached_task_rows_match_graph_path(self, workspace, large_tasks, data, monkeypatch,
                                               capsys):
        worst = []

        def checked(model, support_set, query_graphs, cfg, seed, *, embeddings):
            cached = finetune_and_predict(
                model, support_set, query_graphs, cfg, seed, embeddings=embeddings
            )
            encoded = finetune_and_predict(model, support_set, query_graphs, cfg, seed)
            worst.append(float(np.max(np.abs(cached - encoded))))
            return cached

        monkeypatch.setattr(cli, "finetune_and_predict", checked)
        root = {"data": workspace["data"], "large_data": large_tasks}[data]
        assert main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(root)]) == 0
        capsys.readouterr()
        assert len(worst) == 4  # 2 tasks x 2 repeats
        assert max(worst) <= 1e-12

    @staticmethod
    def encoded_batches(monkeypatch, ckpt, data):
        batches = []

        def counting(graphs, params, **kwargs):
            batches.append(list(graphs))
            return encode_multilevel(graphs, params, **kwargs)

        monkeypatch.setattr(encoder, "encode_multilevel", counting)
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
        _, cfg, _ = cli._load_model(workspace["ckpt"])
        expected = []
        for task_idx, task in enumerate(sorted(load_registry(large_tasks).split_tasks("test"),
                                               key=lambda t: t.task_id)):
            used = set()
            for rep in range(cfg.protocol.eval_repeats):
                episode = cli._sample_episode(task, cfg, cli._eval_seed(cfg.train.seed, task_idx, rep))
                used.update(np.r_[episode.support_idx, episode.query_idx].tolist())
            assert len(used) < len(task.examples)  # tasks outgrow the episodes
            expected += [task.examples[i].graph.source_smiles for i in used]
        seen = sum(batches, [])
        assert len({id(g) for g in seen}) == len(seen)
        assert sorted(g.source_smiles for g in seen) == sorted(expected)
        batch_cap = cfg.protocol.support_size + cfg.protocol.query_size
        assert max(len(b) for b in batches) <= batch_cap

    def test_nan_checkpoint_is_numerical_abort(self, workspace, tmp_path, capsys):
        cfg = tiny_run_config()
        model = init_model(cfg)
        model.matcher.tensors()["wq0"].values[:] = np.nan
        poisoned = tmp_path / "nan.ckpt"
        _save_model(poisoned, model, cfg, epoch=0)
        assert main(["eval", "--ckpt", str(poisoned), "--data", str(workspace["data"])]) == 4
        capsys.readouterr()


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

    def test_all_malformed_support_is_data_error(self, workspace, tmp_path, capsys):
        support = tmp_path / "support.jsonl"
        support.write_text('{"smiles": "C(C", "label": 1}\nnot json\n', encoding="utf-8")
        query = tmp_path / "query.txt"
        query.write_text("CCO\n", encoding="utf-8")
        assert main(["predict", "--ckpt", str(workspace["ckpt"]),
                     "--support", str(support), "--query", str(query)]) == 3
        capsys.readouterr()

    def test_single_class_support_warns(self, workspace, tmp_path, capsys):
        lines = (workspace["data"] / "test" / "synth-0003.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        positive = [r for r in rows if r["label"] == 1][:4]
        support = tmp_path / "support.jsonl"
        support.write_text("\n".join(json.dumps(r) for r in positive) + "\n", encoding="utf-8")
        query = tmp_path / "query.txt"
        query.write_text(task_file_smiles(workspace, "test", 1)[0] + "\n", encoding="utf-8")
        assert main(["predict", "--ckpt", str(workspace["ckpt"]),
                     "--support", str(support), "--query", str(query)]) == 0
        captured = capsys.readouterr()
        assert "single-class support" in captured.err


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

    def test_oversized_pca_is_config_error(self, workspace, tmp_path, capsys):
        src = tmp_path / "mols.txt"
        src.write_text("CCO\nCCC\n", encoding="utf-8")
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]),
                     "--smiles", str(src), "--out", str(tmp_path / "e.csv"), "--pca", "99"]) == 2
        capsys.readouterr()

    def test_unparseable_input_is_data_error(self, workspace, tmp_path, capsys):
        src = tmp_path / "mols.txt"
        src.write_text("C(C\n)(\n", encoding="utf-8")
        assert main(["export-embeddings", "--ckpt", str(workspace["ckpt"]),
                     "--smiles", str(src), "--out", str(tmp_path / "e.csv")]) == 3
        capsys.readouterr()


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--data", "x"]) == 2
        capsys.readouterr()
