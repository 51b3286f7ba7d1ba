"""Tests for the benchmark's own code: tracing must not change results,
span arithmetic must be right, and workload inputs must be reproducible."""

from __future__ import annotations

import numpy as np
import pytest

import run

run._import_program()

import molmatch  # noqa: E402
from molmatch import cli, meta  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import EvalFast, PredictScreen, query_pool, run_cli  # noqa: E402


def _tiny_config():
    cfg = molmatch.RunConfig()
    cfg.encoder.hidden = 8
    cfg.encoder.layers = 2
    cfg.train.batch_tasks = 3
    cfg.train.max_epochs = 2
    cfg.train.inner_steps = 2
    cfg.protocol.support_size = 8
    cfg.protocol.query_size = 8
    return cfg


def _train(registry):
    losses = []
    model, _ = molmatch.meta_train(registry, _tiny_config(), on_epoch=lambda e: losses.append(e.mean_outer_loss))
    return losses, {name: t.values.tobytes() for name, t in model.tensors().items()}


def test_tracing_leaves_meta_train_bit_identical():
    registry = molmatch.synth_generate(4, 0, 24, seed=5)
    original = meta.inner_adapt
    plain = _train(registry)
    tracer = Tracer()
    with tracer:
        assert meta.inner_adapt is not original
        traced = _train(registry)
    assert meta.inner_adapt is original
    assert traced == plain
    names = set(tracer.names)
    assert {"meta.inner_adapt", "tensor.backward", "tensor.matmul.vjp", "optim.Adam.step"} <= names
    metrics = layer_metrics(tracer, 0.0)
    assert metrics["optim.Adam.step.calls"] == 2
    assert metrics["meta.inner_adapt.calls"] == 6  # 3 tasks x 2 epochs
    assert metrics["meta.inner_adapt.steps"] == 12  # 2 backward sweeps each
    assert metrics["tensor.matmul.vjp_s"] > 0 and metrics["tensor.backward.nodes"] > 0


def _predict_setup(tmp_path):
    data = tmp_path / "data"
    assert run_cli(["synth", "--out", str(data), "--train", "1", "--test", "1",
                    "--molecules", "24", "--seed", "2"], tmp_path / "synth.out")[0] == 0
    config = tmp_path / "tiny.ini"
    config.write_text("[encoder]\nhidden = 8\nlayers = 2\n[train]\nmax_epochs = 1\nbatch_tasks = 1\n"
                      "[protocol]\nsupport_size = 8\nquery_size = 8\n", encoding="utf-8")
    ckpt = tmp_path / "tiny.ckpt"
    assert run_cli(["train", "--data", str(data), "--out", str(ckpt), "--config", str(config)],
                   tmp_path / "train.out")[0] == 0
    (task,) = sorted((data / "test").glob("*.jsonl"))
    support = tmp_path / "support.jsonl"
    support.write_text("".join(task.read_text(encoding="utf-8").splitlines(True)[:12]), encoding="utf-8")
    queries = tmp_path / "queries.txt"
    queries.write_text("\n".join(query_pool(4, 1, per_request=40)[0]) + "\n", encoding="utf-8")
    return ["predict", "--ckpt", str(ckpt), "--support", str(support), "--query", str(queries)]


def test_tracing_leaves_predict_bit_identical(tmp_path):
    argv = _predict_setup(tmp_path)
    assert run_cli(argv, tmp_path / "plain.csv")[0] == 0
    tracer = Tracer(group_on=("cli.main",))
    with tracer:
        assert run_cli(argv, tmp_path / "traced.csv")[0] == 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert cli.main.__module__ == "molmatch.cli" and not hasattr(cli.main, "__wrapped__")
    metrics = layer_metrics(tracer, 0.0)
    assert metrics["smiles.graph_from_smiles.calls"] >= 40 + 12
    assert metrics["meta.finetune_and_predict.calls"] == 1  # the _detailed call inside is folded in
    assert metrics["checkpoint.load_checkpoint.bytes"] == (tmp_path / "tiny.ckpt").stat().st_size
    assert set(tracer.group_of) == {1}


def test_self_time_of_a_hand_built_span_tree():
    #  root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_family_spans_fold_into_their_outer_call():
    tracer = Tracer()
    for name, start, end, parent in [
        ("meta.finetune_and_predict", 0.0, 5.0, -1),
        ("meta.finetune_and_predict_detailed", 0.5, 4.5, 0),
        ("meta.finetune_and_predict_detailed", 6.0, 7.0, -1),
    ]:
        tracer.name_of.append(tracer._name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.group_of.append(0)
    metrics = layer_metrics(tracer, 0.0)
    assert metrics["meta.finetune_and_predict.calls"] == 2
    assert metrics["meta.finetune_and_predict.s"] == 6.0


def test_query_pool_is_seeded_unique_and_parseable():
    first = query_pool(11, 3, per_request=300)
    assert first == query_pool(11, 3, per_request=300)
    assert first[0] != query_pool(12, 3, per_request=300)[0]
    flat = [s for request in first for s in request]
    assert len(flat) == 900 and len(set(flat)) == len(flat)
    for smiles in flat:
        molmatch.graph_from_smiles(smiles)


@pytest.mark.parametrize("workload", [PredictScreen(), EvalFast()], ids=lambda w: w.name)
def test_setup_is_deterministic_per_seed(tmp_path, workload):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    one = workload.setup(3, tmp_path / "a", 0)
    two = workload.setup(3, tmp_path / "b", 0)
    assert one["ckpt"].read_bytes() == two["ckpt"].read_bytes()
    if isinstance(workload, PredictScreen):
        assert one["support"].read_bytes() == two["support"].read_bytes()
        assert one["requests"][0].read_bytes() == two["requests"][0].read_bytes()
    else:
        tasks = sorted(p.name for p in (one["data"] / "test").iterdir())
        assert len(tasks) == 20
        for name in tasks:
            assert (one["data"] / "test" / name).read_bytes() == (two["data"] / "test" / name).read_bytes()


def test_outputs_compare_bit_for_bit():
    a = {"losses": [1.0, 2.0], "tensors": {"w": np.array([0.1, 0.2])}}
    b = {"losses": [1.0, 2.0], "tensors": {"w": np.array([0.1, 0.2])}}
    assert run._same(a, b)
    b["tensors"]["w"] = np.nextafter(b["tensors"]["w"], 1.0)
    assert not run._same(a, b)
