"""Small builders shared across test modules."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np

from molmatch import meta
from molmatch.cli import main
from molmatch.episodes import Registry, TaskExample, TaskRecord
from molmatch.smiles import graph_from_smiles

_SUFFIXES = ("", "O", "N", "F", "Cl", "S", "C(C)C", "C=C", "C#N", "(C)O", "=O", "C(N)O")


def distinct_smiles(n: int) -> list[str]:
    """Deterministic list of n distinct, parseable molecules."""
    out: list[str] = []
    seen = set()
    k = 1
    while len(out) < n:
        for suffix in _SUFFIXES:
            s = "C" * k + suffix
            if s not in seen:
                seen.add(s)
                out.append(s)
                if len(out) == n:
                    return out
        k += 1
    return out


def make_task(task_id: str, labelled: list[tuple[str, int]]) -> TaskRecord:
    examples = [TaskExample(s, y, graph_from_smiles(s)) for s, y in labelled]
    return TaskRecord(task_id=task_id, examples=examples)


def chain_task(task_id: str, n: int, n_pos: int) -> TaskRecord:
    """n distinct molecules; the first n_pos are labelled positive."""
    smiles = distinct_smiles(n)
    return make_task(task_id, [(s, 1 if i < n_pos else 0) for i, s in enumerate(smiles)])


def first_name_offset(raw: bytes) -> int:
    """Byte offset of the first tensor name in a checkpoint file."""
    (meta_len,) = struct.unpack("<I", raw[8:12])
    return 12 + meta_len + 4 + 2  # magic+version+length, metadata, record count, name length


def make_registry(train: list[TaskRecord], valid=(), test=()) -> Registry:
    return Registry(tasks={"train": list(train), "valid": list(valid), "test": list(test)})


def poison_first_gradient(monkeypatch) -> None:
    """Make ``meta.backward`` return an ``inf`` gradient for the first
    parameter each sweep is asked about."""
    real = meta.backward

    def backward(loss, params=None):
        params = list(params)
        grads = real(loss, params=params)
        grads[params[0]] = np.full_like(grads[params[0]], np.inf)
        return grads

    monkeypatch.setattr(meta, "backward", backward)


SCENARIO_CONFIG = """\
[train]
max_epochs = 3
batch_tasks = 2
inner_steps = 2
early_stop = true
patience = 1
seed = 1
[encoder]
layers = 3
hidden = 16
dropout = 0.2
[matcher]
dropout = 0.3
[protocol]
sampling = unbalanced
support_size = 5
query_size = 8
eval_repeats = 2
"""

SCENARIO_SYNTH = ("--train", "4", "--valid", "2", "--test", "3", "--molecules", "16", "--seed", "3")


def cli_scenario(root: Path, config: str = SCENARIO_CONFIG, synth=SCENARIO_SYNTH) -> dict[str, str]:
    """Run every subcommand once under ``root`` and return the SHA-256 of
    each output, keyed by file name.

    ``synth`` writes the data and ``train`` fits ``config`` on it.  The
    checkpoint is evaluated three ways (its own protocol, balanced at
    support 4, and on the ``valid`` split); with the first test task as
    support it predicts the second test task's molecules plus one
    unparseable line, with ``--attention-out``; it relates the train
    tasks under the config's task-relation keys and under ``--metric dot
    --mode mean-support-embedding --normalize``; and it exports the
    query molecules' embeddings with ``--pca 3``.  Standard output is
    hashed as ``eval*.csv``/``predict.csv``; the epoch log is hashed
    without its ``wall_seconds`` column, the one field that may differ
    between runs.
    """
    data, ckpt = root / "data", root / "model.ckpt"
    root.mkdir(parents=True)
    (root / "run.cfg").write_text(config, encoding="utf-8")
    outputs = {}

    def run(*argv, capture=None):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        assert code == 0, (argv, code)
        if capture:
            outputs[capture] = out.getvalue().encode()

    run("synth", "--out", str(data), *synth)
    run("train", "--config", str(root / "run.cfg"), "--data", str(data), "--out", str(ckpt))
    run("eval", "--ckpt", str(ckpt), "--data", str(data), capture="eval.csv")
    run("eval", "--ckpt", str(ckpt), "--data", str(data), "--protocol", "balanced",
        "--support-size", "4", capture="eval_balanced.csv")
    run("eval", "--ckpt", str(ckpt), "--data", str(data), "--split", "valid",
        capture="eval_valid.csv")
    support, other = sorted((data / "test").glob("*.jsonl"))[:2]
    lines = other.read_text(encoding="utf-8").splitlines()
    queries = [json.loads(line)["smiles"] for line in lines] + ["C1CC"]
    (root / "queries.smi").write_text("\n".join(queries) + "\n", encoding="utf-8")
    run("predict", "--ckpt", str(ckpt), "--support", str(support),
        "--query", str(root / "queries.smi"), "--attention-out", str(root / "attention.csv"),
        capture="predict.csv")
    run("taskrel", "--ckpt", str(ckpt), "--data", str(data), "--out", str(root / "rel.csv"))
    run("taskrel", "--ckpt", str(ckpt), "--data", str(data), "--out", str(root / "rel_dot.csv"),
        "--metric", "dot", "--mode", "mean-support-embedding", "--normalize")
    run("export-embeddings", "--ckpt", str(ckpt), "--smiles", str(root / "queries.smi"),
        "--out", str(root / "emb.csv"), "--pca", "3")

    rows = list(csv.reader((root / "model.ckpt.log.csv").read_text(encoding="utf-8").splitlines()))
    wall = rows[0].index("wall_seconds")
    outputs["model.ckpt.log.csv"] = "\n".join(
        ",".join(r[:wall] + r[wall + 1 :]) for r in rows
    ).encode()
    inputs = ("run.cfg", "queries.smi")
    files = {p.name: p.read_bytes() for p in root.iterdir() if p.is_file() and p.name not in inputs}
    files.update(outputs)
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in sorted(files.items())}
