"""Benchmark workloads: seeded inputs, timed rounds and output checks.

Every input derives from the workload seed; molmatch only ever sees
the generated registry, checkpoint, support file and query files.  All
three workloads run in one process with ``workers = 1``: on a 2-core
host, worker threads plus OpenBLAS threads oversubscribe the cores and
run slower than one worker.

A workload has three steps:

* ``setup(seed, workdir, seconds)`` builds the inputs.  Its time is
  ``setup_s``.
* ``measure(inputs)`` runs the timed rounds: epochs for ``train_full``,
  eval calls for ``eval_fast``, predict requests for ``predict_screen``.
* ``check(inputs, measurement)`` raises ``CheckFailed`` when an output
  is wrong.

The number of rounds depends on ``seconds`` alone, never on how fast
the rounds run, so a given seed and run length always do the same work
and a faster program is timed on the same inputs.  ``seconds = 0`` asks
for a single round, which the traced run repeats with and without
tracing.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Rounds per second of run length, from the round times of a 2-core x86
# host: a full-width epoch takes about 4 s, a 200-episode eval call about
# 4.5 s and a 1024-query predict request about 2 s.
SECONDS_PER_TRAIN_EPOCH = 4
SECONDS_PER_EVAL_CALL = 4
SECONDS_PER_REQUEST = 2
MIN_ROUNDS = 3
# train_full: untimed epochs first.  Epoch times keep falling for a few
# epochs while the allocator settles (large freed blocks are reused instead
# of mapped afresh); users training for 200 epochs do not pay that cost.
WARMUP_EPOCHS = 2
# eval_fast: epochs that train the hidden-64 checkpoint during set-up.
EVAL_CKPT_EPOCHS = 2
EVAL_TRAIN_TASKS = 21
EVAL_TEST_TASKS = 20
MOLECULES_PER_TASK = 60
EVAL_ARGS = ["--split", "test", "--support-size", "20", "--repeats", "10"]
# predict_screen
QUERIES_PER_REQUEST = 1024
SUPPORT_SIZE = 20  # balanced
SUBSET_STRIDE = 16  # every 16th query of the first request: 64 of 1024
SUBSET_TOLERANCE = 1e-9
CSV_UNIT = 1e-6  # predict prints p_positive with six decimals
KEY_QUERIES = 7  # rng namespaces of the query pool and the labelled task
KEY_SUPPORT = 8


def rounds(seconds: float, seconds_per_round: float) -> int:
    if seconds <= 0:
        return 1
    return max(MIN_ROUNDS, math.ceil(seconds / seconds_per_round))


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass
class Measurement:
    round_s: list[float]  # wall seconds of each timed round
    round_items: list[int]  # items scored in each round
    attempted: int
    failed: int
    output: object  # compared bit for bit between traced and untraced runs
    report: dict = field(default_factory=dict)  # named values printed for people
    problems: list[str] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return statistics.median(n / s for n, s in zip(self.round_items, self.round_s))


def run_cli(argv: list[str], stdout_path: Path) -> tuple[int, str]:
    """Run ``molmatch <argv>`` in this process; stdout goes to a file.

    Returns the exit code and what the command wrote to stderr.
    """
    from molmatch import cli

    err = io.StringIO()
    with open(stdout_path, "w", encoding="utf-8", newline="") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


def _cli_or_fail(argv: list[str], stdout_path: Path) -> None:
    code, err = run_cli(argv, stdout_path)
    if code != 0:
        raise CheckFailed(f"molmatch {argv[0]} exited {code}: {err.strip()}")


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# -- train_full ---------------------------------------------------------------


class TrainFull:
    """``meta_train`` at paper width on the criterion-5 registry."""

    name = "train_full"
    group_on = ()

    def setup(self, seed: int, workdir: Path, seconds: float):
        from molmatch import RunConfig, synth_generate

        registry = synth_generate(200, 20, MOLECULES_PER_TASK, seed)
        cfg = RunConfig()
        cfg.train.seed = seed
        cfg.train.workers = 1
        cfg.train.max_epochs = WARMUP_EPOCHS + rounds(seconds, SECONDS_PER_TRAIN_EPOCH)
        return {"registry": registry, "cfg": cfg}

    def measure(self, inputs, tracer=None) -> Measurement:
        from molmatch import meta_train

        cfg = inputs["cfg"]
        stamps: list[float] = []
        losses: list[float] = []

        def on_epoch(entry):
            stamps.append(time.perf_counter())
            losses.append(entry.mean_outer_loss)
            if tracer is not None:
                tracer.next_group()

        start = time.perf_counter()
        model, _ = meta_train(inputs["registry"], cfg, on_epoch=on_epoch)
        epochs = np.diff([start] + stamps)[WARMUP_EPOCHS:].tolist()
        tensors = {name: t.values.copy() for name, t in model.tensors().items()}
        tasks = cfg.train.batch_tasks
        return Measurement(
            round_s=epochs,
            round_items=[tasks] * len(epochs),
            attempted=tasks * len(epochs),
            failed=0,
            output={"losses": losses, "tensors": tensors},
            report={
                "epoch_s": statistics.median(epochs),
                "outer_loss": losses[-1],
                "epochs_timed": len(epochs),
            },
        )

    def check(self, inputs, m: Measurement) -> None:
        losses = m.output["losses"]
        if len(losses) != inputs["cfg"].train.max_epochs:
            raise CheckFailed(f"trained {len(losses)} epochs, expected {inputs['cfg'].train.max_epochs}")
        if not all(math.isfinite(v) for v in losses):
            raise CheckFailed(f"non-finite epoch loss in {losses}")
        bad = [n for n, v in m.output["tensors"].items() if not np.all(np.isfinite(v))]
        if bad:
            raise CheckFailed(f"non-finite final tensors: {bad[:5]}")


# -- eval_fast ------------------------------------------------------------------


def _write_fast_config(path: Path, max_epochs: int) -> None:
    """configs/fast.ini with the training length pinned."""
    ini = configparser.ConfigParser()
    ini.read(ROOT / "configs" / "fast.ini", encoding="utf-8")
    if not ini.has_section("train"):
        ini.add_section("train")
    ini.set("train", "max_epochs", str(max_epochs))
    ini.set("train", "workers", "1")
    with open(path, "w", encoding="utf-8") as fh:
        ini.write(fh)


class EvalFast:
    """The README quick start: ``molmatch eval`` on a hidden-64 checkpoint."""

    name = "eval_fast"
    group_on = ("meta.finetune_and_predict",)  # one group per episode
    repeats = 10

    def setup(self, seed: int, workdir: Path, seconds: float):
        data, evaldir = workdir / "data", workdir / "eval"
        ckpt, config = workdir / "fast.ckpt", workdir / "fast.ini"
        _cli_or_fail(
            ["synth", "--out", str(data), "--train", str(EVAL_TRAIN_TASKS),
             "--test", str(EVAL_TEST_TASKS), "--molecules", str(MOLECULES_PER_TASK),
             "--seed", str(seed)],
            workdir / "synth.out",
        )
        evaldir.mkdir()
        shutil.move(str(data / "test"), str(evaldir / "test"))  # eval reads only the test tasks
        _write_fast_config(config, EVAL_CKPT_EPOCHS)
        _cli_or_fail(
            ["train", "--data", str(data), "--out", str(ckpt), "--config", str(config),
             "--seed", str(seed)],
            workdir / "train.out",
        )
        calls = rounds(seconds, SECONDS_PER_EVAL_CALL)
        return {"workdir": workdir, "ckpt": ckpt, "data": evaldir, "calls": calls}

    def measure(self, inputs, tracer=None) -> Measurement:
        argv = ["eval", "--ckpt", str(inputs["ckpt"]), "--data", str(inputs["data"])] + EVAL_ARGS
        out = inputs["workdir"] / "eval.csv"
        times, items, texts = [], [], []
        attempted = 0
        for _ in range(inputs["calls"]):
            start = time.perf_counter()
            code, err = run_cli(argv, out)
            times.append(time.perf_counter() - start)
            if code != 0:
                raise CheckFailed(f"molmatch eval exited {code}: {err.strip()}")
            text = out.read_text(encoding="utf-8")
            scored, skipped = self._episodes(parse_csv(text))
            texts.append(text)
            items.append(scored)
            attempted += scored + skipped
        last = parse_csv(texts[0])[-1:]
        auroc = float(last[0]["auroc_mean"]) if last and last[0]["task_id"] == "ALL" else float("nan")
        return Measurement(
            round_s=times,
            round_items=items,
            attempted=attempted,
            failed=0,
            output=texts,
            report={
                "eval_episodes_per_s": statistics.median(n / s for n, s in zip(items, times)),
                "eval_auroc": auroc,  # check() rejects a CSV without the ALL row
                "eval_calls": len(times),
            },
        )

    def _episodes(self, rows: list[dict]) -> tuple[int, int]:
        """(scored, protocol-skipped) episodes in one eval CSV."""
        scored = skipped = 0
        for row in rows:
            status = row["status"]
            if row["task_id"] == "ALL":
                continue
            if status.startswith("skipped:"):
                skipped += self.repeats
            elif status == "ok":
                scored += self.repeats
            elif status.startswith("ok:"):
                n = int(status[3:].split("-", 1)[0])
                scored += self.repeats - n
                skipped += n
            else:
                raise CheckFailed(f"unknown eval status {status!r}")
        return scored, skipped

    def check(self, inputs, m: Measurement) -> None:
        texts = m.output
        if any(t != texts[0] for t in texts):
            raise CheckFailed("repeated eval calls on the same inputs gave different CSVs")
        rows = parse_csv(texts[0])
        if not rows or rows[-1]["task_id"] != "ALL":
            raise CheckFailed("eval CSV has no final ALL row")
        if len(rows) != EVAL_TEST_TASKS + 1:
            raise CheckFailed(f"eval CSV has {len(rows)} rows, expected {EVAL_TEST_TASKS + 1}")
        for row in rows:
            if row["status"].startswith("skipped:"):
                continue
            for col in ("auroc_mean", "auprc_mean"):
                value = float(row[col])
                if not 0.0 <= value <= 1.0:
                    raise CheckFailed(f"{row['task_id']} {col} = {value} outside [0, 1]")
            if not -1.0 <= float(row["delta_auprc_mean"]) <= 1.0:
                raise CheckFailed(f"{row['task_id']} delta_auprc_mean outside [-1, 1]")


# -- predict_screen ---------------------------------------------------------------

_CHAIN_ATOMS = ("C", "C", "C", "C", "C", "N", "O", "S")
_RINGS = ("c1ccccc1", "c1ccncc1", "c1ccoc1", "C1CCCCC1", "C1CCNCC1", "C1CC1")
_TERMINALS = ("F", "Cl", "Br", "O", "N")


def _fragment(rng: np.random.Generator, depth: int) -> str:
    parts = []
    lo, hi = (3, 6) if depth == 0 else (1, 4)
    for i in range(int(rng.integers(lo, hi))):
        if rng.random() < 0.07:
            parts.append(_RINGS[int(rng.integers(len(_RINGS)))])
        else:
            atom = _CHAIN_ATOMS[int(rng.integers(len(_CHAIN_ATOMS)))]
            double = i and atom == "C" and rng.random() < 0.15
            parts.append("=" + atom if double else atom)
        if depth == 0 and rng.random() < 0.15:
            parts.append("(" + _fragment(rng, depth + 1) + ")")
    if rng.random() < 0.2:
        parts.append(_TERMINALS[int(rng.integers(len(_TERMINALS)))])
    return "".join(parts)


def random_smiles(rng: np.random.Generator) -> str:
    """One single-fragment SMILES: a chain with short branches, rings and
    double bonds, about 8 heavy atoms on average."""
    return _fragment(rng, 0)


def query_pool(seed: int, n_requests: int, per_request: int = QUERIES_PER_REQUEST) -> list[list[str]]:
    """``n_requests`` requests of distinct query SMILES derived from the seed.

    No query appears twice, so nothing can be served from a cache filled
    by an earlier request.  Drawing distinct molecules exhausts the small
    ones first, so the pool is shuffled before it is split: every request
    is then a sample of the same pool and carries about as many atoms as
    any other.
    """
    rng = np.random.default_rng([seed, KEY_QUERIES])
    pool: dict[str, None] = {}
    while len(pool) < n_requests * per_request:
        pool[random_smiles(rng)] = None
    order = list(pool)
    rng.shuffle(order)
    return [order[i * per_request : (i + 1) * per_request] for i in range(n_requests)]


def labelled_task(seed: int, per_class: int = MOLECULES_PER_TASK // 2) -> list[dict]:
    """Distinct generated molecules labelled 1 when they contain nitrogen,
    ``per_class`` of each label, negatives first.

    Unlike ``molmatch synth``, whose rejection sampling makes the cost of a
    two-task registry swing with the seed, this costs the same for every
    seed.
    """
    rng = np.random.default_rng([seed, KEY_SUPPORT])
    picked: dict[int, list[dict]] = {0: [], 1: []}
    seen: set[str] = set()
    while min(len(v) for v in picked.values()) < per_class:
        smiles = random_smiles(rng)
        label = int("N" in smiles or "n" in smiles)
        if smiles not in seen and len(picked[label]) < per_class:
            seen.add(smiles)
            picked[label].append({"smiles": smiles, "label": label})
    return picked[0] + picked[1]


class PredictScreen:
    """``molmatch predict`` on 1024 new queries per request, full width."""

    name = "predict_screen"
    group_on = ("cli.main",)  # one group per request

    def setup(self, seed: int, workdir: Path, seconds: float):
        data, ckpt, config = workdir / "data", workdir / "full.ckpt", workdir / "full.ini"
        task = labelled_task(seed)
        (data / "train").mkdir(parents=True)
        (data / "train" / "screen.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in task), encoding="utf-8"
        )
        # The default (paper-width) config, saved untrained: request cost
        # depends on the shapes, not on the weights.
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("[train]\nmax_epochs = 0\nworkers = 1\n")
        _cli_or_fail(
            ["train", "--data", str(data), "--out", str(ckpt), "--config", str(config),
             "--seed", str(seed)],
            workdir / "train.out",
        )
        half = SUPPORT_SIZE // 2
        support = workdir / "support.jsonl"
        support.write_text(
            "".join(json.dumps(r) + "\n" for r in task[:half] + task[-half:]), encoding="utf-8"
        )
        requests = []
        for i, queries in enumerate(query_pool(seed, rounds(seconds, SECONDS_PER_REQUEST))):
            requests.append(workdir / f"queries-{i:04d}.txt")
            requests[-1].write_text("\n".join(queries) + "\n", encoding="utf-8")
        return {"workdir": workdir, "ckpt": ckpt, "support": support, "requests": requests, "seed": seed}

    def _argv(self, inputs, query_file: Path) -> list[str]:
        return ["predict", "--ckpt", str(inputs["ckpt"]), "--support", str(inputs["support"]),
                "--query", str(query_file)]

    def measure(self, inputs, tracer=None) -> Measurement:
        times, items, texts = [], [], []
        attempted = failed = 0
        problems: list[str] = []
        for query_file in inputs["requests"]:
            out = inputs["workdir"] / "predict.csv"
            start = time.perf_counter()
            code, err = run_cli(self._argv(inputs, query_file), out)
            times.append(time.perf_counter() - start)
            if code != 0:
                raise CheckFailed(f"molmatch predict exited {code}: {err.strip()}")
            texts.append(out.read_text(encoding="utf-8"))
            rows = parse_csv(texts[-1])
            problems += self._check_rows(query_file, rows)
            errors = sum(1 for r in rows if r["error"])
            items.append(len(rows) - errors)
            attempted += len(rows)
            failed += errors
        return Measurement(
            round_s=times,
            round_items=items,
            attempted=attempted,
            failed=failed,
            output=texts[0],
            report={
                "queries_per_s": statistics.median(n / s for n, s in zip(items, times)),
                "requests": len(times),
            },
            problems=problems,
        )

    def _check_rows(self, query_file: Path, rows: list[dict]) -> list[str]:
        queries = query_file.read_text(encoding="utf-8").split()
        if [r["smiles"] for r in rows] != queries:
            return [f"{query_file.name}: rows do not match the queries in input order"]
        problems = []
        for r in rows:
            if r["error"]:
                problems.append(f"{r['smiles']}: {r['error']}")
            elif not 0.0 <= float(r["p_positive"]) <= 1.0:
                problems.append(f"{r['smiles']}: p_positive {r['p_positive']} outside [0, 1]")
        return problems

    def check(self, inputs, m: Measurement) -> None:
        if m.problems:
            raise CheckFailed("; ".join(m.problems[:5]))
        self._check_subset(inputs, m)

    def _check_subset(self, inputs, m: Measurement) -> None:
        """Scores of a 64-query subset scored alone match the full request.

        Through the CLI the rows agree to the CSV's six printed decimals;
        through the library, with unrounded scores, to SUBSET_TOLERANCE.
        """
        from molmatch import RunConfig, finetune_and_predict, graph_from_smiles, init_model

        workdir = inputs["workdir"]
        queries = inputs["requests"][0].read_text(encoding="utf-8").split()
        picked = list(range(0, len(queries), SUBSET_STRIDE))
        subset_file = workdir / "subset.txt"
        subset_file.write_text("\n".join(queries[i] for i in picked) + "\n", encoding="utf-8")
        _cli_or_fail(self._argv(inputs, subset_file), workdir / "subset.csv")
        full = parse_csv(m.output)
        alone = parse_csv((workdir / "subset.csv").read_text(encoding="utf-8"))
        if [r["smiles"] for r in alone] != [queries[i] for i in picked]:
            raise CheckFailed("the subset request's rows do not match its queries")
        for i, row in zip(picked, alone):
            # two scores within SUBSET_TOLERANCE print equal or one unit apart
            if abs(float(row["p_positive"]) - float(full[i]["p_positive"])) > CSV_UNIT * 1.01:
                raise CheckFailed(
                    f"query {i} scored {row['p_positive']} alone, {full[i]['p_positive']} in the full request"
                )

        cfg = RunConfig()
        cfg.train.seed = inputs["seed"]
        model = init_model(cfg)
        support = [
            (graph_from_smiles(r["smiles"]), r["label"])
            for r in map(json.loads, inputs["support"].read_text(encoding="utf-8").splitlines())
        ]
        graphs = [graph_from_smiles(s) for s in queries]
        seed = [inputs["seed"]]
        p_full = finetune_and_predict(model, support, graphs, cfg, seed=seed)[:, 0]
        p_alone = finetune_and_predict(model, support, [graphs[i] for i in picked], cfg, seed=seed)[:, 0]
        worst = float(np.max(np.abs(p_full[picked] - p_alone)))
        if worst > SUBSET_TOLERANCE:
            raise CheckFailed(f"a query's score depends on the other queries: max difference {worst:.3g}")


WORKLOADS = {w.name: w for w in (TrainFull(), EvalFast(), PredictScreen())}
