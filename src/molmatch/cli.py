"""Command-line entry points: train, eval, predict, taskrel,
export-embeddings and synth.

Exit codes: 0 success, 2 configuration problem (bad file, unknown key,
bad flag), 3 data or file problem (missing/empty/corrupt datasets or
checkpoints, input that is not UTF-8 text, a file that cannot be read
or written, task vectors the relation metric cannot compare), 4
numerical abort (non-finite loss, prediction, embedding or relation
matrix, or trained weights not finite).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import metrics
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import METRICS, MODES, SAMPLINGS, ConfigError, RunConfig, load_config
from .config import config_from_dict, config_to_dict
from .encoder import encode_frozen
from .episodes import (
    SPLITS,
    DataError,
    EpisodeError,
    can_sample,
    load_registry,
    load_task_file,
    read_lines,
    synth_generate,
    write_registry,
)
from .meta import (
    KEY_EVAL,
    ModelParams,
    NumericalError,
    best_epoch,
    finetune_and_predict_detailed,
    init_model,
    meta_train,
    score_task,
)
from .smiles import SmilesError, graph_from_smiles
from .taskrel import relation_matrix, row_normalize, task_vector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

WORKERS_ENV = "MOLMATCH_WORKERS"

log = logging.getLogger("molmatch")


def _seed(text: str) -> int:
    """argparse type of every ``--seed``: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molmatch",
        description="Few-shot molecular property prediction by attention matching",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="meta-train on a task registry")
    p.add_argument("--config", help="key=value config file (defaults used when omitted)")
    p.add_argument("--data", required=True, help="dataset root with train/valid/test dirs")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    p.add_argument("--workers", type=int, help=f"worker cap (or env {WORKERS_ENV})")
    p.add_argument("--log", help="epoch log CSV path (default: <out>.log.csv)")

    p = sub.add_parser("eval", help="episodic evaluation on the test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--support-size", type=int, help="override the checkpoint protocol")
    p.add_argument("--repeats", type=int, help="episodes per task (default from checkpoint)")
    p.add_argument("--protocol", choices=SAMPLINGS)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--split", default="test", choices=SPLITS)

    p = sub.add_parser("predict", help="label queries from a labelled support file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--support", required=True, help="JSONL file of {smiles, label} records")
    p.add_argument("--query", required=True, help="text file with one SMILES per line")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--attention-out", help="also write per-layer attention rows as CSV")

    p = sub.add_parser("taskrel", help="export the task-relation matrix")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metric", choices=METRICS)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", required=True, help="matrix CSV path")
    p.add_argument("--split", default="train", choices=SPLITS)
    p.add_argument("--normalize", action="store_true", help="row-softmax the matrix before writing")
    p.add_argument("--seed", type=_seed, default=None)

    p = sub.add_parser("export-embeddings", help="write per-layer molecule embeddings")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--smiles", required=True, help="text file with one SMILES per line")
    p.add_argument("--out", required=True, help="embeddings CSV path")
    p.add_argument("--pca", type=int, metavar="K", help="also project each layer onto K components")

    p = sub.add_parser("synth", help="generate a synthetic task registry")
    p.add_argument("--out", required=True, help="dataset root to create")
    p.add_argument("--train", type=int, default=200, dest="n_train")
    p.add_argument("--valid", type=int, default=0, dest="n_valid")
    p.add_argument("--test", type=int, default=20, dest="n_test")
    p.add_argument("--molecules", type=int, default=60)
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the reason
        return int(exc.code) if exc.code else 0
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "predict": cmd_predict,
        "taskrel": cmd_taskrel,
        "export-embeddings": cmd_export_embeddings,
        "synth": cmd_synth,
    }
    try:
        # every command checks its outputs for finiteness before it writes
        # anything (exit 4), so numpy's floating-point warnings would only
        # precede that one line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, EpisodeError, SmilesError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _save_model(path, model: ModelParams, cfg: RunConfig, epoch: int) -> None:
    tensors = {name: t.values for name, t in model.tensors().items()}
    for name, values in tensors.items():
        if not np.isfinite(values.astype(np.float32)).all():
            raise NumericalError(f"weight {name} is not finite as stored (float32)")
    config = config_to_dict(cfg)
    # how the run executed, not what it trained: the file must not depend on it
    del config["train"]["workers"]
    save_checkpoint(path, tensors, {"config": config, "epoch": epoch, "seed": cfg.train.seed})


def _load_model(path) -> tuple[ModelParams, RunConfig]:
    tensors, meta = load_checkpoint(path)
    if "config" not in meta:
        raise CheckpointError(f"{path}: metadata lacks a config snapshot")
    cfg = config_from_dict(meta["config"])
    model = init_model(cfg)
    expected = set(model.tensors())
    got = set(tensors)
    if expected != got:
        missing = sorted(expected - got)[:3]
        extra = sorted(got - expected)[:3]
        raise CheckpointError(f"{path}: tensor names mismatch (missing {missing}, extra {extra})")
    for name, t in model.tensors().items():
        if tensors[name].shape != t.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"its config expects {t.shape}"
            )
    model = model.replace_values({k: v.astype(np.float64) for k, v in tensors.items()})
    return model, cfg


@contextmanager
def _csv_file(path, header: list):
    """A ``csv.writer`` on a fresh UTF-8 file at ``path``, its header row
    written."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        yield writer


@contextmanager
def _ties_logged(subject: str):
    """Run the block with ``metrics.auprc``'s tied-scores warnings caught;
    log one line naming ``subject`` if it raised any, and show the rest."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", metrics.TIED_SCORES, RuntimeWarning)
        yield
    for w in caught:
        if str(w.message) != metrics.TIED_SCORES:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    if any(str(w.message) == metrics.TIED_SCORES for w in caught):
        log.warning("%s: tied scores across classes; AUPRC depends on query order", subject)


def _read_molecules(path):
    """Each non-blank line of ``path`` as (line number, SMILES, graph or
    the ``SmilesError`` that parsing it raised)."""
    for line_no, line in enumerate(read_lines(path), start=1):
        smiles = line.strip()
        if not smiles:
            continue
        try:
            graph = graph_from_smiles(smiles)
        except SmilesError as exc:
            graph = exc
        yield line_no, smiles, graph


def _check_output_path(path, args) -> None:
    """Raise before any work when ``path`` cannot be written as a file, or
    names a file the command reads: its ``--ckpt``, ``--config``,
    ``--support``, ``--query`` or ``--smiles``, or a task file of a split
    of its ``--data``."""
    if not Path(path).parent.is_dir():
        raise DataError(f"{path}: its directory does not exist")
    if Path(path).is_dir():
        raise DataError(f"{path}: is a directory")
    target = Path(path).resolve()
    inputs = [getattr(args, name, None) for name in ("ckpt", "config", "support", "query", "smiles")]
    splits = [Path(args.data, split).resolve() for split in SPLITS] if getattr(args, "data", None) else []
    if target in {Path(p).resolve() for p in inputs if p} or (
        target.suffix == ".jsonl" and target.parent in splits
    ):
        raise ConfigError(f"{path}: is an input of this command")


def cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.train.seed = args.seed
    if args.workers is not None:
        cfg.train.workers = args.workers
    elif os.environ.get(WORKERS_ENV):
        try:
            cfg.train.workers = int(os.environ[WORKERS_ENV])
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer") from None
    cfg.validate()
    log_path = args.log or f"{args.out}.log.csv"
    if Path(log_path).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--log and --out name the same file: {args.out}")
    for path in (args.out, log_path):
        _check_output_path(path, args)

    # meta_train reads the valid split only to stop early
    registry = load_registry(args.data, ("train", "valid") if cfg.train.early_stop else ("train",))
    if not registry.split_tasks("train"):
        raise DataError(f"{args.data}: no train tasks")

    def report(entry):
        if entry.epoch % 10 == 0 or entry.epoch == cfg.train.max_epochs - 1:
            log.info(
                "epoch %d mean_loss %.4f (%.2fs)",
                entry.epoch,
                entry.mean_outer_loss,
                entry.wall_seconds,
            )

    with _ties_logged("validation"):
        model, logs = meta_train(registry, cfg, on_epoch=report)
    best = best_epoch(logs)
    epochs = len(logs) if best is None else best + 1
    _save_model(args.out, model, cfg, epoch=epochs)

    with _csv_file(log_path, ["epoch", "mean_outer_loss", "wall_seconds", "val_metric"]) as writer:
        for entry in logs:
            writer.writerow(
                [
                    entry.epoch,
                    f"{entry.mean_outer_loss:.10g}",
                    f"{entry.wall_seconds:.3f}",
                    "" if entry.val_metric is None else f"{entry.val_metric:.10g}",
                ]
            )
    note = "" if epochs == len(logs) else f" (best validation after epoch {epochs})"
    print(f"saved checkpoint to {args.out} after {len(logs)} epochs{note}", file=sys.stderr)
    return EXIT_OK


EVAL_METRICS = {"auroc": metrics.auroc, "auprc": metrics.auprc, "delta_auprc": metrics.delta_auprc}


def _eval_seed(base: int, task_idx: int, repeat: int) -> list[int]:
    return [base, KEY_EVAL, task_idx, repeat]


def cmd_eval(args) -> int:
    model, cfg = _load_model(args.ckpt)
    if args.support_size is not None:
        cfg.protocol.support_size = args.support_size
    if args.protocol:
        cfg.protocol.sampling = args.protocol
    if args.repeats is not None:
        cfg.protocol.eval_repeats = args.repeats
    repeats = cfg.protocol.eval_repeats
    seed = args.seed if args.seed is not None else cfg.train.seed
    cfg.validate()

    registry = load_registry(args.data, (args.split,))
    tasks = registry.split_tasks(args.split)
    if not tasks:
        raise DataError(f"{args.data}: no tasks in split {args.split!r}")

    rows = []  # (task_id, status, {metric: EvalResult}), empty for a skipped task
    for task_idx, task in enumerate(tasks):
        if not can_sample(task, cfg.protocol):
            rows.append((task.task_id, "skipped:protocol", {}))
            continue
        seeds = [_eval_seed(seed, task_idx, rep) for rep in range(repeats)]
        scored = score_task(model, task, cfg, seeds)
        if not scored:
            rows.append((task.task_id, "skipped:single-class-queries", {}))
            continue
        skipped = repeats - len(scored)
        status = "ok" if not skipped else f"ok:{skipped}-repeats-skipped"
        with _ties_logged(f"task {task.task_id}"):
            results = {
                name: metrics.aggregate([fn(s, y) for s, y in scored])
                for name, fn in EVAL_METRICS.items()
            }
        rows.append((task.task_id, status, results))

    per_task = [results for _, _, results in rows if results]
    if not per_task:
        raise DataError("no task produced a scoreable episode")
    overall = {name: metrics.aggregate([r[name].mean for r in per_task]) for name in EVAL_METRICS}
    rows.append(("ALL", f"{len(per_task)}-tasks", overall))

    with_spread = repeats > 1
    header = ["task_id", "protocol", "support_size", "repeats"]
    for name in EVAL_METRICS:
        header.append(f"{name}_mean")
        if with_spread:
            header += [f"{name}_std", f"{name}_se"]
    header.append("status")
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for task_id, status, results in rows:
        out = [task_id, cfg.protocol.sampling, cfg.protocol.support_size, repeats]
        for name in EVAL_METRICS:
            agg = results.get(name)
            fields = (agg.mean, agg.std, agg.stderr) if agg else (None, None, None)
            out += [_fmt(v) for v in (fields if with_spread else fields[:1])]
        out.append(status)
        writer.writerow(out)
    return EXIT_OK


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6f}"


def _read_support_file(path) -> list[tuple]:
    record, malformed = load_task_file(Path(path))
    if malformed:
        log.warning("support file: %d malformed lines skipped", malformed)
    if not record.examples:
        raise DataError(f"{path}: no usable support examples")
    if min(record.class_counts()) == 0:
        log.warning("single-class support set; predictions will be degenerate")
    return [(e.graph, e.label) for e in record.examples]


def cmd_predict(args) -> int:
    if args.attention_out:
        _check_output_path(args.attention_out, args)
    model, cfg = _load_model(args.ckpt)
    seed = args.seed if args.seed is not None else cfg.train.seed
    support = _read_support_file(args.support)

    queries = [(smiles, graph) for _, smiles, graph in _read_molecules(args.query)]
    good = [(s, g) for s, g in queries if not isinstance(g, SmilesError)]
    failed = len(queries) - len(good)
    if not good:
        raise DataError(f"{args.query}: no parseable query SMILES ({failed} failed)")

    probs, attention = finetune_and_predict_detailed(
        model, support, [g for _, g in good], cfg, seed=[seed, KEY_EVAL]
    )
    scores = iter(probs[:, 0])
    writer = csv.writer(sys.stdout)
    writer.writerow(["smiles", "p_positive", "error"])
    for smiles, graph in queries:
        if isinstance(graph, SmilesError):
            writer.writerow([smiles, "", str(graph)])
        else:
            writer.writerow([smiles, f"{next(scores):.6f}", ""])
    print(f"{len(good)} queries scored, {failed} failed to parse", file=sys.stderr)

    if args.attention_out:
        _write_attention(args.attention_out, attention)
    return EXIT_OK


def _write_attention(path, attention: np.ndarray) -> None:
    """The [L, n_query, n_support] attention as one CSV row per layer and query."""
    n_support = attention.shape[2]
    with _csv_file(path, ["layer", "query_index"] + [f"support_{j}" for j in range(n_support)]) as writer:
        for layer, rows in enumerate(attention, start=1):
            for qi, row in enumerate(rows):
                writer.writerow([layer, qi] + [f"{v:.8f}" for v in row])


def cmd_taskrel(args) -> int:
    meta_path = f"{args.out}.meta.jsonl"
    for path in (args.out, meta_path):
        _check_output_path(path, args)
    model, cfg = _load_model(args.ckpt)
    metric = args.metric or cfg.taskrel.metric
    mode = args.mode or cfg.taskrel.mode
    seed = args.seed if args.seed is not None else cfg.train.seed
    registry = load_registry(args.data, (args.split,))
    tasks = [t for t in registry.split_tasks(args.split) if can_sample(t, cfg.protocol)]
    if len(tasks) < 2:
        raise DataError(
            f"task relation needs at least 2 protocol-compatible tasks in {args.split!r}"
        )
    vectors = [
        task_vector(task, model, cfg, mode, seed=[seed, i]) for i, task in enumerate(tasks)
    ]
    try:
        rel = relation_matrix(vectors, metric)
        matrix = row_normalize(rel.matrix) if args.normalize else rel.matrix
    except ValueError as exc:  # e.g. a zero task vector
        raise DataError(str(exc)) from None
    if not np.isfinite(matrix).all():
        raise NumericalError(f"{metric} relation matrix is not finite")

    with _csv_file(args.out, ["task_id"] + rel.task_ids) as writer:
        for task_id, row in zip(rel.task_ids, matrix):
            writer.writerow([task_id] + [f"{v:.10g}" for v in row])
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {
                    "metric": metric,
                    "mode": mode,
                    "normalization": "softmax" if args.normalize else "none",
                    "split": args.split,
                    "n_tasks": len(tasks),
                    "seed": seed,
                },
                sort_keys=True,
            )
            + "\n"
        )
    print(f"wrote {args.out} and {meta_path}", file=sys.stderr)
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    _check_output_path(args.out, args)
    model, cfg = _load_model(args.ckpt)
    entries = []
    for line_no, smiles, graph in _read_molecules(args.smiles):
        if isinstance(graph, SmilesError):
            log.warning("smiles line %d skipped: %s", line_no, graph)
        else:
            entries.append((smiles, graph))
    if not entries:
        raise DataError(f"{args.smiles}: no parseable molecules")
    hidden = model.encoder.hidden
    k = args.pca
    base = str(Path(args.out).with_suffix(""))
    if k is not None:  # checked before any file is written
        limit = min(len(entries), hidden)
        if not 1 <= k <= limit:
            raise ConfigError(f"--pca must be in [1, {limit}] for {len(entries)} molecules")
        layers = range(1, model.encoder.n_layers + 1)
        for path in [*(f"{base}.pca_layer{i}.csv" for i in layers), f"{base}.pca_variance.csv"]:
            _check_output_path(path, args)

    levels = encode_frozen([g for _, g in entries], model.encoder)
    if not np.isfinite(levels).all():
        raise NumericalError("embeddings are not finite")
    pcas = [] if k is None else [_pca(z, k, layer) for layer, z in enumerate(levels, start=1)]
    header = ["molecule_index", "smiles", "layer"] + [f"dim_{i}" for i in range(hidden)]
    with _csv_file(args.out, header) as writer:
        for layer, z in enumerate(levels, start=1):
            for mi, (smiles, _) in enumerate(entries):
                writer.writerow([mi, smiles, layer] + [f"{v:.8f}" for v in z[mi]])

    if k is not None:
        variance_rows = []
        header = ["molecule_index"] + [f"pc_{i + 1}" for i in range(k)]
        for layer, (proj, ratios) in enumerate(pcas, start=1):
            with _csv_file(f"{base}.pca_layer{layer}.csv", header) as writer:
                for mi in range(len(entries)):
                    writer.writerow([mi] + [f"{v:.8f}" for v in proj[mi]])
            for ci, ratio in enumerate(ratios, start=1):
                variance_rows.append([layer, ci, f"{ratio:.8f}"])
        header = ["layer", "component", "explained_variance_ratio"]
        with _csv_file(f"{base}.pca_variance.csv", header) as writer:
            writer.writerows(variance_rows)
    print(f"wrote embeddings for {len(entries)} molecules x {len(levels)} layers", file=sys.stderr)
    return EXIT_OK


def _pca(z: np.ndarray, k: int, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """``metrics.pca_project(z, k)``, or NumericalError when finite but
    huge embeddings overflow the covariance."""
    try:
        proj, ratios = metrics.pca_project(z, k)
        if np.isfinite(proj).all() and np.isfinite(ratios).all():
            return proj, ratios
    except np.linalg.LinAlgError:
        pass
    raise NumericalError(f"PCA of layer {layer} is not finite")


def cmd_synth(args) -> int:
    if min(args.n_train, args.n_valid, args.n_test) < 0 or args.molecules < 4:
        raise ConfigError("synth: counts must be non-negative and --molecules >= 4")
    # adding to an old dataset would mix its tasks with the new ones
    if any(next(Path(args.out, split).glob("*.jsonl"), None) for split in SPLITS):
        raise DataError(f"{args.out}: already holds task files; synth needs a fresh --out")
    registry = synth_generate(
        args.n_train, args.n_test, args.molecules, args.seed, n_valid=args.n_valid
    )
    write_registry(registry, args.out)
    total = args.n_train + args.n_valid + args.n_test
    print(f"wrote {total} tasks under {args.out}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
