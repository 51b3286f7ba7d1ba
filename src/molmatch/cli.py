"""Command-line entry points: train, eval, predict, taskrel,
export-embeddings and synth.

Exit codes: 0 success, 2 configuration problem (bad file, unknown key,
bad flag), 3 data problem (missing/empty/corrupt datasets or
checkpoints), 4 numerical abort (non-finite loss).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, config_from_dict, config_to_dict, load_config
from .encoder import encode_frozen
from .episodes import (
    DataError,
    EpisodeError,
    Registry,
    load_registry,
    synth_generate,
    write_registry,
)
from .matcher import LayerPrediction
from .meta import (
    KEY_EVAL,
    ModelParams,
    NumericalError,
    _sample_episode,
    _task_can_sample,
    finetune_and_predict,
    finetune_and_predict_detailed,
    init_model,
    meta_train,
)
from .smiles import SmilesError, graph_from_smiles
from .taskrel import relation_matrix, row_normalize, task_vector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

WORKERS_ENV = "MOLMATCH_WORKERS"

log = logging.getLogger("molmatch")


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
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, help=f"worker cap (or env {WORKERS_ENV})")
    p.add_argument("--log", help="epoch log CSV path (default: <out>.log.csv)")

    p = sub.add_parser("eval", help="episodic evaluation on the test split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--support-size", type=int, help="override the checkpoint protocol")
    p.add_argument("--repeats", type=int, help="episodes per task (default from checkpoint)")
    p.add_argument("--protocol", choices=["balanced", "unbalanced"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split", default="test", choices=["train", "valid", "test"])

    p = sub.add_parser("predict", help="label queries from a labelled support file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--support", required=True, help="JSONL file of {smiles, label} records")
    p.add_argument("--query", required=True, help="text file with one SMILES per line")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--attention-out", help="also write per-layer attention rows as CSV")

    p = sub.add_parser("taskrel", help="export the task-relation matrix")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metric", choices=["dot", "cosine", "euclidean"])
    p.add_argument("--mode", choices=["adapted-w-delta", "mean-support-embedding"])
    p.add_argument("--out", required=True, help="matrix CSV path")
    p.add_argument("--split", default="train", choices=["train", "valid", "test"])
    p.add_argument("--normalize", action="store_true", help="row-softmax the matrix before writing")
    p.add_argument("--seed", type=int, default=None)

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
    p.add_argument("--seed", type=int, default=0)
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
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, EpisodeError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SmilesError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _save_model(path, model: ModelParams, cfg: RunConfig, epoch: int) -> None:
    tensors = {name: t.values for name, t in model.tensors().items()}
    save_checkpoint(
        path,
        tensors,
        {"config": config_to_dict(cfg), "epoch": epoch, "seed": cfg.train.seed},
    )


def _load_model(path) -> tuple[ModelParams, RunConfig, dict]:
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
    model = model.replace_values({k: v.astype(np.float64) for k, v in tensors.items()})
    return model, cfg, meta


def _trained_epochs(logs) -> int:
    """Epochs behind the weights ``meta_train`` returned: with validation
    it keeps the snapshot of the first best ``val_metric``, else the last."""
    best, best_val = None, -np.inf
    for entry in logs:
        if entry.val_metric is not None and entry.val_metric > best_val:
            best, best_val = entry.epoch, entry.val_metric
    return len(logs) if best is None else best + 1


def cmd_train(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg.train.seed = args.seed
    workers = args.workers
    if workers is None and os.environ.get(WORKERS_ENV):
        try:
            workers = int(os.environ[WORKERS_ENV])
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer") from None
    if workers is not None:
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        cfg.train.workers = workers
    cfg.validate()

    registry = load_registry(args.data)
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

    model, logs = meta_train(registry, cfg, on_epoch=report)
    epochs = _trained_epochs(logs)
    _save_model(args.out, model, cfg, epoch=epochs)

    log_path = args.log or f"{args.out}.log.csv"
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_outer_loss", "wall_seconds", "val_metric"])
        for entry in logs:
            writer.writerow(
                [
                    entry.epoch,
                    f"{entry.mean_outer_loss:.10g}",
                    f"{entry.wall_seconds:.3f}",
                    "" if entry.val_metric is None else f"{entry.val_metric:.10g}",
                ]
            )
    best = "" if epochs == len(logs) else f" (best validation after epoch {epochs})"
    print(f"saved checkpoint to {args.out} after {len(logs)} epochs{best}", file=sys.stderr)
    return EXIT_OK


def _eval_seed(base: int, task_idx: int, repeat: int) -> list[int]:
    return [base, KEY_EVAL, task_idx, repeat]


def _encode_episode_rows(task, episodes, encoder, batch_size: int):
    """Frozen per-layer rows of every task example the episodes use.

    Returns (sorted example indices, one [n_used, hidden] array per
    layer).  Encoding runs in batches of at most ``batch_size``
    molecules, so memory stays at one episode's whatever the task size.
    """
    if not episodes:
        return np.zeros(0, dtype=np.int64), []
    used = np.unique(np.concatenate([np.r_[e.support_idx, e.query_idx] for e in episodes]))
    chunks = [
        encode_frozen([task.examples[i].graph for i in used[start : start + batch_size]], encoder)
        for start in range(0, used.size, batch_size)
    ]
    return used, [np.concatenate(layer) for layer in zip(*chunks)]


def cmd_eval(args) -> int:
    model, cfg, _ = _load_model(args.ckpt)
    if args.support_size is not None:
        if args.support_size < 1:
            raise ConfigError("--support-size must be >= 1")
        cfg.protocol.support_size = args.support_size
    if args.protocol:
        cfg.protocol.sampling = args.protocol
    repeats = args.repeats if args.repeats is not None else cfg.protocol.eval_repeats
    if repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    seed = args.seed if args.seed is not None else cfg.train.seed
    cfg.validate()

    registry = load_registry(args.data)
    tasks = registry.split_tasks(args.split)
    if not tasks:
        raise DataError(f"{args.data}: no tasks in split {args.split!r}")

    metric_names = ("auroc", "auprc", "delta_auprc")
    rows = []
    per_task_means: dict[str, list[float]] = {name: [] for name in metric_names}
    evaluated = 0
    for task_idx, task in enumerate(sorted(tasks, key=lambda t: t.task_id)):
        if not _task_can_sample(task, cfg):
            rows.append({"task_id": task.task_id, "status": "skipped:protocol"})
            continue
        collected: dict[str, list[float]] = {name: [] for name in metric_names}
        episodes = []
        for rep in range(repeats):
            episode = _sample_episode(task, cfg, _eval_seed(seed, task_idx, rep))
            if len({y for _, y in episode.query}) >= 2:
                episodes.append((rep, episode))
        skipped_repeats = repeats - len(episodes)
        # theta is frozen: encode each molecule the episodes use once, then slice
        used, task_levels = _encode_episode_rows(
            task,
            [e for _, e in episodes],
            model.encoder,
            cfg.protocol.support_size + cfg.protocol.query_size,
        )
        for rep, episode in episodes:
            labels = [y for _, y in episode.query]
            picked = np.searchsorted(used, np.r_[episode.support_idx, episode.query_idx])
            probs = finetune_and_predict(
                model,
                episode.support,
                [g for g, _ in episode.query],
                cfg,
                seed=_eval_seed(seed, task_idx, rep) + [1],
                embeddings=[z[picked] for z in task_levels],
            )
            scores = probs[:, 0]
            collected["auroc"].append(metrics.auroc(scores, labels))
            collected["auprc"].append(metrics.auprc(scores, labels))
            collected["delta_auprc"].append(metrics.delta_auprc(scores, labels))
        if not collected["auroc"]:
            rows.append({"task_id": task.task_id, "status": "skipped:single-class-queries"})
            continue
        evaluated += 1
        row = {
            "task_id": task.task_id,
            "status": "ok" if not skipped_repeats else f"ok:{skipped_repeats}-repeats-skipped",
        }
        for name in metric_names:
            agg = metrics.aggregate(task.task_id, cfg.protocol.support_size, collected[name])
            row[f"{name}_mean"] = agg.mean
            row[f"{name}_std"] = agg.std
            row[f"{name}_se"] = agg.stderr
            per_task_means[name].append(agg.mean)
        rows.append(row)

    if not evaluated:
        raise DataError("no task produced a scoreable episode")

    overall = {"task_id": "ALL", "status": f"{evaluated}-tasks"}
    for name in metric_names:
        agg = metrics.aggregate("ALL", cfg.protocol.support_size, per_task_means[name])
        overall[f"{name}_mean"] = agg.mean
        overall[f"{name}_std"] = agg.std
        overall[f"{name}_se"] = agg.stderr
    rows.append(overall)

    with_spread = repeats > 1
    header = ["task_id", "protocol", "support_size", "repeats"]
    for name in metric_names:
        header.append(f"{name}_mean")
        if with_spread:
            header += [f"{name}_std", f"{name}_se"]
    header.append("status")
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        out = [row["task_id"], cfg.protocol.sampling, cfg.protocol.support_size, repeats]
        for name in metric_names:
            out.append(_fmt(row.get(f"{name}_mean")))
            if with_spread:
                out.append(_fmt(row.get(f"{name}_std")))
                out.append(_fmt(row.get(f"{name}_se")))
        out.append(row["status"])
        writer.writerow(out)
    return EXIT_OK


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6f}"


def _read_support_file(path) -> list[tuple]:
    support = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                label = rec["label"]
                if label not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {label!r}")
                support.append((graph_from_smiles(rec["smiles"]), int(label)))
            except (KeyError, TypeError, ValueError, SmilesError) as exc:
                malformed += 1
                log.warning("support line %d skipped: %s", line_no, exc)
    if malformed:
        print(f"support file: {malformed} malformed lines skipped", file=sys.stderr)
    if not support:
        raise DataError(f"{path}: no usable support examples")
    labels = {y for _, y in support}
    if len(labels) < 2:
        print(
            "warning: single-class support set; predictions will be degenerate",
            file=sys.stderr,
        )
    return support


def cmd_predict(args) -> int:
    model, cfg, _ = _load_model(args.ckpt)
    seed = args.seed if args.seed is not None else cfg.train.seed
    support = _read_support_file(args.support)

    queries: list[tuple[str, object]] = []  # (smiles, graph or error message)
    with open(args.query, "r", encoding="utf-8") as fh:
        for line in fh:
            smiles = line.strip()
            if not smiles:
                continue
            try:
                queries.append((smiles, graph_from_smiles(smiles)))
            except SmilesError as exc:
                queries.append((smiles, str(exc)))

    good = [(s, g) for s, g in queries if not isinstance(g, str)]
    failed = len(queries) - len(good)
    if not good:
        raise DataError(f"{args.query}: no parseable query SMILES ({failed} failed)")

    probs, layer_preds = finetune_and_predict_detailed(
        model, support, [g for _, g in good], cfg, seed=[seed, KEY_EVAL]
    )
    by_smiles = {}
    for (smiles, _), p in zip(good, probs[:, 0]):
        by_smiles.setdefault(smiles, []).append(p)

    writer = csv.writer(sys.stdout)
    writer.writerow(["smiles", "p_positive", "error"])
    used: dict[str, int] = {}
    for smiles, graph_or_err in queries:
        if isinstance(graph_or_err, str):
            writer.writerow([smiles, "", graph_or_err])
        else:
            i = used.get(smiles, 0)
            used[smiles] = i + 1
            writer.writerow([smiles, f"{by_smiles[smiles][i]:.6f}", ""])
    print(f"{len(good)} queries scored, {failed} failed to parse", file=sys.stderr)

    if args.attention_out:
        _write_attention(args.attention_out, layer_preds)
    return EXIT_OK


def _write_attention(path, layer_preds: list[LayerPrediction]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        n_support = layer_preds[0].attention.shape[1]
        writer.writerow(["layer", "query_index"] + [f"support_{j}" for j in range(n_support)])
        for layer, pred in enumerate(layer_preds, start=1):
            for qi, row in enumerate(pred.attention.values):
                writer.writerow([layer, qi] + [f"{v:.8f}" for v in row])


def cmd_taskrel(args) -> int:
    model, cfg, _ = _load_model(args.ckpt)
    metric = args.metric or cfg.taskrel.metric
    mode = args.mode or cfg.taskrel.mode
    seed = args.seed if args.seed is not None else cfg.train.seed
    registry = load_registry(args.data)
    tasks = [t for t in registry.split_tasks(args.split) if _task_can_sample(t, cfg)]
    if len(tasks) < 2:
        raise DataError(
            f"task relation needs at least 2 protocol-compatible tasks in {args.split!r}"
        )
    tasks = sorted(tasks, key=lambda t: t.task_id)
    vectors = [
        task_vector(task, model, cfg, mode, seed=[seed, i]) for i, task in enumerate(tasks)
    ]
    rel = relation_matrix(vectors, metric)
    matrix = row_normalize(rel.matrix) if args.normalize else rel.matrix

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id"] + rel.task_ids)
        for task_id, row in zip(rel.task_ids, matrix):
            writer.writerow([task_id] + [f"{v:.10g}" for v in row])
    meta_path = f"{args.out}.meta.jsonl"
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
    model, cfg, _ = _load_model(args.ckpt)
    entries = []
    with open(args.smiles, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            smiles = line.strip()
            if not smiles:
                continue
            try:
                entries.append((smiles, graph_from_smiles(smiles)))
            except SmilesError as exc:
                log.warning("smiles line %d skipped: %s", line_no, exc)
    if not entries:
        raise DataError(f"{args.smiles}: no parseable molecules")

    levels = encode_frozen([g for _, g in entries], model.encoder)
    hidden = levels[0].shape[1]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["molecule_index", "smiles", "layer"] + [f"dim_{i}" for i in range(hidden)])
        for layer, z in enumerate(levels, start=1):
            for mi, (smiles, _) in enumerate(entries):
                writer.writerow([mi, smiles, layer] + [f"{v:.8f}" for v in z[mi]])

    if args.pca:
        k = args.pca
        limit = min(len(entries), hidden)
        if not 1 <= k <= limit:
            raise ConfigError(f"--pca must be in [1, {limit}] for {len(entries)} molecules")
        base = str(Path(args.out).with_suffix(""))
        variance_rows = []
        for layer, z in enumerate(levels, start=1):
            proj, ratios = metrics.pca_project(z, k)
            with open(f"{base}.pca_layer{layer}.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["molecule_index"] + [f"pc_{i + 1}" for i in range(k)])
                for mi in range(len(entries)):
                    writer.writerow([mi] + [f"{v:.8f}" for v in proj[mi]])
            for ci, ratio in enumerate(ratios, start=1):
                variance_rows.append([layer, ci, f"{ratio:.8f}"])
        with open(f"{base}.pca_variance.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "component", "explained_variance_ratio"])
            writer.writerows(variance_rows)
    print(f"wrote embeddings for {len(entries)} molecules x {len(levels)} layers", file=sys.stderr)
    return EXIT_OK


def cmd_synth(args) -> int:
    if min(args.n_train, args.n_valid, args.n_test) < 0 or args.molecules < 4:
        raise ConfigError("synth: counts must be non-negative and --molecules >= 4")
    registry = synth_generate(
        args.n_train, args.n_test, args.molecules, args.seed, n_valid=args.n_valid
    )
    write_registry(registry, args.out)
    total = registry.n_tasks
    print(f"wrote {total} tasks under {args.out}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
