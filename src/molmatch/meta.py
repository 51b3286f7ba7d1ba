"""Episodic meta-training and per-task adaptation.

The encoder parameters (theta) are shared across tasks and updated only
by the outer optimizer.  The matching parameters (w) are adapted per
task by plain gradient descent on a held-out slice of the support set,
and the outer step uses first-order gradients: the adapted w is treated
as a constant function of w, so gradients taken at the adapted point
apply directly to the shared initialisation.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .config import RunConfig, TrainConfig
from .encoder import EncoderParams, encode_frozen
from .episodes import (
    Episode,
    EpisodeError,
    Registry,
    TaskRecord,
    sample_episode_balanced,
    sample_episode_unbalanced,
)
from .matcher import LayerPrediction, MatchParams, fuse, match_layer, predict_detailed
from .smiles import MolGraph
from .tensor import Tensor, backward, cross_entropy

__all__ = [
    "NumericalError",
    "ModelParams",
    "AdaptedParams",
    "EpochLog",
    "init_model",
    "split_support",
    "episode_loss",
    "inner_adapt",
    "meta_train",
    "finetune_and_predict",
    "finetune_and_predict_detailed",
]

log = logging.getLogger(__name__)

# rng namespace tags so every random draw has a documented derivation
KEY_BATCH = 1
KEY_EPISODE = 2
KEY_SPLIT = 3
KEY_DROPOUT = 4
KEY_EVAL = 5
KEY_ENC_INIT = 10
KEY_MATCH_INIT = 11


class NumericalError(ArithmeticError):
    """A loss or gradient went non-finite."""


def _rng(*keys) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in keys])


@dataclass
class ModelParams:
    """Shared encoder (theta) plus matching parameters (w)."""

    encoder: EncoderParams
    matcher: MatchParams

    def tensors(self) -> dict[str, Tensor]:
        out = {f"encoder.{k}": t for k, t in self.encoder.tensors().items()}
        out.update({f"matcher.{k}": t for k, t in self.matcher.tensors().items()})
        return out

    def replace_values(self, values: dict[str, np.ndarray]) -> "ModelParams":
        enc = {k.split(".", 1)[1]: v for k, v in values.items() if k.startswith("encoder.")}
        mat = {k.split(".", 1)[1]: v for k, v in values.items() if k.startswith("matcher.")}
        return ModelParams(self.encoder.replace_values(enc), self.matcher.replace_values(mat))

    def clone(self) -> "ModelParams":
        return ModelParams(self.encoder.clone(), self.matcher.clone())


@dataclass
class AdaptedParams:
    w_tau: MatchParams
    task_id: str
    final_inner_loss: float
    loss_history: list[float] = field(default_factory=list)


@dataclass
class EpochLog:
    epoch: int
    mean_outer_loss: float
    wall_seconds: float
    val_metric: float | None = None


def init_model(cfg: RunConfig) -> ModelParams:
    encoder = EncoderParams.init(
        cfg.encoder.layers, cfg.encoder.hidden, seed=[cfg.train.seed, KEY_ENC_INIT]
    )
    matcher = MatchParams.init(
        cfg.encoder.layers,
        cfg.encoder.hidden,
        seed=[cfg.train.seed, KEY_MATCH_INIT],
        share_qk=cfg.matcher.share_qk,
        learn_bias=cfg.matcher.fusion_bias,
    )
    return ModelParams(encoder, matcher)


def _onehot(labels) -> Tensor:
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    return Tensor(np.stack([y, 1.0 - y], axis=1))


def split_support(examples: list, fraction: float, seed) -> tuple[list, list]:
    """Stratified split of (item, label) pairs into adaptation support
    and adaptation queries.

    Per-class counts follow the largest-remainder rule so the overall
    split matches ``fraction`` as closely as possible while keeping at
    least one example of every multi-member class on each side.
    Single-member classes go to the support side.
    """
    support_idx, query_idx = _split_rows([label for _, label in examples], fraction, seed)
    return [examples[i] for i in support_idx], [examples[i] for i in query_idx]


def _split_rows(labels, fraction: float, seed) -> tuple[list[int], list[int]]:
    """``split_support`` on row numbers: sorted (support, query) rows."""
    if not 0 < fraction < 1:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    if not len(labels):
        raise ValueError("cannot split an empty example list")
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(int(label), []).append(i)

    support_idx: list[int] = []
    query_idx: list[int] = []
    multi = {c: idx for c, idx in sorted(by_class.items()) if len(idx) >= 2}
    for c, idx in sorted(by_class.items()):
        if len(idx) == 1:
            support_idx.extend(idx)
            log.debug("class %s has a single example; assigning it to the support side", c)

    base: dict[int, int] = {}
    remainders: list[tuple[float, int]] = []
    for c, idx in multi.items():
        raw = fraction * len(idx)
        base[c] = int(raw)
        remainders.append((raw - int(raw), c))
    seats = int(round(fraction * sum(len(idx) for idx in multi.values()))) - sum(base.values())
    for _, c in sorted(remainders, key=lambda rc: (-rc[0], rc[1])):
        if seats <= 0:
            break
        if base[c] + 1 <= len(multi[c]) - 1:
            base[c] += 1
            seats -= 1
    for c, idx in multi.items():
        take = min(max(base[c], 1), len(idx) - 1)
        order = np.array(idx)
        rng.shuffle(order)
        support_idx.extend(int(i) for i in order[:take])
        query_idx.extend(int(i) for i in order[take:])

    support_idx.sort()
    query_idx.sort()
    return support_idx, query_idx


def episode_loss(
    support: list[tuple[MolGraph, int]],
    query: list[tuple[MolGraph, int]],
    encoder_params: EncoderParams,
    match_params: MatchParams,
    *,
    training: bool = False,
    matcher_dropout: float = 0.0,
    encoder_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Summed cross-entropy of the fused predictions over the query set."""
    if not support or not query:
        raise ValueError("episode_loss: support and query must both be non-empty")
    probs, _ = predict_detailed(
        [g for g, _ in support],
        [y for _, y in support],
        [g for g, _ in query],
        encoder_params,
        match_params,
        training=training,
        matcher_dropout=matcher_dropout,
        encoder_dropout=encoder_dropout,
        rng=rng,
    )
    return cross_entropy(probs, _onehot([y for _, y in query]))


def _match_from_embeddings(
    z_support: list[Tensor], z_query: list[Tensor], y_support: Tensor, match_params: MatchParams
) -> tuple[Tensor, list[LayerPrediction]]:
    preds = [
        match_layer(zq, zs, y_support, match_params, layer)
        for layer, (zq, zs) in enumerate(zip(z_query, z_support))
    ]
    return fuse(preds, match_params), preds


def _rows(levels: list[np.ndarray], rows) -> list[Tensor]:
    return [Tensor(z[rows]) for z in levels]


def inner_adapt(
    encoder_params: EncoderParams,
    match_params: MatchParams,
    support: list[tuple[MolGraph, int]],
    queries: list[tuple[MolGraph, int]],
    cfg: TrainConfig,
    task_id: str = "",
) -> AdaptedParams:
    """Gradient-descent adaptation of w with theta frozen.

    The encoder runs once in inference mode over support plus queries;
    the inner objective is deterministic (no dropout), so each step is
    exactly w <- w - alpha * grad.  With zero steps the clone of w is
    returned untouched, which is the zero-shot path.
    """
    if not support:
        raise ValueError("inner_adapt: empty adaptation support set")
    pairs = list(support) + list(queries)
    n_s = len(support)
    return _adapt_on_rows(
        match_params,
        encode_frozen([g for g, _ in pairs], encoder_params),
        np.asarray([y for _, y in pairs], dtype=np.float64),
        np.arange(n_s),
        np.arange(n_s, len(pairs)),
        cfg,
        task_id,
    )


def _adapt_on_rows(
    match_params: MatchParams,
    levels: list[np.ndarray],
    labels: np.ndarray,
    support_rows,
    query_rows,
    cfg: TrainConfig,
    task_id: str,
) -> AdaptedParams:
    """The inner loop of ``inner_adapt`` on precomputed frozen embeddings:
    ``levels[l][r]`` is row r's layer-l embedding and ``labels[r]`` its
    label."""
    w_tau = match_params.clone(requires_grad=True)
    history: list[float] = []
    if not len(query_rows):
        log.debug("task %s: no adaptation queries; skipping inner loop", task_id)
        return AdaptedParams(w_tau, task_id, float("nan"), history)

    z_support = _rows(levels, support_rows)
    z_query = _rows(levels, query_rows)
    y_s = Tensor(labels[support_rows].reshape(-1, 1))
    target = _onehot(labels[query_rows])

    def loss_of(w: MatchParams) -> Tensor:
        probs, _ = _match_from_embeddings(z_support, z_query, y_s, w)
        return cross_entropy(probs, target)

    for _ in range(cfg.inner_steps):
        loss = loss_of(w_tau)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalError(f"task {task_id}: non-finite inner loss {value}")
        history.append(value)
        names = w_tau.tensors()
        grads = backward(loss, params=names.values(), write_grad=False)
        if cfg.alpha == 0.0:
            w_tau = w_tau.replace_values({})
            continue
        updates = {}
        for name, tensor in names.items():
            if tensor.requires_grad:
                updates[name] = tensor.values - cfg.alpha * grads[tensor]
        w_tau = w_tau.replace_values(updates)

    final = loss_of(w_tau).item()
    if not np.isfinite(final):
        raise NumericalError(f"task {task_id}: non-finite inner loss {final}")
    history.append(final)
    return AdaptedParams(w_tau, task_id, final, history)


def _sample_episode(task: TaskRecord, cfg: RunConfig, seed) -> Episode:
    if cfg.protocol.sampling == "balanced":
        return sample_episode_balanced(task, cfg.protocol.support_size, cfg.protocol.query_size, seed)
    return sample_episode_unbalanced(task, cfg.protocol.support_size, cfg.protocol.query_size, seed)


def _task_can_sample(task: TaskRecord, cfg: RunConfig) -> bool:
    neg, pos = task.class_counts()
    total = neg + pos
    if cfg.protocol.sampling == "balanced":
        half = cfg.protocol.support_size // 2
        return (
            cfg.protocol.support_size % 2 == 0
            and neg >= half
            and pos >= half
            and total > cfg.protocol.support_size
        )
    return 1 <= cfg.protocol.support_size < total


def _outer_task_step(
    model: ModelParams, task: TaskRecord, cfg: RunConfig, epoch: int, slot: int
) -> tuple[float, dict[str, np.ndarray]]:
    """Inner-adapt one episode, evaluate the outer loss at the adapted
    point and return its gradients keyed by shared-parameter name."""
    seed = cfg.train.seed
    episode = _sample_episode(task, cfg, [seed, KEY_EPISODE, epoch, slot])
    s_adapt, q_adapt = split_support(
        episode.support, cfg.train.support_split_fraction, [seed, KEY_SPLIT, epoch, slot]
    )
    adapted = inner_adapt(model.encoder, model.matcher, s_adapt, q_adapt, cfg.train, task.task_id)
    loss = episode_loss(
        episode.support,
        episode.query,
        model.encoder,
        adapted.w_tau,
        training=True,
        matcher_dropout=cfg.matcher.dropout,
        encoder_dropout=cfg.encoder.dropout,
        rng=_rng(seed, KEY_DROPOUT, epoch, slot),
    )
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalError(f"task {task.task_id}: non-finite outer loss {value}")

    watched: dict[str, Tensor] = {
        f"encoder.{k}": t for k, t in model.encoder.tensors().items()
    }
    watched.update({f"matcher.{k}": t for k, t in adapted.w_tau.tensors().items()})
    grads = backward(loss, params=watched.values(), write_grad=False)
    gmap = {
        name: grads[tensor] for name, tensor in watched.items() if tensor.requires_grad
    }
    return value, gmap


def meta_train(registry: Registry, cfg: RunConfig, *, on_epoch=None):
    """Episodic training over the train split.

    Returns the trained ModelParams and a list of EpochLog entries.
    Tasks inside a batch may be dispatched to worker threads; gradient
    maps are merged in slot order so results do not depend on the
    worker count.
    """
    from .optim import make_optimizer

    cfg.validate()
    tasks = [t for t in registry.split_tasks("train") if _task_can_sample(t, cfg)]
    if not tasks:
        raise EpisodeError("no train task can satisfy the episode protocol")
    tasks = sorted(tasks, key=lambda t: t.task_id)

    model = init_model(cfg)
    optimizer = make_optimizer(cfg.train.optimizer, cfg.train.meta_lr, cfg.train.weight_decay)
    logs: list[EpochLog] = []
    best_val = -np.inf
    best_model = None
    stale = 0

    for epoch in range(cfg.train.max_epochs):
        start = time.perf_counter()
        rng = _rng(cfg.train.seed, KEY_BATCH, epoch)
        batch = rng.choice(
            len(tasks), size=cfg.train.batch_tasks, replace=len(tasks) < cfg.train.batch_tasks
        )
        jobs = [(slot, tasks[int(i)]) for slot, i in enumerate(batch)]
        if cfg.train.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.train.workers) as pool:
                results = list(
                    pool.map(lambda job: _outer_task_step(model, job[1], cfg, epoch, job[0]), jobs)
                )
        else:
            results = [_outer_task_step(model, task, cfg, epoch, slot) for slot, task in jobs]

        total_loss = 0.0
        summed: dict[str, np.ndarray] = {}
        for value, gmap in results:  # slot order: deterministic merge
            total_loss += value
            for name, g in gmap.items():
                if name in summed:
                    summed[name] = summed[name] + g
                else:
                    summed[name] = g
        if not np.isfinite(total_loss):
            raise NumericalError(f"epoch {epoch}: non-finite batch loss")

        values = {name: t.values for name, t in model.tensors().items()}
        model = model.replace_values(optimizer.step(values, summed))

        entry = EpochLog(
            epoch=epoch,
            mean_outer_loss=total_loss / len(jobs),
            wall_seconds=time.perf_counter() - start,
        )
        if cfg.train.early_stop and registry.split_tasks("valid"):
            entry.val_metric = _validation_metric(model, registry, cfg, epoch)
            if entry.val_metric > best_val:
                best_val = entry.val_metric
                best_model = model
                stale = 0
            else:
                stale += 1
        logs.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
        if cfg.train.early_stop and stale >= cfg.train.patience:
            log.info("early stop at epoch %d (no improvement for %d epochs)", epoch, stale)
            break
    # The optimizer returns fresh arrays, so the snapshot is never overwritten.
    return (model if best_model is None else best_model), logs


def _validation_metric(model: ModelParams, registry: Registry, cfg: RunConfig, epoch: int) -> float:
    """Mean query-set lift of the precision sweep over validation tasks."""
    scores = []
    for i, task in enumerate(registry.split_tasks("valid")):
        if not _task_can_sample(task, cfg):
            continue
        try:
            episode = _sample_episode(task, cfg, [cfg.train.seed, KEY_EVAL, epoch, i])
            probs = finetune_and_predict(
                model,
                episode.support,
                [g for g, _ in episode.query],
                cfg,
                seed=[cfg.train.seed, KEY_EVAL, epoch, i, 1],
            )
            labels = [y for _, y in episode.query]
            if len(set(labels)) < 2:
                continue
            scores.append(metrics.delta_auprc(probs[:, 0], labels))
        except (EpisodeError, NumericalError):
            continue
    return float(np.mean(scores)) if scores else -np.inf


def finetune_and_predict(
    model: ModelParams,
    support_set: list[tuple[MolGraph, int]],
    query_graphs: list[MolGraph],
    cfg: RunConfig,
    seed,
    *,
    embeddings: list[np.ndarray] | None = None,
) -> np.ndarray:
    probs, _ = finetune_and_predict_detailed(
        model, support_set, query_graphs, cfg, seed, embeddings=embeddings
    )
    return probs


def finetune_and_predict_detailed(
    model: ModelParams,
    support_set: list[tuple[MolGraph, int]],
    query_graphs: list[MolGraph],
    cfg: RunConfig,
    seed,
    *,
    embeddings: list[np.ndarray] | None = None,
):
    """Inference: adapt w on a split of the labelled set, then predict
    the queries with the full labelled set as attention support.

    Theta is frozen here, so the support and queries are encoded once,
    without an autodiff graph, and both the inner loop and the final
    match slice those rows.  ``embeddings`` supplies the rows instead:
    ``encode_frozen`` output for the support graphs followed by the
    query graphs, so a caller scoring many episodes of one task encodes
    each molecule once.

    Returns ([n_query, 2] probabilities, per-layer predictions).  Theta
    is never modified.
    """
    if not support_set:
        raise ValueError("finetune_and_predict: empty support set")
    if not query_graphs:
        raise ValueError("finetune_and_predict: empty query list")
    n_s = len(support_set)
    n_rows = n_s + len(query_graphs)
    if embeddings is None:
        embeddings = encode_frozen(
            [g for g, _ in support_set] + list(query_graphs), model.encoder
        )
    elif any(z.shape[0] != n_rows for z in embeddings):
        raise ValueError(f"finetune_and_predict: embeddings must have {n_rows} rows")
    labels = np.asarray([y for _, y in support_set], dtype=np.float64)
    s_fine, q_fine = _split_rows(labels, cfg.train.support_split_fraction, seed)
    adapted = _adapt_on_rows(
        model.matcher, embeddings, labels, s_fine, q_fine, cfg.train, task_id="finetune"
    )
    probs, layer_preds = _match_from_embeddings(
        _rows(embeddings, slice(0, n_s)),
        _rows(embeddings, slice(n_s, n_rows)),
        Tensor(labels.reshape(-1, 1)),
        adapted.w_tau.detach(),
    )
    return probs.values, layer_preds
