"""Episodic meta-training and per-task adaptation.

The encoder parameters (theta) are shared across tasks and updated only
by the outer optimizer.  The matching parameters (w) are adapted per
task by plain gradient descent on a held-out slice of the support set,
and the outer step uses first-order gradients: the adapted w is treated
as a constant function of w, so gradients taken at the adapted point
apply directly to the shared initialisation.
"""

from __future__ import annotations

import contextvars
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metrics
from .config import RunConfig, TrainConfig
from .encoder import EncoderParams, encode_frozen, encode_multilevel, frozen_batches
from .episodes import (
    EpisodeError,
    Registry,
    TaskRecord,
    can_query_both_classes,
    can_sample,
    sample_episode,
)
from .matcher import MatchParams, episode_rows, match_levels
from .optim import make_optimizer
from .params import Params
from .smiles import MolGraph
from .tensor import Tensor, backward, cross_entropy, reshape, sum_all

__all__ = [
    "NumericalError",
    "ModelParams",
    "EpochLog",
    "best_epoch",
    "init_model",
    "split_support",
    "episode_loss",
    "inner_adapt",
    "meta_train",
    "finetune_and_predict",
    "finetune_and_predict_detailed",
    "score_task",
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
    """A loss, gradient or updated weight went non-finite."""


def _rng(*keys) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in keys])


def _named_grads(loss: Tensor, params: Params, task_id: str) -> dict[str, np.ndarray]:
    """Gradients of ``loss`` for the trainable tensors of ``params``, by
    name; a non-finite one raises before any update."""
    named = params.tensors()
    grads = backward(loss, params=named.values())
    gmap = {name: grads[t] for name, t in named.items() if t.requires_grad}
    for name, g in gmap.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"task {task_id}: non-finite gradient for {name}")
    return gmap


class ModelParams(Params):
    """Shared encoder (theta) plus matching parameters (w), under their
    checkpoint names: ``encoder.<name>`` and ``matcher.<name>``.

    ``encoder`` and ``matcher`` are views holding the same Tensor
    objects, so gradients taken through them land on ``tensors()``.
    """

    @staticmethod
    def join(encoder: EncoderParams, matcher: MatchParams) -> "ModelParams":
        tensors = {f"encoder.{k}": t for k, t in encoder.tensors().items()}
        tensors.update({f"matcher.{k}": t for k, t in matcher.tensors().items()})
        return ModelParams(tensors)

    def _part(self, prefix: str) -> dict[str, Tensor]:
        return {k[len(prefix):]: t for k, t in self._tensors.items() if k.startswith(prefix)}

    @property
    def encoder(self) -> EncoderParams:
        return EncoderParams(self._part("encoder."))

    @property
    def matcher(self) -> MatchParams:
        return MatchParams(self._part("matcher."))


@dataclass
class EpochLog:
    epoch: int
    mean_outer_loss: float
    wall_seconds: float
    val_metric: float | None = None


def best_epoch(logs: list[EpochLog]) -> int | None:
    """The epoch whose weights early stopping keeps: the first with the
    highest ``val_metric`` above -inf, or None when no epoch has one."""
    scored = [e for e in logs if e.val_metric is not None and e.val_metric > -np.inf]
    return max(scored, key=lambda e: e.val_metric).epoch if scored else None


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
    return ModelParams.join(encoder, matcher)


def _onehot(labels) -> Tensor:
    """[..., 2] one-hot rows for 0/1 labels, class 0 (positive) first."""
    y = np.asarray(labels, dtype=np.float64)
    return Tensor(np.stack([y, 1.0 - y], axis=-1))


def split_support(labels, fraction: float, seed) -> tuple[list[int], list[int]]:
    """Stratified split of labelled rows into adaptation support and
    adaptation queries: sorted (support, query) row numbers of ``labels``.

    Per-class counts follow the largest-remainder rule so the overall
    split matches ``fraction`` as closely as possible while keeping at
    least one example of every multi-member class on each side.
    Single-member classes go to the support side.
    """
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
    levels: Tensor,
    labels,
    support_rows,
    query_rows,
    match_params: MatchParams,
    *,
    matcher_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Summed cross-entropy of the fused predictions for one episode:
    the rows ``query_rows`` of the [L, n, d] level stack ``levels``
    matched against its rows ``support_rows``, row r labelled
    ``labels[r]``.

    Gradients reach ``levels`` when it is graph-tracked, and the tensors
    of ``match_params``.  Matcher dropout is on exactly when
    ``matcher_dropout`` is above 0: training passes its configured rate,
    every other caller 0.
    """
    if not len(support_rows) or not len(query_rows):
        raise ValueError("episode_loss: support and query must both be non-empty")
    labels = np.asarray(labels, dtype=np.float64)
    one = MatchParams({  # add the episode axis
        name: reshape(t, (1, *t.shape)) for name, t in match_params.tensors().items()
    })
    probs, _, _ = match_levels(
        episode_rows(levels, np.asarray(query_rows)[None]),
        episode_rows(levels, np.asarray(support_rows)[None]),
        labels[support_rows].reshape(1, -1, 1),
        one,
        dropout_rate=matcher_dropout,
        rng=rng,
    )
    return cross_entropy(reshape(probs, (len(query_rows), 2)), _onehot(labels[query_rows]))


def inner_adapt(
    match_params: MatchParams,
    stacked: np.ndarray,
    labels: np.ndarray,
    splits,
    cfg: TrainConfig,
    task_id: str = "",
) -> tuple[dict[str, np.ndarray], list[list[float]], dict[int, NumericalError]]:
    """Gradient-descent adaptation of w with theta frozen, for E episodes
    at once, on precomputed frozen embeddings: ``stacked[l, r]`` is row
    r's layer-l embedding and ``labels[r]`` its label, and episode e
    adapts on the rows ``splits[e][0]`` with the queries ``splits[e][1]``.

    The inner objective is deterministic (no dropout), so each step is
    exactly w <- w - alpha * grad; with zero steps, or no queries, w is
    returned unadapted, which is the zero-shot path.  Episodes whose
    splits have the same sizes adapt in one stack: every tensor of w gets
    a leading episode axis, and a step is one ``match_levels`` call and
    one backward sweep over the summed episode losses.  The episodes
    share no term, so each episode's weights receive exactly the
    gradient, and take exactly the steps, that adapting it alone gives.
    An episode whose loss or gradient goes non-finite leaves its stack.

    Returns w stacked [E, ...] by name, each episode's inner-loss
    history, and the NumericalError of each episode whose adaptation
    fails, by episode; a failed episode's rows hold w unadapted.
    """
    if any(not len(support) for support, _ in splits):
        raise ValueError("inner_adapt: empty adaptation support set")
    named = match_params.tensors()
    trainable = {name for name, t in named.items() if t.requires_grad}
    w = {name: np.repeat(t.values[None], len(splits), axis=0) for name, t in named.items()}
    histories: list[list[float]] = [[] for _ in splits]
    errors: dict[int, NumericalError] = {}
    groups: dict[tuple[int, int], list[int]] = {}
    for e, (support, query) in enumerate(splits):
        groups.setdefault((len(support), len(query)), []).append(e)
    levels = Tensor(stacked)
    for (_, n_query), members in groups.items():
        if not n_query:
            log.debug("task %s: no adaptation queries; skipping inner loop", task_id)
            continue
        live = np.array(members)  # the episodes still in the stack, in order
        support_rows, query_rows = (np.array([splits[e][side] for e in members]) for side in (0, 1))
        z_support, z_query = episode_rows(levels, support_rows), episode_rows(levels, query_rows)
        y_s = labels[support_rows][..., None]
        target = _onehot(labels[query_rows])
        w_live = {name: v[live] for name, v in w.items()}
        for step in range(cfg.inner_steps + 1):
            leaves = MatchParams(
                {name: Tensor(v, requires_grad=name in trainable) for name, v in w_live.items()}
            )
            probs, _, _ = match_levels(z_query, z_support, y_s, leaves)
            losses = cross_entropy(probs, target)
            ok = np.isfinite(losses.values)
            for e, value, finite in zip(live.tolist(), losses.values.tolist(), ok):
                if finite:
                    histories[e].append(value)
                else:
                    errors[e] = NumericalError(f"task {task_id}: non-finite inner loss {value}")
            if step < cfg.inner_steps:
                grads = backward(sum_all(losses), params=leaves.tensors().values())
                for name, t in leaves.tensors().items():
                    if name not in trainable:
                        continue
                    finite = np.isfinite(grads[t]).reshape(len(live), -1).all(axis=1)
                    for e in live[ok & ~finite].tolist():
                        errors[e] = NumericalError(f"task {task_id}: non-finite gradient for {name}")
                    ok &= finite
                    if cfg.alpha != 0.0:
                        w_live[name] = w_live[name] - cfg.alpha * grads[t]
            if not ok.all():
                live, y_s = live[ok], y_s[ok]
                z_support, z_query, target = (
                    Tensor(t.values[ok]) for t in (z_support, z_query, target)
                )
                w_live = {name: v[ok] for name, v in w_live.items()}
                if not live.size:
                    break
        for name, v in w_live.items():
            w[name][live] = v
    return w, histories, errors


def _outer_task_step(
    model: ModelParams, task: TaskRecord, cfg: RunConfig, epoch: int, slot: int
) -> tuple[float, dict[str, np.ndarray]]:
    """Inner-adapt one episode, evaluate the outer loss at the adapted
    point and return its gradients keyed by shared-parameter name.

    The episode's molecules are encoded once, graph-tracked, and the
    outer loss reads those levels.  The inner loop adapts on the
    inference-mode rows of its split, support side first: theta does not
    change before the outer loss, so without encoder dropout those are
    the detached levels; dropped-out rows are not, so with encoder
    dropout the split is encoded again by ``encode_frozen``.
    """
    seed = cfg.train.seed
    episode = sample_episode(task, cfg.protocol, [seed, KEY_EPISODE, epoch, slot])
    pairs = episode.support + episode.query
    graphs = [g for g, _ in pairs]
    labels = np.asarray([y for _, y in pairs], dtype=np.float64)
    n_support = len(episode.support)
    s_rows, q_rows = split_support(
        labels[:n_support], cfg.train.support_split_fraction, [seed, KEY_SPLIT, epoch, slot]
    )
    rng = _rng(seed, KEY_DROPOUT, epoch, slot)
    levels = encode_multilevel(graphs, model.encoder, dropout_rate=cfg.encoder.dropout, rng=rng)
    split = s_rows + q_rows
    if cfg.encoder.dropout > 0.0:
        frozen = encode_frozen([graphs[i] for i in split], model.encoder)
    else:
        frozen = levels.values[:, split]
    w, _, errors = inner_adapt(
        model.matcher,
        frozen,
        labels[split],
        [(np.arange(len(s_rows)), np.arange(len(s_rows), len(split)))],
        cfg.train,
        task.task_id,
    )
    if errors:
        raise errors[0]
    w_tau = model.matcher.replace_values({name: v[0] for name, v in w.items()})
    loss = episode_loss(
        levels,
        labels,
        np.arange(n_support),
        np.arange(n_support, len(pairs)),
        w_tau,
        matcher_dropout=cfg.matcher.dropout,
        rng=rng,
    )
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalError(f"task {task.task_id}: non-finite outer loss {value}")

    watched = ModelParams.join(model.encoder, w_tau)
    return value, _named_grads(loss, watched, task.task_id)


def meta_train(registry: Registry, cfg: RunConfig, *, on_epoch=None):
    """Episodic training over the train split.

    Returns the trained ModelParams and a list of EpochLog entries.
    Tasks inside a batch may be dispatched to worker threads; each
    task's loss and gradients are added to the running sums as it is
    taken, in slot order, so results do not depend on the worker count
    and no more than a few gradient maps are held at once.  With
    validation tasks, the weights of ``best_epoch(logs)`` are returned.
    """
    cfg.validate()
    tasks = [t for t in registry.split_tasks("train") if can_sample(t, cfg.protocol)]
    if not tasks:
        raise EpisodeError("no train task can satisfy the episode protocol")
    valid = registry.split_tasks("valid") if cfg.train.early_stop else []
    if valid and not any(can_query_both_classes(t, cfg.protocol) for t in valid):
        # validation would score no episode, so early stopping would stop blind
        raise EpisodeError(
            "no valid task can satisfy the episode protocol with both classes in its queries"
        )

    model = init_model(cfg)
    optimizer = make_optimizer(cfg.train.optimizer, cfg.train.meta_lr, cfg.train.weight_decay)
    logs: list[EpochLog] = []
    best_model = None

    for epoch in range(cfg.train.max_epochs):
        start = time.perf_counter()
        rng = _rng(cfg.train.seed, KEY_BATCH, epoch)
        batch = rng.choice(
            len(tasks), size=cfg.train.batch_tasks, replace=len(tasks) < cfg.train.batch_tasks
        )
        # pool threads start in an empty context, so each task runs in a
        # copy of this one and keeps the caller's numpy error state
        jobs = [(slot, tasks[int(i)], contextvars.copy_context()) for slot, i in enumerate(batch)]
        total_loss = 0.0
        summed: dict[str, np.ndarray] = {}
        with ThreadPoolExecutor(max_workers=cfg.train.workers) as pool:
            steps = (pool.map if cfg.train.workers > 1 else map)(
                lambda job: job[2].run(_outer_task_step, model, job[1], cfg, epoch, job[0]), jobs
            )
            for value, gmap in steps:  # slot order: deterministic sums
                total_loss += value
                for name, g in gmap.items():
                    summed[name] = summed[name] + g if name in summed else g
        if not np.isfinite(total_loss):
            raise NumericalError(f"epoch {epoch}: non-finite batch loss")

        values = {name: t.values for name, t in model.tensors().items()}
        values = optimizer.step(values, summed)
        for name in summed:
            if not np.isfinite(values[name]).all():
                raise NumericalError(
                    f"epoch {epoch}: non-finite weight {name} after the optimizer step"
                )
        model = model.replace_values(values)

        entry = EpochLog(
            epoch=epoch,
            mean_outer_loss=total_loss / len(jobs),
            wall_seconds=time.perf_counter() - start,
        )
        if valid:
            entry.val_metric = _validation_metric(model, valid, cfg, epoch)
        logs.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
        best = best_epoch(logs)
        if best == epoch:
            # the optimizer returns fresh arrays, so the snapshot is never overwritten
            best_model = model
        stale = epoch - (-1 if best is None else best)
        if valid and stale >= cfg.train.patience:
            log.info("early stop at epoch %d (no improvement for %d epochs)", epoch, stale)
            break
    return (model if best_model is None else best_model), logs


def _validation_metric(
    model: ModelParams, valid: list[TaskRecord], cfg: RunConfig, epoch: int
) -> float:
    """Mean query-set lift of the precision sweep over the validation
    tasks, one ``score_task`` episode each."""
    scores = []
    for i, task in enumerate(valid):
        if can_sample(task, cfg.protocol):
            seeds = [[cfg.train.seed, KEY_EVAL, epoch, i]]
            scores += [metrics.delta_auprc(s, y) for s, y in score_task(model, task, cfg, seeds)]
    return float(np.mean(scores)) if scores else -np.inf


def score_task(
    model: ModelParams, task: TaskRecord, cfg: RunConfig, seeds
) -> list[tuple[np.ndarray, list[int]]]:
    """The evaluation protocol for one task: one episode per seed.

    Episodes whose queries are all one class are dropped before any
    work.  Theta is frozen, so every molecule the kept episodes use is
    encoded once, by ``encode_frozen`` under its atom budget.  Each
    episode adapts w on its support with ``seed + [1]``, then all
    episodes' queries are matched against their whole supports in one
    stacked pass.  Returns (positive-class scores, query labels) per kept
    episode, in seed order; when some episode fails, in adaptation or in
    prediction, the first failing one in seed order raises its
    NumericalError.
    """
    episodes = [(seed, sample_episode(task, cfg.protocol, seed)) for seed in seeds]
    episodes = [(seed, e) for seed, e in episodes if len({y for _, y in e.query}) >= 2]
    if not episodes:
        return []
    used = np.unique(np.concatenate([np.r_[e.support_idx, e.query_idx] for _, e in episodes]))
    labels = np.asarray([task.examples[i].label for i in used], dtype=np.float64)
    stacked = encode_frozen([task.examples[i].graph for i in used], model.encoder)
    # the samplers give every episode of a task the same support and query sizes
    support = np.array([np.searchsorted(used, e.support_idx) for _, e in episodes])
    query = np.array([np.searchsorted(used, e.query_idx) for _, e in episodes])
    fine_seeds = [[*seed, 1] for seed, _ in episodes]
    w, _, errors = _adapt_labelled(
        model.matcher, stacked, labels, support, cfg, fine_seeds, task.task_id
    )
    levels = Tensor(stacked)
    probs, _, ok = _match_rows(
        episode_rows(levels, query), episode_rows(levels, support), labels[support][..., None], w
    )
    for e in np.nonzero(~ok)[0]:  # an episode that failed to adapt keeps that error
        errors.setdefault(int(e), NumericalError(f"task {task.task_id}: non-finite prediction"))
    if errors:
        raise errors[min(errors)]
    return [(p[:, 0], [y for _, y in episode.query]) for p, (_, episode) in zip(probs, episodes)]


def _adapt_labelled(
    match_params: MatchParams,
    stacked: np.ndarray,
    labels: np.ndarray,
    labelled_rows,
    cfg: RunConfig,
    seeds,
    task_id: str,
) -> tuple[dict[str, np.ndarray], list[list[float]], dict[int, NumericalError]]:
    """Test-time adaptation of w for E episodes on the rows of one frozen
    [L, n, d] stack: episode e's labelled set is the rows
    ``labelled_rows[e]``, labelled ``labels[r]``, and it adapts w on the
    split ``seeds[e]`` makes of that set.  Returns what ``inner_adapt``
    returns for those splits.
    """
    splits = [
        [rows[side] for side in split_support(labels[rows], cfg.train.support_split_fraction, seed)]
        for rows, seed in zip(labelled_rows, seeds)
    ]
    return inner_adapt(match_params, stacked, labels, splits, cfg.train, task_id)


def _match_rows(
    z_query: Tensor, z_support: Tensor, y_support: np.ndarray, w: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prediction step of fine-tuning: ``match_levels`` for E
    episodes' query rows against their support rows with their adapted
    w, stacked [E, ...] by name, recording no autodiff graph.

    Returns the probabilities [E, n_q, 2] and attention [E, L, n_q, n_s],
    and per episode whether all its probabilities are finite, which is
    where an overflow shows.
    """
    probs, _, attention = match_levels(
        z_query, z_support, y_support, MatchParams({name: Tensor(v) for name, v in w.items()})
    )
    ok = np.isfinite(probs.values).reshape(len(probs.values), -1).all(axis=1)
    return probs.values, attention, ok


def finetune_and_predict(
    model: ModelParams,
    support_set: list[tuple[MolGraph, int]],
    query_graphs: list[MolGraph],
    cfg: RunConfig,
    seed,
) -> np.ndarray:
    probs, _ = finetune_and_predict_detailed(model, support_set, query_graphs, cfg, seed)
    return probs


def finetune_and_predict_detailed(
    model: ModelParams,
    support_set: list[tuple[MolGraph, int]],
    query_graphs: list[MolGraph],
    cfg: RunConfig,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Inference: adapt w on a split of the labelled set, then predict
    the queries with the full labelled set as attention support.

    Theta is frozen here, so nothing is encoded with an autodiff graph.
    The labelled set is encoded alone and w adapts on its rows once.  The
    queries then stream through ``frozen_batches``: each batch is encoded
    and matched against the labelled rows before the next is encoded, so
    memory grows with the per-query outputs only, never with a whole
    request's embeddings or projections.

    Returns the [n_query, 2] probabilities and the attention
    [L, n_query, n_support] of every layer.  Theta is never modified.
    """
    if not support_set:
        raise ValueError("finetune_and_predict: empty support set")
    if not query_graphs:
        raise ValueError("finetune_and_predict: empty query list")
    support = encode_frozen([g for g, _ in support_set], model.encoder)
    labels = np.asarray([y for _, y in support_set], dtype=np.float64)
    w, _, errors = _adapt_labelled(
        model.matcher, support, labels, np.arange(len(labels))[None], cfg, [seed], "finetune"
    )
    if errors:
        raise errors[0]
    z_support, y_support = Tensor(support[None]), labels[None, :, None]
    probs, attention = [], []
    for rows in frozen_batches(query_graphs, model.encoder):
        p, a, (ok,) = _match_rows(Tensor(rows[None]), z_support, y_support, w)
        if not ok:
            raise NumericalError("finetune: non-finite prediction")
        probs.append(p[0])
        attention.append(a[0])
    return np.concatenate(probs), np.concatenate(attention, axis=1)
