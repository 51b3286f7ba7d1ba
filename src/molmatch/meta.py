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
from .encoder import EncoderParams, encode_frozen, encode_multilevel
from .episodes import EpisodeError, Registry, TaskRecord, can_sample, sample_episode
from .matcher import MatchParams, layer_predictions, match_levels, predict_detailed
from .params import Params
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
    grads = backward(loss, params=named.values(), write_grad=False)
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
    return ModelParams.join(encoder, matcher)


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
    rng: np.random.Generator | None = None,
    levels: Tensor | None = None,
) -> Tensor:
    """Summed cross-entropy of the fused predictions over the query set.

    ``training`` switches ``matcher_dropout`` on.  ``levels`` is
    ``predict_detailed``'s: the encoder's [L, n, d] stack for the
    support graphs followed by the query graphs, used instead of
    encoding them here.
    """
    if not support or not query:
        raise ValueError("episode_loss: support and query must both be non-empty")
    probs, _ = predict_detailed(
        [g for g, _ in support],
        [y for _, y in support],
        [g for g, _ in query],
        encoder_params,
        match_params,
        matcher_dropout=matcher_dropout if training else 0.0,
        rng=rng,
        levels=levels,
    )
    return cross_entropy(probs, _onehot([y for _, y in query]))


def _rows(stacked: np.ndarray, rows) -> Tensor:
    """Rows of every layer of a frozen [L, n, d] stack, as one leaf."""
    return Tensor(np.ascontiguousarray(stacked[:, rows]))


def inner_adapt(
    encoder_params: EncoderParams,
    match_params: MatchParams,
    support: list[tuple[MolGraph, int]],
    queries: list[tuple[MolGraph, int]],
    cfg: TrainConfig,
    task_id: str = "",
    *,
    embeddings: np.ndarray | None = None,
) -> AdaptedParams:
    """Gradient-descent adaptation of w with theta frozen.

    The encoder runs once in inference mode over support plus queries;
    the inner objective is deterministic (no dropout), so each step is
    exactly w <- w - alpha * grad.  With zero steps the clone of w is
    returned untouched, which is the zero-shot path.  ``embeddings``
    supplies the rows instead: the [L, n, d] encoding of the support
    graphs followed by the query graphs, as ``encode_frozen`` returns it.
    """
    if not support:
        raise ValueError("inner_adapt: empty adaptation support set")
    pairs = list(support) + list(queries)
    n_s = len(support)
    if embeddings is None:
        embeddings = encode_frozen([g for g, _ in pairs], encoder_params)
    elif embeddings.shape[1] != len(pairs):
        raise ValueError(f"inner_adapt: embeddings must have {len(pairs)} rows")
    return _adapt_on_rows(
        match_params,
        embeddings,
        np.asarray([y for _, y in pairs], dtype=np.float64),
        np.arange(n_s),
        np.arange(n_s, len(pairs)),
        cfg,
        task_id,
    )


def _adapt_on_rows(
    match_params: MatchParams,
    stacked: np.ndarray,
    labels: np.ndarray,
    support_rows,
    query_rows,
    cfg: TrainConfig,
    task_id: str,
) -> AdaptedParams:
    """The inner loop of ``inner_adapt`` on precomputed frozen embeddings:
    ``stacked[l, r]`` is row r's layer-l embedding and ``labels[r]`` its
    label.  Support and query rows are sliced once; every step matches
    all layers in one stacked pass."""
    w_tau = match_params.clone(requires_grad=True)
    history: list[float] = []
    if not len(query_rows):
        log.debug("task %s: no adaptation queries; skipping inner loop", task_id)
        return AdaptedParams(w_tau, task_id, float("nan"), history)

    z_support = _rows(stacked, support_rows)
    z_query = _rows(stacked, query_rows)
    y_s = Tensor(labels[support_rows].reshape(-1, 1))
    target = _onehot(labels[query_rows])

    def loss_of(w: MatchParams) -> Tensor:
        probs, _, _ = match_levels(z_query, z_support, y_s, w)
        return cross_entropy(probs, target)

    for _ in range(cfg.inner_steps):
        loss = loss_of(w_tau)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalError(f"task {task_id}: non-finite inner loss {value}")
        history.append(value)
        gmap = _named_grads(loss, w_tau, task_id)
        if cfg.alpha == 0.0:
            w_tau = w_tau.replace_values({})
            continue
        w_tau = w_tau.replace_values(
            {name: w_tau[name].values - cfg.alpha * g for name, g in gmap.items()}
        )

    final = loss_of(w_tau).item()
    if not np.isfinite(final):
        raise NumericalError(f"task {task_id}: non-finite inner loss {final}")
    history.append(final)
    return AdaptedParams(w_tau, task_id, final, history)


def _outer_task_step(
    model: ModelParams, task: TaskRecord, cfg: RunConfig, epoch: int, slot: int
) -> tuple[float, dict[str, np.ndarray]]:
    """Inner-adapt one episode, evaluate the outer loss at the adapted
    point and return its gradients keyed by shared-parameter name.

    The episode's molecules are encoded once, graph-tracked, and the
    outer loss reads those levels.  Theta does not change between the
    inner loop and the outer loss, so without encoder dropout the inner
    loop adapts on the detached rows of its split.  Dropped-out rows
    are not the inference-mode rows it adapts on, so with encoder
    dropout it encodes its split itself.
    """
    seed = cfg.train.seed
    episode = sample_episode(task, cfg.protocol, [seed, KEY_EPISODE, epoch, slot])
    s_rows, q_rows = _split_rows(
        [y for _, y in episode.support],
        cfg.train.support_split_fraction,
        [seed, KEY_SPLIT, epoch, slot],
    )
    rng = _rng(seed, KEY_DROPOUT, epoch, slot)
    levels = encode_multilevel(
        [g for g, _ in episode.support + episode.query],
        model.encoder,
        dropout_rate=cfg.encoder.dropout,
        rng=rng,
    )
    adapted = inner_adapt(
        model.encoder,
        model.matcher,
        [episode.support[i] for i in s_rows],
        [episode.support[i] for i in q_rows],
        cfg.train,
        task.task_id,
        embeddings=None if cfg.encoder.dropout > 0.0 else levels.values[:, s_rows + q_rows],
    )
    loss = episode_loss(
        episode.support,
        episode.query,
        model.encoder,
        adapted.w_tau,
        training=True,
        matcher_dropout=cfg.matcher.dropout,
        rng=rng,
        levels=levels,
    )
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalError(f"task {task.task_id}: non-finite outer loss {value}")

    watched = ModelParams.join(model.encoder, adapted.w_tau)
    return value, _named_grads(loss, watched, task.task_id)


def meta_train(registry: Registry, cfg: RunConfig, *, on_epoch=None):
    """Episodic training over the train split.

    Returns the trained ModelParams and a list of EpochLog entries.
    Tasks inside a batch may be dispatched to worker threads; gradient
    maps are merged in slot order so results do not depend on the
    worker count.
    """
    from .optim import make_optimizer

    cfg.validate()
    tasks = [t for t in registry.split_tasks("train") if can_sample(t, cfg.protocol)]
    if not tasks:
        raise EpisodeError("no train task can satisfy the episode protocol")
    tasks = sorted(tasks, key=lambda t: t.task_id)
    valid = registry.split_tasks("valid") if cfg.train.early_stop else []
    if valid and not any(can_sample(t, cfg.protocol) for t in valid):
        raise EpisodeError("no valid task can satisfy the episode protocol")

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
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
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
    encoded once, in batches of at most one episode's size, and each
    episode fine-tunes on its slice of those rows with ``seed + [1]``.
    Returns (positive-class scores, query labels) per kept episode, in
    seed order.
    """
    episodes = [(seed, sample_episode(task, cfg.protocol, seed)) for seed in seeds]
    episodes = [(seed, e) for seed, e in episodes if len({y for _, y in e.query}) >= 2]
    if not episodes:
        return []
    used = np.unique(np.concatenate([np.r_[e.support_idx, e.query_idx] for _, e in episodes]))
    graphs = [task.examples[i].graph for i in used]
    batch = cfg.protocol.support_size + cfg.protocol.query_size
    levels = np.concatenate(
        [
            encode_frozen(graphs[start : start + batch], model.encoder)
            for start in range(0, len(graphs), batch)
        ],
        axis=1,
    )
    scored = []
    for seed, episode in episodes:
        picked = np.searchsorted(used, np.r_[episode.support_idx, episode.query_idx])
        probs = finetune_and_predict(
            model,
            episode.support,
            [g for g, _ in episode.query],
            cfg,
            seed=[*seed, 1],
            embeddings=levels[:, picked],
        )
        scored.append((probs[:, 0], [y for _, y in episode.query]))
    return scored


def finetune_and_predict(
    model: ModelParams,
    support_set: list[tuple[MolGraph, int]],
    query_graphs: list[MolGraph],
    cfg: RunConfig,
    seed,
    *,
    embeddings: np.ndarray | None = None,
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
    embeddings: np.ndarray | None = None,
):
    """Inference: adapt w on a split of the labelled set, then predict
    the queries with the full labelled set as attention support.

    Theta is frozen here, so the support and queries are encoded once,
    without an autodiff graph, and both the inner loop and the final
    match slice those rows.  ``embeddings`` supplies the rows instead:
    the [L, n, d] ``encode_frozen`` stack of the support graphs followed
    by the query graphs, so a caller scoring many episodes of one task
    encodes each molecule once.

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
        embeddings = encode_frozen([g for g, _ in support_set] + list(query_graphs), model.encoder)
    elif embeddings.shape[1] != n_rows:
        raise ValueError(f"finetune_and_predict: embeddings must have {n_rows} rows")
    labels = np.asarray([y for _, y in support_set], dtype=np.float64)
    s_fine, q_fine = _split_rows(labels, cfg.train.support_split_fraction, seed)
    adapted = _adapt_on_rows(
        model.matcher, embeddings, labels, s_fine, q_fine, cfg.train, task_id="finetune"
    )
    probs, y_hat, attention = match_levels(
        _rows(embeddings, slice(n_s, n_rows)),
        _rows(embeddings, slice(0, n_s)),
        Tensor(labels.reshape(-1, 1)),
        adapted.w_tau.detach(),
    )
    if not np.isfinite(probs.values).all():
        raise NumericalError("finetune: non-finite prediction")
    return probs.values, layer_predictions(y_hat, attention)
