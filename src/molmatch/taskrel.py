"""Task vectors, pairwise task-relation matrices and implicit updates.

A task is summarised either by the displacement its adaptation step
induces in the matching parameters (adapted-w-delta) or by the mean
multi-level embedding of a sampled support set.  Pairwise similarities
over those vectors give the relation matrix M; the implicit update
rules then pull per-task parameters toward their M-weighted neighbours.
The implicit path is a diagnostic mode, not a replacement for gradient
training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import METRICS, MODES, RunConfig
from .encoder import encode_frozen
from .episodes import TaskRecord, sample_episode
from .matcher import MatchParams
from .meta import KEY_EPISODE, KEY_SPLIT, ModelParams, NumericalError, adapt_labelled

__all__ = [
    "TaskVector",
    "TaskRelationMatrix",
    "task_vector",
    "relation_matrix",
    "row_normalize",
    "implicit_inner_update",
    "implicit_outer_update",
    "implicit_inference_update",
    "allocate_shadow_block",
]

@dataclass
class TaskVector:
    task_id: str
    vector: np.ndarray
    mode: str


@dataclass
class TaskRelationMatrix:
    matrix: np.ndarray  # [n_tasks, n_tasks], symmetric
    task_ids: list[str]


def _flatten(params: MatchParams) -> np.ndarray:
    """Every value of ``params`` in one vector, tensors in name order."""
    return np.concatenate([t.values.reshape(-1) for _, t in sorted(params.tensors().items())])


def _unflatten(params: MatchParams, vector: np.ndarray) -> MatchParams:
    """``params`` with its values replaced from a ``_flatten`` vector."""
    named = sorted(params.tensors().items())
    ends = np.cumsum([t.values.size for _, t in named])
    return params.replace_values(
        {name: vector[end - t.values.size : end] for (name, t), end in zip(named, ends)}
    )


def task_vector(task: TaskRecord, model: ModelParams, cfg: RunConfig, mode: str, seed) -> TaskVector:
    """Summarise a task as a fixed-length vector under the chosen mode;
    both modes read its sampled support, encoded once in episode order."""
    if mode not in MODES:
        raise ValueError(f"unknown task-vector mode {mode!r} (expected one of {MODES})")
    base = list(seed)
    episode = sample_episode(task, cfg.protocol, base + [KEY_EPISODE])
    stacked = encode_frozen([g for g, _ in episode.support], model.encoder)
    if mode == "adapted-w-delta":
        labels = np.asarray([y for _, y in episode.support], dtype=np.float64)
        support = np.arange(len(labels))[None]
        w, _, errors = adapt_labelled(
            model.matcher, stacked, labels, support, cfg, [base + [KEY_SPLIT]], task.task_id
        )
        if errors:
            raise errors[0]
        w_tau = model.matcher.replace_values({name: v[0] for name, v in w.items()})
        return TaskVector(task.task_id, _flatten(w_tau) - _flatten(model.matcher), mode)
    vec = np.concatenate([z.mean(axis=0) for z in stacked])
    if not np.isfinite(vec).all():
        raise NumericalError(f"task {task.task_id}: non-finite mean support embedding")
    return TaskVector(task.task_id, vec, mode)


def relation_matrix(vectors: list[TaskVector], metric: str) -> TaskRelationMatrix:
    """Pairwise similarity matrix over task vectors.

    dot: p_i . p_j; cosine: the same after unit-normalising each vector;
    euclidean: negated squared distance, so larger still means more
    related.  A zero vector is an error under every metric: it relates
    its task to none (and under cosine it has no direction).
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r} (expected one of {METRICS})")
    if len(vectors) < 2:
        raise ValueError("relation_matrix needs at least two task vectors")
    dims = {v.vector.shape for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"task vectors disagree in length: {sorted(dims)}")
    p = np.stack([v.vector for v in vectors])
    scale = np.abs(p).max(axis=1)  # a norm of the raw vector can overflow or underflow
    zero = np.nonzero(scale == 0.0)[0]
    if zero.size:
        raise ValueError(
            f"{metric} relation undefined: task {vectors[int(zero[0])].task_id!r} has a zero vector"
        )
    if metric == "cosine":
        p = p / scale[:, None]
        p = p / np.linalg.norm(p, axis=1)[:, None]
        m = p @ p.T
    elif metric == "dot":
        m = p @ p.T
    else:  # euclidean
        sq = (p * p).sum(axis=1)
        m = -(sq[:, None] + sq[None, :] - 2.0 * (p @ p.T))
    m = 0.5 * (m + m.T)  # kill asymmetric round-off
    return TaskRelationMatrix(m, [v.task_id for v in vectors])


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Row softmax at temperature 1, so each row sums to one."""
    m = np.asarray(matrix, dtype=np.float64)
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_square(matrix: np.ndarray, n: int, what: str):
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (n, n):
        raise ValueError(f"{what}: matrix shape {m.shape} does not match {n} parameter sets")
    return m


def _stack(w_list: list[MatchParams], what: str) -> np.ndarray:
    """The parameter sets as rows of one [n_sets, n_values] matrix."""
    if len({tuple(sorted(w.tensors())) for w in w_list}) != 1:
        raise ValueError(f"{what}: parameter sets have mismatched tensors")
    return np.stack([_flatten(w) for w in w_list])


def _pull(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row i: sum over j != i of m[i, j] * (w[j] - w[i]), added term by
    term in ascending j, from pre-update rows."""
    delta = np.zeros_like(w)
    for j in range(len(w)):
        rows = np.arange(len(w)) != j
        delta[rows] = delta[rows] + m[rows, j, None] * (w[j] - w[rows])
    return delta


def implicit_inner_update(w_list: list[MatchParams], matrix: np.ndarray) -> list[MatchParams]:
    """Simultaneous pull of each task's parameters toward the others:
    w_i <- w_i + sum_j M[i,j] (w_j - w_i), all terms read pre-update."""
    m = _check_square(matrix, len(w_list), "implicit_inner_update")
    w = _stack(w_list, "implicit_inner_update")
    return [_unflatten(p, row) for p, row in zip(w_list, w + _pull(w, m))]


def implicit_outer_update(
    shadow: MatchParams | None, w_list: list[MatchParams], matrix: np.ndarray, eta: float
) -> MatchParams:
    """Shared-parameter pull: shadow <- shadow + eta * sum_ij M[i,j] (w_j - w_i).

    The shared side of the model has no block shaped like w, so the
    update applies to an explicitly allocated shadow block; pass the
    result of ``allocate_shadow_block`` (or a previous update's output).
    """
    if shadow is None:
        raise ValueError(
            "implicit_outer_update: no shadow block; allocate one to enable the implicit mode"
        )
    m = _check_square(matrix, len(w_list), "implicit_outer_update")
    w = _stack(w_list, "implicit_outer_update")
    if sorted(shadow.tensors()) != sorted(w_list[0].tensors()):
        raise ValueError("implicit_outer_update: shadow block shape does not match w")
    delta = np.zeros(w.shape[1])
    for i in range(len(w)):
        for j in range(len(w)):
            if i != j:
                delta = delta + m[i, j] * (w[j] - w[i])
    return _unflatten(shadow, _flatten(shadow) + eta * delta)


def implicit_inference_update(
    w_shared: MatchParams, w_list: list[MatchParams], matrix: np.ndarray
) -> list[MatchParams]:
    """Test-time variant: each task restarts from the shared w and moves
    by its row of M: w_j <- w + sum_k M[j,k] (w_k - w_j), pre-update values."""
    m = _check_square(matrix, len(w_list), "implicit_inference_update")
    w = _stack(w_list, "implicit_inference_update")
    if sorted(w_shared.tensors()) != sorted(w_list[0].tensors()):
        raise ValueError("implicit_inference_update: shared w shape does not match the task list")
    return [_unflatten(p, row) for p, row in zip(w_list, _flatten(w_shared) + _pull(w, m))]


def allocate_shadow_block(matcher: MatchParams) -> MatchParams:
    """Zero-initialised block with the same structure as w, used as the
    shared-side target of the implicit outer update."""
    return matcher.replace_values(
        {name: np.zeros_like(t.values) for name, t in matcher.tensors().items()},
        requires_grad=False,
    )
