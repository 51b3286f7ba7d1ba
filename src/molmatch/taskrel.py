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

from .config import RunConfig
from .encoder import encode_frozen
from .episodes import TaskRecord
from .matcher import MatchParams
from .meta import KEY_EPISODE, KEY_SPLIT, ModelParams, _sample_episode, inner_adapt, split_support

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

MODES = ("adapted-w-delta", "mean-support-embedding")
METRICS = ("dot", "cosine", "euclidean")


@dataclass
class TaskVector:
    task_id: str
    vector: np.ndarray
    mode: str


@dataclass
class TaskRelationMatrix:
    matrix: np.ndarray  # [n_tasks, n_tasks], symmetric
    metric: str
    task_ids: list[str]


def _flatten_params(params: MatchParams) -> np.ndarray:
    parts = [t.values.reshape(-1) for _, t in sorted(params.tensors().items())]
    return np.concatenate(parts)


def task_vector(task: TaskRecord, model: ModelParams, cfg: RunConfig, mode: str, seed) -> TaskVector:
    """Summarise a task as a fixed-length vector under the chosen mode."""
    if mode not in MODES:
        raise ValueError(f"unknown task-vector mode {mode!r} (expected one of {MODES})")
    base = _seed_list(seed)
    episode = _sample_episode(task, cfg, base + [KEY_EPISODE])
    if mode == "adapted-w-delta":
        s_adapt, q_adapt = split_support(
            episode.support, cfg.train.support_split_fraction, base + [KEY_SPLIT]
        )
        adapted = inner_adapt(model.encoder, model.matcher, s_adapt, q_adapt, cfg.train, task.task_id)
        vec = _flatten_params(adapted.w_tau) - _flatten_params(model.matcher)
        return TaskVector(task.task_id, vec, mode)
    graphs = [g for g, _ in episode.support]
    vec = np.concatenate([z.mean(axis=0) for z in encode_frozen(graphs, model.encoder)])
    return TaskVector(task.task_id, vec, mode)


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def relation_matrix(vectors: list[TaskVector], metric: str) -> TaskRelationMatrix:
    """Pairwise similarity matrix over task vectors.

    dot: p_i . p_j; cosine: the same after unit-normalising each vector
    (zero vectors are an error); euclidean: negated squared distance,
    so larger still means more related.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r} (expected one of {METRICS})")
    if len(vectors) < 2:
        raise ValueError("relation_matrix needs at least two task vectors")
    dims = {v.vector.shape for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"task vectors disagree in length: {sorted(dims)}")
    p = np.stack([v.vector for v in vectors])
    if metric == "cosine":
        norms = np.linalg.norm(p, axis=1)
        zero = np.nonzero(norms == 0.0)[0]
        if zero.size:
            raise ValueError(
                f"cosine similarity undefined: task {vectors[int(zero[0])].task_id!r} has a zero vector"
            )
        p = p / norms[:, None]
        m = p @ p.T
    elif metric == "dot":
        m = p @ p.T
    else:  # euclidean
        sq = (p * p).sum(axis=1)
        m = -(sq[:, None] + sq[None, :] - 2.0 * (p @ p.T))
    m = 0.5 * (m + m.T)  # kill asymmetric round-off
    return TaskRelationMatrix(m, metric, [v.task_id for v in vectors])


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


def _tensor_dicts(w_list: list[MatchParams]) -> list[dict]:
    dicts = [w.tensors() for w in w_list]
    keys = {frozenset(d.keys()) for d in dicts}
    if len(keys) != 1:
        raise ValueError("implicit update: parameter sets have mismatched tensors")
    return dicts


def implicit_inner_update(w_list: list[MatchParams], matrix: np.ndarray) -> list[MatchParams]:
    """Simultaneous pull of each task's parameters toward the others:
    w_i <- w_i + sum_j M[i,j] (w_j - w_i), all terms read pre-update."""
    m = _check_square(matrix, len(w_list), "implicit_inner_update")
    dicts = _tensor_dicts(w_list)
    out = []
    for i, w in enumerate(w_list):
        updates = {}
        for name, tensor in dicts[i].items():
            delta = np.zeros_like(tensor.values)
            for j in range(len(w_list)):
                if j == i:
                    continue
                delta = delta + m[i, j] * (dicts[j][name].values - tensor.values)
            updates[name] = tensor.values + delta
        out.append(w.replace_values(updates))
    return out


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
    dicts = _tensor_dicts(list(w_list))
    base = shadow.tensors()
    if frozenset(base.keys()) != frozenset(dicts[0].keys()):
        raise ValueError("implicit_outer_update: shadow block shape does not match w")
    updates = {}
    for name, tensor in base.items():
        delta = np.zeros_like(tensor.values)
        for i in range(len(w_list)):
            for j in range(len(w_list)):
                if i == j:
                    continue
                delta = delta + m[i, j] * (dicts[j][name].values - dicts[i][name].values)
        updates[name] = tensor.values + eta * delta
    return shadow.replace_values(updates)


def implicit_inference_update(
    w_shared: MatchParams, w_list: list[MatchParams], matrix: np.ndarray
) -> list[MatchParams]:
    """Test-time variant: each task restarts from the shared w and moves
    by its row of M: w_j <- w + sum_k M[j,k] (w_k - w_j), pre-update values."""
    m = _check_square(matrix, len(w_list), "implicit_inference_update")
    dicts = _tensor_dicts(w_list)
    shared = w_shared.tensors()
    if frozenset(shared.keys()) != frozenset(dicts[0].keys()):
        raise ValueError("implicit_inference_update: shared w shape does not match the task list")
    out = []
    for j, w in enumerate(w_list):
        updates = {}
        for name, base_tensor in shared.items():
            delta = np.zeros_like(base_tensor.values)
            for k in range(len(w_list)):
                if k == j:
                    continue
                delta = delta + m[j, k] * (dicts[k][name].values - dicts[j][name].values)
            updates[name] = base_tensor.values + delta
        out.append(w.replace_values(updates))
    return out


def allocate_shadow_block(matcher: MatchParams) -> MatchParams:
    """Zero-initialised block with the same structure as w, used as the
    shared-side target of the implicit outer update."""
    return matcher.replace_values(
        {name: np.zeros_like(t.values) for name, t in matcher.tensors().items()},
        requires_grad=False,
    )
