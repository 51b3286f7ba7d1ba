"""Task registry, episode sampling and a synthetic task generator.

A dataset lives on disk as ``root/{train,valid,test}/<task_id>.jsonl``
with one ``{"smiles": ..., "label": 0|1}`` record per line.  Loading
parses and featurizes each distinct SMILES of the splits asked for once:
every example that lists the string, in any task file or split, holds
that one read-only graph with its own label.  ``synth_generate`` shares
its graphs the same way.  Episodes then sample from the cached graphs.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ProtocolConfig
from .smiles import MolGraph, SmilesError, graph_from_smiles

__all__ = [
    "DataError",
    "EpisodeError",
    "TaskExample",
    "TaskRecord",
    "Episode",
    "Registry",
    "read_lines",
    "load_task_file",
    "load_registry",
    "write_registry",
    "can_sample",
    "can_query_both_classes",
    "sample_episode",
    "sample_episode_balanced",
    "sample_episode_unbalanced",
    "synth_generate",
]

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")


class DataError(ValueError):
    """Unusable dataset layout or contents."""


class EpisodeError(ValueError):
    """A task cannot satisfy the requested episode sizes."""


@dataclass
class TaskExample:
    smiles: str
    label: int
    graph: MolGraph


@dataclass
class TaskRecord:
    task_id: str
    examples: list[TaskExample]

    def class_counts(self) -> tuple[int, int]:
        pos = sum(1 for e in self.examples if e.label == 1)
        return len(self.examples) - pos, pos


@dataclass
class Episode:
    support: list[tuple[MolGraph, int]]
    query: list[tuple[MolGraph, int]]
    # rows of the task's examples behind ``support`` and ``query``, in order
    support_idx: np.ndarray
    query_idx: np.ndarray


@dataclass
class Registry:
    tasks: dict[str, list[TaskRecord]] = field(default_factory=dict)

    def split_tasks(self, split: str) -> list[TaskRecord]:
        """The split's tasks in task-id order: training's task draws,
        validation, ``eval`` and ``taskrel`` all visit tasks, and hand out
        their per-index seeds, in this one order."""
        return sorted(self.tasks.get(split, []), key=lambda t: t.task_id)


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, less any leading byte-order mark;
    a file that is not UTF-8 is a ``DataError``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _shared_graph(graphs: dict[str, MolGraph], smiles: str) -> MolGraph:
    """The graph of ``smiles``: parsed on its first sight, then shared."""
    graph = graphs.get(smiles)
    if graph is None:
        graph = graphs[smiles] = graph_from_smiles(smiles)
    return graph


def load_task_file(path: Path, graphs: dict[str, MolGraph] | None = None) -> tuple[TaskRecord, int]:
    """One task's featurized examples and its count of malformed lines,
    which are skipped with a warning.  ``graphs`` maps each SMILES seen so
    far to its graph, and gains the file's new ones; a SMILES already there
    is not parsed again."""
    graphs = {} if graphs is None else graphs
    examples = []
    malformed = 0
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            smiles = rec["smiles"]
            label = rec["label"]
            if not isinstance(smiles, str):
                raise ValueError(f"smiles must be a string, got {json.dumps(smiles)}")
            if isinstance(label, bool) or label not in (0, 1):  # JSON true == 1 in Python
                raise ValueError(f"label must be 0 or 1, got {json.dumps(label)}")
            graph = _shared_graph(graphs, smiles)
        except (KeyError, ValueError, TypeError, SmilesError) as exc:
            malformed += 1
            log.warning("%s line %d skipped: %s", path.name, line_no, exc)
            continue
        examples.append(TaskExample(smiles=smiles, label=int(label), graph=graph))
    return TaskRecord(task_id=path.stem, examples=examples), malformed


def load_registry(root, splits=SPLITS) -> Registry:
    """Scan the split directories and build the featurized registry of
    the named ``splits``; the other splits' files are never opened.

    Malformed lines are skipped and tasks with fewer than two usable
    examples are dropped, each with a warning.  A task id appearing in
    more than one split is an error, in every split.  Each distinct
    SMILES is parsed once, and its examples share the one graph.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    split_paths: dict[str, list[Path]] = {}
    seen: dict[str, str] = {}
    for split in SPLITS:
        if not (root / split).is_dir():
            continue
        split_paths[split] = sorted((root / split).glob("*.jsonl"))
        for path in split_paths[split]:
            if path.stem in seen:
                raise DataError(
                    f"task id {path.stem!r} appears in both {seen[path.stem]!r} and {split!r}"
                )
            seen[path.stem] = split
    if not seen:
        raise DataError(f"no task files found under {root} (expected train/valid/test subdirs)")
    registry = Registry()
    graphs: dict[str, MolGraph] = {}
    for split, paths in split_paths.items():
        if split not in splits:
            continue
        records = []
        for path in paths:
            record, _ = load_task_file(path, graphs)
            if len(record.examples) < 2:
                log.warning("task %s skipped: fewer than 2 usable examples", record.task_id)
                continue
            records.append(record)
        registry.tasks[split] = records
    return registry


def write_registry(registry: Registry, root) -> None:
    """Write the registry back out in the canonical on-disk layout."""
    root = Path(root)
    for split, records in registry.tasks.items():
        split_dir = root / split
        split_dir.mkdir(parents=True, exist_ok=True)
        for record in records:
            with open(split_dir / f"{record.task_id}.jsonl", "w", encoding="utf-8") as fh:
                for ex in record.examples:
                    fh.write(json.dumps({"smiles": ex.smiles, "label": ex.label}) + "\n")


def _split_indices(task: TaskRecord) -> tuple[np.ndarray, np.ndarray]:
    labels = np.array([e.label for e in task.examples])
    return np.nonzero(labels == 0)[0], np.nonzero(labels == 1)[0]


def _pairs(task: TaskRecord, indices) -> list[tuple[MolGraph, int]]:
    return [(task.examples[i].graph, task.examples[i].label) for i in indices]


def _protocol_error(task: TaskRecord, sampling: str, support_size: int) -> str | None:
    """Why ``task`` cannot give a ``sampling`` episode of ``support_size``
    support rows and at least one query, or None when it can."""
    neg, pos = task.class_counts()
    n = neg + pos
    if sampling == "balanced":
        per_class = support_size // 2
        if support_size < 2 or support_size % 2 != 0:
            return f"balanced sampling needs an even support_size >= 2, got {support_size}"
        if neg < per_class or pos < per_class:
            return (
                f"task {task.task_id}: balanced support {support_size} needs {per_class} per class, "
                f"have {neg} negative / {pos} positive"
            )
        if n == support_size:
            return f"task {task.task_id}: no examples left for the query set"
        return None
    if not 1 <= support_size < n:
        return f"task {task.task_id}: support_size {support_size} must be in [1, {n - 1}]"
    return None


def can_sample(task: TaskRecord, protocol: ProtocolConfig) -> bool:
    """Whether ``sample_episode(task, protocol, seed)`` returns an episode."""
    return _protocol_error(task, protocol.sampling, protocol.support_size) is None


def can_query_both_classes(task: TaskRecord, protocol: ProtocolConfig) -> bool:
    """Whether some seed gives ``sample_episode(task, protocol, seed)`` a
    query set holding both classes.

    That takes a support the sampler can draw that leaves an example of
    each class over, and room for two queries.  A balanced support takes
    ``support_size / 2`` of each class.  An unbalanced support holds one
    of each class present, except that a support of one always ends as a
    positive (the sampler's swaps force the negative in, then the
    positive over it); beyond that any class mix can be drawn.
    """
    if not can_sample(task, protocol) or protocol.query_size < 2:
        return False
    neg, pos = task.class_counts()
    size = protocol.support_size
    if protocol.sampling == "balanced":
        return min(neg, pos) > size // 2
    if size == 1:
        return neg >= 1 and pos >= 2
    return min(neg, pos) >= 2 and size <= neg + pos - 2


def sample_episode(task: TaskRecord, protocol: ProtocolConfig, seed) -> Episode:
    """One episode of ``task`` under ``protocol``'s sampling and sizes."""
    if protocol.sampling == "balanced":
        return sample_episode_balanced(task, protocol.support_size, protocol.query_size, seed)
    return sample_episode_unbalanced(task, protocol.support_size, protocol.query_size, seed)


def sample_episode_balanced(task: TaskRecord, support_size: int, query_size: int, seed) -> Episode:
    """Class-balanced support; the shuffled remainder becomes the query."""
    if error := _protocol_error(task, "balanced", support_size):
        raise EpisodeError(error)
    per_class = support_size // 2
    neg, pos = _split_indices(task)
    rng = np.random.default_rng(seed)
    s_neg = rng.choice(neg, size=per_class, replace=False)
    s_pos = rng.choice(pos, size=per_class, replace=False)
    return _with_queries(task, np.concatenate([s_neg, s_pos]), query_size, rng)


def sample_episode_unbalanced(task: TaskRecord, support_size: int, query_size: int, seed) -> Episode:
    """Uniform support draw; one example of each present class is forced in."""
    if error := _protocol_error(task, "unbalanced", support_size):
        raise EpisodeError(error)
    n = len(task.examples)
    rng = np.random.default_rng(seed)
    support = list(rng.choice(n, size=support_size, replace=False))
    neg, pos = _split_indices(task)
    for cls_idx in (neg, pos):
        if cls_idx.size == 0:
            continue
        if not set(support).intersection(cls_idx):
            # swap a random support member for a random member of the class,
            # provided the removal cannot empty the other class
            addition = int(rng.choice(cls_idx))
            labels = [task.examples[i].label for i in support]
            per_class = {y: labels.count(y) for y in set(labels)}
            removable = [i for i, y in zip(support, labels) if per_class[y] > 1] or support
            drop = removable[int(rng.integers(len(removable)))]
            support[support.index(drop)] = addition
    return _with_queries(task, np.array(sorted(support)), query_size, rng)


def _with_queries(task: TaskRecord, support, query_size: int, rng) -> Episode:
    """The episode of ``support``: the rest of the task, shuffled, gives
    the first ``query_size`` queries."""
    rest = np.setdiff1d(np.arange(len(task.examples)), support)
    rng.shuffle(rest)
    query = rest[:query_size]
    return Episode(_pairs(task, support), _pairs(task, query), support, query)


# --- synthetic task generation -------------------------------------------

_CHAIN_ELEMENTS = ("C", "C", "C", "O", "N", "S")
_HALOGENS = ("F", "Cl")
_RING_CORES = ("c1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCCC1", "C1CC1", "c1ccoc1", "c1ccsc1")


def _random_chain(rng: np.random.Generator, length: int) -> str:
    # heavy-atom chain, mostly carbon, heteroatoms never adjacent
    out = ["C"]
    for _ in range(length - 1):
        nxt = _CHAIN_ELEMENTS[int(rng.integers(len(_CHAIN_ELEMENTS)))]
        if out[-1] != "C" and nxt != "C":
            nxt = "C"
        out.append(nxt)
    return "".join(out)


def _random_molecule(rng: np.random.Generator) -> str:
    """Draw one SMILES from the template families (chains, rings,
    alkenes/carbonyls, halides, alcohols/amines)."""
    kind = rng.random()
    if kind < 0.35:
        s = _random_chain(rng, int(rng.integers(3, 11)))
        if rng.random() < 0.3:
            s += "O"
        elif rng.random() < 0.3:
            s += "N"
        if rng.random() < 0.25:
            s += _HALOGENS[int(rng.integers(2))]
        return s
    if kind < 0.55:
        core = _RING_CORES[int(rng.integers(len(_RING_CORES)))]
        prefix = "C" * int(rng.integers(0, 4))
        suffix = ""
        if rng.random() < 0.4:
            suffix = ["O", "N", "CC", "C(C)C", "Cl", "F"][int(rng.integers(6))]
        return prefix + core + suffix
    if kind < 0.75:
        left = _random_chain(rng, int(rng.integers(1, 5)))
        right = _random_chain(rng, int(rng.integers(1, 5)))
        if rng.random() < 0.5:
            return f"{left}C(=O){right}"
        return f"{left}C=C{right}"
    s = _random_chain(rng, int(rng.integers(2, 9)))
    deco = ["(C)", "(CC)", "(O)", "(N)"][int(rng.integers(4))]
    cut = int(rng.integers(1, len(s))) if len(s) > 1 else 1
    return s[:cut] + deco + s[cut:]


def _rule_pool(rng: np.random.Generator) -> tuple[str, Callable]:
    """Draw a labelling rule: its name and its test of a molecule's graph."""
    roll = rng.random()
    if roll < 0.5:
        element = ("O", "N", "S", "F", "Cl")[int(rng.integers(5))]
        return f"element:{element}", lambda graph: graph.has_element(element)
    if roll < 0.7:
        return "ring", lambda graph: graph.n_bonds >= graph.n_atoms  # cyclomatic number >= 1
    if roll < 0.9:
        return "double_bond", lambda graph: graph.has_bond_order("double")
    min_atoms = int(rng.integers(6, 10))
    return f"atoms>={min_atoms}", lambda graph: graph.n_atoms >= min_atoms


def _synth_task(
    task_id: str, n_molecules: int, rng: np.random.Generator, graphs: dict[str, MolGraph]
) -> TaskRecord:
    rule, applies = _rule_pool(rng)
    target_pos = int(round(n_molecules * rng.uniform(0.4, 0.6)))
    target_pos = min(max(target_pos, int(0.35 * n_molecules) + 1), int(0.65 * n_molecules))
    pos_pool: dict[str, MolGraph] = {}
    neg_pool: dict[str, MolGraph] = {}
    attempts = 0
    while (len(pos_pool) < target_pos or len(neg_pool) < n_molecules - target_pos) and attempts < 20000:
        attempts += 1
        smiles = _random_molecule(rng)
        if smiles in pos_pool or smiles in neg_pool:
            continue  # already classed; parse draws nothing from rng
        try:
            graph = _shared_graph(graphs, smiles)
        except SmilesError:  # template bug guard; templates should always parse
            continue
        pool = pos_pool if applies(graph) else neg_pool
        pool[smiles] = graph
    if len(pos_pool) < target_pos or len(neg_pool) < n_molecules - target_pos:
        raise DataError(f"synthetic task {task_id}: could not reach class balance for {rule}")
    examples = [
        TaskExample(s, 1, g) for s, g in list(pos_pool.items())[:target_pos]
    ] + [
        TaskExample(s, 0, g) for s, g in list(neg_pool.items())[: n_molecules - target_pos]
    ]
    order = rng.permutation(len(examples))
    return TaskRecord(task_id=task_id, examples=[examples[i] for i in order])


def synth_generate(
    n_train: int,
    n_test: int,
    molecules_per_task: int,
    seed,
    n_valid: int = 0,
) -> Registry:
    """Deterministically generate labelled tasks from template molecules.

    Labels come from simple structural rules (contains element E, has a
    ring, has a double bond, has at least k atoms) applied to each
    molecule, with per-task class balance kept within 35-65%.  Each
    distinct candidate SMILES is parsed once, and every task that lists
    it shares the one graph.
    """
    if molecules_per_task < 4:
        raise DataError("synthetic tasks need at least 4 molecules each")
    registry = Registry()
    plan = [("train", n_train), ("valid", n_valid), ("test", n_test)]
    counter = 0
    graphs: dict[str, MolGraph] = {}
    for split, count in plan:
        records = []
        for _ in range(count):
            rng = np.random.default_rng([int(seed), counter])
            records.append(_synth_task(f"synth-{counter:04d}", molecules_per_task, rng, graphs))
            counter += 1
        registry.tasks[split] = records
    return registry
