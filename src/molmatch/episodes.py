"""Task registry, episode sampling and a synthetic task generator.

A dataset lives on disk as ``root/{train,valid,test}/<task_id>.jsonl``
with one ``{"smiles": ..., "label": 0|1}`` record per line.  Loading
parses and featurizes every molecule once; episodes then sample from
the cached graphs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .smiles import MolGraph, SmilesError, featurize, graph_from_smiles, parse

__all__ = [
    "DataError",
    "EpisodeError",
    "TaskExample",
    "TaskRecord",
    "Episode",
    "Registry",
    "load_registry",
    "write_registry",
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
    split: str
    examples: list[TaskExample]

    def class_counts(self) -> tuple[int, int]:
        pos = sum(1 for e in self.examples if e.label == 1)
        return len(self.examples) - pos, pos


@dataclass
class Episode:
    task_id: str
    support: list[tuple[MolGraph, int]]
    query: list[tuple[MolGraph, int]]
    protocol: str
    # rows of the task's examples behind ``support`` and ``query``, in order
    support_idx: np.ndarray
    query_idx: np.ndarray


@dataclass
class Registry:
    tasks: dict[str, list[TaskRecord]] = field(default_factory=dict)
    malformed_lines: int = 0
    skipped_tasks: list[str] = field(default_factory=list)

    def split_tasks(self, split: str) -> list[TaskRecord]:
        return self.tasks.get(split, [])

    @property
    def n_tasks(self) -> int:
        return sum(len(v) for v in self.tasks.values())


def _load_task_file(path: Path, split: str) -> tuple[TaskRecord, int]:
    examples = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                smiles = rec["smiles"]
                label = rec["label"]
                if label not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {label!r}")
                graph = graph_from_smiles(smiles)
            except (KeyError, ValueError, TypeError, SmilesError) as exc:
                malformed += 1
                log.warning("%s line %d skipped: %s", path.name, line_no, exc)
                continue
            examples.append(TaskExample(smiles=smiles, label=int(label), graph=graph))
    return TaskRecord(task_id=path.stem, split=split, examples=examples), malformed


def load_registry(root) -> Registry:
    """Scan the split directories and build the featurized registry.

    Malformed lines are counted and skipped; tasks with fewer than two
    usable examples are dropped (and reported).  A task id appearing in
    more than one split is an error.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    registry = Registry()
    seen: dict[str, str] = {}
    found_any = False
    for split in SPLITS:
        split_dir = root / split
        if not split_dir.is_dir():
            continue
        records = []
        for path in sorted(split_dir.glob("*.jsonl")):
            found_any = True
            record, malformed = _load_task_file(path, split)
            registry.malformed_lines += malformed
            if record.task_id in seen:
                raise DataError(
                    f"task id {record.task_id!r} appears in both "
                    f"{seen[record.task_id]!r} and {split!r}"
                )
            seen[record.task_id] = split
            if len(record.examples) < 2:
                registry.skipped_tasks.append(record.task_id)
                log.warning("task %s skipped: fewer than 2 usable examples", record.task_id)
                continue
            records.append(record)
        registry.tasks[split] = records
    if not found_any:
        raise DataError(f"no task files found under {root} (expected train/valid/test subdirs)")
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


def sample_episode_balanced(task: TaskRecord, support_size: int, query_size: int, seed) -> Episode:
    """Class-balanced support; the shuffled remainder becomes the query."""
    if support_size < 2 or support_size % 2 != 0:
        raise EpisodeError(f"balanced sampling needs an even support_size >= 2, got {support_size}")
    per_class = support_size // 2
    neg, pos = _split_indices(task)
    if len(neg) < per_class or len(pos) < per_class:
        raise EpisodeError(
            f"task {task.task_id}: balanced support {support_size} needs {per_class} per class, "
            f"have {len(neg)} negative / {len(pos)} positive"
        )
    rng = np.random.default_rng(seed)
    s_neg = rng.choice(neg, size=per_class, replace=False)
    s_pos = rng.choice(pos, size=per_class, replace=False)
    support = np.concatenate([s_neg, s_pos])
    rest = np.setdiff1d(np.arange(len(task.examples)), support)
    if rest.size == 0:
        raise EpisodeError(f"task {task.task_id}: no examples left for the query set")
    rng.shuffle(rest)
    query = rest[: min(query_size, rest.size)]
    return Episode(
        task.task_id, _pairs(task, support), _pairs(task, query), "balanced", support, query
    )


def sample_episode_unbalanced(task: TaskRecord, support_size: int, query_size: int, seed) -> Episode:
    """Uniform support draw; one example of each present class is forced in."""
    n = len(task.examples)
    if support_size < 1 or support_size >= n:
        raise EpisodeError(
            f"task {task.task_id}: support_size {support_size} must be in [1, {n - 1}]"
        )
    rng = np.random.default_rng(seed)
    support = list(rng.choice(n, size=support_size, replace=False))
    neg, pos = _split_indices(task)
    for cls_idx in (neg, pos):
        if cls_idx.size == 0:
            continue
        chosen = set(support)
        if not chosen.intersection(cls_idx):
            # swap a random support member for a random member of the class,
            # provided the removal cannot empty the other class
            addition = int(rng.choice(cls_idx))
            removable = [i for i in support if sum(1 for j in support if _same_class(task, i, j)) > 1]
            if not removable:
                removable = support
            drop = removable[int(rng.integers(len(removable)))]
            support[support.index(drop)] = addition
    support_arr = np.array(sorted(support))
    rest = np.setdiff1d(np.arange(n), support_arr)
    if rest.size == 0:
        raise EpisodeError(f"task {task.task_id}: no examples left for the query set")
    rng.shuffle(rest)
    query = rest[: min(query_size, rest.size)]
    return Episode(
        task.task_id, _pairs(task, support_arr), _pairs(task, query), "unbalanced", support_arr, query
    )


def _same_class(task: TaskRecord, i: int, j: int) -> bool:
    return task.examples[i].label == task.examples[j].label


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


@dataclass(frozen=True)
class _Rule:
    name: str

    def applies(self, mol) -> bool:
        if self.name.startswith("element:"):
            wanted = self.name.split(":", 1)[1]
            return any(a.element == wanted for a in mol.atoms)
        if self.name == "ring":
            return len(mol.bonds) >= len(mol.atoms)  # cyclomatic number >= 1
        if self.name == "double_bond":
            return any(order == "double" for _, _, order in mol.bonds)
        if self.name.startswith("atoms>="):
            return len(mol.atoms) >= int(self.name.split(">=", 1)[1])
        raise ValueError(f"unknown rule {self.name!r}")


def _rule_pool(rng: np.random.Generator) -> _Rule:
    roll = rng.random()
    if roll < 0.5:
        element = ("O", "N", "S", "F", "Cl")[int(rng.integers(5))]
        return _Rule(f"element:{element}")
    if roll < 0.7:
        return _Rule("ring")
    if roll < 0.9:
        return _Rule("double_bond")
    return _Rule(f"atoms>={int(rng.integers(6, 10))}")


def _synth_task(task_id: str, split: str, n_molecules: int, rng: np.random.Generator) -> TaskRecord:
    rule = _rule_pool(rng)
    target_pos = int(round(n_molecules * rng.uniform(0.4, 0.6)))
    target_pos = min(max(target_pos, int(0.35 * n_molecules) + 1), int(0.65 * n_molecules))
    pos_pool: dict[str, object] = {}
    neg_pool: dict[str, object] = {}
    attempts = 0
    while (len(pos_pool) < target_pos or len(neg_pool) < n_molecules - target_pos) and attempts < 20000:
        attempts += 1
        smiles = _random_molecule(rng)
        try:
            mol = parse(smiles)
        except SmilesError:  # template bug guard; templates should always parse
            continue
        pool = pos_pool if rule.applies(mol) else neg_pool
        if smiles not in pool:
            pool[smiles] = mol
    if len(pos_pool) < target_pos or len(neg_pool) < n_molecules - target_pos:
        raise DataError(f"synthetic task {task_id}: could not reach class balance for {rule.name}")
    examples = [
        TaskExample(s, 1, featurize(m)) for s, m in list(pos_pool.items())[:target_pos]
    ] + [
        TaskExample(s, 0, featurize(m)) for s, m in list(neg_pool.items())[: n_molecules - target_pos]
    ]
    order = rng.permutation(len(examples))
    return TaskRecord(task_id=task_id, split=split, examples=[examples[i] for i in order])


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
    molecule, with per-task class balance kept within 35-65%.
    """
    if molecules_per_task < 4:
        raise DataError("synthetic tasks need at least 4 molecules each")
    registry = Registry()
    plan = [("train", n_train), ("valid", n_valid), ("test", n_test)]
    counter = 0
    for split, count in plan:
        records = []
        for _ in range(count):
            rng = np.random.default_rng([_to_seed_int(seed), counter])
            records.append(_synth_task(f"synth-{counter:04d}", split, molecules_per_task, rng))
            counter += 1
        registry.tasks[split] = records
    return registry


def _to_seed_int(seed) -> int:
    return int(seed)
