"""Small builders shared across test modules."""

from __future__ import annotations

import struct

from molmatch.episodes import Registry, TaskExample, TaskRecord
from molmatch.smiles import graph_from_smiles

_SUFFIXES = ("", "O", "N", "F", "Cl", "S", "C(C)C", "C=C", "C#N", "(C)O", "=O", "C(N)O")


def distinct_smiles(n: int) -> list[str]:
    """Deterministic list of n distinct, parseable molecules."""
    out: list[str] = []
    seen = set()
    k = 1
    while len(out) < n:
        for suffix in _SUFFIXES:
            s = "C" * k + suffix
            if s not in seen:
                seen.add(s)
                out.append(s)
                if len(out) == n:
                    return out
        k += 1
    return out


def make_task(task_id: str, labelled: list[tuple[str, int]], split: str = "train") -> TaskRecord:
    examples = [TaskExample(s, y, graph_from_smiles(s)) for s, y in labelled]
    return TaskRecord(task_id=task_id, split=split, examples=examples)


def chain_task(task_id: str, n: int, n_pos: int, split: str = "train") -> TaskRecord:
    """n distinct molecules; the first n_pos are labelled positive."""
    smiles = distinct_smiles(n)
    return make_task(task_id, [(s, 1 if i < n_pos else 0) for i, s in enumerate(smiles)], split)


def first_name_offset(raw: bytes) -> int:
    """Byte offset of the first tensor name in a checkpoint file."""
    (meta_len,) = struct.unpack("<I", raw[8:12])
    return 12 + meta_len + 4 + 2  # magic+version+length, metadata, record count, name length


def make_registry(train: list[TaskRecord], valid=(), test=()) -> Registry:
    return Registry(tasks={"train": list(train), "valid": list(valid), "test": list(test)})
