"""SMILES reading: tokenizer, parser and molecular graph featurization.

Covers the organic subset, bracket atoms, ring closures (single digit
and %nn), branches and explicit bond orders (- = # :, with / and \\
degraded to single).  Stereo markers, isotopes and atom-class tags are
accepted and ignored.  Lowercase atoms carry an aromatic flag and
default bonds between two aromatic atoms are typed aromatic; there is
no valence model and no kekulization.  Multi-fragment inputs (dots)
are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SmilesError",
    "Token",
    "ParsedAtom",
    "ParsedMolecule",
    "D_ATOM",
    "D_BOND",
    "MolGraph",
    "tokenize",
    "parse",
    "featurize",
    "graph_from_smiles",
]


class SmilesError(ValueError):
    """Malformed SMILES input; carries the byte offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


ORGANIC_TWO = ("Cl", "Br")
ORGANIC_ONE = set("BCNOPSFI")
AROMATIC_ORGANIC = set("bcnops")
AROMATIC_BRACKET = {"b", "c", "n", "o", "p", "s", "se", "as"}
# ASCII only: str.isdigit() also accepts characters such as "²" that int() rejects
DIGITS = frozenset("0123456789")
BOND_SYMBOLS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
                "/": "single", "\\": "single"}
BOND_ORDERS = ("single", "double", "triple", "aromatic")


class Token(NamedTuple):
    kind: str  # atom | bond | ring | open | close | dot
    position: int
    element: str = ""
    aromatic: bool = False
    charge: int = 0
    h_count: int = 0
    order: str = ""
    label: int = -1


# Token fields after ``position`` when they all hold their defaults.
_NO_FIELDS = ("", False, 0, 0, "", -1)
# The kind and the fields after ``position`` of every one-character
# token; "C" and "B" may instead start "Cl" or "Br", and "[" and "%"
# start longer tokens.
_CHAR_FIELDS = {
    **{c: ("atom", (c, False, 0, 0, "", -1)) for c in ORGANIC_ONE},
    **{c: ("atom", (c.upper(), True, 0, 0, "", -1)) for c in AROMATIC_ORGANIC},
    **{c: ("bond", ("", False, 0, 0, order, -1)) for c, order in BOND_SYMBOLS.items()},
    **{c: ("ring", ("", False, 0, 0, "", int(c))) for c in DIGITS},
    "(": ("open", _NO_FIELDS),
    ")": ("close", _NO_FIELDS),
    ".": ("dot", _NO_FIELDS),
}


def tokenize(smiles: str) -> list[Token]:
    """Split a SMILES string into tokens, rejecting unknown characters."""
    return [Token._make(fields) for fields in _scan(smiles)]


def _scan(smiles: str) -> list[tuple]:
    """``tokenize``'s tokens as plain tuples of the ``Token`` fields,
    which ``parse`` unpacks without building ``Token`` objects."""
    if not smiles:
        raise SmilesError("empty SMILES string", 0)
    tokens: list[tuple] = []
    i, n = 0, len(smiles)
    while i < n:
        c = smiles[i]
        spec = _CHAR_FIELDS.get(c)
        if spec is not None:
            if (c == "C" or c == "B") and smiles[i : i + 2] in ORGANIC_TWO:
                tokens.append(("atom", i, smiles[i : i + 2], False, 0, 0, "", -1))
                i += 2
            else:
                tokens.append((spec[0], i) + spec[1])
                i += 1
        elif c == "[":
            token, i = _scan_bracket(smiles, i)
            tokens.append(token)
        elif c == "%":
            if i + 2 >= n or smiles[i + 1] not in DIGITS or smiles[i + 2] not in DIGITS:
                raise SmilesError("'%' must be followed by two digits", i)
            tokens.append(("ring", i, "", False, 0, 0, "", int(smiles[i + 1 : i + 3])))
            i += 3
        else:
            raise SmilesError(f"unexpected character {c!r}", i)
    return tokens


def _scan_bracket(s: str, start: int) -> tuple[tuple, int]:
    """Scan a bracket atom beginning at ``start`` (which holds '[')."""
    i = start + 1
    n = len(s)

    def fail(msg: str, pos: int):
        raise SmilesError(msg, pos)

    while i < n and s[i] in DIGITS:  # isotope, ignored
        i += 1
    if i >= n:
        fail("unterminated bracket atom", start)
    element = ""
    aromatic = False
    if s[i : i + 2] in AROMATIC_BRACKET:
        element, aromatic, i = s[i : i + 2].capitalize(), True, i + 2
    elif s[i] in AROMATIC_BRACKET:
        element, aromatic, i = s[i].upper(), True, i + 1
    elif s[i].isupper():
        element = s[i]
        i += 1
        if i < n and s[i].islower() and s[i] != "]":
            element += s[i]
            i += 1
    else:
        fail(f"expected an element symbol, got {s[i]!r}", i)
    h_count = 0
    charge = 0
    while i < n and s[i] != "]":
        c = s[i]
        if c == "@":
            i += 1
            if i < n and s[i] == "@":
                i += 1
        elif c == "H":
            i += 1
            if i < n and s[i] in DIGITS:
                h_count = int(s[i])
                i += 1
            else:
                h_count = 1
        elif c in "+-":
            sign = 1 if c == "+" else -1
            i += 1
            if i < n and s[i] in DIGITS:
                charge = sign * int(s[i])
                i += 1
            else:
                charge = sign
                while i < n and s[i] == c:
                    charge += sign
                    i += 1
        elif c == ":":
            i += 1
            if i >= n or s[i] not in DIGITS:
                fail("atom class ':' must be followed by digits", i - 1)
            while i < n and s[i] in DIGITS:
                i += 1
        else:
            fail(f"unexpected character {c!r} in bracket atom", i)
    if i >= n:
        fail("unterminated bracket atom", start)
    return ("atom", start, element, aromatic, charge, h_count, "", -1), i + 1


@dataclass
class ParsedAtom:
    element: str
    aromatic: bool = False
    charge: int = 0
    h_count: int = 0


@dataclass
class ParsedMolecule:
    smiles: str
    atoms: list[ParsedAtom]
    bonds: list[tuple[int, int, str]]  # (u, v, order) with u < v

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)


def parse(smiles: str) -> ParsedMolecule:
    """Parse a single-fragment SMILES string into atoms and typed bonds."""
    tokens = _scan(smiles)
    atoms: list[ParsedAtom] = []
    bonds: list[tuple[int, int, str]] = []
    bond_keys: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: str | None = None  # order of a bond symbol not yet used
    pending_position = 0
    stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None, int]] = {}

    def close_ring(u: int, v: int, order: str | None, position: int):
        if u == v:
            raise SmilesError("ring closure bonds an atom to itself", position)
        key = (min(u, v), max(u, v))
        if key in bond_keys:
            raise SmilesError(f"duplicate bond between atoms {key[0]} and {key[1]}", position)
        if order is None:
            order = "aromatic" if atoms[u].aromatic and atoms[v].aromatic else "single"
        bond_keys.add(key)
        bonds.append((key[0], key[1], order))

    for kind, position, element, aromatic, charge, h_count, order, label in tokens:
        if kind == "atom":
            idx = len(atoms)
            atoms.append(ParsedAtom(element, aromatic, charge, h_count))
            if prev is not None:
                # the chain bond to a new atom is never a self bond or a
                # duplicate; its key still guards later ring closures
                chain_order = pending or ("aromatic" if aromatic and atoms[prev].aromatic else "single")
                bond_keys.add((prev, idx))
                bonds.append((prev, idx, chain_order))
                pending = None
            prev = idx
        elif kind == "ring":
            if prev is None:
                raise SmilesError("ring closure with no preceding atom", position)
            if label in ring_open:
                other, other_order, _ = ring_open.pop(label)
                if pending is not None and other_order is not None and pending != other_order:
                    raise SmilesError(f"conflicting bond orders on ring closure {label}", position)
                close_ring(other, prev, pending if pending is not None else other_order, position)
            else:
                ring_open[label] = (prev, pending, position)
            pending = None
        elif kind == "open":
            if prev is None:
                raise SmilesError("branch opened before any atom", position)
            if pending is not None:
                raise SmilesError("bond symbol immediately before '('", position)
            stack.append(prev)
        elif kind == "close":
            if not stack:
                raise SmilesError("unbalanced ')'", position)
            if pending is not None:
                raise SmilesError("dangling bond symbol before ')'", position)
            prev = stack.pop()
        elif kind == "bond":
            if prev is None:
                raise SmilesError("bond symbol with no preceding atom", position)
            if pending is not None:
                raise SmilesError("two bond symbols in a row", position)
            pending, pending_position = order, position
        else:  # dot
            raise SmilesError("multi-fragment SMILES are not supported", position)

    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", pending_position)
    if stack:
        raise SmilesError("unclosed '('", len(smiles) - 1)
    if ring_open:
        label, (_, _, position) = next(iter(ring_open.items()))
        raise SmilesError(f"ring closure {label} never closed", position)
    if not atoms:
        raise SmilesError("no atoms in SMILES", 0)
    return ParsedMolecule(smiles, atoms, bonds)


# Fixed-width one-hot layout of an atom row: element (with an "other"
# bucket), degree, formal charge, aromatic flag, hydrogen count.
ELEMENTS = ("C", "N", "O", "S", "F", "Cl", "Br", "I", "P", "B", "Si")
MAX_DEGREE = 6
CHARGE_RANGE = (-2, 2)
MAX_H = 4
_N_CHARGE = CHARGE_RANGE[1] - CHARGE_RANGE[0] + 1
D_ATOM = (len(ELEMENTS) + 1) + (MAX_DEGREE + 1) + _N_CHARGE + 1 + (MAX_H + 1)
D_BOND = len(BOND_ORDERS)


# First column of each block of an atom row, and the column of each
# element and bond order within its block.
_DEGREE_COL = len(ELEMENTS) + 1
_CHARGE_COL = _DEGREE_COL + MAX_DEGREE + 1
_AROMATIC_COL = _CHARGE_COL + _N_CHARGE
_H_COL = _AROMATIC_COL + 1
_ELEMENT_COL = {element: col for col, element in enumerate(ELEMENTS)}
_OTHER_COL = len(ELEMENTS)
_BOND_COL = {order: col for col, order in enumerate(BOND_ORDERS)}


@dataclass
class MolGraph:
    """Featurized molecular graph ready for the encoder.

    Stored compact, since a registry holds every molecule at once:
    ``atom_feats`` [n_atoms, D_ATOM] and ``bond_feats`` [n_bonds, D_BOND]
    are bool one-hot rows, and ``bonds`` is an int32 [n_bonds, 2] array
    holding each undirected bond once as (u, v) with u < v, one row per
    ``bond_feats`` row (possibly zero rows for single-atom molecules).
    ``encoder.GraphBatch`` widens the rows to float64, once per batch.
    ``featurize`` makes the three arrays read-only, because every task
    that lists a molecule shares its one graph.
    """

    atom_feats: np.ndarray
    bonds: np.ndarray
    bond_feats: np.ndarray
    source_smiles: str

    @property
    def n_atoms(self) -> int:
        return self.atom_feats.shape[0]

    @property
    def n_bonds(self) -> int:
        return self.bonds.shape[0]

    def has_element(self, symbol: str) -> bool:
        """Whether some atom is ``symbol``, one of ``ELEMENTS``."""
        return bool(np.count_nonzero(self.atom_feats[:, _ELEMENT_COL[symbol]]))

    def has_bond_order(self, order: str) -> bool:
        """Whether some bond has ``order``, one of ``BOND_ORDERS``."""
        return bool(np.count_nonzero(self.bond_feats[:, _BOND_COL[order]]))


def featurize(mol: ParsedMolecule) -> MolGraph:
    """Build feature rows from a parsed molecule.  Never raises on
    exotic atoms: unknown elements land in the "other" bucket and
    out-of-range degrees, charges and H counts clamp to the last bucket.
    """
    degrees = [0] * mol.n_atoms
    for u, v, _ in mol.bonds:
        degrees[u] += 1
        degrees[v] += 1
    low, high = CHARGE_RANGE
    hot: list[int] = []  # flat index of every one in the atom rows
    base = 0
    for atom, degree in zip(mol.atoms, degrees):
        charge, h_count = atom.charge, atom.h_count
        hot += (
            base + _ELEMENT_COL.get(atom.element, _OTHER_COL),
            base + _DEGREE_COL + (degree if degree < MAX_DEGREE else MAX_DEGREE),
            base + _CHARGE_COL - low + (low if charge < low else high if charge > high else charge),
            base + _H_COL + (h_count if h_count < MAX_H else MAX_H),
        )
        if atom.aromatic:
            hot.append(base + _AROMATIC_COL)
        base += D_ATOM
    atom_rows = np.zeros((mol.n_atoms, D_ATOM), dtype=bool)
    atom_rows.reshape(-1)[np.array(hot, dtype=np.intp)] = True
    bond_rows = np.zeros((mol.n_bonds, D_BOND), dtype=bool)
    bonds = np.zeros((mol.n_bonds, 2), dtype=np.int32)
    if mol.bonds:
        hot = [row * D_BOND + _BOND_COL[order] for row, (_, _, order) in enumerate(mol.bonds)]
        bond_rows.reshape(-1)[np.array(hot, dtype=np.intp)] = True
        bonds[:] = [(u, v) for u, v, _ in mol.bonds]
    for rows in (atom_rows, bonds, bond_rows):
        rows.flags.writeable = False
    return MolGraph(
        atom_feats=atom_rows, bonds=bonds, bond_feats=bond_rows, source_smiles=mol.smiles
    )


def graph_from_smiles(smiles: str) -> MolGraph:
    return featurize(parse(smiles))
