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

import numpy as np

from .tensor import Tensor

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


@dataclass(frozen=True)
class Token:
    kind: str  # atom | bond | ring | open | close | dot
    position: int
    element: str = ""
    aromatic: bool = False
    charge: int = 0
    h_count: int = 0
    order: str = ""
    label: int = -1


def tokenize(smiles: str) -> list[Token]:
    """Split a SMILES string into tokens, rejecting unknown characters."""
    if not smiles:
        raise SmilesError("empty SMILES string", 0)
    tokens: list[Token] = []
    i, n = 0, len(smiles)
    while i < n:
        c = smiles[i]
        if c == "[":
            token, i = _scan_bracket(smiles, i)
            tokens.append(token)
        elif smiles[i : i + 2] in ORGANIC_TWO:
            tokens.append(Token("atom", i, element=smiles[i : i + 2]))
            i += 2
        elif c in ORGANIC_ONE:
            tokens.append(Token("atom", i, element=c))
            i += 1
        elif c in AROMATIC_ORGANIC:
            tokens.append(Token("atom", i, element=c.upper(), aromatic=True))
            i += 1
        elif c in BOND_SYMBOLS:
            tokens.append(Token("bond", i, order=BOND_SYMBOLS[c]))
            i += 1
        elif c in DIGITS:
            tokens.append(Token("ring", i, label=int(c)))
            i += 1
        elif c == "%":
            if i + 2 >= n or smiles[i + 1] not in DIGITS or smiles[i + 2] not in DIGITS:
                raise SmilesError("'%' must be followed by two digits", i)
            tokens.append(Token("ring", i, label=int(smiles[i + 1 : i + 3])))
            i += 3
        elif c == "(":
            tokens.append(Token("open", i))
            i += 1
        elif c == ")":
            tokens.append(Token("close", i))
            i += 1
        elif c == ".":
            tokens.append(Token("dot", i))
            i += 1
        else:
            raise SmilesError(f"unexpected character {c!r}", i)
    return tokens


def _scan_bracket(s: str, start: int) -> tuple[Token, int]:
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
    return (
        Token("atom", start, element=element, aromatic=aromatic, charge=charge, h_count=h_count),
        i + 1,
    )


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
    tokens = tokenize(smiles)
    atoms: list[ParsedAtom] = []
    bonds: list[tuple[int, int, str]] = []
    bond_keys: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: tuple[str, int] | None = None  # (order, position)
    stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None, int]] = {}

    def add_bond(u: int, v: int, order: str | None, position: int):
        if u == v:
            raise SmilesError("ring closure bonds an atom to itself", position)
        key = (min(u, v), max(u, v))
        if key in bond_keys:
            raise SmilesError(f"duplicate bond between atoms {key[0]} and {key[1]}", position)
        if order is None:
            order = "aromatic" if atoms[u].aromatic and atoms[v].aromatic else "single"
        bond_keys.add(key)
        bonds.append((key[0], key[1], order))

    for tok in tokens:
        if tok.kind == "atom":
            idx = len(atoms)
            atoms.append(ParsedAtom(tok.element, tok.aromatic, tok.charge, tok.h_count))
            if prev is not None:
                add_bond(prev, idx, pending[0] if pending else None, tok.position)
            elif pending is not None:
                raise SmilesError("bond symbol with no preceding atom", pending[1])
            pending = None
            prev = idx
        elif tok.kind == "bond":
            if prev is None:
                raise SmilesError("bond symbol with no preceding atom", tok.position)
            if pending is not None:
                raise SmilesError("two bond symbols in a row", tok.position)
            pending = (tok.order, tok.position)
        elif tok.kind == "ring":
            if prev is None:
                raise SmilesError("ring closure with no preceding atom", tok.position)
            if tok.label in ring_open:
                other, other_order, other_pos = ring_open.pop(tok.label)
                order = pending[0] if pending else None
                if order is not None and other_order is not None and order != other_order:
                    raise SmilesError(
                        f"conflicting bond orders on ring closure {tok.label}", tok.position
                    )
                add_bond(other, prev, order if order is not None else other_order, tok.position)
            else:
                ring_open[tok.label] = (prev, pending[0] if pending else None, tok.position)
            pending = None
        elif tok.kind == "open":
            if prev is None:
                raise SmilesError("branch opened before any atom", tok.position)
            if pending is not None:
                raise SmilesError("bond symbol immediately before '('", tok.position)
            stack.append(prev)
        elif tok.kind == "close":
            if not stack:
                raise SmilesError("unbalanced ')'", tok.position)
            if pending is not None:
                raise SmilesError("dangling bond symbol before ')'", tok.position)
            prev = stack.pop()
        elif tok.kind == "dot":
            raise SmilesError("multi-fragment SMILES are not supported", tok.position)

    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", pending[1])
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


def _atom_row(atom: ParsedAtom, degree: int) -> np.ndarray:
    row = np.zeros(D_ATOM, dtype=np.float64)
    offset = 0
    try:
        row[offset + ELEMENTS.index(atom.element)] = 1.0
    except ValueError:
        row[offset + len(ELEMENTS)] = 1.0  # "other" bucket
    offset += len(ELEMENTS) + 1
    row[offset + min(degree, MAX_DEGREE)] = 1.0
    offset += MAX_DEGREE + 1
    charge = min(max(atom.charge, CHARGE_RANGE[0]), CHARGE_RANGE[1])
    row[offset + (charge - CHARGE_RANGE[0])] = 1.0
    offset += _N_CHARGE
    row[offset] = 1.0 if atom.aromatic else 0.0
    offset += 1
    row[offset + min(atom.h_count, MAX_H)] = 1.0
    return row


def _bond_row(order: str) -> np.ndarray:
    row = np.zeros(D_BOND, dtype=np.float64)
    row[BOND_ORDERS.index(order)] = 1.0
    return row


@dataclass
class MolGraph:
    """Featurized molecular graph ready for the encoder.

    ``bonds`` stores each undirected bond once as (u, v) with u < v;
    ``bond_feats`` has one row per stored bond (possibly zero rows for
    single-atom molecules).
    """

    atom_feats: Tensor
    bonds: list[tuple[int, int]]
    bond_feats: Tensor
    source_smiles: str

    @property
    def n_atoms(self) -> int:
        return self.atom_feats.shape[0]

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)


def featurize(mol: ParsedMolecule) -> MolGraph:
    """Build feature tensors from a parsed molecule.  Never raises on
    exotic atoms: unknown elements land in the "other" bucket and
    out-of-range degrees, charges and H counts clamp to the last bucket.
    """
    degrees = [0] * mol.n_atoms
    for u, v, _ in mol.bonds:
        degrees[u] += 1
        degrees[v] += 1
    atom_rows = np.stack([_atom_row(a, d) for a, d in zip(mol.atoms, degrees)])
    if mol.bonds:
        bond_rows = np.stack([_bond_row(order) for _, _, order in mol.bonds])
    else:
        bond_rows = np.zeros((0, D_BOND), dtype=np.float64)
    return MolGraph(
        atom_feats=Tensor(atom_rows),
        bonds=[(u, v) for u, v, _ in mol.bonds],
        bond_feats=Tensor(bond_rows),
        source_smiles=mol.smiles,
    )


def graph_from_smiles(smiles: str) -> MolGraph:
    return featurize(parse(smiles))
