import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molmatch.episodes import _random_molecule
from molmatch.smiles import (
    BOND_ORDERS,
    D_ATOM,
    D_BOND,
    ELEMENTS,
    SmilesError,
    Token,
    featurize,
    graph_from_smiles,
    parse,
    tokenize,
)
from oracles import featurize_by_rows, find_isomorphism

CORPUS = Path(__file__).resolve().parents[1] / "src" / "molmatch" / "data" / "smiles_corpus.txt"


def corpus_rows():
    rows = []
    for line in CORPUS.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        smiles, n_atoms, n_bonds = line.split("\t")
        rows.append((smiles, int(n_atoms), int(n_bonds)))
    return rows


class TestTokenize:
    def test_simple_chain(self):
        kinds = [(t.kind, t.element) for t in tokenize("CCO")]
        assert kinds == [("atom", "C"), ("atom", "C"), ("atom", "O")]

    def test_two_char_elements_win(self):
        tokens = tokenize("ClCBr")
        assert [t.element for t in tokens] == ["Cl", "C", "Br"]

    def test_aromatic_lowercase(self):
        tokens = tokenize("c1ccccc1")
        atoms = [t for t in tokens if t.kind == "atom"]
        rings = [t for t in tokens if t.kind == "ring"]
        assert len(atoms) == 6 and all(t.aromatic and t.element == "C" for t in atoms)
        assert [t.label for t in rings] == [1, 1]

    def test_percent_ring_label(self):
        tokens = tokenize("C%12CC%12")
        assert [t.label for t in tokens if t.kind == "ring"] == [12, 12]

    def test_bond_symbols(self):
        orders = [t.order for t in tokenize("C-C=C#C:C/C\\C") if t.kind == "bond"]
        assert orders == ["single", "double", "triple", "aromatic", "single", "single"]

    def test_branch_tokens_fine_alone(self):
        # grammar errors surface at parse time, not tokenize time
        assert [t.kind for t in tokenize("C(")] == ["atom", "open"]

    def test_unknown_character_position(self):
        with pytest.raises(SmilesError, match="position 2") as exc:
            tokenize("CC$C")
        assert exc.value.position == 2

    def test_percent_needs_two_digits(self):
        with pytest.raises(SmilesError, match="two digits"):
            tokenize("C%1C")

    def test_empty_input(self):
        with pytest.raises(SmilesError, match="empty"):
            tokenize("")

    def test_every_field_of_every_token_kind(self):
        assert tokenize("[13CH3+]C(=O)c1%10Cl.Br") == [
            Token("atom", 0, element="C", charge=1, h_count=3),
            Token("atom", 8, element="C"),
            Token("open", 9),
            Token("bond", 10, order="double"),
            Token("atom", 11, element="O"),
            Token("close", 12),
            Token("atom", 13, element="C", aromatic=True),
            Token("ring", 14, label=1),
            Token("ring", 15, label=10),
            Token("atom", 18, element="Cl"),
            Token("dot", 20),
            Token("atom", 21, element="Br"),
        ]

    def test_token_fields_cannot_be_reassigned(self):
        token = tokenize("C")[0]
        for name, value in (("kind", "bond"), ("position", 3), ("element", "N")):
            with pytest.raises(AttributeError):
                setattr(token, name, value)
        assert token == Token("atom", 0, element="C")


class TestBracketAtoms:
    def test_charges(self):
        assert parse("[O-]").atoms[0].charge == -1
        assert parse("[NH4+]").atoms[0].charge == 1
        assert parse("[Ca+2]").atoms[0].charge == 2
        assert parse("[Fe++]").atoms[0].charge == 2
        assert parse("[O-2]").atoms[0].charge == -2

    def test_h_count(self):
        assert parse("[NH4+]").atoms[0].h_count == 4
        assert parse("[CH]").atoms[0].h_count == 1
        assert parse("[C]").atoms[0].h_count == 0

    def test_isotope_and_chirality_and_class_ignored(self):
        for smiles in ("[13CH4]", "[C@@H4]", "[CH4:7]"):
            atom = parse(smiles).atoms[0]
            assert atom.element == "C" and atom.h_count == 4

    def test_aromatic_bracket_atoms(self):
        assert parse("[nH]").atoms[0].aromatic
        assert parse("[se]").atoms[0].element == "Se"

    def test_two_letter_elements(self):
        assert parse("[Si]").atoms[0].element == "Si"
        assert parse("[Fe]").atoms[0].element == "Fe"

    def test_bracket_errors(self):
        for bad, pattern in [
            ("[C", "unterminated"),
            ("[", "unterminated"),
            ("[]", "element symbol"),
            ("[C:]", "atom class"),
            ("[C?]", "unexpected character"),
        ]:
            with pytest.raises(SmilesError, match=pattern):
                parse(bad)


class TestParse:
    def test_corpus_counts(self):
        # 50 molecules with independently hand-derived counts
        rows = corpus_rows()
        assert len(rows) == 50
        for smiles, n_atoms, n_bonds in rows:
            mol = parse(smiles)
            assert (mol.n_atoms, mol.n_bonds) == (n_atoms, n_bonds), smiles

    def test_explicit_bond_orders(self):
        mol = parse("CC(=O)O")
        assert mol.bonds == [(0, 1, "single"), (1, 2, "double"), (1, 3, "single")]

    def test_aromatic_default_bonds(self):
        mol = parse("c1ccccc1")
        assert all(order == "aromatic" for _, _, order in mol.bonds)

    def test_aromatic_to_aliphatic_is_single(self):
        mol = parse("Cc1ccccc1")
        orders = {tuple(sorted((u, v))): order for u, v, order in mol.bonds}
        assert orders[(0, 1)] == "single"

    def test_slash_bonds_degrade_to_single(self):
        mol = parse("C/C=C\\C")
        orders = [order for _, _, order in mol.bonds]
        assert orders == ["single", "double", "single"]

    def test_ring_closure_bond_order(self):
        # the closure bond carries the order given at either end
        mol = parse("C=1CCCCC=1")
        orders = {tuple(sorted((u, v))): order for u, v, order in mol.bonds}
        assert orders[(0, 5)] == "double"

    def test_ring_order_given_once(self):
        mol = parse("C1CCCCC=1")
        orders = {tuple(sorted((u, v))): order for u, v, order in mol.bonds}
        assert orders[(0, 5)] == "double"

    def test_branching(self):
        mol = parse("CC(C)(C)C")
        degrees = [0] * mol.n_atoms
        for u, v, _ in mol.bonds:
            degrees[u] += 1
            degrees[v] += 1
        assert sorted(degrees) == [1, 1, 1, 1, 4]

    def test_multi_fragment_rejected(self):
        with pytest.raises(SmilesError, match="multi-fragment"):
            parse("CC.CC")

    def test_malformed_inputs_have_positions(self):
        cases = [
            ("C1CC", "ring closure 1 never closed"),
            ("C(C", "unclosed"),
            ("CC)", r"unbalanced '\)'"),
            ("=CC", "no preceding atom"),
            ("C=", "dangling bond"),
            ("C=)", "unbalanced"),
            ("C(=)C", "dangling bond symbol before"),
            ("C=#C", "two bond symbols"),
            ("C11", "itself"),
            ("C12CC12", "duplicate bond"),
            ("C1C1", "duplicate bond"),  # a closure repeating the chain bond
            ("C-1CC=1", "conflicting bond orders"),
            ("(C)", "branch opened before any atom"),
            ("1CC", "ring closure with no preceding atom"),
            ("C=(C)", "bond symbol immediately before"),
        ]
        for smiles, pattern in cases:
            with pytest.raises(SmilesError, match=pattern) as exc:
                parse(smiles)
            assert 0 <= exc.value.position <= len(smiles), smiles

    def test_ring_reuse_after_close(self):
        # label 1 may be reused once its first pairing closed
        mol = parse("C1CC1C1CC1")
        assert mol.n_atoms == 6 and mol.n_bonds == 7


# Featurizer inputs: the synthetic generator's templates, and a hub atom
# with up to eight branches of plain and bracket atoms, the latter with
# charges -3..+3, H counts 0..5, unknown elements and aromatic symbols.
SYNTH_MOLECULES = st.integers(0, 2**32 - 1).map(
    lambda seed: _random_molecule(np.random.default_rng(seed))
)
BRACKET_ATOMS = st.builds(
    lambda element, h_count, charge: f"[{element}H{h_count}{'' if charge == 0 else f'{charge:+d}'}]",
    st.sampled_from(ELEMENTS + ("Se", "Xe", "c", "n", "o", "s", "se")),
    st.integers(0, 5),
    st.integers(-3, 3),
)
ATOMS = st.one_of(st.sampled_from(["C", "N", "O", "c", "n", "Cl", "Br"]), BRACKET_ATOMS)
BRANCHES = st.lists(
    st.lists(st.tuples(st.sampled_from(["", "-", "=", "#", ":"]), ATOMS), min_size=1, max_size=3),
    max_size=8,
)
HUB_MOLECULES = st.builds(
    lambda hub, branches: hub + "".join(
        "(" + "".join(bond + atom for bond, atom in branch) + ")" for branch in branches
    ),
    ATOMS,
    BRANCHES,
)


class TestFeaturize:
    def test_schema_widths(self):
        assert D_ATOM == 30
        assert D_BOND == 4

    def test_atom_row_layout(self):
        g = graph_from_smiles("[NH3+]C")  # charged nitrogen bonded to carbon
        row = g.atom_feats[0]
        assert row[1] == 1.0  # N is the second element bucket
        assert row[12 + 1] == 1.0  # degree 1
        assert row[19 + (1 - (-2))] == 1.0  # charge +1
        assert row[24] == 0.0  # not aromatic
        assert row[25 + 3] == 1.0  # three explicit hydrogens
        assert row.sum() == 4.0  # four active blocks

    def test_one_hot_block_structure(self):
        for smiles in ("CCO", "c1ccncc1", "[O-]S(=O)(=O)[O-]"):
            feats = graph_from_smiles(smiles).atom_feats
            assert feats.shape[1] == 30
            # element, degree, charge, H blocks each sum to one; the
            # aromatic column is free
            for row in feats:
                assert row[:12].sum() == 1.0
                assert row[12:19].sum() == 1.0
                assert row[19:24].sum() == 1.0
                assert row[25:].sum() == 1.0

    def test_unknown_element_goes_to_other_bucket(self):
        row = graph_from_smiles("[U]").atom_feats[0]
        assert row[11] == 1.0

    def test_degree_clamps(self):
        g = graph_from_smiles("C(F)(F)(F)(F)(F)(F)F")  # degree 7 center
        center = g.atom_feats[0]
        assert center[12 + 6] == 1.0

    def test_charge_clamps(self):
        row = graph_from_smiles("[O-3]").atom_feats[0]
        assert row[19] == 1.0  # clamped to -2

    def test_h_count_clamps(self):
        row = graph_from_smiles("[CH9]").atom_feats[0]
        assert row[25 + 4] == 1.0

    def test_aromatic_flag(self):
        g = graph_from_smiles("c1ccccc1")
        assert (g.atom_feats[:, 24] == 1.0).all()

    def test_bond_rows_one_hot(self):
        g = graph_from_smiles("C-C=C#Cc1ccccc1")
        assert g.bond_feats.shape == (g.n_bonds, 4)
        assert (g.bond_feats.sum(axis=1) == 1.0).all()
        assert g.bond_feats[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert g.bond_feats[1].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert g.bond_feats[2].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert g.bond_feats[-1].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_single_atom_has_empty_bond_block(self):
        g = graph_from_smiles("C")
        assert g.n_atoms == 1 and g.n_bonds == 0
        assert g.bond_feats.shape == (0, 4)

    def test_source_smiles_retained(self):
        assert graph_from_smiles("CCO").source_smiles == "CCO"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(SYNTH_MOLECULES, HUB_MOLECULES))
    def test_accessors_agree_with_the_parsed_molecule(self, smiles):
        # synth's labelling rules read these on the shared graph in
        # place of the parsed atoms and bonds
        mol = parse(smiles)
        graph = featurize(mol)
        for element in ELEMENTS:
            assert graph.has_element(element) == any(a.element == element for a in mol.atoms)
        for order in BOND_ORDERS:
            assert graph.has_bond_order(order) == any(o == order for _, _, o in mol.bonds)

    def test_stored_graphs_are_compact(self):
        # a registry holds every molecule at once: bool rows and int32
        # bonds take about 0.8 KB a graph here, float64 rows and a list
        # of bond tuples took 2.95 KB
        smiles = [s for s, _, _ in corpus_rows()] * 40
        tracemalloc.start()
        try:
            graphs = [graph_from_smiles(s) for s in smiles]
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_graph = grown / len(graphs)
        assert per_graph < 1.5 * 1024, f"{per_graph:.0f} bytes per stored graph"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(SYNTH_MOLECULES, HUB_MOLECULES))
    @example("C")  # one atom, no bonds
    @example("[Se]")
    @example("[Xe+3]")
    @example("[nH+]")
    @example("C(F)(F)(F)(F)(F)(F)F")  # degree 7
    def test_matches_the_row_by_row_reference(self, smiles):
        mol = parse(smiles)
        graph = featurize(mol)
        atom_rows, bond_rows = featurize_by_rows(mol)
        # stored compact: bool rows and int32 bonds, the reference's values
        assert graph.atom_feats.dtype == graph.bond_feats.dtype == np.bool_
        assert graph.bonds.dtype == np.int32 and graph.bonds.shape == (len(mol.bonds), 2)
        for got, want in ((graph.atom_feats, atom_rows), (graph.bond_feats, bond_rows)):
            assert got.shape == want.shape
            assert got.astype(np.float64).tobytes() == want.tobytes(), smiles
        assert graph.bonds.tolist() == [[u, v] for u, v, _ in mol.bonds]


class TestIsomorphism:
    """Atom order in the string must not change the labelled graph."""

    def test_reversed_chain(self):
        perm = find_isomorphism(graph_from_smiles("OCC"), graph_from_smiles("CCO"))
        assert perm is not None

    def test_branch_orderings(self):
        a = graph_from_smiles("C(F)(Cl)Br")
        b = graph_from_smiles("FC(Cl)Br")
        assert find_isomorphism(a, b) is not None

    def test_ring_rotations(self):
        a = graph_from_smiles("c1ccncc1")
        b = graph_from_smiles("n1ccccc1")
        assert find_isomorphism(a, b) is not None

    def test_distinct_molecules_rejected(self):
        assert find_isomorphism(graph_from_smiles("CCO"), graph_from_smiles("CCN")) is None
        assert find_isomorphism(graph_from_smiles("C=CC"), graph_from_smiles("CCC")) is None


class TestFuzz:
    def test_mutations_never_crash_unexpectedly(self):
        # every outcome must be a parsed molecule or a located SmilesError
        bases = [s for s, _, _ in corpus_rows()]
        alphabet = list("CNOSPFIclnos()[]=#-+1234%@./\\HBr")
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            s = list(bases[int(rng.integers(len(bases)))])
            for _ in range(int(rng.integers(1, 4))):
                op = rng.integers(3)
                pos = int(rng.integers(len(s) + 1)) if s else 0
                ch = alphabet[int(rng.integers(len(alphabet)))]
                if op == 0:
                    s.insert(pos, ch)
                elif op == 1 and s:
                    del s[min(pos, len(s) - 1)]
                elif s:
                    s[min(pos, len(s) - 1)] = ch
            mutated = "".join(s)
            try:
                mol = parse(mutated)
                assert mol.n_atoms >= 1
                featurize(mol)  # never raises on parseable input
            except SmilesError as exc:
                assert 0 <= exc.position <= max(len(mutated), 1)

    # SMILES-like characters plus non-ASCII digits and letters, which
    # str.isdigit / str.isupper accept but int() or the grammar may not
    SMILES_TEXT = st.text(
        alphabet=st.sampled_from(list("CNOSPFIBrlcnosHe()[]=#-+:0123456789%@./\\") + ["²", "٣", "߀", "Σ", "é"]),
        max_size=40,
    )

    @staticmethod
    def _parse_or_located_error(text: str):
        try:
            mol = parse(text)
        except SmilesError as exc:
            assert 0 <= exc.position <= len(text), (text, exc.position)
        else:
            assert mol.n_atoms >= 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(max_size=40))
    def test_arbitrary_text_parses_or_raises_smiles_error(self, text):
        self._parse_or_located_error(text)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(SMILES_TEXT)
    def test_smiles_like_text_parses_or_raises_smiles_error(self, text):
        self._parse_or_located_error(text)
