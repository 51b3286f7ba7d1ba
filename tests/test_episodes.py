import hashlib
import json
import logging
from collections import Counter

import numpy as np
import pytest

from molmatch import episodes
from molmatch.cli import main
from molmatch.config import ProtocolConfig
from molmatch.episodes import (
    DataError,
    EpisodeError,
    can_query_both_classes,
    can_sample,
    load_registry,
    load_task_file,
    sample_episode,
    sample_episode_balanced,
    sample_episode_unbalanced,
    synth_generate,
    write_registry,
)
from molmatch.smiles import parse
from helpers import chain_task, distinct_smiles, make_task


def write_task(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write((row if isinstance(row, str) else json.dumps(row)) + "\n")


def skipped_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if " skipped: " in r.getMessage()]


def count_parses(monkeypatch) -> Counter:
    """Count, by SMILES, the graphs ``episodes`` builds from here on."""
    parsed = Counter()
    real = episodes.graph_from_smiles

    def counting(smiles):
        parsed[smiles] += 1
        return real(smiles)

    monkeypatch.setattr(episodes, "graph_from_smiles", counting)
    return parsed


def registry_digest(registry) -> str:
    """SHA-256 of every task, molecule, label and feature value, with the
    rows read as float64 and the bonds as a list of int pairs."""
    digest = hashlib.sha256()
    for split, records in registry.tasks.items():
        for record in records:
            digest.update(f"{split}/{record.task_id}\n".encode())
            for ex in record.examples:
                bonds = [tuple(map(int, b)) for b in ex.graph.bonds]
                digest.update(f"{ex.smiles}\t{ex.label}\t{bonds}\n".encode())
                digest.update(ex.graph.atom_feats.astype(np.float64).tobytes())
                digest.update(ex.graph.bond_feats.astype(np.float64).tobytes())
    return digest.hexdigest()


class TestLoadRegistry:
    def test_loads_and_counts_malformed(self, tmp_path, caplog):
        train = tmp_path / "train"
        train.mkdir()
        write_task(
            train / "t1.jsonl",
            [
                {"smiles": "CCO", "label": 1},
                {"smiles": "CCC", "label": 0},
                "not json at all",
                {"smiles": "C(C", "label": 1},  # unparseable molecule
                {"smiles": "CCN", "label": 2},  # bad label
                "",
                {"smiles": "CCS", "label": 0},
                {"smiles": ["C", "C", "O"], "label": 1},  # not a string
                {"smiles": "CCF", "label": True},  # JSON true equals 1 in Python
            ],
        )
        assert load_task_file(train / "t1.jsonl")[1] == 5
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            registry = load_registry(tmp_path)
        assert len(skipped_lines(caplog)) == 5
        assert 'line 8 skipped: smiles must be a string, got ["C", "C", "O"]' in caplog.text
        assert "line 9 skipped: label must be 0 or 1, got true" in caplog.text
        (task,) = registry.split_tasks("train")
        assert task.task_id == "t1"
        assert [(e.smiles, e.label) for e in task.examples] == [
            ("CCO", 1),
            ("CCC", 0),
            ("CCS", 0),
        ]
        assert task.class_counts() == (2, 1)

    def test_each_distinct_smiles_is_parsed_once(self, tmp_path, monkeypatch):
        # CCO is listed in two splits' task files, and twice in one file
        # with opposite labels: one parse, one shared graph, own labels
        for split in ("train", "test"):
            (tmp_path / split).mkdir()
        write_task(tmp_path / "train" / "a.jsonl", [
            {"smiles": "CCO", "label": 1},
            {"smiles": "CCC", "label": 0},
            {"smiles": "CCO", "label": 0},
        ])
        write_task(tmp_path / "test" / "b.jsonl", [
            {"smiles": "CCO", "label": 0}, {"smiles": "CCN", "label": 1},
        ])
        parsed = count_parses(monkeypatch)
        registry = load_registry(tmp_path)
        assert parsed == {"CCO": 1, "CCC": 1, "CCN": 1}
        (a,) = registry.split_tasks("train")
        (b,) = registry.split_tasks("test")
        assert [(e.smiles, e.label) for e in a.examples] == [("CCO", 1), ("CCC", 0), ("CCO", 0)]
        assert [(e.smiles, e.label) for e in b.examples] == [("CCO", 0), ("CCN", 1)]
        assert a.examples[0].graph is a.examples[2].graph is b.examples[0].graph

    def test_loaded_graphs_are_read_only(self, tmp_path):
        # a graph is shared by every example that lists its SMILES, so
        # writing into one would change them all
        (tmp_path / "train").mkdir()
        write_task(tmp_path / "train" / "a.jsonl", [
            {"smiles": "CCO", "label": 1}, {"smiles": "CCC", "label": 0},
        ])
        graph = load_registry(tmp_path).split_tasks("train")[0].examples[0].graph
        for rows in (graph.atom_feats, graph.bonds, graph.bond_feats):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = rows[0]

    def test_byte_order_mark_is_skipped(self, tmp_path, caplog):
        (tmp_path / "train").mkdir()
        rows = [{"smiles": s, "label": i % 2} for i, s in enumerate(("CCO", "CC", "CCN"))]
        text = "".join(json.dumps(r) + "\n" for r in rows)
        (tmp_path / "train" / "t.jsonl").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            registry = load_registry(tmp_path)
        assert skipped_lines(caplog) == []
        (task,) = registry.split_tasks("train")
        assert [e.smiles for e in task.examples] == ["CCO", "CC", "CCN"]

    def test_tasks_with_too_few_examples_are_skipped(self, tmp_path, caplog):
        train = tmp_path / "train"
        train.mkdir()
        write_task(train / "tiny.jsonl", [{"smiles": "CCO", "label": 1}])
        write_task(train / "ok.jsonl", [{"smiles": "C", "label": 0}, {"smiles": "CC", "label": 1}])
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            registry = load_registry(tmp_path)
        assert skipped_lines(caplog) == ["task tiny skipped: fewer than 2 usable examples"]
        assert [t.task_id for t in registry.split_tasks("train")] == ["ok"]

    def test_duplicate_task_id_across_splits(self, tmp_path):
        rows = [{"smiles": "C", "label": 0}, {"smiles": "CC", "label": 1}]
        for split in ("train", "test"):
            (tmp_path / split).mkdir()
            write_task(tmp_path / split / "same.jsonl", rows)
        with pytest.raises(DataError, match="same"):
            load_registry(tmp_path)

    def test_only_named_splits_are_parsed(self, tmp_path, caplog):
        rows = [{"smiles": "C", "label": 0}, {"smiles": "CC", "label": 1}, "not json"]
        for split in ("train", "valid", "test"):
            (tmp_path / split).mkdir()
            write_task(tmp_path / split / f"{split}-task.jsonl", rows)
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            registry = load_registry(tmp_path, splits=("valid",))
        assert list(registry.tasks) == ["valid"]
        assert [t.task_id for t in registry.split_tasks("valid")] == ["valid-task"]
        (line,) = skipped_lines(caplog)
        assert line.startswith("valid-task.jsonl line 3 skipped: ")

    def test_split_tasks_come_in_task_id_order(self, tmp_path):
        # path order puts "t-2.jsonl" before "t.jsonl"; every command
        # visits tasks, and hands out per-index seeds, in id order
        rows = [{"smiles": "C", "label": 0}, {"smiles": "CC", "label": 1}]
        (tmp_path / "valid").mkdir()
        for name in ("t", "t-2"):
            write_task(tmp_path / "valid" / f"{name}.jsonl", rows)
        assert [t.task_id for t in load_registry(tmp_path).split_tasks("valid")] == ["t", "t-2"]

    def test_empty_root_rejected(self, tmp_path):
        (tmp_path / "train").mkdir()
        with pytest.raises(DataError, match="no task files"):
            load_registry(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not a directory"):
            load_registry(tmp_path / "absent")

    def test_write_and_reload_round_trip(self, tmp_path, caplog):
        registry = synth_generate(2, 1, 12, seed=3)
        write_registry(registry, tmp_path)
        with caplog.at_level(logging.WARNING, logger="molmatch"):
            reloaded = load_registry(tmp_path)
        assert skipped_lines(caplog) == []
        for split in ("train", "test"):
            original = {t.task_id: t for t in registry.split_tasks(split)}
            loaded = {t.task_id: t for t in reloaded.split_tasks(split)}
            assert original.keys() == loaded.keys()
            for task_id, task in original.items():
                got = loaded[task_id]
                assert [(e.smiles, e.label) for e in got.examples] == [
                    (e.smiles, e.label) for e in task.examples
                ]


class TestBalancedSampling:
    def task(self):
        return chain_task("t", 16, 6)  # 6 positive, 10 negative

    def test_support_is_class_balanced(self):
        episode = sample_episode_balanced(self.task(), 8, 100, seed=0)
        labels = [y for _, y in episode.support]
        assert len(labels) == 8 and sum(labels) == 4

    def test_support_and_query_are_disjoint_and_exhaustive(self):
        task = self.task()
        episode = sample_episode_balanced(task, 8, 100, seed=1)
        support_ids = {id(g) for g, _ in episode.support}
        query_ids = {id(g) for g, _ in episode.query}
        assert not support_ids & query_ids
        assert len(support_ids | query_ids) == 16  # query_size cap not hit

    def test_query_size_cap(self):
        episode = sample_episode_balanced(self.task(), 8, 3, seed=2)
        assert len(episode.query) == 3

    def test_deterministic_by_seed(self):
        task = self.task()
        a = sample_episode_balanced(task, 8, 100, seed=7)
        b = sample_episode_balanced(task, 8, 100, seed=7)
        assert [id(g) for g, _ in a.support] == [id(g) for g, _ in b.support]
        assert [id(g) for g, _ in a.query] == [id(g) for g, _ in b.query]
        c = sample_episode_balanced(task, 8, 100, seed=8)
        assert [id(g) for g, _ in a.support] != [id(g) for g, _ in c.support]

    def test_odd_support_rejected(self):
        with pytest.raises(EpisodeError, match="even"):
            sample_episode_balanced(self.task(), 7, 10, seed=0)

    def test_insufficient_class_reported_with_counts(self):
        with pytest.raises(EpisodeError, match="7 per class.*10 negative / 6 positive"):
            sample_episode_balanced(self.task(), 14, 10, seed=0)

    def test_no_query_remainder_rejected(self):
        task = chain_task("t", 4, 2)
        with pytest.raises(EpisodeError, match="no examples left"):
            sample_episode_balanced(task, 4, 10, seed=0)


class TestUnbalancedSampling:
    def test_support_size_and_disjointness(self):
        task = chain_task("t", 16, 6)
        episode = sample_episode_unbalanced(task, 5, 100, seed=0)
        assert len(episode.support) == 5
        assert len(episode.query) == 11
        support_ids = {id(g) for g, _ in episode.support}
        assert not support_ids & {id(g) for g, _ in episode.query}

    def test_both_classes_always_present(self):
        task = chain_task("t", 16, 1)  # a single positive example
        for seed in range(60):
            labels = [y for _, y in sample_episode_unbalanced(task, 4, 10, seed=seed).support]
            assert 0 < sum(labels) < len(labels)

    def test_positive_fraction_tracks_base_rate(self):
        # 10% positives, support 16: the mean support fraction stays near
        # the hypergeometric expectation, nudged up by the forced swap
        task = chain_task("t", 100, 10)
        fractions = []
        for seed in range(400):
            labels = [y for _, y in sample_episode_unbalanced(task, 16, 5, seed=seed).support]
            assert 0 < sum(labels) < 16
            fractions.append(sum(labels) / 16)
        assert 0.06 < np.mean(fractions) < 0.16

    def test_size_bounds(self):
        task = chain_task("t", 16, 6)
        with pytest.raises(EpisodeError, match="support_size"):
            sample_episode_unbalanced(task, 0, 10, seed=0)
        with pytest.raises(EpisodeError, match="support_size"):
            sample_episode_unbalanced(task, 16, 10, seed=0)


class TestProtocol:
    def test_can_sample_exactly_when_the_sampler_returns_an_episode(self):
        for n_neg in range(7):
            for n_pos in range(7):
                task = chain_task("t", n_neg + n_pos, n_pos)
                for sampling in ("balanced", "unbalanced"):
                    for support_size in range(1, 11):
                        protocol = ProtocolConfig(sampling, support_size, query_size=3)
                        case = (n_neg, n_pos, sampling, support_size)
                        try:
                            episode = sample_episode(task, protocol, seed=0)
                        except EpisodeError:
                            assert not can_sample(task, protocol), case
                            continue
                        assert can_sample(task, protocol), case
                        assert len(episode.support) == len(episode.support_idx) == support_size
                        assert 1 <= len(episode.query) <= 3, case

    def test_two_class_queries_exactly_when_some_seed_draws_them(self):
        # every case the rule admits draws two-class queries on about two
        # seeds in five or more, so 50 fixed seeds find each one
        for n_neg in range(5):
            for n_pos in range(5):
                task = chain_task("t", n_neg + n_pos, n_pos)
                for sampling in ("balanced", "unbalanced"):
                    for support_size in range(1, 8):
                        for query_size in (1, 2, 3):
                            protocol = ProtocolConfig(sampling, support_size, query_size)
                            case = (n_neg, n_pos, sampling, support_size, query_size)
                            seen = can_sample(task, protocol) and any(
                                len({y for _, y in sample_episode(task, protocol, seed).query}) == 2
                                for seed in range(50)
                            )
                            assert can_query_both_classes(task, protocol) == seen, case


class TestSynthGenerate:
    def test_split_sizes_and_ids(self):
        registry = synth_generate(3, 2, 16, seed=1, n_valid=1)
        assert [t.task_id for t in registry.split_tasks("train")] == [
            "synth-0000",
            "synth-0001",
            "synth-0002",
        ]
        assert [t.task_id for t in registry.split_tasks("valid")] == ["synth-0003"]
        assert [t.task_id for t in registry.split_tasks("test")] == ["synth-0004", "synth-0005"]

    def test_class_balance_band(self):
        registry = synth_generate(6, 2, 20, seed=0)
        for split in ("train", "test"):
            for task in registry.split_tasks(split):
                neg, pos = task.class_counts()
                assert neg + pos == 20
                assert 0.35 * 20 < pos <= 0.65 * 20

    def test_molecules_are_valid_and_distinct_within_task(self):
        registry = synth_generate(4, 0, 24, seed=5)
        for task in registry.split_tasks("train"):
            smiles = [e.smiles for e in task.examples]
            assert len(set(smiles)) == len(smiles)
            for s in smiles:
                assert parse(s).n_atoms >= 1

    def test_deterministic(self):
        a = synth_generate(3, 1, 12, seed=42)
        b = synth_generate(3, 1, 12, seed=42)
        for split in ("train", "test"):
            for ta, tb in zip(a.split_tasks(split), b.split_tasks(split)):
                assert [(e.smiles, e.label) for e in ta.examples] == [
                    (e.smiles, e.label) for e in tb.examples
                ]

    def test_seed_changes_tasks(self):
        a = synth_generate(2, 0, 12, seed=0)
        b = synth_generate(2, 0, 12, seed=1)
        sa = [e.smiles for e in a.split_tasks("train")[0].examples]
        sb = [e.smiles for e in b.split_tasks("train")[0].examples]
        assert sa != sb

    def test_minimum_size(self):
        with pytest.raises(DataError, match="at least 4"):
            synth_generate(1, 0, 3, seed=0)

    def test_each_distinct_candidate_is_parsed_once(self, monkeypatch):
        drawn = []
        real_draw = episodes._random_molecule

        def draw(rng):
            drawn.append(real_draw(rng))
            return drawn[-1]

        monkeypatch.setattr(episodes, "_random_molecule", draw)
        parsed = count_parses(monkeypatch)
        registry = synth_generate(40, 5, 60, seed=0)
        assert len(drawn) > len(set(drawn))  # candidates recur within and across tasks
        assert parsed == Counter(set(drawn))
        examples = [e for records in registry.tasks.values() for r in records for e in r.examples]
        shared = {e.smiles: e.graph for e in examples}
        assert len(shared) < len(examples)
        assert all(e.graph is shared[e.smiles] for e in examples)

    # SHA-256 digests of the generator's output, taken before synth
    # skipped re-parsing candidates it had already classed, before the
    # column-code featurizer and before graphs were stored as bool rows
    # and int32 bonds: each must leave every task, molecule, label and
    # feature value as it was, since the benchmark and criterion 5 train
    # on these tasks.  The digest reads the rows as float64 and the bonds
    # as a list of int pairs, the stored form when it was taken.
    def test_registry_is_pinned(self):
        assert registry_digest(synth_generate(6, 2, 20, seed=0)) == (
            "5438d4fbd06c54831abcec8084b5a1deff4c47e8e79c0d545713f441da3002ac"
        )

    # taken before tasks shared the graphs of the molecules they have in
    # common: 2700 examples of 1687 distinct molecules
    def test_registry_with_shared_molecules_is_pinned(self):
        assert registry_digest(synth_generate(40, 5, 60, seed=0)) == (
            "58ca29fa2239add3e162dd6de8bf29659ed24530d8df685b509af21b3ba4aa8c"
        )

    def test_synth_command_files_are_pinned(self, tmp_path):
        out = tmp_path / "reg"
        argv = ["synth", "--out", str(out), "--train", "3", "--valid", "1", "--test", "2",
                "--molecules", "12", "--seed", "11"]
        assert main(argv) == 0
        digest = hashlib.sha256()
        for path in sorted(out.rglob("*.jsonl")):
            digest.update(path.relative_to(out).as_posix().encode() + b"\n")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "cf61c8a73497d8a007a7bda68f497adfd8bcb9b470c93600472b3f0c2f038694"
        )


class TestHelpers:
    def test_distinct_smiles_are_distinct_and_parse(self):
        smiles = distinct_smiles(120)
        assert len(set(smiles)) == 120
        for s in smiles:
            parse(s)

    def test_make_task_counts(self):
        task = make_task("x", [("C", 1), ("CC", 0), ("CCC", 0)])
        assert task.class_counts() == (2, 1)
