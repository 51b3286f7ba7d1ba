"""Release acceptance gate: eight end-to-end criteria.

Each test enforces one criterion with pinned tolerances and appends a
PASS/FAIL line to the terminal summary (conftest.py).  The tolerances
are part of the release contract; loosening them is not an acceptable
fix for a failure.
"""

import contextlib
import copy
import csv
import io
import itertools
import time
import warnings

import numpy as np
import pytest

from molmatch import metrics
from molmatch.cli import main
from molmatch.config import RunConfig
from molmatch.encoder import EncoderParams, encode_frozen, encode_multilevel
from molmatch.episodes import sample_episode_balanced, synth_generate
from molmatch.matcher import MatchParams, predict_detailed
from molmatch.meta import (
    KEY_EVAL,
    episode_loss,
    finetune_and_predict,
    init_model,
    inner_adapt,
    meta_train,
    split_support,
)
from molmatch.smiles import SmilesError, graph_from_smiles
from molmatch.taskrel import (
    allocate_shadow_block,
    implicit_inference_update,
    implicit_inner_update,
    implicit_outer_update,
    relation_matrix,
)
from molmatch.tensor import (
    SlotTable,
    Tensor,
    add,
    attention_match,
    backward,
    batched_matmul,
    concat_cols,
    cross_entropy,
    dropout,
    gather_rows,
    gin_conv,
    matmul,
    mul,
    relu,
    reshape,
    scale,
    scatter_add_rows,
    segment_mean,
    softmax_rows,
    stack,
    sum_all,
    transpose,
)
from conftest import ACCEPTANCE_LINES
from oracles import REL_TOL, auroc_bruteforce, average_precision_bruteforce, fd_gradients, grad_rel_error
from helpers import chain_task

CORPUS_SMILES = [
    "CCO", "CC", "C", "CCN", "C=C", "C#N", "CO", "CN", "C=O", "CCS",
    "CC(C)O", "c1ccccc1", "C1CC1", "CC(=O)O", "CCCl", "NCC(=O)O",
]


@contextlib.contextmanager
def _criterion(number: int, slug: str, budget: float | None = None):
    """Record the criterion's PASS/FAIL line; the body may append notes
    (the figures it measured) to the yielded list, and the line shows them."""
    start = time.perf_counter()
    notes: list[str] = []
    try:
        yield notes
    except BaseException:
        details = "".join(f" ({note})" for note in notes)
        ACCEPTANCE_LINES.append(f"criterion {number} {slug}: FAIL{details}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        ACCEPTANCE_LINES.append(
            f"criterion {number} {slug}: FAIL (runtime {elapsed:.1f}s > {budget:.0f}s)"
        )
        raise AssertionError(f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s")
    details = "; ".join([f"{elapsed:.1f}s", *notes])
    ACCEPTANCE_LINES.append(f"criterion {number} {slug}: PASS ({details})")


def _op_cases(seed: int):
    """Per-op (params, build_graph) pairs.

    ``build_graph`` rebuilds the op graph from the same leaf tensors on
    every call, so one closure serves both the finite-difference sweep
    and the analytic backward pass.
    """
    rng = np.random.default_rng([1, seed])

    def tensors(*shapes):
        return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

    def weight(shape):
        return Tensor(rng.normal(size=shape))

    cases = {}

    a, b = tensors((3, 4), (3, 4))
    w = weight((3, 4))
    cases["add"] = ({"a": a, "b": b}, lambda: sum_all(mul(add(a, b), w)))

    a2, brow = tensors((3, 4), (4,))
    w_b = weight((3, 4))
    cases["add_broadcast"] = ({"a": a2, "b": brow}, lambda: sum_all(mul(add(a2, brow), w_b)))

    c, d = tensors((3, 4), (3, 4))
    w_m = weight((3, 4))
    cases["mul"] = ({"a": c, "b": d}, lambda: sum_all(mul(mul(c, d), w_m)))

    e = tensors((3, 4))[0]
    w_s = weight((3, 4))
    cases["scale"] = ({"a": e}, lambda: sum_all(mul(scale(e, -1.7), w_s)))

    f, g = tensors((3, 4), (4, 2))
    w2 = weight((3, 2))
    cases["matmul"] = ({"a": f, "b": g}, lambda: sum_all(mul(matmul(f, g), w2)))

    h = tensors((3, 4))[0]
    w3 = weight((4, 3))
    cases["transpose"] = ({"a": h}, lambda: sum_all(mul(transpose(h), w3)))

    r = tensors((3, 4))[0]
    r.values += 0.2 * np.sign(r.values)  # keep coordinates away from the kink
    w_r = weight((3, 4))
    cases["relu"] = ({"a": r}, lambda: sum_all(mul(relu(r), w_r)))

    s = tensors((3, 5))[0]
    w4 = weight((3, 5))
    cases["softmax_rows"] = ({"a": s}, lambda: sum_all(mul(softmax_rows(s), w4)))

    m = tensors((6, 3))[0]
    seg_ids = np.array([0, 0, 1, 1, 2, 2])
    w5 = weight((3, 3))
    cases["segment_mean"] = ({"a": m}, lambda: sum_all(mul(segment_mean(m, seg_ids, 3), w5)))

    ga = tensors((5, 3))[0]
    gi = np.array([4, 0, 2, 2])
    w6 = weight((4, 3))
    cases["gather_rows"] = ({"a": ga}, lambda: sum_all(mul(gather_rows(ga, gi), w6)))

    sa = tensors((3, 4))[0]
    si = np.array([0, 2, 2])
    w7 = weight((5, 4))
    cases["scatter_add_rows"] = ({"a": sa}, lambda: sum_all(mul(scatter_add_rows(sa, si, 5), w7)))

    ca, cb = tensors((3, 2), (3, 3))
    w8 = weight((3, 5))
    cases["concat_cols"] = ({"a": ca, "b": cb}, lambda: sum_all(mul(concat_cols([ca, cb]), w8)))

    da = tensors((4, 4))[0]
    w9 = weight((4, 4))
    cases["dropout"] = (
        {"a": da},
        lambda: sum_all(mul(dropout(da, 0.3, np.random.default_rng([1, seed, 8])), w9)),
    )

    xe = tensors((4, 2))[0]
    onehot = Tensor(np.eye(2)[np.array([0, 1, 1, 0])])
    cases["cross_entropy"] = ({"a": xe}, lambda: cross_entropy(softmax_rows(xe), onehot))

    su = tensors((4, 3))[0]
    cases["sum_all"] = ({"a": su}, lambda: mul(sum_all(su), Tensor(np.asarray(1.3))))

    ba, bb = tensors((3, 2, 4), (3, 4, 2))
    w10 = weight((3, 2, 2))
    cases["batched_matmul"] = (
        {"a": ba, "b": bb}, lambda: sum_all(mul(batched_matmul(ba, bb), w10))
    )

    sa3, sw = tensors((3, 2, 4), (4, 3))
    w11 = weight((3, 2, 3))
    cases["batched_matmul_shared_b"] = (
        {"a": sa3, "b": sw}, lambda: sum_all(mul(batched_matmul(sa3, sw), w11))
    )

    ta, tb = tensors((3, 2, 4), (3, 5, 4))
    w12 = weight((3, 2, 5))
    cases["batched_matmul_transpose_b"] = (
        {"a": ta, "b": tb},
        lambda: sum_all(mul(batched_matmul(ta, tb, transpose_b=True), w12)),
    )

    ra = tensors((3, 4))[0]
    w13 = weight((2, 6))
    cases["reshape"] = ({"a": ra}, lambda: sum_all(mul(reshape(ra, (2, 6)), w13)))

    ka, kb = tensors((2, 3), (2, 3))
    w14 = weight((2, 2, 3))
    cases["stack"] = ({"a": ka, "b": kb}, lambda: sum_all(mul(stack([ka, kb]), w14)))

    # five atoms, four bonds as eight directed edges; atom 1 has three neighbours
    src = np.array([0, 1, 1, 2, 1, 3, 3, 4])
    dst = np.array([1, 0, 2, 1, 3, 1, 4, 3])
    by_dst, by_src = SlotTable(dst, 5), SlotTable(src, 5)
    gh, geps, gbe, gw1, gb1, gw2, gb2 = tensors((5, 3), (), (4, 3), (3, 4), (4,), (4, 2), (2,))
    bond_sums = rng.normal(size=(5, 4))
    w15 = weight((5, 2))
    cases["gin_conv"] = (
        {"h": gh, "eps": geps, "bond_embed": gbe, "w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2},
        lambda: sum_all(
            mul(gin_conv(gh, geps, gbe, gw1, gb1, gw2, gb2, bond_sums, by_dst, by_src), w15)
        ),
    )

    # two episodes, two layers, three queries against four support rows;
    # both labels in every support, so the hull clip never binds
    y_sup = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])[..., None]
    zq, zs, wq, wk, wo, bias = tensors((2, 2, 3, 3), (2, 2, 4, 3), (2, 3, 3), (2, 3, 3), (2, 2, 2), (2, 2))
    w16 = weight((2, 3, 2))
    cases["attention_match"] = (
        {"zq": zq, "zs": zs, "wq": wq, "wk": wk, "wo": wo, "bias": bias},
        lambda: sum_all(mul(attention_match(zq, zs, y_sup, [wq], [wk], wo, bias)[0], w16)),
    )

    # per-layer projections, a frozen bias and dropout keep-factors
    pq, ps, pwq0, pwq1, pwk0, pwk1, pwo = tensors(
        (2, 2, 3, 3), (2, 2, 4, 3), (2, 3, 3), (2, 3, 3), (2, 3, 3), (2, 3, 3), (2, 2, 2)
    )
    frozen = Tensor(rng.normal(size=(2, 2)))
    keep = tuple((rng.random(shape) >= 0.3) / 0.7 for shape in ((2, 2, 3, 4), (2, 3, 2)))
    w17 = weight((2, 3, 2))
    cases["attention_match_per_layer_dropout"] = (
        {"zq": pq, "zs": ps, "wq0": pwq0, "wq1": pwq1, "wk0": pwk0, "wk1": pwk1, "wo": pwo},
        lambda: sum_all(mul(
            attention_match(pq, ps, y_sup, [pwq0, pwq1], [pwk0, pwk1], pwo, frozen, keep)[0], w17
        )),
    )

    # one summed cross-entropy per episode of an [E, n, 2] stack
    xs = Tensor(rng.uniform(0.1, 0.9, size=(3, 4, 2)), requires_grad=True)
    onehots = Tensor(np.eye(2)[rng.integers(0, 2, size=(3, 4))])
    w18 = weight((3,))
    cases["cross_entropy_stacked"] = (
        {"a": xs}, lambda: sum_all(mul(cross_entropy(xs, onehots), w18))
    )

    return cases


def _tiny_episode(seed: int):
    rng = np.random.default_rng([2, seed])
    graphs = [graph_from_smiles(s) for s in CORPUS_SMILES[:8]]
    picks = rng.permutation(8)
    support = [(graphs[int(i)], int(rng.integers(2))) for i in picks[:3]]
    queries = [(graphs[int(i)], int(rng.integers(2))) for i in picks[3:6]]
    support[0] = (support[0][0], 1)  # pin one of each label
    support[1] = (support[1][0], 0)
    return support, queries


def test_criterion_1_gradient_fidelity():
    with _criterion(1, "gradient-fidelity", budget=120.0):
        for seed in range(10):
            for op, (params, build_graph) in _op_cases(seed).items():
                first = build_graph().item()
                assert build_graph().item() == first, f"{op}: non-repeatable loss"
                numeric = fd_gradients(lambda: build_graph().item(), params)
                grads = backward(build_graph(), params=params.values())
                for name, t in params.items():
                    err = grad_rel_error(grads[t], numeric[name])
                    assert err < REL_TOL, f"seed {seed} op {op} {name}: rel err {err:.2e}"

        # full episode objective: gradients of every shared and matching
        # parameter through encoder, attention, fusion and loss
        for seed in range(10):
            support, queries = _tiny_episode(seed)
            graphs = [g for g, _ in support + queries]
            labels = [y for _, y in support + queries]
            support_rows, query_rows = np.arange(len(support)), np.arange(len(support), len(graphs))
            cfg = RunConfig()
            cfg.encoder.layers = 2
            cfg.encoder.hidden = 6
            cfg.train.seed = seed
            model = init_model(cfg)
            tensors = model.tensors()

            def build_loss():
                levels = encode_multilevel(graphs, model.encoder)
                return episode_loss(levels, labels, support_rows, query_rows, model.matcher)

            numeric = fd_gradients(lambda: build_loss().item(), tensors)
            grads = backward(build_loss(), params=tensors.values())
            for name, t in tensors.items():
                err = grad_rel_error(grads[t], numeric[name])
                assert err < REL_TOL, f"seed {seed} episode loss {name}: rel err {err:.2e}"


def test_criterion_2_matching_invariants():
    with _criterion(2, "matching-invariants", budget=60.0):
        graphs = [graph_from_smiles(s) for s in CORPUS_SMILES]
        for i in range(1000):
            rng = np.random.default_rng([21, i])
            layers = 1 + i % 3
            hidden = (4, 8)[i % 2]
            n_support = 1 if i % 10 == 0 else 2 + int(rng.integers(5))
            n_query = 1 + int(rng.integers(3))
            picks = rng.integers(0, len(graphs), size=n_support + n_query)
            support_graphs = [graphs[int(k)] for k in picks[:n_support]]
            query_graphs = [graphs[int(k)] for k in picks[n_support:]]
            labels = [int(v) for v in rng.integers(0, 2, size=n_support)]
            enc = EncoderParams.init(layers, hidden, seed=[22, i])
            mat = MatchParams.init(layers, hidden, seed=[23, i])

            probs, preds = predict_detailed(support_graphs, labels, query_graphs, enc, mat)
            for lp in preds:
                row_sums = lp.attention.sum(axis=1)
                assert np.abs(row_sums - 1.0).max() <= 1e-9
                assert lp.y_hat.min() >= 0.0
                assert lp.y_hat.max() <= 1.0
            assert np.abs(probs.values.sum(axis=1) - 1.0).max() <= 1e-9

            if n_support == 1:
                for lp in preds:
                    assert np.all(lp.y_hat == float(labels[0]))
            else:
                perm = rng.permutation(n_support)
                probs_perm, _ = predict_detailed(
                    [support_graphs[int(p)] for p in perm],
                    [labels[int(p)] for p in perm],
                    query_graphs,
                    enc,
                    mat,
                )
                assert np.abs(probs_perm.values - probs.values).max() <= 1e-10


def test_criterion_3_inner_loop_exactness():
    with _criterion(3, "inner-loop-exactness"):
        cfg = RunConfig()
        cfg.encoder.layers = 2
        cfg.encoder.hidden = 8
        cfg.train.inner_steps = 3
        model = init_model(cfg)
        task = chain_task("t", 12, 6)
        episode = sample_episode_balanced(task, 8, 20, seed=2)
        graphs = [g for g, _ in episode.support]
        labels = np.array([y for _, y in episode.support], dtype=np.float64)
        split = split_support(labels, 0.5, seed=3)
        stacked = encode_frozen(graphs, model.encoder)

        # alpha = 0: adapted parameters are bitwise identical, signs of
        # zero included
        zero_cfg = copy.deepcopy(cfg)
        zero_cfg.train.alpha = 0.0
        model.matcher.tensors()["wq0"].values[0, 0] = -0.0
        adapted, _, errors = inner_adapt(model.matcher, stacked, labels, [split], zero_cfg.train)
        assert errors == {}
        for name, t in model.matcher.tensors().items():
            assert adapted[name][0].tobytes() == t.values.tobytes(), name

        # one gradient step matches the finite-difference oracle
        one_cfg = copy.deepcopy(cfg)
        one_cfg.train.inner_steps = 1
        one_cfg.train.alpha = 0.05
        w0 = model.matcher

        def build_loss():
            return episode_loss(Tensor(stacked), labels, *split, w0).item()

        numeric = fd_gradients(build_loss, w0.tensors())
        stepped, _, _ = inner_adapt(model.matcher, stacked, labels, [split], one_cfg.train)
        for name, t in w0.tensors().items():
            implied = (t.values - stepped[name][0]) / 0.05
            err = grad_rel_error(implied, numeric[name])
            assert err < REL_TOL, f"{name}: rel err {err:.2e}"

        # the shared parameters never move
        frozen_values = {k: t.values.copy() for k, t in model.encoder.tensors().items()}
        inner_adapt(model.matcher, encode_frozen(graphs, model.encoder), labels, [split], cfg.train)
        finetune_and_predict(
            model, episode.support, [g for g, _ in episode.query], cfg, seed=0
        )
        for name, t in model.encoder.tensors().items():
            assert t.values.tobytes() == frozen_values[name].tobytes(), name
            assert not hasattr(t, "grad")


def _label_patterns(max_len: int):
    for n in range(2, max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            if 0 < sum(bits) < n:
                yield list(bits)


def test_criterion_4_metric_oracles():
    with _criterion(4, "metric-oracles"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for pattern_idx, labels in enumerate(_label_patterns(8)):
                n = len(labels)
                rng = np.random.default_rng([4, pattern_idx])
                for _ in range(50):
                    scores = rng.uniform(size=n)
                    assert metrics.auroc(scores, labels) == auroc_bruteforce(scores, labels)
                    ap = metrics.auprc(scores, labels)
                    assert ap == average_precision_bruteforce(scores, labels)
                    base_rate = sum(labels) / n  # positives in the query set
                    assert metrics.delta_auprc(scores, labels) == ap - base_rate

        # worked example: one inversion among three scores
        scores = [0.9, 0.8, 0.3]
        labels = [1, 0, 1]
        assert metrics.auroc(scores, labels) == 0.5
        np.testing.assert_allclose(metrics.auprc(scores, labels), 0.8333333333333333, atol=1e-10)
        np.testing.assert_allclose(
            metrics.delta_auprc(scores, labels), 0.16666666666666666, atol=1e-10
        )


def _default_profile_config() -> RunConfig:
    cfg = RunConfig()
    cfg.encoder.layers = 5
    cfg.encoder.hidden = 300
    cfg.train.alpha = 0.05
    cfg.train.inner_steps = 5
    cfg.train.meta_lr = 0.001
    cfg.train.batch_tasks = 21
    cfg.train.max_epochs = 200
    cfg.train.seed = 0
    cfg.protocol.support_size = 20
    cfg.protocol.query_size = 256
    cfg.protocol.eval_repeats = 10
    return cfg


def _mean_test_auroc(model, registry, cfg: RunConfig, inner_steps: int) -> float:
    eval_cfg = copy.deepcopy(cfg)
    eval_cfg.train.inner_steps = inner_steps
    task_means = []
    for task_idx, task in enumerate(sorted(registry.split_tasks("test"), key=lambda t: t.task_id)):
        per_episode = []
        for rep in range(cfg.protocol.eval_repeats):
            episode = sample_episode_balanced(
                task,
                cfg.protocol.support_size,
                cfg.protocol.query_size,
                [cfg.train.seed, KEY_EVAL, task_idx, rep],
            )
            labels = [y for _, y in episode.query]
            if len(set(labels)) < 2:
                continue
            probs = finetune_and_predict(
                model,
                episode.support,
                [g for g, _ in episode.query],
                eval_cfg,
                seed=[cfg.train.seed, KEY_EVAL, task_idx, rep, 1],
            )
            per_episode.append(metrics.auroc(probs[:, 0], labels))
        if per_episode:
            task_means.append(float(np.mean(per_episode)))
    assert task_means, "no test task produced a scoreable episode"
    return float(np.mean(task_means))


@pytest.mark.slow
def test_criterion_5_synthetic_end_to_end():
    with _criterion(5, "synthetic-end-to-end", budget=1800.0) as notes:
        registry = synth_generate(200, 20, 60, seed=0)
        cfg = _default_profile_config()
        model, logs = meta_train(registry, cfg)
        assert len(logs) == 200

        finetuned = _mean_test_auroc(model, registry, cfg, inner_steps=cfg.train.inner_steps)
        zero_shot = _mean_test_auroc(model, registry, cfg, inner_steps=0)
        notes.append(f"fine-tuned mean AUROC {finetuned:.4f}, zero-shot {zero_shot:.4f}")
        assert finetuned >= 0.85, f"mean test AUROC {finetuned:.4f} < 0.85"
        assert finetuned > zero_shot, (
            f"fine-tuned mean {finetuned:.4f} does not beat zero-shot {zero_shot:.4f}"
        )


def test_criterion_6_task_relation_algebra():
    with _criterion(6, "task-relation-algebra"):
        from molmatch.taskrel import TaskVector

        rng = np.random.default_rng(6)
        for _ in range(10):
            vectors = [TaskVector(f"t{i}", rng.normal(size=33), "adapted-w-delta") for i in range(8)]
            for metric in ("dot", "cosine", "euclidean"):
                m = relation_matrix(vectors, metric).matrix
                assert np.abs(m - m.T).max() <= 1e-9

        def const_params(value: float) -> MatchParams:
            base = MatchParams.init(1, 1, seed=0)
            return base.replace_values(
                {name: np.full_like(t.values, value) for name, t in base.tensors().items()}
            )

        # equal parameters: the mutual pull is an exact fixed point
        w = const_params(2.0)
        mixed = implicit_inner_update(
            [w.clone(), w.clone(), w.clone()], np.full((3, 3), 1.0 / 3.0)
        )
        for out in mixed:
            for name, t in out.tensors().items():
                np.testing.assert_array_equal(t.values, w.tensors()[name].values)

        # eta = 0 leaves the shadow block untouched
        shadow = allocate_shadow_block(w)
        untouched = implicit_outer_update(shadow, [w, const_params(5.0)], np.ones((2, 2)), eta=0.0)
        for name, t in untouched.tensors().items():
            np.testing.assert_array_equal(t.values, shadow.tensors()[name].values)

        # two-task scalar instances with dyadic values are exact in fp64
        w1, w2 = const_params(2.0), const_params(5.0)
        m = np.array([[0.0, 0.25], [0.5, 0.0]])
        inner = implicit_inner_update([w1, w2], m)
        for t in inner[0].tensors().values():
            np.testing.assert_array_equal(t.values, np.full_like(t.values, 2.75))
        for t in inner[1].tensors().values():
            np.testing.assert_array_equal(t.values, np.full_like(t.values, 3.5))

        shared = const_params(1.0)
        inference = implicit_inference_update(shared, [w1, w2], m)
        for t in inference[0].tensors().values():
            np.testing.assert_array_equal(t.values, np.full_like(t.values, 1.75))
        for t in inference[1].tensors().values():
            np.testing.assert_array_equal(t.values, np.full_like(t.values, -0.5))

        outer = implicit_outer_update(
            allocate_shadow_block(w1), [w1, w2], m, eta=0.5
        )
        for t in outer.tensors().values():
            np.testing.assert_array_equal(t.values, np.full_like(t.values, -0.375))


MALFORMED = [
    "C1CC",      # ring label left open
    "C(",        # branch never closed
    "C(C",       # branch never closed, nested content
    "C)C",       # close without open
    "=CC",       # bond symbol at string start
    "C=",        # dangling bond at end
    "C=)C",      # bond into a branch close
    "C=(C)",     # bond into a branch open
    "C=#C",      # two bond symbols in a row
    "C11",       # ring closure onto the same atom
    "C12CC12",   # duplicate ring bond between the same atoms
    "C-1CC=1",   # conflicting ring-closure bond orders
    "CC.CC",     # multi-fragment input
    "C$C",       # character outside the grammar
    "C[C",       # unterminated bracket atom
    "CC(C)C)",   # extra branch close at the end
]


def test_criterion_7_parser_corpus():
    with _criterion(7, "parser-corpus"):
        from pathlib import Path

        corpus = Path(__file__).resolve().parents[1] / "src" / "molmatch" / "data" / "smiles_corpus.txt"
        rows = []
        for line in corpus.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                smiles, n_atoms, n_bonds = line.split("\t")
                rows.append((smiles, int(n_atoms), int(n_bonds)))
        assert len(rows) == 50

        for smiles, n_atoms, n_bonds in rows:
            graph = graph_from_smiles(smiles)
            assert graph.n_atoms == n_atoms, smiles
            assert len(graph.bonds) == n_bonds, smiles
            sums = graph.atom_feats.sum(axis=1)
            assert np.all((sums == 4.0) | (sums == 5.0)), smiles

        for bad in MALFORMED:
            with pytest.raises(SmilesError) as info:
                graph_from_smiles(bad)
            assert 0 <= info.value.position <= len(bad), bad

        # mutation fuzz: parse or located error, never a crash
        alphabet = list("CNOSPFIclnos()[]=#-+1234%@./\\HBr")
        bases = [r[0] for r in rows]
        rng = np.random.default_rng(7)
        for case in range(10_000):
            base = list(bases[int(rng.integers(len(bases)))])
            for _ in range(int(rng.integers(1, 4))):
                action = rng.integers(3)
                pos = int(rng.integers(len(base) + 1)) if action == 0 else (
                    int(rng.integers(len(base))) if base else 0
                )
                if action == 0:
                    base.insert(pos, alphabet[int(rng.integers(len(alphabet)))])
                elif action == 1 and base:
                    base[pos] = alphabet[int(rng.integers(len(alphabet)))]
                elif base:
                    del base[pos]
            candidate = "".join(base)
            try:
                graph = graph_from_smiles(candidate)
                assert graph.n_atoms >= 1
            except SmilesError as exc:
                assert 0 <= exc.position <= len(candidate), f"case {case}: {candidate!r}"


TINY_CONFIG = """\
[train]
max_epochs = 2
batch_tasks = 2
inner_steps = 1
seed = 1
[encoder]
layers = 2
hidden = 8
[protocol]
support_size = 4
query_size = 8
eval_repeats = 2
"""


def test_criterion_8_determinism(tmp_path, capsys):
    with _criterion(8, "determinism"):
        data = tmp_path / "data"
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG, encoding="utf-8")
        assert main(["synth", "--out", str(data), "--train", "3", "--test", "2",
                     "--molecules", "12", "--seed", "0"]) == 0

        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        for out in (first, second):
            assert main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

        capsys.readouterr()
        eval_argv = ["eval", "--ckpt", str(first), "--data", str(data)]
        assert main(eval_argv) == 0
        run_a = capsys.readouterr().out
        assert main(eval_argv) == 0
        run_b = capsys.readouterr().out
        assert run_a == run_b
        assert len(list(csv.reader(io.StringIO(run_a)))) >= 3
