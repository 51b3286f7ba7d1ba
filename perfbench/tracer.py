"""In-memory span tracer that instruments molmatch from outside the package.

``Tracer.install()`` replaces the public functions of the molmatch
modules with timing wrappers.  ``from .x import name`` binds a function
into every importing module at import time, so each wrapper is rebound
under every name, in every loaded molmatch module, that refers to the
original object; ``uninstall()`` puts the originals back.  The autodiff
ops additionally get their returned node's ``_vjp`` wrapped, so the
backward rules show up as ``tensor.<op>.vjp`` spans nested inside the
``tensor.backward`` sweep.

A span is (name, start, end, parent, group).  ``group`` is an id shared
by the spans of one epoch, episode or request; the workload bumps it
with ``next_group()`` or names a span that starts a new group.  Spans
stay in memory until ``save()`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Modules whose public functions are traced, in the order they are listed
# in the benchmark's docs.  ``taskrel`` and ``config`` are not traced but
# still get wrappers rebound where they imported a traced function.
TRACED_MODULES = (
    "smiles",
    "episodes",
    "encoder",
    "matcher",
    "meta",
    "tensor",
    "optim",
    "checkpoint",
    "metrics",
    "cli",
)

OPS = (
    "add",
    "mul",
    "scale",
    "matmul",
    "transpose",
    "relu",
    "softmax_rows",
    "segment_mean",
    "gather_rows",
    "scatter_add_rows",
    "concat_cols",
    "cross_entropy",
    "sum_all",
    "dropout",
)

# Ops whose forward or backward runs through np.add.at; their bytes moved
# are computed from shapes.
ADD_AT_OPS = ("gather_rows", "scatter_add_rows", "segment_mean")

# Classes whose methods are traced, with the span name used for each.
TRACED_METHODS = (
    ("encoder", "GraphBatch", "__init__", "encoder.GraphBatch"),
    ("optim", "Adam", "step", "optim.Adam.step"),
)

_F8 = 8  # bytes per float64 / int64 element


class Tracer:
    def __init__(self, group_on: tuple[str, ...] = ()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.group_of: list[int] = []
        self.group = 0
        self._stack: list[int] = []
        self._group_on = {self._name_id(n) for n in group_on}
        self.counters: dict[str, float] = defaultdict(float)
        self._seen_mols: dict[int, object] = {}  # id -> graph, kept alive so ids stay unique
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def next_group(self) -> None:
        self.group += 1

    def _open(self, nid: int) -> int:
        if nid in self._group_on:
            self.group += 1
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group_of.append(self.group)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        runs outside the span to update counters."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for short in TRACED_MODULES:
            importlib.import_module(f"molmatch.{short}")
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "molmatch" or n.startswith("molmatch.")]
        replacements: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"molmatch.{short}"]
            for attr, fn in _public_functions(module):
                replacements[id(fn)] = self.span(f"{short}.{attr}", fn, self._counter_hook(short, attr))
        for loaded_module in loaded:
            for attr, value in list(vars(loaded_module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((loaded_module, attr, value))
                    setattr(loaded_module, attr, wrapper)
        for short, cls_name, method, name in TRACED_METHODS:
            cls = getattr(sys.modules[f"molmatch.{short}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.span(name, original, self._counter_hook(short, cls_name)))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters ---------------------------------------------------------

    def _counter_hook(self, module: str, name: str):
        if module == "tensor" and name in OPS:
            return self._op_hook(name)
        if module == "encoder" and name == "GraphBatch":
            return self._graph_batch_hook
        if module == "encoder" and name == "encode_multilevel":
            return self._encode_hook
        if module == "checkpoint" and name in ("save_checkpoint", "load_checkpoint"):
            return self._file_bytes_hook(f"checkpoint.{name}.bytes")
        return None

    def _graph_batch_hook(self, args, _result) -> None:
        batch = args[0]
        self.counters["encoder.GraphBatch.atoms"] += batch.n_atoms
        self.counters["encoder.GraphBatch.edges"] += batch.n_edges

    def _encode_hook(self, args, _result) -> None:
        graphs = args[0]
        if isinstance(graphs, (list, tuple)):
            self.counters["encoder.mols_encoded"] += len(graphs)
            for g in graphs:
                self._seen_mols[id(g)] = g
        else:  # a prebuilt batch: count it as its own distinct molecules
            self.counters["encoder.mols_encoded"] += graphs.n_mols
            self.counters["encoder.batch_mols_unique"] += graphs.n_mols

    def _file_bytes_hook(self, key: str):
        def hook(args, _result) -> None:
            self.counters[key] += os.path.getsize(args[0])

        return hook

    def _op_hook(self, op: str):
        vjp_nid = self._name_id(f"tensor.{op}.vjp")
        forward_cost = _FORWARD_COST.get(op)
        backward_cost = _BACKWARD_COST.get(op)

        def hook(args, result) -> None:
            if forward_cost is not None:
                key, amount = forward_cost(args)
                self.counters[key] += amount
            vjp = getattr(result, "_vjp", None)
            if vjp is None:
                return

            def traced_vjp(g):
                idx = self._open(vjp_nid)
                try:
                    grads = vjp(g)
                finally:
                    self._close(idx)
                if backward_cost is not None:
                    key, amount = backward_cost(args, grads)
                    self.counters[key] += amount
                return grads

            result._vjp = traced_vjp

        return hook

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        if self._stack:
            raise RuntimeError("spans still open")
        return {
            "name": np.asarray(self.name_of, dtype=np.int32),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "group": np.asarray(self.group_of, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write spans, the name table and counters as a compressed npz."""
        counters = sorted(self.counters.items())
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            counter_names=np.asarray([k for k, _ in counters], dtype=str),
            counter_values=np.asarray([v for _, v in counters], dtype=np.float64),
            **self.arrays(),
        )

    def unique_mols(self) -> int:
        return len(self._seen_mols) + int(self.counters.get("encoder.batch_mols_unique", 0))


def _public_functions(module):
    """(name, function) for the functions a module defines and exports:
    ``__all__`` when present, otherwise every non-underscore function."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


# -- computed work, from shapes ---------------------------------------------
# Each cost function returns (counter key, amount).  Bytes count every
# float64/int64 element read or written once, with np.add.at's
# read-modify-write counted twice and zero-initialised outputs once.


def _matmul_fwd(args):
    (m, k), n = args[0].shape, args[1].shape[1]
    return "tensor.matmul.flop", 2.0 * m * k * n


def _matmul_bwd(args, grads):
    (m, k), n = args[0].shape, args[1].shape[1]
    return "tensor.matmul.flop", 2.0 * m * k * n * sum(g is not None for g in grads)


def _gather_fwd(args):
    n, d = len(args[1]), args[0].shape[1]
    return "tensor.gather_rows.bytes", _F8 * (2 * n * d + n)


def _gather_bwd(args, _grads):
    rows, d = args[0].shape
    n = len(args[1])
    return "tensor.gather_rows.bytes", _F8 * (rows * d + 3 * n * d + n)


def _scatter_fwd(args):
    n, d = args[0].shape
    return "tensor.scatter_add_rows.bytes", _F8 * (int(args[2]) * d + 3 * n * d + n)


def _scatter_bwd(args, _grads):
    n, d = args[0].shape
    return "tensor.scatter_add_rows.bytes", _F8 * (2 * n * d + n)


def _segment_fwd(args):
    n, d = args[0].shape
    segs = int(args[2])
    return "tensor.segment_mean.bytes", _F8 * (3 * segs * d + 3 * n * d + 2 * n)


def _segment_bwd(args, _grads):
    n, d = args[0].shape
    return "tensor.segment_mean.bytes", _F8 * (3 * n * d + 2 * n)


_FORWARD_COST = {
    "matmul": _matmul_fwd,
    "gather_rows": _gather_fwd,
    "scatter_add_rows": _scatter_fwd,
    "segment_mean": _segment_fwd,
}
_BACKWARD_COST = {
    "matmul": _matmul_bwd,
    "gather_rows": _gather_bwd,
    "scatter_add_rows": _scatter_bwd,
    "segment_mean": _segment_bwd,
}


# -- span arithmetic ----------------------------------------------------------


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other: the covered time is the sum of the
    children's durations.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


# -- per-layer metrics ----------------------------------------------------------

# Families of span names reported under one metric.  A call counts once:
# a span whose direct parent is in the same family (``finetune_and_predict``
# calling ``finetune_and_predict_detailed``) is folded into its parent.
FAMILIES = {
    "episodes.sample_episode": (
        "episodes.sample_episode_balanced",
        "episodes.sample_episode_unbalanced",
    ),
    "matcher.predict_detailed": ("matcher.predict", "matcher.predict_detailed"),
    "meta.finetune_and_predict": (
        "meta.finetune_and_predict",
        "meta.finetune_and_predict_detailed",
    ),
}


def _metric_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [
        ("smiles.graph_from_smiles.calls", "count", "lower"),
        ("smiles.graph_from_smiles.s", "s", "lower"),
        ("episodes.load_registry.s", "s", "lower"),
        ("episodes.sample_episode.s", "s", "lower"),
        ("encoder.GraphBatch.calls", "count", "lower"),
        ("encoder.GraphBatch.s", "s", "lower"),
        ("encoder.GraphBatch.atoms", "count", "lower"),
        ("encoder.GraphBatch.edges", "count", "lower"),
        ("encoder.encode_multilevel.calls", "count", "lower"),
        ("encoder.encode_multilevel.self_s", "s", "lower"),
        ("encoder.gin_layer.s", "s", "lower"),
        ("encoder.mols_encoded", "count", "lower"),
        ("encoder.unique_mol_share", "ratio", "higher"),
    ]
    for name in ("matcher.predict_detailed", "matcher.match_layer", "matcher.fuse"):
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
    for name in ("meta.inner_adapt", "meta.episode_loss", "meta.finetune_and_predict"):
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
    spec += [
        ("meta.inner_adapt.steps", "count", "lower"),
        ("tensor.backward.calls", "count", "lower"),
        ("tensor.backward.self_s", "s", "lower"),
        ("tensor.backward.nodes", "count", "lower"),
    ]
    for op in OPS:
        spec += [
            (f"tensor.{op}.calls", "count", "lower"),
            (f"tensor.{op}.fwd_s", "s", "lower"),
            (f"tensor.{op}.vjp_s", "s", "lower"),
        ]
    spec.append(("tensor.matmul.gflop", "GFLOP-computed", "lower"))
    spec += [(f"tensor.{op}.mb", "MB-computed", "lower") for op in ADD_AT_OPS]
    spec += [
        ("optim.Adam.step.calls", "count", "lower"),
        ("optim.Adam.step.s", "s", "lower"),
        ("checkpoint.save_checkpoint.s", "s", "lower"),
        ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
        ("checkpoint.load_checkpoint.s", "s", "lower"),
        ("checkpoint.load_checkpoint.bytes", "bytes", "lower"),
        ("metrics.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
    return spec


PER_LAYER = _metric_spec()

# Checkpoints are written in set-up and read by every eval call and predict
# request, so these metrics add the traced set-up's share to the round's.
# The rest of set-up (registry generation, training the eval checkpoint)
# would blur the round's layer metrics and is left out.
SETUP_METRICS = (
    "checkpoint.save_checkpoint.s",
    "checkpoint.save_checkpoint.bytes",
    "checkpoint.load_checkpoint.s",
    "checkpoint.load_checkpoint.bytes",
)


def layer_metrics(tracer: Tracer, overhead_share: float) -> dict[str, float]:
    """Every PER_LAYER metric computed from the tracer's spans and counters."""
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], parent)
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)

    def ids(*names):
        return [tracer._name_ids[n] for n in names if n in tracer._name_ids]

    def family(metric):
        members = ids(*FAMILIES.get(metric, (metric,)))
        return np.isin(name, members) & ~np.isin(parent_name, members)

    def calls(metric):
        return float(family(metric).sum())

    def total_s(metric):
        return float(dur[family(metric)].sum())

    def self_s(*names):
        return float(own[np.isin(name, ids(*names))].sum())

    def children(parent_names, child_names):
        return float((np.isin(name, ids(*child_names)) & np.isin(parent_name, ids(*parent_names))).sum())

    c = tracer.counters
    mols = c.get("encoder.mols_encoded", 0.0)
    module_spans = lambda prefix: [n for n in tracer.names if n.startswith(prefix)]
    out = {
        "smiles.graph_from_smiles.calls": calls("smiles.graph_from_smiles"),
        "smiles.graph_from_smiles.s": total_s("smiles.graph_from_smiles"),
        "episodes.load_registry.s": total_s("episodes.load_registry"),
        "episodes.sample_episode.s": total_s("episodes.sample_episode"),
        "encoder.GraphBatch.calls": calls("encoder.GraphBatch"),
        "encoder.GraphBatch.s": total_s("encoder.GraphBatch"),
        "encoder.GraphBatch.atoms": c.get("encoder.GraphBatch.atoms", 0.0),
        "encoder.GraphBatch.edges": c.get("encoder.GraphBatch.edges", 0.0),
        "encoder.encode_multilevel.calls": calls("encoder.encode_multilevel"),
        "encoder.encode_multilevel.self_s": self_s("encoder.encode_multilevel"),
        "encoder.gin_layer.s": total_s("encoder.gin_layer"),
        "encoder.mols_encoded": mols,
        "encoder.unique_mol_share": tracer.unique_mols() / mols if mols else 0.0,
        "meta.inner_adapt.steps": children(["meta.inner_adapt"], ["tensor.backward"]),
        "tensor.backward.calls": calls("tensor.backward"),
        "tensor.backward.self_s": self_s("tensor.backward"),
        "tensor.backward.nodes": children(["tensor.backward"], [f"tensor.{op}.vjp" for op in OPS]),
        "tensor.matmul.gflop": c.get("tensor.matmul.flop", 0.0) / 1e9,
        "optim.Adam.step.calls": calls("optim.Adam.step"),
        "optim.Adam.step.s": total_s("optim.Adam.step"),
        "metrics.s": self_s(*module_spans("metrics.")),
        "cli.self_s": self_s(*module_spans("cli.")),
        "trace.overhead_share": overhead_share,
    }
    for metric in (
        "matcher.predict_detailed",
        "matcher.match_layer",
        "matcher.fuse",
        "meta.inner_adapt",
        "meta.episode_loss",
        "meta.finetune_and_predict",
    ):
        out[f"{metric}.calls"] = calls(metric)
        out[f"{metric}.s"] = total_s(metric)
    for op in OPS:
        out[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        out[f"tensor.{op}.fwd_s"] = total_s(f"tensor.{op}")
        out[f"tensor.{op}.vjp_s"] = total_s(f"tensor.{op}.vjp")
    for op in ADD_AT_OPS:
        out[f"tensor.{op}.mb"] = c.get(f"tensor.{op}.bytes", 0.0) / 1e6
    for fn in ("save_checkpoint", "load_checkpoint"):
        out[f"checkpoint.{fn}.s"] = total_s(f"checkpoint.{fn}")
        out[f"checkpoint.{fn}.bytes"] = c.get(f"checkpoint.{fn}.bytes", 0.0)
    return {metric: out[metric] for metric, _, _ in PER_LAYER}
