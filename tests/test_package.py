import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import molmatch
from molmatch import tensor

MODULES = sorted(info.name for info in pkgutil.iter_modules(molmatch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # perfbench's tracer finds the functions it wraps through __all__ and
    # skips names that do not resolve, so a stale export would go unnoticed
    module = importlib.import_module(f"molmatch.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"molmatch.{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_cross_module_imports(name):
    # a module's underscore names are its own; another module that needs
    # one should get a public name instead
    source = Path(molmatch.__file__).with_name(f"{name}.py").read_text(encoding="utf-8")
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("molmatch"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"molmatch.{name} imports private names {private}"


def test_every_tensor_op_has_a_gradient_case():
    # criterion 1 checks each op's gradient against finite differences,
    # so a new op needs its case there
    from test_acceptance import _op_cases

    ops = [name for name in tensor.__all__ if name not in ("Tensor", "SlotTable", "backward")]
    missing = sorted(set(ops) - set(_op_cases(0)))
    assert not missing, f"criterion 1 has no gradient case for {missing}"


def test_only_the_matcher_calls_the_attention_op():
    # the episode layout of the fused match has one owner: every other
    # module matches through matcher.match_levels on episode_rows slices
    package = Path(molmatch.__file__).parent
    naming = sorted(
        path.name for path in package.glob("*.py")
        if "attention_match" in path.read_text(encoding="utf-8")
    )
    assert naming == ["matcher.py", "tensor.py"]


def meta_callers(*names: str) -> dict[str, set[str]]:
    """The top-level functions of meta.py that call each of ``names``."""
    package = Path(molmatch.__file__).parent
    tree = ast.parse((package / "meta.py").read_text(encoding="utf-8"))
    callers: dict[str, set[str]] = {name: set() for name in names}
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].add(function.name)
    return callers


def test_test_time_adaptation_has_one_owner():
    # training's outer step and test time's _adapt_labelled (eval,
    # validation, predict) split labelled rows with split_support and
    # adapt w through the one inner loop, inner_adapt
    assert meta_callers("inner_adapt", "split_support") == {
        "inner_adapt": {"_outer_task_step", "_adapt_labelled"},
        "split_support": {"_outer_task_step", "_adapt_labelled"},
    }


def test_meta_runs_backward_only_in_the_inner_loop_and_the_outer_step():
    # inner_adapt takes every inner-loop step; _named_grads is the outer
    # step's one sweep, so no other function in meta.py differentiates
    assert meta_callers("backward") == {"backward": {"_named_grads", "inner_adapt"}}


def test_training_names_take_rows():
    # the inner loop and the outer loss read a level stack by row; neither
    # encodes, so neither takes precomputed embeddings in place of an encode
    from molmatch import matcher, meta

    assert list(inspect.signature(meta.inner_adapt).parameters) == [
        "match_params", "stacked", "labels", "splits", "cfg", "task_id"
    ]
    assert list(inspect.signature(meta.episode_loss).parameters)[:4] == [
        "levels", "labels", "support_rows", "query_rows"
    ]
    assert not {"levels", "matcher_dropout", "rng"} & set(
        inspect.signature(matcher.predict_detailed).parameters
    )


def test_only_the_matcher_builds_layer_predictions():
    # per-layer views are built for criterion 2's predict_detailed alone;
    # the package re-exports that name and no module calls it
    package = Path(molmatch.__file__).parent
    pattern = re.compile(r"\b(predict_detailed|layer_predictions)\b")
    naming = {
        path.name: set(pattern.findall(path.read_text(encoding="utf-8")))
        for path in package.glob("*.py")
    }
    assert {name: found for name, found in naming.items() if found} == {
        "__init__.py": {"predict_detailed"},
        "matcher.py": {"predict_detailed", "layer_predictions"},
    }


def test_taskrel_adapts_only_through_the_inner_loop():
    # an adapted-w-delta task vector adapts w with meta.inner_adapt on the
    # frozen rows of its split; taskrel neither matches nor differentiates
    tree = package_trees()["taskrel.py"]
    imported = {
        alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported["inner_adapt"] == "meta"
    assert not {"backward", "match_levels", "episode_loss", "predict_detailed"} & set(imported)
    (call,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "inner_adapt"
    ]
    assert ast.unparse(call.args[0]) == "model.matcher"


def test_only_the_encoder_batches_graphs():
    # frozen-encoder batching has one owner: encoder.encode_frozen packs
    # graphs under its atom budget, and meta no longer cuts graph lists
    # into episode-sized batches of its own
    package = Path(molmatch.__file__).parent
    building = sorted(
        path.name for path in package.glob("*.py")
        if "GraphBatch(" in path.read_text(encoding="utf-8")
    )
    assert building == ["encoder.py"]
    tree = ast.parse((package / "meta.py").read_text(encoding="utf-8"))
    episode_sized = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and {getattr(side, "attr", None) for side in (node.left, node.right)}
        == {"support_size", "query_size"}
    ]
    assert not episode_sized, f"meta.py sums support_size and query_size at lines {episode_sized}"


def test_only_the_cli_sets_the_floating_point_error_state():
    # cli.main silences numpy's floating-point warnings once, because every
    # command checks its outputs for finiteness before writing; library
    # calls keep numpy's defaults, or whatever state their caller set
    package = Path(molmatch.__file__).parent
    calls = sorted(
        (path.name, node.func.attr)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("errstate", "seterr")
    )
    assert calls == [("cli.py", "errstate")]


def test_frozen_encoding_has_one_path():
    # with theta frozen, molecules are encoded only through the folded
    # kernel, whose one caller is encoder.frozen_batches; the
    # graph-tracked encode_multilevel is for training, never run on a
    # detached copy of the encoder
    package = Path(molmatch.__file__).parent
    kernel_callers, detached_encodes = set(), []
    for path in sorted(package.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = {
                getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
            }
            if "_frozen_batch" in called:
                kernel_callers.add(f"{path.stem}.{function.name}")
            if {"encode_multilevel", "detach"} <= called:
                detached_encodes.append(f"{path.stem}.{function.name}")
    assert kernel_callers == {"encoder.frozen_batches"}
    assert not detached_encodes, f"{detached_encodes} encode a detached encoder"


def test_only_smiles_featurizes():
    # featurization has one owner: smiles.featurize lays out the one-hot
    # atom and bond rows and builds every MolGraph, and episodes and cli
    # turn SMILES into graphs only through parse, featurize and
    # graph_from_smiles
    layout = {"ELEMENTS", "MAX_DEGREE", "CHARGE_RANGE", "MAX_H", "BOND_ORDERS"}

    def featurizes(tree) -> bool:
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in layout:
                return True
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MolGraph":
                return True
        return False

    trees = package_trees()
    assert sorted(name for name, tree in trees.items() if featurizes(tree)) == ["smiles.py"]
    for name in ("episodes.py", "cli.py"):
        from_smiles = {
            alias.name
            for node in ast.walk(trees[name])
            if isinstance(node, ast.ImportFrom) and node.module == "smiles"
            for alias in node.names
        }
        extra = from_smiles - {"MolGraph", "SmilesError", "parse", "featurize", "graph_from_smiles"}
        assert not extra, f"{name} imports {sorted(extra)} from smiles"


def package_trees() -> dict[str, ast.Module]:
    """The parsed source of every module, by file name."""
    package = Path(molmatch.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}


def test_a_gradient_lives_only_in_the_map_backward_returns():
    # a Tensor is an immutable autodiff node: no slot for a gradient, and
    # backward has no option to write one there
    assert not hasattr(tensor.Tensor(1.0, requires_grad=True), "grad")
    assert list(inspect.signature(tensor.backward).parameters) == ["loss", "params"]


def test_no_function_takes_a_training_flag():
    # dropout is on exactly when its rate is above 0
    flagged = [
        f"{name}:{node.name}"
        for name, tree in package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "training" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    ]
    assert not flagged, f"{flagged} take a training parameter"


def test_smiles_does_not_import_the_autodiff_engine():
    # a MolGraph holds plain numpy rows; no op differentiates them
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(package_trees()["smiles.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [m for m in imported if m and m.split(".")[-1] == "tensor"]


def test_only_the_registry_orders_tasks():
    # Registry.split_tasks returns each split in task-id order, so no
    # caller sorts tasks by id again
    sorting = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees().items()
        if name != "episodes.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "sorted" or getattr(node.func, "attr", None) == "sort")
        for keyword in node.keywords
        if keyword.arg == "key"
        and any(getattr(n, "attr", None) == "task_id" for n in ast.walk(keyword.value))
    ]
    assert not sorting, f"tasks sorted by id at {sorting}"


def test_each_choice_list_has_one_owner():
    # the valid values of an enumerated setting are spelled once: the CLI's
    # choices are config's tuples (and the registry's splits), and taskrel
    # checks against config's
    from molmatch import cli, config, episodes, taskrel

    owners = {
        "protocol": config.SAMPLINGS,
        "metric": config.METRICS,
        "mode": config.MODES,
        "split": episodes.SPLITS,
    }
    (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {}
    for command, parser in commands.choices.items():
        for action in parser._actions:
            if action.dest in owners:
                found[f"{command} --{action.dest}"] = action.choices is owners[action.dest]
    assert {flag.split(" --")[1] for flag in found} == set(owners)
    assert all(found.values()), f"choices that copy their owner's tuple: {found}"
    config_tuples = [v for v in vars(config).values() if isinstance(v, tuple)]
    own = [
        name for name, value in vars(taskrel).items()
        if isinstance(value, tuple) and value and all(isinstance(v, str) for v in value)
        and not any(value is t for t in config_tuples)
    ]
    assert not own, f"taskrel defines choice tuples of its own: {own}"
