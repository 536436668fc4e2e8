"""The benchmark's own files still fit the library they drive.

perfbench/spans.py wraps (module, attribute) pairs of cfl when a traced run
starts; a pair that no longer resolves would fail that run with an
AttributeError.  perfbench/workloads.py writes the benchmark's input graphs
through the library's constructors and writers before any round runs.  The
files are read and executed here, not imported, so no bytecode is written
next to them.
"""

import ast
import hashlib
import importlib
import inspect
import os
import re
import types

import numpy as np
import pytest

from cfl.graphs import parse_graph, parse_weighted_graph, write_weighted_graph

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _load(name: str) -> types.ModuleType:
    path = os.path.join(PERFBENCH, f"{name}.py")
    module = types.ModuleType(f"perfbench_{name}")
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def test_every_wrapped_attribute_resolves():
    wrapped = _load("spans").WRAPPED
    assert wrapped
    missing = [
        (module, attr)
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("module", ["cfl.factor_lp", "cfl.pipeline"])
def test_instance_objects_fix_t(module):
    # a clique set or bundle already fixes t (and the host), so no public
    # function takes t beside one, and a clique set is never optional
    mod = importlib.import_module(module)
    for name, fn in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module:
            continue
        params = inspect.signature(fn).parameters
        if "cliques" in params or "bundle" in params:
            assert "t" not in params, name
        if "cliques" in params:
            assert params["cliques"].default is inspect.Parameter.empty, name


def test_audit_inputs_parse_back(tmp_path):
    workloads = _load("workloads")
    paths = workloads.write_inputs("audit", str(tmp_path))
    with open(paths["mixing"], encoding="utf-8") as fh:
        mixing = parse_graph(fh.read())
    assert (mixing.n, mixing.m) == (2100, 2100 * 20 // 2)
    with open(paths["weighted"], encoding="utf-8") as fh:
        text = fh.read()
    wg = parse_weighted_graph(text)
    n, d, _ = workloads.WEIGHTED_GRAPH
    assert (wg.n, wg.base.m) == (n, n * d // 2)
    draws = np.random.default_rng(workloads.WEIGHT_SEED).random(wg.base.m)
    assert wg.w.tolist() == draws.tolist()
    assert write_weighted_graph(wg) == text


# sha256 of each input file write_inputs writes.  The files hold vertex
# labels and repr'd PCG64 draws, none of it computed through BLAS, so a
# digest moves only when the generators, the writers or Graph change what
# the benchmark runs.
INPUT_DIGESTS = {
    "dense": {"host.txt": "8bb07ac3fd1207bed43a7155969ea60d65639c2aa737b50fbd3cac65022d2ee5"},
    "sparse": {"host.txt": "c3e5091ec6b1a423fbf47ddc7883b851d92f9f0558d343b44f6e5c4767229676"},
    "audit": {
        "mixing.txt": "fed8c1a2e65278ad4c57ae135f5b0f51d326f83da31b37560f2e702c98e6f0b6",
        "weighted.txt": "604a325792821be31ce35dcb527ba495d6108ca3cac78522b7bca77adfc46015",
    },
}


@pytest.mark.parametrize("workload", sorted(INPUT_DIGESTS))
def test_inputs_are_pinned(workload, tmp_path):
    paths = _load("workloads").write_inputs(workload, str(tmp_path))
    digests = {}
    for path in paths.values():
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == INPUT_DIGESTS[workload]


SRC_CFL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "cfl")


def test_library_never_calls_numpy_lapack():
    # numpy and scipy each load their own multithreaded OpenBLAS; one numpy
    # LAPACK call leaves its pool's workers spinning against scipy's, which
    # slowed factor_lp's per-step Cholesky several-fold.  So all dense linear
    # algebra in cfl goes through scipy.linalg, and numpy's pool stays asleep.
    pattern = re.compile(r"\b(np|numpy)\.linalg\b|from numpy import linalg")
    hits = []
    for name in sorted(os.listdir(SRC_CFL)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_CFL, name), encoding="utf-8") as fh:
                hits += [f"{name}:{i}" for i, line in enumerate(fh, 1) if pattern.search(line)]
    assert hits == []


def _imported_at_load(tree: ast.Module) -> list:
    """Modules a module imports when it loads: every import outside a function body."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        todo += ast.iter_child_nodes(node)
    return names


def test_solvers_are_not_imported_at_load():
    # HiGHS (scipy.optimize) and ARPACK (scipy.sparse.linalg) take about a
    # third of a cfl command's import time; only the calls that solve with
    # them load them (factor_lp.linprog and milp, spectral.eigsh), so a
    # command that solves no LP and runs no Lanczos never pays for them
    solvers = ("scipy.optimize", "scipy.sparse.linalg")
    hits = []
    for name in sorted(os.listdir(SRC_CFL)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_CFL, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            hits += [
                f"{name}: {module}"
                for module in _imported_at_load(tree)
                if any(module == s or module.startswith(s + ".") for s in solvers)
            ]
    assert hits == []
