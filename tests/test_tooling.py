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
import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import cfl
from cfl.graphs import parse_graph, parse_weighted_graph, write_graph, write_weighted_graph

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


# sha256 of write_graph(gen_random_regular(600, 300, 0)), a rung of the
# instance ladder: its draw restarts 6 times and takes 105 pairing passes.
LADDER_DIGEST = "e9e3007113865e2a04bc081cf0c3045bae59030def1733175b79984c6eae9c94"


def test_ladder_rung_is_pinned():
    text = write_graph(cfl.generators.gen_random_regular(600, 300, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == LADDER_DIGEST


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


def test_library_calls_no_blas_dot_product():
    # numpy's OpenBLAS splits a dot product of more than 10,000 entries over
    # its threads, so its bits would follow the thread count; the library's
    # reductions (objectives, edge-length terms, line-search slopes) are
    # sums.  Sparse products (`@` on a sparse operator) run in scipy's own
    # loops and stay allowed.
    banned = {"dot", "inner", "vdot", "matmul"}
    hits = [f"{name}:{line}: {called}" for name, line, _, called in _library_calls()
            if called in banned]
    assert hits == []


def _library_modules():
    """(file, parsed tree) of every module of cfl."""
    for name in sorted(os.listdir(SRC_CFL)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_CFL, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def _library_calls():
    """(file, line, enclosing top-level definition, called name) of every call in cfl."""
    for name, tree in _library_modules():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    yield name, node.lineno, getattr(top, "name", "<module>"), called


def test_only_the_cli_reads_the_environment():
    # the library takes its settings as arguments; CFL_THREADS, how many
    # seeds of `pipeline --seeds` run at once, is read by cli.py alone
    banned = {"environ", "getenv"}
    hits = []
    for name, tree in _library_modules():
        if name == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in banned:
                hits.append(f"{name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                hits += [f"{name}:{node.lineno}: {a.name}" for a in node.names if a.name in banned]
    assert hits == []


def test_only_the_cli_starts_threads():
    # sparse parts are certified one after another; the one thread pool is
    # the one `pipeline --seeds` runs its seeds on, in cli.py
    banned = {"concurrent", "threading"}
    hits = []
    for name, tree in _library_modules():
        if name == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            hits += [f"{name}:{node.lineno}: {m}" for m in modules if m.split(".")[0] in banned]
    assert hits == []


def test_only_has_fractional_factor_decides_the_certificate():
    # the factor certificate's one decision, Newton's witness or else one
    # checked HiGHS solve, is made in has_fractional_factor: certified_pair,
    # t_star and check_prop3 read its certificate, and solve_primal and
    # solve_dual are the solver's two halves
    allowed = {"_newton_witness": {"has_fractional_factor"},
               "solve_lp": {"has_fractional_factor", "solve_primal", "solve_dual"}}
    hits = [f"{name}:{line}: {owner} calls {called}" for name, line, owner, called in _library_calls()
            if called in allowed and owner not in allowed[called]]
    assert hits == []


def _imported_at_load(tree: ast.Module) -> list:
    """Modules a module of cfl imports when it loads: every import outside a
    function body, a relative one named from the package ("cfl.graphs")."""
    names, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cfl" if node.level else "", node.module]))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
        todo += ast.iter_child_nodes(node)
    return names


def _load_time_hits(files, banned) -> list:
    """"file: module" for each banned module (or a submodule of one) a file imports at load."""
    hits = []
    for name in files:
        with open(os.path.join(SRC_CFL, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        hits += [
            f"{name}: {module}"
            for module in _imported_at_load(tree)
            if any(module == b or module.startswith(b + ".") for b in banned)
        ]
    return hits


def test_solvers_are_not_imported_at_load():
    # HiGHS (scipy.optimize) and ARPACK (scipy.sparse.linalg) take about a
    # third of a cfl command's import time; only the calls that solve with
    # them load them (factor_lp.linprog and milp, spectral.eigsh), so a
    # command that solves no LP and runs no Lanczos never pays for them
    files = sorted(name for name in os.listdir(SRC_CFL) if name.endswith(".py"))
    assert _load_time_hits(files, ("scipy.optimize", "scipy.sparse.linalg")) == []


def test_graph_layer_imports_no_scipy_at_load():
    # `import cfl` loads the package and these three modules only, with numpy,
    # and `cfl gen` loads cli.py beside them; the solver layers, and scipy
    # with them, load on the first name used or command that needs them, and
    # concurrent.futures only when `pipeline --seeds` runs seeds at once
    files = ("__init__.py", "errors.py", "graphs.py", "generators.py", "cli.py")
    solver_layers = ("spectral", "cliques", "factor_lp", "pipeline", "blas", "acceptance")
    banned = ("scipy", "concurrent", *(f"cfl.{name}" for name in solver_layers))
    assert _load_time_hits(files, banned) == []


# Imports cfl in a fresh interpreter, generates, writes and parses a plain and
# a weighted graph, runs `cfl gen` into the directory given as its argument,
# then reads a lazy submodule and a first lazy name of three solver layers.
# Prints the scipy modules loaded after the graph work, whether each lazy
# name is its submodule's own object, and the scipy modules loaded at the end.
PACKAGE_PROBE = """
import json, os, sys
import cfl
from cfl.cli import main
def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
g = cfl.build(cfl.GenSpec(kind="random_regular", n=40, d=6, seed=0))
assert cfl.parse_graph(cfl.write_graph(g)) == g
path = os.path.join(sys.argv[1], "g.txt")
assert main(["gen", "--kind", "random-regular", "--n", "40", "--d", "6", "--seed", "0",
             "--out", path]) == 0
with open(path, encoding="utf-8") as fh:
    assert cfl.parse_graph(fh.read()) == g
wg = cfl.WeightedGraph(g, [x / g.m for x in range(g.m)])
back = cfl.parse_weighted_graph(cfl.write_weighted_graph(wg))
assert back.base == g and back.w.tolist() == wg.w.tolist()
seen = [scipy_loaded()]
spectral = cfl.spectral  # a lazy submodule, read by its own name
first = [cfl.CliqueSet, cfl.run_end_to_end, cfl.second_eigenvalue]
from cfl.cliques import CliqueSet
from cfl.pipeline import run_end_to_end
own = [CliqueSet, run_end_to_end, spectral.second_eigenvalue]
seen.append([a is b for a, b in zip(first, own)])
seen.append(scipy_loaded())
print(json.dumps(seen))
"""


def test_import_cfl_loads_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PACKAGE_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_graphs, same, at_end = json.loads(proc.stdout)
    assert after_graphs == []
    assert same == [True, True, True]
    assert "scipy.sparse" in at_end  # the probe sees scipy when it loads


# The package's public names, by the submodule that defines them: the names
# the eager imports of cfl/__init__.py bound before the solver layers loaded
# lazily.  `from cfl import *` binds these only; before __all__ it also bound
# the submodules themselves (cfl.graphs, cfl.spectral, ...).
EXPORTS = {
    "errors": "GenerationError InputError InvariantError NumericalError ParseError ResourceError",
    "graphs": """Graph RegularityInfo WeightedGraph edge_ids from_edge_list induced_subgraph
        induced_weighted parse_graph parse_weighted_graph regularity uniform_weights write_graph
        write_weighted_graph""",
    "generators": "GenSpec build gen_circulant gen_complete gen_paley gen_random_regular",
    "spectral": """HypothesisReport MixingAuditReport SpectralCert beta_exponent delta_exponent
        eigenvalue_constant hypothesis_check lambda_floor_check mixing_audit second_eigenvalue""",
    "cliques": """CliqueSet count_cliques_window default_span_size enumerate_cliques
        span_clique_audit""",
    "factor_lp": """DualSolution FactorCert PrimalSolution Prop3Report SlacknessReport
        certified_pair check_prop3 complementary_slackness has_fractional_factor integral_matching_value solve_dual solve_lp
        solve_primal t_star""",
    "pipeline": """ConcentrationReport FactorBundle HypothesisRejected MatchingResult
        PipelineConfig PipelineReport RandomHypergraph build_Hf concentration_audit default_alpha
        default_ell dense_extract greedy_completion nibble_matching run_end_to_end sparse_extract
        sparse_split""",
}


def test_package_exports_every_name():
    owner = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert sorted(cfl.__all__) == sorted(owner)
    assert set(cfl.__all__) <= set(dir(cfl))
    star: dict = {}
    exec("from cfl import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(owner)
    for name, module in owner.items():
        own = getattr(importlib.import_module(f"cfl.{module}"), name)
        assert getattr(cfl, name) is own and star[name] is own, name
    assert not hasattr(cfl, "no_such_name")


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_commands_parse():
    # every `cfl ...` line of the README's sh blocks, its trailing comment cut
    from cfl.cli import build_parser

    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    commands = [line.split("#")[0].split() for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in commands if words[:1] == ["cfl"]]
    assert commands
    parser = build_parser()
    refused = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(" ".join(argv))
    assert refused == []
