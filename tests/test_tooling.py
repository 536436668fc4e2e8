"""The benchmark's own files still fit the library they drive.

perfbench/spans.py wraps (module, attribute) pairs of cfl when a traced run
starts; a pair that no longer resolves would fail that run with an
AttributeError.  perfbench/workloads.py writes the benchmark's input graphs
through the library's constructors and writers before any round runs.  The
files are read and executed here, not imported, so no bytecode is written
next to them.
"""

import importlib
import os
import types

import numpy as np

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
