"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `install` replaces module
attributes of `cfl` (the names callers actually look up at call time) with
wrappers that open a span around each call.  Spans are kept in memory and
written out once, when the run ends.  The recorder keeps one stack, so it
assumes the sequential default (CFL_THREADS unset).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# (module, attribute, span name).  A name bound in several modules is wrapped
# in each, because a caller resolves it through its own module's globals.
WRAPPED = (
    ("cfl.generators", "build", "generators.gen"),
    ("cfl.cli", "_read_graph", "cli.parse"),
    ("cfl.cli", "_read_maybe_weighted", "cli.parse"),
    ("cfl.cli", "_deliver", "cli.serialize"),
    ("cfl.cli", "run_end_to_end", "pipeline.run"),
    ("cfl.cli", "second_eigenvalue", "spectral.second_eigenvalue"),
    ("cfl.cli", "mixing_audit", "spectral.mixing_audit"),
    ("cfl.cli", "enumerate_cliques", "cliques.enumerate"),
    ("cfl.cli", "solve_primal", "factor_lp.primal"),
    ("cfl.cli", "solve_dual", "factor_lp.dual"),
    ("cfl.cli", "has_fractional_factor", "factor_lp.factor"),
    ("cfl.cli", "check_prop3", "factor_lp.prop3"),
    ("cfl.cli", "complementary_slackness", "factor_lp.slackness"),
    ("cfl.pipeline", "second_eigenvalue", "spectral.second_eigenvalue"),
    ("cfl.pipeline", "enumerate_cliques", "cliques.enumerate"),
    ("cfl.pipeline", "dense_extract", "pipeline.extract"),
    ("cfl.pipeline", "sparse_extract", "pipeline.extract"),
    ("cfl.pipeline", "has_fractional_factor", "factor_lp.factor"),
    ("cfl.pipeline", "build_Hf", "pipeline.hf"),
    ("cfl.pipeline", "concentration_audit", "pipeline.hf"),
    ("cfl.pipeline", "nibble_matching", "pipeline.matching"),
    ("cfl.pipeline", "greedy_completion", "pipeline.completion"),
    ("cfl.factor_lp", "enumerate_cliques", "cliques.enumerate"),
    ("cfl.factor_lp", "has_fractional_factor", "factor_lp.factor"),
    ("cfl.factor_lp", "t_star", "factor_lp.t_star"),
    ("cfl.factor_lp", "integral_matching_value", "factor_lp.integral"),
    ("cfl.factor_lp", "linprog", "factor_lp.linprog"),
    ("cfl.factor_lp", "milp", "factor_lp.milp"),
)


def _nnz(a) -> int:
    if a is None:
        return 0
    if hasattr(a, "nnz"):
        return int(a.nnz)
    return int(np.count_nonzero(a))


def _rows(a) -> int:
    return 0 if a is None else int(a.shape[0])


def _linprog_attrs(args, kwargs, res) -> dict:
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    return {
        "method": kwargs.get("method", "highs"),
        "rows": _rows(a_ub) + _rows(a_eq),
        "cols": len(args[0] if args else kwargs["c"]),
        "nnz": _nnz(a_ub) + _nnz(a_eq),
        "status": int(res.status),
        "nit": int(getattr(res, "nit", 0) or 0),
    }


def _milp_attrs(args, kwargs, res) -> dict:
    cons = kwargs.get("constraints")
    cons = cons if isinstance(cons, (list, tuple)) else [cons] if cons is not None else []
    return {
        "method": "milp",
        "rows": sum(_rows(c.A) for c in cons),
        "cols": len(args[0] if args else kwargs["c"]),
        "nnz": sum(_nnz(c.A) for c in cons),
        "status": int(res.status),
        "nodes": int(getattr(res, "mip_node_count", 0) or 0),
    }


def _result_attrs(name: str, args, kwargs, res) -> dict:
    if name == "factor_lp.linprog":
        return _linprog_attrs(args, kwargs, res)
    if name == "factor_lp.milp":
        return _milp_attrs(args, kwargs, res)
    if name == "factor_lp.factor":
        return {"has_factor": bool(res.has_factor)}
    if name == "cliques.enumerate":
        return {"count": len(res)}
    return {}


class Tracer:
    """In-memory span recorder.

    A span is a dict with id, name, parent (span id or None), round, start
    and end (perf_counter seconds) and attrs (solver shape and outcome for
    the LP/MILP entry points, verdicts and counts for a few others).
    """

    def __init__(self):
        self.spans: list = []
        self.round = None
        self._stack: list = []
        self._originals: list = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "round": self.round,
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
            self.spans.append(span)
            self._stack.append(span)
            try:
                res = fn(*args, **kwargs)
                span["attrs"] = _result_attrs(name, args, kwargs, res)
                return res
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# Per-layer busy time: metric -> the span name whose self time it sums.
SELF_TIME_METRICS = {
    "factor_lp.factor_s": "factor_lp.factor",
    "factor_lp.t_star_s": "factor_lp.t_star",
    "factor_lp.primal_s": "factor_lp.primal",
    "factor_lp.dual_s": "factor_lp.dual",
    "factor_lp.prop3_s": "factor_lp.prop3",
    "factor_lp.integral_s": "factor_lp.integral",
    "factor_lp.milp_s": "factor_lp.milp",
    "factor_lp.slackness_s": "factor_lp.slackness",
    "cliques.enumerate_s": "cliques.enumerate",
    "spectral.second_eigenvalue_s": "spectral.second_eigenvalue",
    "spectral.mixing_audit_s": "spectral.mixing_audit",
    "pipeline.extract_s": "pipeline.extract",
    "pipeline.hf_s": "pipeline.hf",
    "pipeline.matching_s": "pipeline.matching",
    "pipeline.completion_s": "pipeline.completion",
    "pipeline.self_s": "pipeline.run",
    "cli.parse_s": "cli.parse",
    "cli.serialize_s": "cli.serialize",
    "generators.gen_s": "generators.gen",
}


def _is_ipm(span) -> bool:
    return span["attrs"].get("method") == "highs-ipm"


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one round from its spans.

    Solver spans are leaves, so their self time is their duration.  A factor
    certificate's solves are the linprog spans below a factor_lp.factor span
    that returned has_factor true.
    """
    own = self_times(spans)
    out = {
        metric: sum((own[s["id"]] for s in spans if s["name"] == name), 0.0)
        for metric, name in SELF_TIME_METRICS.items()
    }
    lps = [s for s in spans if s["name"] == "factor_lp.linprog"]
    out["factor_lp.lp_ipm_s"] = sum(own[s["id"]] for s in lps if _is_ipm(s))
    out["factor_lp.lp_simplex_s"] = sum(own[s["id"]] for s in lps if not _is_ipm(s))
    out["factor_lp.lp_solves"] = len(lps)
    out["factor_lp.lp_iterations"] = sum(s["attrs"]["nit"] for s in lps)
    out["factor_lp.lp_fallbacks"] = sum(1 for s in lps if _is_ipm(s) and s["attrs"]["status"] != 0)
    out["factor_lp.lp_rows_max"] = max((s["attrs"]["rows"] for s in lps), default=0)
    out["factor_lp.lp_nnz_max"] = max((s["attrs"]["nnz"] for s in lps), default=0)

    by_id = {s["id"]: s for s in spans}
    factors = {
        s["id"] for s in spans if s["name"] == "factor_lp.factor" and s["attrs"].get("has_factor")
    }
    solves = 0
    for s in lps:
        parent = s["parent"]
        while parent is not None and parent not in factors:
            parent = by_id[parent]["parent"]
        solves += parent is not None
    out["factor_lp.solves_per_factor"] = solves / len(factors) if factors else 0.0

    enum = [s for s in spans if s["name"] == "cliques.enumerate"]
    out["cliques.enumerate_calls"] = len(enum)
    out["cliques.enumerated"] = sum(s["attrs"].get("count", 0) for s in enum)
    out["spectral.second_eigenvalue_calls"] = sum(
        1 for s in spans if s["name"] == "spectral.second_eigenvalue"
    )
    return out
