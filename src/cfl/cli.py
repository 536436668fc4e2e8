"""Command-line front end: generators, audits, LP runs, and the pipeline.

Subcommands write canonical JSON (sorted keys, 12 significant digits, NaN
forbidden) so identical runs produce byte-identical artifacts.  The
serializer alone decides that shape: tuples render as lists, numpy scalars
as their values, and a report dataclass through its to_dict when it has one,
otherwise from its fields.  Exit codes:
0 success, 1 audit failure (mixing violation, failed window/span audit,
hypothesis failure in pipeline runs, failing suite criteria), 2 input error
(an unreadable input or unwritable output path included), 3 resource or
numerical error, and also any other exception, reported as one
"error: internal:" line.  Every randomized operation takes its randomness
from --seed alone; CFL_THREADS caps worker fan-out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import tempfile
import time

from .cliques import count_cliques_window, default_span_size, enumerate_cliques, span_clique_audit
from .errors import (
    GenerationError,
    InputError,
    InvariantError,
    NumericalError,
    ResourceError,
)
from .factor_lp import check_prop3, complementary_slackness, has_fractional_factor, solve_lp
# bound here for perfbench/spans.py to wrap, until ROADMAP item 2 retires it
from .factor_lp import solve_dual, solve_primal  # noqa: F401
from .generators import GenSpec, build
from .graphs import parse_graph, parse_weighted_graph, uniform_weights, write_graph
from .pipeline import HypothesisRejected, PipelineConfig, fan_out, run_end_to_end
from .spectral import mixing_audit, second_eigenvalue


# ---------------------------------------------------------------- serialization


def _emit(x, out: list) -> None:
    if x is None:
        out.append("null")
        return
    if isinstance(x, bool):
        out.append("true" if x else "false")
        return
    if isinstance(x, int):
        out.append(str(x))
        return
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise InputError("NaN/inf is forbidden in reports")
        out.append(format(x, ".12g"))
        return
    if isinstance(x, str):
        out.append(json.dumps(x))
        return
    if isinstance(x, dict):
        out.append("{")
        first = True
        for k in sorted(x):
            if not isinstance(k, str):
                raise InputError(f"non-string report key {k!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(k))
            out.append(":")
            _emit(x[k], out)
        out.append("}")
        return
    if isinstance(x, (list, tuple)):
        out.append("[")
        for i, item in enumerate(x):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
        return
    # numpy scalars and dataclass reports funnel through here
    if hasattr(x, "item"):
        _emit(x.item(), out)
        return
    if hasattr(x, "to_dict"):
        _emit(x.to_dict(), out)
        return
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        _emit({f.name: getattr(x, f.name) for f in dataclasses.fields(x)}, out)
        return
    raise InputError(f"cannot serialize object of type {type(x).__name__}")


def canonical_json(obj) -> str:
    """Canonical rendering: sorted keys, reals at 12 significant digits."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def atomic_write(path: str, data: str) -> None:
    """Write via temp file + rename so readers never observe partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cfl-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _deliver(obj, out_path: str | None) -> None:
    text = canonical_json(obj) + "\n"
    if out_path:
        atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _read_maybe_weighted(path: str):
    """Weighted files carry three tokens per edge line (the second non-blank line), plain two."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = list(itertools.islice(filter(str.strip, text.splitlines()), 2))
    if len(lines) == 2 and len(lines[1].split()) == 3:
        return parse_weighted_graph(text)
    return uniform_weights(parse_graph(text))


def _int_list(text: str, flag: str) -> list:
    """The integers of a comma-separated list flag; anything else is an input error."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _seed(seed: int) -> int:
    """A seed, once checked: numpy's generators take non-negative integers only."""
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_flags(args) -> None:
    """Every flag that needs no input, checked before any command does work."""
    seed = getattr(args, "seed", None)
    if seed is not None:
        _seed(seed)
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 < tol < math.inf:
        raise InputError(f"tol must be finite and positive, got {tol}")
    if getattr(args, "samples", 1) < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if getattr(args, "span_trials", None) is not None and args.span_trials < 1:
        raise InputError(f"--span-trials must be at least 1, got {args.span_trials}")
    if getattr(args, "window", None) is not None and args.window < 2:
        raise InputError(f"--window must be at least 2, got {args.window}")
    if getattr(args, "span_size", None) is not None:
        if args.span_size < 1:
            raise InputError(f"--span-size must be at least 1, got {args.span_size}")
        if args.span_trials is None:
            raise InputError("--span-size needs --span-trials")
    least = 3 if args.command == "pipeline" else 2
    if getattr(args, "t", least) < least:
        raise InputError(f"--t must be at least {least}, got {args.t}")
    if getattr(args, "ell", None) is not None and args.ell < 1:
        raise InputError(f"--ell must be at least 1, got {args.ell}")
    if not 0 < getattr(args, "epsilon", 0.5) < 1:
        raise InputError(f"--epsilon must lie in (0,1), got {args.epsilon}")
    if getattr(args, "alpha", None) is not None and not 0 <= args.alpha <= 1:
        raise InputError(f"--alpha must lie in [0,1], got {args.alpha}")
    if seed is None and getattr(args, "span_trials", None):
        raise InputError("--seed is required for the span audit")
    if seed is None and getattr(args, "prop3", False):
        raise InputError("--seed is required for the prop3 subset check")


# ---------------------------------------------------------------- subcommands


def _cmd_gen(args) -> int:
    kind = args.kind.replace("-", "_")
    conn = None
    if args.connection_set is not None:
        conn = tuple(_int_list(args.connection_set, "--connection-set"))
    spec = GenSpec(kind=kind, n=args.n, d=args.d, q=args.q, connection_set=conn, seed=args.seed)
    g = build(spec)
    atomic_write(args.out, write_graph(g))
    return 0


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.infile)
    method = {"dense": "dense_eig", "lanczos": "lanczos", None: None}[args.method]
    cert = second_eigenvalue(g, tol=args.tol, method=method)
    _deliver(cert, args.out)
    return 0


def _cmd_audit_mixing(args) -> int:
    g = _read_graph(args.infile)
    cert = second_eigenvalue(g)
    report = mixing_audit(g, cert, args.samples, args.seed)
    payload = {"cert": cert, "mixing": report}
    _deliver(payload, args.out)
    return 1 if report.violated else 0


def _cmd_cliques(args) -> int:
    g = _read_graph(args.infile)
    cliques = enumerate_cliques(g, args.t)
    payload: dict = {"n": g.n, "m": g.m, "t": args.t, "count": len(cliques)}
    failed = False
    if args.window is not None:
        count, lower, upper, within = count_cliques_window(g, range(g.n), args.window)
        payload["window"] = {
            "i": args.window,
            "count": count,
            "lower": lower,
            "upper": upper,
            "within": within,
        }
        failed = failed or not within
    if args.span_trials is not None:
        size = args.span_size if args.span_size is not None else default_span_size(g.n, args.t)
        failures, witness = span_clique_audit(g, args.t, size, args.span_trials, args.seed)
        payload["span_audit"] = {
            "size": size,
            "trials": args.span_trials,
            "failures": failures,
            "witness": None if witness is None else list(witness),
        }
        failed = failed or failures > 0
    _deliver(payload, args.out)
    return 1 if failed else 0


def _cmd_lp(args) -> int:
    wg = _read_maybe_weighted(args.infile)
    cliques = enumerate_cliques(wg.base, args.t)
    primal, dual = solve_lp(wg, cliques, args.tol)
    cert = has_fractional_factor(wg, cliques, args.tol, primal)
    payload: dict = {
        "n": wg.n,
        "m": wg.base.m,
        "t": args.t,
        "cliques": len(cliques),
        "primal_objective": primal.objective,
        "dual_objective": dual.objective,
        "gap": abs(primal.objective - dual.objective),
        "cert": cert.to_dict(cliques, args.tol),
    }
    failed = False
    if args.prop3:
        report = check_prop3(wg, cliques, args.tol, args.seed, primal, dual, cert)
        payload["prop3"] = report
        failed = failed or not report.all_pass
    if args.slackness:
        report = complementary_slackness(primal, dual, wg, cliques, args.tol)
        payload["slackness"] = report
        failed = failed or not report.all_pass
    _deliver(payload, args.out)
    return 1 if failed else 0


def _pipeline_config(args, seed: int) -> PipelineConfig:
    return PipelineConfig(
        seed=seed,
        mode=args.mode,
        ell=args.ell,
        alpha=args.alpha,
        epsilon=args.epsilon,
        matcher=args.matcher,
        tol=args.tol,
        force=args.force,
    )


def _cmd_pipeline(args) -> int:
    g = _read_graph(args.infile)
    if args.seeds is not None:
        seeds = [_seed(s) for s in _int_list(args.seeds, "--seeds")]
    else:
        seeds = [args.seed]

    def run_one(seed: int):
        start = time.perf_counter()
        report = run_end_to_end(g, args.t, _pipeline_config(args, seed))
        ms = (time.perf_counter() - start) * 1000.0
        return report, ms

    try:
        runs = fan_out(run_one, seeds)
    except HypothesisRejected as exc:
        payload = {"error": str(exc), "hypothesis": exc.report}
        _deliver(payload, args.out)
        return 1

    flagged = any(r.stage_audits["hypothesis_failed"] for r, _ in runs)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["seed", "ell_achieved", "uncovered_count", "runtime_ms"])
        for (report, ms), seed in zip(runs, seeds):
            writer.writerow(
                [
                    seed,
                    report.parameters["ell_achieved"],
                    report.result.uncovered_count,
                    f"{ms:.1f}",
                ]
            )
        atomic_write(args.csv, buf.getvalue())
    if len(seeds) == 1:
        _deliver(runs[0][0], args.out)
    elif args.out or not args.csv:
        _deliver([r for r, _ in runs], args.out)
    return 1 if flagged else 0


def _cmd_suite(args) -> int:
    from .acceptance import CRITERIA, run_all

    only = _int_list(args.only, "--only") if args.only is not None else None
    unknown = sorted(set(only or ()) - set(CRITERIA))
    if unknown:
        raise InputError(f"--only: no criterion {unknown[0]}; criteria are 1-{len(CRITERIA)}")
    results = run_all(only)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        sys.stdout.write(f"{status}  {r['criterion']:>2}  {r['name']:<28} {r['runtime_s']:.1f}s\n")
    n_pass = sum(1 for r in results if r["passed"])
    sys.stdout.write(f"{n_pass}/{len(results)} criteria passed\n")
    if args.out:
        atomic_write(args.out, canonical_json(results) + "\n")
    return 0 if n_pass == len(results) else 1


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfl",
        description="Clique-factor lab: spectral audits, fractional K_t-matching LPs, "
        "and covering pipelines on pseudorandom regular graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write canonical JSON here instead of stdout")

    g = sub.add_parser("gen", help="generate a graph file")
    g.add_argument("--kind", required=True, choices=["complete", "paley", "circulant", "random-regular"])
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--q", type=int)
    g.add_argument("--connection-set", help="comma-separated circulant offsets")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("spectrum", help="second eigenvalue certificate")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--method", choices=["dense", "lanczos"])
    s.add_argument("--tol", type=float, default=1e-8)
    add_common(s)
    s.set_defaults(func=_cmd_spectrum)

    a = sub.add_parser("audit-mixing", help="sampled expander-mixing audit")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--samples", type=int, default=10000)
    a.add_argument("--seed", type=int, required=True)
    add_common(a)
    a.set_defaults(func=_cmd_audit_mixing)

    c = sub.add_parser("cliques", help="clique counts, windows, span audits")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--window", type=int, help="check the K_i count window for U = V")
    c.add_argument("--span-trials", type=int)
    c.add_argument("--span-size", type=int)
    c.add_argument("--seed", type=int)
    add_common(c)
    c.set_defaults(func=_cmd_cliques)

    l = sub.add_parser("lp", help="fractional matching LP, dual, factor certificate")
    l.add_argument("--in", dest="infile", required=True)
    l.add_argument("--t", type=int, required=True)
    l.add_argument("--tol", type=float, default=1e-7)
    l.add_argument("--prop3", action="store_true", help="run the four duality checks")
    l.add_argument("--slackness", action="store_true", help="complementary slackness report")
    l.add_argument("--seed", type=int)
    add_common(l)
    l.set_defaults(func=_cmd_lp)

    pl = sub.add_parser("pipeline", help="extract factors, sample H_f, match, report")
    pl.add_argument("--in", dest="infile", required=True)
    pl.add_argument("--t", type=int, required=True)
    pl.add_argument("--mode", choices=["auto", "dense", "sparse"], default="auto")
    pl.add_argument("--ell", type=int)
    pl.add_argument("--alpha", type=float)
    pl.add_argument("--epsilon", type=float, default=0.1)
    pl.add_argument("--matcher", choices=["nibble", "greedy"], default="nibble")
    pl.add_argument("--tol", type=float, default=1e-7)
    group = pl.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int)
    group.add_argument("--seeds", help="comma-separated seed list (fan-out)")
    pl.add_argument("--force", action="store_true", help="run despite hypothesis failure")
    pl.add_argument("--csv", help="per-seed coverage table (seed, ell, uncovered, ms)")
    add_common(pl)
    pl.set_defaults(func=_cmd_pipeline)

    su = sub.add_parser("suite", help="run the acceptance corpus, print pass/fail table")
    su.add_argument("--only", help="comma-separated criterion numbers")
    add_common(su)
    su.set_defaults(func=_cmd_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        _check_flags(args)
        return args.func(args)
    except InputError as exc:  # includes ParseError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable input or unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, NumericalError, GenerationError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, not an audit verdict: keep exit 1 for audits
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
