"""The benchmark's workloads: their input graphs and the commands of one round.

Input graphs are fixed instances, generated by `cfl.generators` and written
in the edge-list format the CLI reads.  The run's --seed picks the seeds the
commands themselves take (pipeline seed, mixing-audit sample seed, prop3
subset seed), so one --seed always gives the same inputs.  The instances are
fixed because their solver cost differs by instance far more than by command
seed: the power iteration took 3.9-12.9 s across five rr(2100,20) seeds and
the zero-gap MILP of the weighted LP audit 5.9-12.9 s across six weightings,
which would swamp the run-to-run spread the benchmark has to resolve.

- dense: `cfl pipeline --mode auto` on rr(90,45) seed 31, the instance of
  acceptance criterion 6; auto picks the dense engine with ell = 2, and the
  factor LP's unit-load re-solve does almost all the work.
- sparse: `cfl pipeline --mode sparse --ell 4` on rr(160,80); four part LPs,
  where the t* simplex, the re-solve and clique enumeration all carry weight.
- audit: `cfl audit-mixing` on rr(2100,20), above spectral.DENSE_LIMIT so the
  power-iteration path runs, and `cfl lp --prop3 --slackness` on a weighted
  rr(70,35), which runs the primal, dual, zero-gap MILP, prop3 and slackness
  paths of factor_lp.
"""

from __future__ import annotations

import os

import numpy as np

T = 3
NAMES = ("dense", "sparse", "audit")

# (n, d, generator seed) of each fixed instance.
DENSE_GRAPH = (90, 45, 31)
SPARSE_GRAPH = (160, 80, 31)
MIXING_GRAPH = (2100, 20, 1)
WEIGHTED_GRAPH = (70, 35, 0)
WEIGHT_SEED = 1
MIXING_SAMPLES = 2000


def _regular(n: int, d: int, seed: int):
    import cfl.generators

    return cfl.generators.build(
        cfl.generators.GenSpec(kind="random_regular", n=n, d=d, seed=seed)
    )


def write_inputs(workload: str, directory: str) -> dict:
    """Generate the workload's graphs into directory; returns role -> path."""
    from cfl.graphs import WeightedGraph, write_graph, write_weighted_graph

    def write(name: str, text: str) -> str:
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    if workload == "audit":
        g = _regular(*WEIGHTED_GRAPH)
        rng = np.random.default_rng(WEIGHT_SEED)
        weighted = WeightedGraph(g, {e: float(x) for e, x in zip(g.edges, rng.random(g.m))})
        return {
            "mixing": write("mixing.txt", write_graph(_regular(*MIXING_GRAPH))),
            "weighted": write("weighted.txt", write_weighted_graph(weighted)),
        }
    host = {"dense": DENSE_GRAPH, "sparse": SPARSE_GRAPH}[workload]
    return {"host": write("host.txt", write_graph(_regular(*host)))}


def round_ops(workload: str, seed: int, inputs: dict, directory: str) -> list:
    """The round's commands as (kind, argv, report path), in execution order."""

    def op(kind: str, *argv: str) -> tuple:
        out = os.path.join(directory, f"{kind}-{seed}.json")
        return kind, [kind, *argv, "--seed", str(seed), "--out", out], out

    t = str(T)
    if workload == "dense":
        return [op("pipeline", "--in", inputs["host"], "--t", t, "--mode", "auto", "--force")]
    if workload == "sparse":
        return [
            op("pipeline", "--in", inputs["host"], "--t", t, "--mode", "sparse", "--ell", "4",
               "--force")
        ]
    return [
        op("audit-mixing", "--in", inputs["mixing"], "--samples", str(MIXING_SAMPLES)),
        op("lp", "--in", inputs["weighted"], "--t", t, "--prop3", "--slackness"),
    ]
