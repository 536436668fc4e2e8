"""Seeded generators of candidate (n,d,lambda)-graph instances.

All randomness flows through numpy's PCG64 generator seeded explicitly, so
identical seeds give identical graphs on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InputError
from .graphs import Graph, from_edge_list

MAX_RESTARTS = 10**5


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generator invocation (CLI-facing record)."""

    kind: str  # one of {complete, paley, circulant, random_regular}
    n: int = 0
    d: int = 0
    q: int = 0
    connection_set: tuple = ()
    seed: int = 0


# The GenSpec fields each kind reads; a caller may leave them None when unset.
REQUIRED = {
    "complete": ("n",),
    "paley": ("q",),
    "circulant": ("n", "connection_set"),
    "random_regular": ("n", "d", "seed"),
}


def build(spec: GenSpec) -> Graph:
    """Dispatch on spec.kind; a field the kind needs but spec leaves None is an InputError."""
    if spec.kind not in REQUIRED:
        raise InputError(f"unknown generator kind {spec.kind!r}")
    missing = [name for name in REQUIRED[spec.kind] if getattr(spec, name) is None]
    if missing:
        raise InputError(f"{spec.kind} generation requires {', '.join(missing)}")
    if spec.kind == "complete":
        return gen_complete(spec.n)
    if spec.kind == "paley":
        return gen_paley(spec.q)
    if spec.kind == "circulant":
        return gen_circulant(spec.n, spec.connection_set)
    return gen_random_regular(spec.n, spec.d, spec.seed)


def gen_complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise InputError(f"complete graph needs n >= 1, got {n}")
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def gen_paley(q: int) -> Graph:
    """Paley graph: vertices Z_q, edge {u,v} iff u-v is a nonzero square mod q.

    Needs q prime with q = 1 (mod 4) so that -1 is a square and the relation
    is symmetric; the result is (q-1)/2-regular.
    """
    if not _is_prime(q):
        raise InputError(f"paley requires a prime, got {q}")
    if q % 4 != 1:
        raise InputError(f"paley requires q = 1 (mod 4), got {q}")
    residues = {(x * x) % q for x in range(1, q)}
    pairs = [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in residues]
    return from_edge_list(q, pairs)


def gen_circulant(n: int, connection_set) -> Graph:
    """Circulant graph: edge {u, u+s mod n} for every offset s."""
    if n < 1:
        raise InputError(f"circulant needs n >= 1, got {n}")
    offsets = sorted(set(int(s) for s in connection_set))
    for s in offsets:
        if not (1 <= s <= n / 2):
            raise InputError(f"offset {s} outside 1 <= s <= n/2 for n={n}")
    pairs = []
    for s in offsets:
        for u in range(n):
            pairs.append((u, (u + s) % n))
    return from_edge_list(n, pairs)


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular graph via the pairing (configuration) model.

    Stubs are shuffled and paired in passes; colliding pairs (self-loops or
    repeated edges) return their stubs to the pool.  A pass that places no
    edge means the leftover stubs admit no simple completion, so the whole
    pairing restarts from scratch.  Deterministic given the seed; gives up
    after MAX_RESTARTS restarts.

    Near d = n - 1 almost every pairing collides and the restarts never end,
    so for 2d > n the result is the complement of the (n-1-d)-regular graph
    drawn with the same seed (n(n-1-d) is even whenever nd is).
    """
    if not (0 <= d < n):
        raise InputError(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InputError(f"n*d must be even, got n={n}, d={d}")
    if 2 * d > n:
        h = gen_random_regular(n, n - 1 - d, seed)
        return from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if not h.has_edge(u, v)]
        )
    rng = np.random.default_rng(seed)
    restarts = 0
    while restarts <= MAX_RESTARTS:
        edges = set()
        stubs = list(range(n)) * d
        stuck = False
        while stubs and not stuck:
            rng.shuffle(stubs)
            half = len(stubs) // 2
            leftover = []
            added = 0
            for u, v in zip(stubs[:half], stubs[half:]):
                if u == v or (u, v) in edges or (v, u) in edges:
                    leftover.append(u)
                    leftover.append(v)
                else:
                    edges.add((u, v) if u < v else (v, u))
                    added += 1
            if added == 0:
                stuck = True
            stubs = leftover
        if not stuck:
            return from_edge_list(n, sorted(edges))
        restarts += 1
    raise GenerationError(
        f"random_regular(n={n}, d={d}, seed={seed}) exceeded {MAX_RESTARTS} restarts"
    )
