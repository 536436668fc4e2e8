"""Seeded generators of candidate (n,d,lambda)-graph instances.

All randomness flows through numpy's PCG64 generator seeded explicitly, so
identical seeds give identical graphs on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InputError
from .graphs import Graph, complement, from_edge_list

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
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def gen_paley(q: int) -> Graph:
    """Paley graph: vertices Z_q, edge {u,v} iff u-v is a nonzero square mod q.

    Needs q prime with q = 1 (mod 4) so that -1 is a square and the relation
    is symmetric; the result is (q-1)/2-regular.
    """
    if q < 2 or any(q % f == 0 for f in range(2, math.isqrt(q) + 1)):
        raise InputError(f"paley requires a prime, got {q}")
    if q % 4 != 1:
        raise InputError(f"paley requires q = 1 (mod 4), got {q}")
    square = np.zeros(q, dtype=bool)
    square[np.arange(1, q) ** 2 % q] = True
    u, v = np.triu_indices(q, 1)
    keep = square[(v - u) % q]
    return Graph(q, np.column_stack([u[keep], v[keep]]))


def gen_circulant(n: int, connection_set) -> Graph:
    """Circulant graph: edge {u, u+s mod n} for every offset s."""
    if n < 1:
        raise InputError(f"circulant needs n >= 1, got {n}")
    offsets = sorted(set(int(s) for s in connection_set))
    for s in offsets:
        if not (1 <= s <= n / 2):
            raise InputError(f"offset {s} outside 1 <= s <= n/2 for n={n}")
    u = np.tile(np.arange(n), len(offsets))
    v = (u + np.repeat(np.array(offsets, dtype=np.int64), n)) % n
    return from_edge_list(n, np.column_stack([u, v]))


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Random simple d-regular graph via the pairing (configuration) model.

    The d stubs of every vertex are shuffled and paired in array passes: the
    first half of the pool against the second.  A pair that is a self-loop,
    an edge already placed or a repeat of an earlier pair in the same pass
    returns its two stubs to the pool, in pair order.  A pass that places no
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
        return complement(gen_random_regular(n, n - 1 - d, seed))
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESTARTS + 1):
        stubs = np.tile(np.arange(n, dtype=np.int64), d)
        # keys u*n + v placed so far, sorted; the self-loops' u*n + u count as
        # placed, so no pair takes one, and the last lies above every edge key
        keys = np.arange(n, dtype=np.int64) * (n + 1)
        while stubs.size:
            rng.shuffle(stubs)
            u, v = stubs.reshape(2, -1)
            pair_keys = np.minimum(u, v) * n + np.maximum(u, v)
            order = np.argsort(pair_keys)
            sorted_keys = pair_keys[order]
            start = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
            new = sorted_keys[start]
            fresh = keys[np.searchsorted(keys, new)] != new
            if not fresh.any():
                break
            # two sorted runs, which the stable sort (timsort) merges in one pass
            keys = np.sort(np.concatenate([keys, new[fresh]]), kind="stable")
            back = np.ones(u.size, dtype=bool)
            back[np.minimum.reduceat(order, start)[fresh]] = False  # the first pair of each new key
            stubs = np.column_stack([u[back], v[back]]).ravel()
        else:
            ends = np.column_stack(np.divmod(keys, n))
            return Graph(n, ends[ends[:, 0] != ends[:, 1]])
    raise GenerationError(
        f"random_regular(n={n}, d={d}, seed={seed}) exceeded {MAX_RESTARTS} restarts"
    )
