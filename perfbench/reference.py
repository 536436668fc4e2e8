"""Reference second eigenvalue of a graph file by a dense symmetric eigensolve.

    python3 perfbench/reference.py <graph file>

Prints lambda = max_{i>=2} |mu_i| of the adjacency spectrum, computed with
numpy.linalg.eigvalsh and nothing from cfl.  The benchmark runs it in its own
process, outside every timed interval, so its n x n matrix counts neither in
a timing nor in the workload process's peak RSS.
"""

import sys

import numpy as np

from checks import read_graph


def second_eigenvalue(path: str) -> float:
    n, edges = read_graph(path)
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    vals = np.linalg.eigvalsh(a)  # ascending; vals[-1] is the Perron value d
    return float(max(abs(vals[-2]), abs(vals[0])))


if __name__ == "__main__":
    print(repr(second_eigenvalue(sys.argv[1])))
