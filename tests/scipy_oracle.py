"""scipy's single linkage as an independent oracle for `single_linkage`.

On seeded continuous |A| matrices (no exact ties, so the merge order is
unique), `scipy.cluster.hierarchy.linkage` on 1 - |A| must give the same node
sets as `Dendrogram.nodes()`, with levels within 1e-15. Exits 1 naming the
first matrix that differs.

It runs as a script, because importing scipy.linalg starts a BLAS worker
thread that would outlive any test that imported it in-process, and the
benchmark smoke tests refuse a process with more threads than processors.
tests/test_cluster.py runs it; by hand, from the repository root:

    PYTHONPATH=src python tests/scipy_oracle.py
"""

import sys

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from shapeassoc import SimilarityMatrix, single_linkage

SIZES = [k for k in range(2, 61) for _ in range(5)] + [1000]


def random_association(rng, k):
    """|A| of a seeded continuous association matrix."""
    a = np.triu(rng.uniform(-1.0, 1.0, (k, k)), 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0)
    return SimilarityMatrix.from_association(tuple(f"o{i}" for i in range(k)), a)


def scipy_levels(matrix):
    """{node: level} of scipy's single linkage on 1 - S; None at the leaves."""
    nodes = [frozenset([leaf]) for leaf in matrix.ids]
    levels = dict.fromkeys(nodes)
    for a, b, distance, _ in linkage(squareform(1.0 - matrix.values, checks=False), "single"):
        nodes.append(nodes[int(a)] | nodes[int(b)])
        levels[nodes[-1]] = 1.0 - distance
    return levels


def main() -> int:
    rng = np.random.default_rng(68)
    for n, k in enumerate(SIZES):
        m = random_association(rng, k)
        tree = single_linkage(m)
        theirs = scipy_levels(m)
        if set(tree.nodes()) != set(theirs):
            print(f"matrix {n} (k={k}): node sets differ", file=sys.stderr)
            return 1
        for t, merge in enumerate(tree.merges):
            if not abs(merge.level - theirs[frozenset(merge.left + merge.right)]) <= 1e-15:
                print(f"matrix {n} (k={k}): merge {t + 1} level differs", file=sys.stderr)
                return 1
    print(f"{len(SIZES)} matrices match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
