"""Single-linkage agglomerative clustering on a similarity matrix.

Merging is on maximum similarity: the similarity between two clusters is the
largest similarity across any member pair, and each step joins the pair of
clusters with the highest such value. Merge levels are therefore exact input
entries, never arithmetic combinations, and they decrease monotonically.
Ties go to the pair with the smallest (row, column) position.

`single_linkage` runs in O(k^2) time: the merge levels are the edge weights
of the maximum spanning tree (Gower & Ross 1969), built by Prim's algorithm
with one numpy row update per object and replayed in merge order.

A `Dendrogram` numbers its nodes as scipy's linkage matrix does (Müllner
2011): leaf i is node i, and merge t creates node k + t from two earlier
nodes, each joined once. Construction derives the two child nodes of every
merge, and refuses a merge whose sides are not exactly two current clusters.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .config import to_json
from .errors import SpecError
from .estimates import _checked, _real, _unwritable

_CLAMP_TOL = 1e-9


def _ids(value, least: int, message: str) -> tuple[str, ...]:
    """`value` as at least `least` unique non-empty strings, else SpecError(message).
    A str or a non-iterable is no id list."""
    ids = tuple(value) if hasattr(value, "__iter__") and not isinstance(value, str) else None
    strings = ids is not None and all(isinstance(i, str) and i for i in ids)
    if not strings or len(ids) < least or len(set(ids)) != len(ids):
        raise SpecError(message)
    return ids


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric matrix with unit diagonal and entries in [0, 1]."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", _ids(self.ids, 0, "similarity matrix ids must be unique non-empty strings"))
        k = len(self.ids)
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (k, k):
            raise SpecError(f"matrix shape {v.shape} does not match {k} ids")
        if not np.all(np.isfinite(v)):
            raise SpecError("similarity matrix contains non-finite entries")
        if not np.array_equal(v, v.T):
            raise SpecError("similarity matrix must be exactly symmetric")
        if np.any(v < -_CLAMP_TOL) or np.any(v > 1.0 + _CLAMP_TOL):
            raise SpecError("similarity entries must lie in [0, 1] (within 1e-9)")
        if np.any(np.abs(np.diag(v) - 1.0) > _CLAMP_TOL):
            raise SpecError("similarity diagonal must be 1 (within 1e-9)")
        np.clip(v, 0.0, 1.0, out=v)
        np.fill_diagonal(v, 1.0)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_association(cls, ids, values) -> "SimilarityMatrix":
        """Absolute association |A| as the clustering similarity."""
        return cls(ids, np.abs(np.asarray(values, dtype=np.float64)))


@dataclass(frozen=True)
class MergeStep:
    """One agglomeration: the two clusters joined and the similarity level."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    level: float


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Full merge history over a fixed leaf order, nodes numbered as in scipy."""

    leaves: tuple[str, ...]
    merges: tuple[MergeStep, ...]

    def __post_init__(self):
        leaves = _ids(self.leaves, 1, "dendrogram leaves must be one or more unique non-empty strings")
        k = len(leaves)
        merges = _checked("merges", tuple[MergeStep, ...], self.merges)
        if len(merges) != k - 1:
            raise SpecError(f"{k} leaves need {k - 1} merges, got {len(merges)}")
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "merges", merges)
        levels = [_real(f"merge {t + 1} level", m.level) for t, m in enumerate(merges)]
        if any(b > a for a, b in zip(levels, levels[1:])):
            raise SpecError("merge levels must be non-increasing")
        current = {frozenset([leaf]): i for i, leaf in enumerate(leaves)}
        children = []
        for t, m in enumerate(merges):
            if not abs(m.level) <= sys.float_info.max:  # nan, inf or an int beyond float64
                raise SpecError(f"merge {t + 1} has a non-finite level {_unwritable(m.level) or repr(m.level)}")
            left, right = frozenset(m.left), frozenset(m.right)
            pair = current.pop(left, None), current.pop(right, None)
            if None in pair or len(left) + len(right) != len(m.left) + len(m.right):
                raise SpecError(f"merge {t + 1} does not join two current clusters")
            current[left | right] = k + t
            children.append(pair)
        object.__setattr__(self, "_children", tuple(children))

    def levels(self) -> tuple[float, ...]:
        return tuple(m.level for m in self.merges)

    def nodes(self) -> tuple[frozenset, ...]:
        """Every cluster the tree contains, by node: leaf i, then merge t at k + t."""
        out = [frozenset([leaf]) for leaf in self.leaves]
        for a, b in self._children:
            out.append(out[a] | out[b])
        return tuple(out)

    def to_json(self) -> str:
        return to_json(self)

    def to_text(self) -> str:
        lines = [f"leaves: {', '.join(self.leaves)}"]
        for i, m in enumerate(self.merges):
            lines.append(
                f"merge {i + 1}: {{{', '.join(m.left)}}} + {{{', '.join(m.right)}}} "
                f"at {m.level!r}"
            )
        return "\n".join(lines) + "\n"

    def to_newick(self) -> str:
        """Newick with branch length 1 - level from each child to its parent;
        an id holding whitespace or any of ()[]':;, is quoted, ' doubled."""
        label = {}
        for i, leaf in enumerate(self.leaves):
            quote = any(c.isspace() or c in "()[]':;," for c in leaf)
            label[i] = "'" + leaf.replace("'", "''") + "'" if quote else leaf
        for node, (m, (a, b)) in enumerate(zip(self.merges, self._children), len(self.leaves)):
            length = format(1.0 - m.level, "g")
            label[node] = f"({label.pop(a)}:{length},{label.pop(b)}:{length})"
        (root,) = label.values()
        return f"{root};"


def single_linkage(matrix: SimilarityMatrix) -> Dendrogram:
    """Merge the most similar clusters first; ties go to the earliest pair.

    Tie-breaking: among cross-cluster pairs achieving the maximum similarity
    exactly, the pair with the smallest (row, column) position in input order
    wins, so results are deterministic for any input.

    Method: edges are ordered strictly by level, highest first, then by the
    pair (min(i, j), max(i, j)), smallest first. Under that order the maximum
    spanning tree is unique, and merging its k-1 edges in order is exactly
    the greedy rule above. Prim's algorithm builds the tree in O(k^2) time
    with one numpy row update per added object; replaying the sorted tree
    edges over per-object cluster labels then yields the merges.
    """
    ids = matrix.ids
    k = len(ids)
    if k < 2:
        raise SpecError(f"clustering needs at least 2 objects, got {k}")
    sim = matrix.values
    # Prim over object ids: (level[v], key[v]) is the best edge from v into the
    # tree, key = min(i, j) * k + max(i, j) so keys compare pairs in (row, column)
    # order. A joined object has level -1, below every entry: it is never picked.
    objects = np.arange(k)
    level = sim[0].copy()
    key = objects.copy()
    level[0] = -1.0
    edges = []  # (-level, key) of each tree edge
    for _ in range(k - 1):
        ties = np.flatnonzero(level == level.max())
        u = ties[np.argmin(key[ties])]
        edges.append((-float(level[u]), int(key[u])))
        level[u] = -1.0
        new_level = sim[u]
        new_key = np.minimum(objects, u) * k + np.maximum(objects, u)
        better = (level >= 0.0) & ((new_level > level) | ((new_level == level) & (new_key < key)))
        np.copyto(level, new_level, where=better)
        np.copyto(key, new_key, where=better)
    # Replay the tree edges in merge order.
    cluster = list(range(k))  # series index -> cluster id
    members: dict[int, list[int]] = {c: [c] for c in range(k)}
    merges = []
    for neg_level, pair in sorted(edges):
        i, j = divmod(pair, k)
        ci, cj = cluster[i], cluster[j]
        left = members.pop(ci)
        right = members.pop(cj)
        merges.append(
            MergeStep(
                tuple(ids[q] for q in left),
                tuple(ids[q] for q in right),
                -neg_level,
            )
        )
        members[ci] = sorted(left + right)
        for q in right:
            cluster[q] = ci
    return Dendrogram(leaves=ids, merges=tuple(merges))


def contains_cluster(tree: Dendrogram, cluster) -> bool:
    """True when the exact leaf set appears as a node of the tree."""
    wanted = frozenset(_checked("cluster", tuple[str, ...], cluster))
    if not wanted:
        raise SpecError("cluster must not be empty")
    missing = wanted - set(tree.leaves)
    if missing:
        raise SpecError(f"unknown leaf ids: {sorted(missing)}")
    return wanted in set(tree.nodes())


def cut(tree: Dendrogram, k: int) -> tuple[tuple[str, ...], ...]:
    """Partition into k clusters by undoing the k-1 weakest merges.

    Levels are non-increasing, so this keeps the first len(leaves)-k merges;
    a leaf's cluster is the highest kept node above it, found in O(k) by one
    walk down the node table. Clusters come back ordered by first appearance
    of a member, members in leaf order.
    """
    total = len(tree.leaves)
    if not 1 <= (k := _checked("k", int, k)) <= total:
        raise SpecError(f"cut size must be in 1..{total}, got {k}")
    top = list(range(2 * total - k))  # node -> the highest kept node above it
    for node in reversed(range(total, len(top))):
        a, b = tree._children[node - total]
        top[a] = top[b] = top[node]
    groups: dict[int, list[str]] = {}
    for i, leaf in enumerate(tree.leaves):
        groups.setdefault(top[i], []).append(leaf)
    return tuple(tuple(g) for g in groups.values())
