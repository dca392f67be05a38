"""Single-linkage agglomerative clustering on a similarity matrix.

Merging is on maximum similarity: the similarity between two clusters is the
largest similarity across any member pair, and each step joins the pair of
clusters with the highest such value. Merge levels are therefore exact input
entries, never arithmetic combinations, and they decrease monotonically.
Ties go to the pair with the smallest (row, column) position.

`single_linkage` runs in O(k^2) time: the merge levels are the edge weights
of the maximum spanning tree (Gower & Ross 1969), built by Prim's algorithm
with one numpy row update per object and sorted into merge order.

A `Dendrogram` holds its k - 1 tree edges (i, j, level) in merge order, i and
j leaf positions on the two sides, and the child table one union-find pass
derives from them, numbered as in scipy (Müllner 2011): leaf i is node i, and
merge t joins two earlier nodes into k + t. `merges` is built only when read.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .config import plain, to_json
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
    """Symmetric matrix with unit diagonal and entries in [0, 1], each within 1e-9."""

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
        if np.any(np.abs(v - v.T) > _CLAMP_TOL):
            raise SpecError("similarity matrix must be symmetric (within 1e-9)")
        if np.any(v < -_CLAMP_TOL) or np.any(v > 1.0 + _CLAMP_TOL):
            raise SpecError("similarity entries must lie in [0, 1] (within 1e-9)")
        if np.any(np.abs(np.diag(v) - 1.0) > _CLAMP_TOL):
            raise SpecError("similarity diagonal must be 1 (within 1e-9)")
        np.clip(v, 0.0, 1.0, out=v)
        np.fill_diagonal(v, 1.0)
        np.copyto(v, v.T, where=np.tri(k, k, -1, dtype=bool))  # one value a pair: the upper
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


@dataclass(frozen=True, eq=False, init=False)
class Dendrogram:
    """Full merge history over a fixed leaf order, held as spanning-tree edges."""

    leaves: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __init__(self, leaves, merges):
        leaves = _ids(leaves, 1, "dendrogram leaves must be one or more unique non-empty strings")
        merges = _checked("merges", tuple[MergeStep, ...], merges)
        if len(merges) != len(leaves) - 1:
            raise SpecError(f"{len(leaves)} leaves need {len(leaves) - 1} merges, got {len(merges)}")
        levels = [_real(f"merge {t + 1} level", m.level) for t, m in enumerate(merges)]
        if any(b > a for a, b in zip(levels, levels[1:])):
            raise SpecError("merge levels must be non-increasing")
        position = {leaf: i for i, leaf in enumerate(leaves)}
        current = {frozenset([leaf]) for leaf in leaves}
        edges = []
        for t, m in enumerate(merges):
            if not abs(m.level) <= sys.float_info.max:  # nan, inf or an int beyond float64
                raise SpecError(f"merge {t + 1} has a non-finite level {_unwritable(m.level) or repr(m.level)}")
            left, right = frozenset(m.left), frozenset(m.right)
            if not {left, right} <= current or len(left | right) != len(m.left) + len(m.right):
                raise SpecError(f"merge {t + 1} does not join two current clusters")
            current ^= {left, right, left | right}  # the two sides leave, their union joins
            edges.append((position[m.left[0]], position[m.right[0]], m.level))
        self.__dict__.update(vars(Dendrogram._from_edges(leaves, tuple(edges))), merges=merges)

    @classmethod
    def _from_edges(cls, leaves: tuple[str, ...], edges: tuple) -> Dendrogram:
        """The tree of valid edges in merge order, with each merge's two child nodes."""
        parent, children = list(range(2 * len(leaves) - 1)), []  # node -> the node it joined, or itself
        for node, (i, j, _) in enumerate(edges, len(leaves)):
            a, b = _root(parent, i), _root(parent, j)
            parent[a] = parent[b] = node
            children.append((a, b))
        (tree := cls.__new__(cls)).__dict__.update(leaves=leaves, edges=edges, _children=tuple(children))
        return tree

    @functools.cached_property
    def merges(self) -> tuple[MergeStep, ...]:
        """Each merge's two sides, members in leaf order, and its level."""
        ids, members, merges = self.leaves, {i: [i] for i in range(len(self.leaves))}, []
        for node, ((a, b), (_, _, level)) in enumerate(zip(self._children, self.edges), len(ids)):
            left, right = members.pop(a), members.pop(b)
            merges.append(MergeStep(tuple(ids[q] for q in left), tuple(ids[q] for q in right), level))
            members[node] = sorted(left + right)
        return tuple(merges)

    def levels(self) -> tuple[float, ...]:
        return tuple(level for _, _, level in self.edges)

    def nodes(self) -> tuple[frozenset, ...]:
        """Every cluster the tree contains, by node: leaf i, then merge t at k + t."""
        out = [frozenset([leaf]) for leaf in self.leaves]
        for a, b in self._children:
            out.append(out[a] | out[b])
        return tuple(out)

    def to_dict(self) -> dict:
        return plain({"leaves": self.leaves, "merges": self.merges})

    def to_json(self) -> str:
        return to_json(self)

    def to_text(self) -> str:
        lines = [f"leaves: {', '.join(self.leaves)}"]
        for t, m in enumerate(self.merges, 1):
            lines.append(f"merge {t}: {{{', '.join(m.left)}}} + {{{', '.join(m.right)}}} at {m.level!r}")
        return "\n".join(lines) + "\n"

    def to_newick(self) -> str:
        """Newick with branch length 1 - level from each child to its parent;
        an id holding whitespace or any of ()[]':;, is quoted, ' doubled."""
        label = {}
        for i, leaf in enumerate(self.leaves):
            quote = any(c.isspace() or c in "()[]':;," for c in leaf)
            label[i] = "'" + leaf.replace("'", "''") + "'" if quote else leaf
        for node, ((a, b), (_, _, level)) in enumerate(zip(self._children, self.edges), len(self.leaves)):
            length = format(1.0 - level, "g")
            label[node] = f"({label.pop(a)}:{length},{label.pop(b)}:{length})"
        (root,) = label.values()
        return f"{root};"


def _root(parent: list[int], a: int) -> int:
    """The root of `a` in a union-find forest, halving the path on the way."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]  # assigns parent[a], then a
    return a


def single_linkage(matrix: SimilarityMatrix) -> Dendrogram:
    """Merge the most similar clusters first; ties go to the earliest pair.

    Tie-breaking: among cross-cluster pairs achieving the maximum similarity
    exactly, the pair with the smallest (row, column) position in input order
    wins, so results are deterministic for any input.

    Method: edges are ordered strictly by level, highest first, then by the
    pair (min(i, j), max(i, j)), smallest first. Under that order the maximum
    spanning tree is unique, and merging its k-1 edges in order is exactly
    the greedy rule above. Prim's algorithm builds the tree in O(k^2) time
    with one numpy row update per added object; its edges, sorted into that
    order, are the dendrogram.
    """
    k = len(matrix.ids)
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
    edges = []  # (i, j, level) of each tree edge, i < j
    for _ in range(k - 1):
        ties = np.flatnonzero(level == level.max())
        u = ties[np.argmin(key[ties])]
        edges.append((*divmod(int(key[u]), k), float(level[u])))
        level[u] = -1.0
        new_level = sim[u]
        new_key = np.minimum(objects, u) * k + np.maximum(objects, u)
        better = (level >= 0.0) & ((new_level > level) | ((new_level == level) & (new_key < key)))
        np.copyto(level, new_level, where=better)
        np.copyto(key, new_key, where=better)
    return Dendrogram._from_edges(matrix.ids, tuple(sorted(edges, key=lambda e: (-e[2], e[0], e[1]))))


def contains_cluster(tree: Dendrogram, cluster) -> bool:
    """True when the exact leaf set appears as a node of the tree, found in O(k)."""
    wanted = frozenset(_checked("cluster", tuple[str, ...], cluster))
    if not wanted:
        raise SpecError("cluster must not be empty")
    if missing := wanted - set(tree.leaves):
        raise SpecError(f"unknown leaf ids: {sorted(missing)}")
    # a node weighs 1 per wanted leaf under it and k + 1 per other leaf: only the set weighs |set|
    weight = [1 if leaf in wanted else len(tree.leaves) + 1 for leaf in tree.leaves]
    for a, b in tree._children:
        weight.append(weight[a] + weight[b])
    return len(wanted) in weight


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
