import json
import os
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from shapeassoc import (
    Dendrogram,
    MergeStep,
    SimilarityMatrix,
    SpecError,
    contains_cluster,
    cut,
    single_linkage,
)


def _reference_single_linkage(matrix: SimilarityMatrix) -> Dendrogram:
    """The original O(k^3) scan: the merge-for-merge oracle for single_linkage."""
    ids = matrix.ids
    k = len(ids)
    if k < 2:
        raise SpecError(f"clustering needs at least 2 objects, got {k}")
    sim = matrix.values
    assignment = list(range(k))  # series index -> cluster id
    members: dict[int, list[int]] = {c: [c] for c in range(k)}
    merges = []
    for _ in range(k - 1):
        best = -1.0
        best_pair: tuple[int, int] | None = None
        for i in range(k):
            for j in range(i + 1, k):
                if assignment[i] != assignment[j] and sim[i, j] > best:
                    best = sim[i, j]
                    best_pair = (i, j)
        i, j = best_pair
        ci, cj = assignment[i], assignment[j]
        left = members.pop(ci)
        right = members.pop(cj)
        merges.append(
            MergeStep(
                tuple(ids[p] for p in left),
                tuple(ids[p] for p in right),
                float(best),
            )
        )
        merged = sorted(left + right)
        members[ci] = merged
        for p in merged:
            assignment[p] = ci
    return Dendrogram(leaves=ids, merges=tuple(merges))


def _reference_cut(tree: Dendrogram, k: int) -> tuple[tuple[str, ...], ...]:
    """The former union-find cut: the group-for-group oracle for cut."""
    total = len(tree.leaves)
    if not 1 <= k <= total:
        raise SpecError(f"cut size must be in 1..{total}, got {k}")
    position = {leaf: p for p, leaf in enumerate(tree.leaves)}
    parent = list(range(total))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in tree.merges[: total - k]:
        a = find(position[m.left[0]])
        b = find(position[m.right[0]])
        parent[b] = a
    groups: dict[int, list[str]] = {}
    for leaf in tree.leaves:
        groups.setdefault(find(position[leaf]), []).append(leaf)
    return tuple(tuple(g) for g in groups.values())


def _reference_nodes(tree: Dendrogram) -> tuple[frozenset, ...]:
    """The former nodes(), read off the merge sides: the node-for-node oracle."""
    out = [frozenset([leaf]) for leaf in tree.leaves]
    out.extend(frozenset(m.left + m.right) for m in tree.merges)
    return tuple(out)


def _reference_contains(tree: Dendrogram, cluster) -> bool:
    """The former contains_cluster rule, every node's member set: the oracle for the count."""
    return frozenset(cluster) in set(tree.nodes())


def _replayed_nodes(tree: Dendrogram) -> tuple[frozenset, ...]:
    """Every node, found by joining the clusters that hold each edge's two leaves, in order."""
    out = [frozenset([leaf]) for leaf in tree.leaves]
    cluster = list(out)  # leaf position -> its current cluster
    position = {leaf: p for p, leaf in enumerate(tree.leaves)}
    for i, j, _ in tree.edges:
        out.append(cluster[i] | cluster[j])
        for leaf in out[-1]:
            cluster[position[leaf]] = out[-1]
    return tuple(out)


def chain(k):
    """The k-leaf tree that joins o0 and o1, then adds one leaf per merge."""
    leaves = tuple(f"o{i}" for i in range(k))
    return Dendrogram(
        leaves, tuple(MergeStep(leaves[: t + 1], (leaves[t + 1],), 1.0 - t / k) for t in range(k - 1))
    )


# Sides in either order, a side listed out of leaf order, and equal levels.
HAND_BUILT = (
    Dendrogram(("a",), ()),
    Dendrogram(
        ("a", "b", "c", "d"),
        (
            MergeStep(("c",), ("d",), 0.9),
            MergeStep(("b",), ("a",), 0.8),
            MergeStep(("c", "d"), ("b", "a"), 0.1),
        ),
    ),
    Dendrogram(
        ("a", "b", "c", "d", "e"),
        (
            MergeStep(("e",), ("a",), 0.7),
            MergeStep(("d",), ("e", "a"), 0.7),
            MergeStep(("c",), ("b",), 0.5),
            MergeStep(("c", "b"), ("a", "d", "e"), 0.5),
        ),
    ),
    chain(6),
)


def sym(ids, entries):
    """Build a SimilarityMatrix from {(i, j): s} over index pairs."""
    k = len(ids)
    v = np.eye(k)
    for (i, j), s in entries.items():
        v[i, j] = s
        v[j, i] = s
    return SimilarityMatrix(tuple(ids), v)


THREE = sym("123", {(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.3})


def from_upper(v):
    """SimilarityMatrix from the strict upper triangle of square v, unit diagonal."""
    v = np.triu(v, 1)
    v = v + v.T
    np.fill_diagonal(v, 1.0)
    return SimilarityMatrix(tuple(f"o{i}" for i in range(len(v))), v)


def random_matrix(rng, k):
    v = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            v[i, j] = v[j, i] = rng.uniform(0.0, 1.0)
    return SimilarityMatrix(tuple(f"o{i}" for i in range(k)), v)


def spanning_tree(matrix):
    """networkx's maximum spanning tree of the matrix, weights as edge data."""
    g = nx.Graph()
    k = len(matrix.ids)
    g.add_weighted_edges_from((i, j, float(matrix.values[i, j])) for i in range(k) for j in range(i + 1, k))
    return nx.maximum_spanning_tree(g)


def mst_levels(matrix):
    """Independent oracle: descending max-spanning-tree edge weights."""
    return tuple(sorted((w for _, _, w in spanning_tree(matrix).edges(data="weight")), reverse=True))


class TestSimilarityMatrix:
    def test_valid(self):
        m = THREE
        assert m.ids == ("1", "2", "3")
        assert m.values[0, 1] == 0.9
        assert not m.values.flags.writeable

    def test_from_association_takes_absolute_values(self):
        v = np.array([[1.0, -0.5], [-0.5, 1.0]])
        m = SimilarityMatrix.from_association(("a", "b"), v)
        assert m.values[0, 1] == 0.5

    def test_clamps_float_noise(self):
        v = np.array([[1.0 + 5e-10, 1.0 + 2e-10], [1.0 + 2e-10, 1.0]])
        m = SimilarityMatrix(("a", "b"), v)
        assert m.values[0, 0] == 1.0
        assert m.values[0, 1] == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(SpecError):
            SimilarityMatrix(("a", "a"), np.eye(2))
        with pytest.raises(SpecError):
            SimilarityMatrix(("a", "b"), np.eye(3))
        with pytest.raises(SpecError):
            SimilarityMatrix(("a", "b"), np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(SpecError):
            SimilarityMatrix(("a", "b"), np.array([[1.0, 1.1], [1.1, 1.0]]))
        with pytest.raises(SpecError):
            SimilarityMatrix(("a", "b"), np.array([[0.5, 0.2], [0.2, 0.5]]))
        with pytest.raises(SpecError):
            SimilarityMatrix(("a", "b"), np.array([[1.0, np.nan], [np.nan, 1.0]]))
        for ids in (("a", ""), ("a", 2), (None, "b")):
            with pytest.raises(SpecError, match="ids must be unique non-empty strings"):
                SimilarityMatrix(ids, np.eye(2))

    def test_accepts_numpys_correlation_matrix(self):
        walks = np.cumsum(np.random.default_rng(11).standard_normal((100, 365)), axis=1)
        r = np.corrcoef(walks)
        assert not np.array_equal(r, r.T) and np.abs(r - r.T).max() <= 1e-9
        ids = tuple(f"s{i}" for i in range(100))
        m = SimilarityMatrix.from_association(ids, r)
        want = SimilarityMatrix.from_association(ids, np.triu(r) + np.triu(r, 1).T)  # mirrored by hand
        assert np.array_equal(m.values, m.values.T) and np.array_equal(m.values, want.values)
        assert single_linkage(m).edges == single_linkage(want).edges

    def test_refuses_asymmetry_past_the_tolerance(self):
        v = np.array([[1.0, 0.5], [0.5 + 2e-9, 1.0]])
        with pytest.raises(SpecError, match=r"symmetric \(within 1e-9\)"):
            SimilarityMatrix(("a", "b"), v)
        assert SimilarityMatrix(("a", "b"), np.array([[1.0, 0.5], [0.5 + 5e-10, 1.0]])).values[1, 0] == 0.5

    @pytest.mark.parametrize(
        "build, edge, away, message",
        [
            (lambda v: [[1.0, v], [v, 1.0]], -1e-9, -1.0, "entries must lie in"),
            (lambda v: [[1.0, v], [v, 1.0]], 1.0 + 1e-9, 2.0, "entries must lie in"),
            (lambda v: [[1.0, 0.0], [v, 1.0]], 1e-9, 1.0, "must be symmetric"),
            # the largest d with |d - 1| <= 1e-9 as the check computes it; 1 + 1e-9 is past it
            (lambda v: [[v, 0.5], [0.5, 1.0]], np.nextafter(1.0 + 1e-9, 0.0), 2.0, "diagonal must be 1"),
        ],
        ids=["entry-low", "entry-high", "asymmetry", "diagonal"],
    )
    def test_each_tolerance_takes_its_edge_and_not_the_next_float(self, build, edge, away, message):
        SimilarityMatrix(("a", "b"), np.array(build(edge)))
        with pytest.raises(SpecError, match=message):
            SimilarityMatrix(("a", "b"), np.array(build(np.nextafter(edge, away))))


class TestSingleLinkage:
    def test_worked_example(self):
        tree = single_linkage(THREE)
        assert tree.levels() == (0.9, 0.3)
        assert tree.merges[0] == MergeStep(("1",), ("2",), 0.9)
        assert tree.merges[1] == MergeStep(("1", "2"), ("3",), 0.3)

    def test_two_objects(self):
        tree = single_linkage(sym("ab", {(0, 1): 0.4}))
        assert tree.levels() == (0.4,)

    def test_all_ties_use_first_pair_order(self):
        tree = single_linkage(sym("abc", {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}))
        assert tree.levels() == (0.5, 0.5)
        assert tree.merges[0].left == ("a",)
        assert tree.merges[0].right == ("b",)

    def test_rejects_single_object(self):
        with pytest.raises(SpecError):
            single_linkage(SimilarityMatrix(("solo",), np.ones((1, 1))))

    def test_levels_non_increasing(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            tree = single_linkage(random_matrix(rng, int(rng.integers(2, 9))))
            lv = tree.levels()
            assert all(a >= b for a, b in zip(lv, lv[1:]))

    def test_matches_spanning_tree_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            m = random_matrix(rng, int(rng.integers(4, 8)))
            assert single_linkage(m).levels() == mst_levels(m)

    def test_monotone_transform_keeps_topology(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            m = random_matrix(rng, 6)
            base = set(single_linkage(m).nodes())
            for f in (lambda s: s * s, lambda s: (1.0 + s) / 2.0):
                v = f(m.values.copy())
                np.fill_diagonal(v, 1.0)
                assert set(single_linkage(SimilarityMatrix(m.ids, v)).nodes()) == base

    @pytest.mark.parametrize("step", [None, 1 / 2, 1 / 3, 1 / 5])
    def test_matches_reference_merge_for_merge(self, step):
        rng = np.random.default_rng(65)
        for _ in range(150):
            k = int(rng.integers(2, 41))
            v = rng.uniform(0.0, 1.0, (k, k))
            if step is not None:  # tie-heavy: entries on a coarse grid
                v = np.round(v / step) * step
            m = from_upper(v)
            assert single_linkage(m).merges == _reference_single_linkage(m).merges

    def test_matches_scipy_node_for_node(self):
        # in a child process; tests/scipy_oracle.py says why
        oracle = Path(__file__).with_name("scipy_oracle.py")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, str(oracle)], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (0, "296 matrices match\n", "")

    @pytest.mark.parametrize("step", [None, 1 / 2, 1 / 3, 1 / 5])
    def test_edges_are_the_maximum_spanning_tree(self, step):
        rng = np.random.default_rng(65)
        for _ in range(60):
            k = int(rng.integers(2, 41))
            v = rng.uniform(0.0, 1.0, (k, k))
            if step is not None:  # tie-heavy: entries on a coarse grid
                v = np.round(v / step) * step
            m = from_upper(v)
            tree = single_linkage(m)
            assert len(tree.edges) == k - 1
            assert all(i < j and level == m.values[i, j] for i, j, level in tree.edges)
            if step is None:  # distinct entries: the maximum spanning tree is unique
                assert {frozenset((i, j)) for i, j, _ in tree.edges} == set(map(frozenset, spanning_tree(m).edges))
            assert tree.levels() == mst_levels(m)
            assert _replayed_nodes(tree) == tree.nodes()

    def test_all_equal_matches_reference(self):
        for k in (2, 3, 7, 25):
            m = from_upper(np.full((k, k), 0.25))
            assert single_linkage(m).merges == _reference_single_linkage(m).merges

    def test_large_matrix_is_fast(self):
        rng = np.random.default_rng(66)
        m = from_upper(rng.uniform(0.0, 1.0, (1000, 1000)))
        start = time.perf_counter()
        tree = single_linkage(m)
        assert time.perf_counter() - start < 1.0
        lv = tree.levels()
        assert len(lv) == 999
        assert all(a >= b for a, b in zip(lv, lv[1:]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(64)
        m = random_matrix(rng, 7)
        perm = rng.permutation(7)
        pm = SimilarityMatrix(
            tuple(m.ids[p] for p in perm), m.values[np.ix_(perm, perm)]
        )
        assert set(single_linkage(pm).nodes()) == set(single_linkage(m).nodes())
        assert sorted(single_linkage(pm).levels()) == sorted(single_linkage(m).levels())


class TestDendrogram:
    def test_structure_validation(self):
        with pytest.raises(SpecError):
            Dendrogram(("a", "b", "c"), (MergeStep(("a",), ("b",), 0.5),))
        with pytest.raises(SpecError):
            Dendrogram(
                ("a", "b", "c"),
                (
                    MergeStep(("a",), ("b",), 0.2),
                    MergeStep(("a", "b"), ("c",), 0.7),
                ),
            )
        abc = ("a", "b", "c")
        refused = [
            # the second merge re-joins "a", already merged with "b"
            ("merge 2 ", abc, (MergeStep(("a",), ("b",), 0.5), MergeStep(("a",), ("c",), 0.4))),
            # "z" is no leaf
            ("merge 1 ", abc, (MergeStep(("a",), ("z",), 0.5), MergeStep(("a", "z"), ("c",), 0.4))),
            # one cluster on both sides, and a side that repeats a leaf
            ("merge 1 ", ("a", "b"), (MergeStep(("a",), ("a",), 0.5),)),
            ("merge 1 ", abc, (MergeStep(("a", "a"), ("b",), 0.5), MergeStep(("a", "b"), ("c",), 0.4))),
            ("non-empty", (), ()),
            ("unique", ("a", "a"), (MergeStep(("a",), ("a",), 0.5),)),
            ("non-empty strings", ("a", ""), (MergeStep(("a",), ("",), 0.5),)),
            ("non-empty strings", ("a", 2), (MergeStep(("a",), (2,), 0.5),)),
            (
                "merge 1 has a non-finite",
                abc,
                (MergeStep(("a",), ("b",), float("nan")), MergeStep(("a", "b"), ("c",), 0.4)),
            ),
        ]
        for match, leaves, merges in refused:
            with pytest.raises(SpecError, match=match):
                Dendrogram(leaves, merges)

    def test_nodes(self):
        tree = single_linkage(THREE)
        assert frozenset({"1", "2"}) in tree.nodes()
        assert frozenset({"1", "2", "3"}) in tree.nodes()
        assert frozenset({"1", "3"}) not in tree.nodes()

    @pytest.mark.parametrize("step", [None, 1 / 2, 1 / 3, 1 / 5])
    def test_nodes_match_reference_node_for_node(self, step):
        rng = np.random.default_rng(70)
        trees = list(HAND_BUILT)
        for _ in range(60):
            k = int(rng.integers(2, 41))
            v = rng.uniform(0.0, 1.0, (k, k))
            if step is not None:  # tie-heavy: entries on a coarse grid
                v = np.round(v / step) * step
            trees.append(single_linkage(from_upper(v)))
        for tree in trees:
            assert tree.nodes() == _reference_nodes(tree)

    def test_contains_cluster_on_nodes_and_on_other_subsets(self):
        rng = np.random.default_rng(71)
        trees = list(HAND_BUILT)
        trees += [single_linkage(random_matrix(rng, int(rng.integers(2, 13)))) for _ in range(40)]
        others = 0
        for tree in trees:
            nodes = set(_reference_nodes(tree))
            assert all(contains_cluster(tree, node) for node in nodes)
            for _ in range(20):
                size = int(rng.integers(1, len(tree.leaves) + 1))
                subset = frozenset(rng.choice(tree.leaves, size, replace=False).tolist())
                if subset not in nodes:
                    others += 1
                    assert not contains_cluster(tree, subset)
        assert others > 200

    def test_hand_built_edges_replay_to_the_same_nodes(self):
        for tree in HAND_BUILT:
            assert _replayed_nodes(tree) == tree.nodes()
            assert tree.levels() == tuple(m.level for m in tree.merges)
            # each merge is an edge between the first leaves its two sides list
            firsts = tuple((tree.leaves[i], tree.leaves[j]) for i, j, _ in tree.edges)
            assert firsts == tuple((m.left[0], m.right[0]) for m in tree.merges)

    @pytest.mark.parametrize("step", [None, 1 / 2, 1 / 3, 1 / 5])
    def test_contains_cluster_matches_reference(self, step):
        rng = np.random.default_rng(65)
        trees = list(HAND_BUILT) + [chain(k) for k in (2, 7, 30)]
        for _ in range(40):
            k = int(rng.integers(2, 41))
            v = rng.uniform(0.0, 1.0, (k, k))
            if step is not None:  # tie-heavy: entries on a coarse grid
                v = np.round(v / step) * step
            trees.append(single_linkage(from_upper(v)))
        others = 0
        for tree in trees:
            for node in tree.nodes():
                assert contains_cluster(tree, node) and _reference_contains(tree, node)
            for _ in range(10):
                size = int(rng.integers(1, len(tree.leaves) + 1))
                subset = rng.choice(tree.leaves, size, replace=False).tolist()
                others += not _reference_contains(tree, subset)
                assert contains_cluster(tree, subset) == _reference_contains(tree, subset)
        assert others > 150

    def test_queries_build_no_member_sets(self, monkeypatch):
        m = from_upper(np.random.default_rng(72).uniform(0.0, 1.0, (300, 300)))
        groups = sorted(cut(single_linkage(m), 150), key=len)[-4:]  # nodes of 11 to 17 leaves
        clusters = [*groups, groups[0][1:], groups[0] + groups[1][:1], m.ids[:40], m.ids[7:8]]
        expected = [_reference_contains(single_linkage(m), c) for c in clusters]
        assert True in expected and False in expected

        def refuse(tree):
            raise AssertionError("nodes() builds every node's member set")

        monkeypatch.setattr(Dendrogram, "nodes", refuse)
        tree = single_linkage(m)
        assert [contains_cluster(tree, c) for c in clusters] == expected
        assert sorted(cut(tree, 150), key=len)[-4:] == groups
        assert tree.to_newick().endswith(";")
        assert "merges" not in vars(tree)

    def test_contains_cluster(self):
        tree = single_linkage(THREE)
        assert contains_cluster(tree, {"1", "2"})
        assert not contains_cluster(tree, {"1", "3"})
        assert contains_cluster(tree, {"1", "2", "3"})
        assert contains_cluster(tree, {"3"})
        with pytest.raises(SpecError):
            contains_cluster(tree, set())
        with pytest.raises(SpecError):
            contains_cluster(tree, {"1", "zzz"})

    def test_cut(self):
        tree = single_linkage(THREE)
        assert cut(tree, 2) == (("1", "2"), ("3",))
        assert cut(tree, 1) == (("1", "2", "3"),)
        assert cut(tree, 3) == (("1",), ("2",), ("3",))
        with pytest.raises(SpecError):
            cut(tree, 0)
        with pytest.raises(SpecError):
            cut(tree, 4)

    @pytest.mark.parametrize("step", [None, 1 / 2, 1 / 3, 1 / 5])
    def test_cut_matches_reference_at_every_k(self, step):
        rng = np.random.default_rng(67)
        for _ in range(60):
            k = int(rng.integers(2, 41))
            v = rng.uniform(0.0, 1.0, (k, k))
            if step is not None:  # tie-heavy: entries on a coarse grid
                v = np.round(v / step) * step
            tree = single_linkage(from_upper(v))
            for size in range(1, k + 1):
                assert cut(tree, size) == _reference_cut(tree, size)

    def test_cut_hand_built_trees_matches_reference(self):
        for tree in HAND_BUILT:
            for size in range(1, len(tree.leaves) + 1):
                assert cut(tree, size) == _reference_cut(tree, size)

    def test_cut_of_a_long_chain_is_linear(self):
        tree = chain(1000)
        start = time.perf_counter()
        groups = [cut(tree, size) for size in range(1, 201)]
        assert time.perf_counter() - start < 1.0
        for size in (1, 2, 3, 57, 200):
            assert groups[size - 1] == _reference_cut(tree, size)

    def test_newick(self):
        assert single_linkage(THREE).to_newick() == "((1:0.1,2:0.1):0.7,3:0.7);"

    def test_newick_quotes_ids_it_cannot_hold_bare(self):
        tree = single_linkage(sym(("a:1", "b(2)", "it's"), {(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.3}))
        assert tree.to_newick() == "(('a:1':0.1,'b(2)':0.1):0.7,'it''s':0.7);"
        for leaf in ("c;3", "p,q", "[z]", "x y", "tab\there", ")"):
            tree = single_linkage(sym((leaf, "s1_x.2-b"), {(0, 1): 0.5}))
            assert tree.to_newick() == f"('{leaf}':0.5,s1_x.2-b:0.5);"

    def test_text_and_json(self):
        tree = single_linkage(THREE)
        text = tree.to_text()
        assert text.splitlines()[0] == "leaves: 1, 2, 3"
        assert "merge 1" in text and "merge 2" in text
        payload = json.loads(tree.to_json())
        assert payload["leaves"] == ["1", "2", "3"]
        assert payload["merges"][0]["level"] == 0.9
