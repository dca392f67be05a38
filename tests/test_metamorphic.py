"""Metamorphic relations of the whole pipeline: association matrix, then single linkage.

Each relation changes the input in a way the measures' traits say the tree
cannot see, and compares the tree's node sets and |A| with the unchanged run.
The inputs are the 12 measures of the stock grid on the synthetic data at
seeds 0-2. Random offsets are left out: they make the standardization's
condition number large, and the bound on what they move belongs to that
analysis, not to these relations. Two relations change something else the
tree cannot see: the decay of a branch measure, and, on tie-heavy similarity
matrices, the order of the objects.
"""

import dataclasses
import functools

import numpy as np
import pytest

from shapeassoc import (
    ExpDecay,
    RationalDecay,
    SeriesSet,
    SimilarityMatrix,
    SyntheticDataset,
    TimeSeries,
    association_matrix,
    cut,
    default_grid_measures,
    generate_synthetic,
    single_linkage,
)
from shapeassoc.standardize import standardize_values
from test_cluster import from_upper

SEEDS = (0, 1, 2)
GRID = {m.name: m.measure for m in default_grid_measures(None)}
CENTERS = sorted({name.split("-", 1)[1] for name in GRID})
BRANCHES = sorted(name for name in GRID if name.startswith("branch-"))
# At seeds 0-4 the most |A| moved under negation was 3.9e-16, and the most either
# closed form of the r = 2 identity missed was 7.0e-15.
_NEGATION_TOL = 1e-15
_IDENTITY_TOL = 1e-14


@functools.cache
def _data(seed: int) -> SeriesSet:
    return generate_synthetic(SyntheticDataset(seed=seed))[0]


def _mapped(data: SeriesSet, order, f) -> SeriesSet:
    """The series at `order`, each with values f(i, values), its id kept."""
    return SeriesSet(tuple(TimeSeries(data[i].id, f(i, data[i].values)) for i in order))


def _run(name: str, data: SeriesSet) -> tuple[np.ndarray, set]:
    """|A| over `data` in its order, and the node sets of its single-linkage tree."""
    assoc = association_matrix(GRID[name], data)
    tree = single_linkage(SimilarityMatrix.from_association(assoc.ids, assoc.values))
    return np.abs(assoc.values), set(tree.nodes())


@functools.cache
def _unchanged(name: str, seed: int) -> tuple[np.ndarray, set]:
    return _run(name, _data(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GRID))
class TestRelations:
    def test_negating_a_subset_keeps_the_tree(self, name, seed):
        data = _data(seed)
        flip = np.random.default_rng(seed).random(len(data)) < 0.5
        negated = _mapped(data, range(len(data)), lambda i, v: -v if flip[i] else v)
        values, nodes = _run(name, negated)
        before, before_nodes = _unchanged(name, seed)
        assert nodes == before_nodes
        assert np.max(np.abs(values - before)) <= _NEGATION_TOL

    def test_scaling_each_series_by_a_power_of_two_keeps_abs_a(self, name, seed):
        data = _data(seed)
        powers = np.random.default_rng(seed).integers(-20, 21, len(data))
        scaled = _mapped(data, range(len(data)), lambda i, v: np.ldexp(v, powers[i]))
        assert np.array_equal(_run(name, scaled)[0], _unchanged(name, seed)[0])

    def test_permuting_the_input_keeps_the_tree(self, name, seed):
        data = _data(seed)
        order = np.random.default_rng(seed).permutation(len(data))
        assert _run(name, _mapped(data, order, lambda i, v: v))[1] == _unchanged(name, seed)[1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("center", CENTERS)
def test_branch_and_contrast_are_closed_forms_of_one_cosine(center, seed):
    """At r = 2 with ||F(v)||_2 = 1 and g = F(x).F(y), D(x, -+y)^2 = 2 +- 2g, so the
    contrast value is g and the branch value sign(g) / (1 + sqrt(2 - 2|g|)): both
    increase with |g|, and single linkage, which reads only their order, gives
    one tree."""
    data = _data(seed)
    branch, contrast = GRID[f"branch-{center}"], GRID[f"contrast-{center}"]
    f = np.array([standardize_values(contrast.dissimilarity.standardization, s.values) for s in data])
    g = f @ f.T
    off = ~np.eye(len(data), dtype=bool)
    by_contrast = association_matrix(contrast, data).values
    by_branch = association_matrix(branch, data).values
    assert np.max(np.abs(by_contrast - g)[off]) <= _IDENTITY_TOL
    closed = np.sign(g) / (1.0 + np.sqrt(np.maximum(2.0 - 2.0 * np.abs(g), 0.0)))
    assert np.max(np.abs(by_branch - closed)[off]) <= _IDENTITY_TOL
    assert _unchanged(f"branch-{center}", seed)[1] == _unchanged(f"contrast-{center}", seed)[1]


@pytest.mark.parametrize("decay", [ExpDecay(), RationalDecay(0.5), RationalDecay(3.0)], ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BRANCHES)
def test_swapping_the_decay_of_a_branch_measure_keeps_the_tree(name, seed, decay):
    """A branch value is +-decay(D) of the closer orientation. Every decay falls
    strictly, so |A| keeps its order, and so does the tree, which reads only that
    order; the sign, which single linkage ignores, comes from the branch."""
    swapped = dataclasses.replace(GRID[name], decay=decay)
    assoc = association_matrix(swapped, _data(seed))
    tree = single_linkage(SimilarityMatrix.from_association(assoc.ids, assoc.values))
    assert set(tree.nodes()) == _unchanged(name, seed)[1]


def _partitions(tree) -> dict[float, set]:
    """For each distinct merge level l, the partition once every merge at a level >= l is made."""
    k = len(tree.leaves)
    levels = [m.level for m in tree.merges]
    return {
        level: {frozenset(group) for group in cut(tree, k - sum(v >= level for v in levels))}
        for level in set(levels)
    }


@pytest.mark.parametrize("step", [1 / 2, 1 / 3, 1 / 5])
def test_permuting_a_tie_heavy_matrix_keeps_the_partition_at_every_level(step):
    """Which of several tied pairs merges first depends on the (row, column)
    order, so node sets may differ; the partition at each level may not, since
    it holds the components of the pairs at that level or above."""
    rng, order_rng = np.random.default_rng(65), np.random.default_rng(66)
    for _ in range(150):  # the generator of test_cluster's tie-heavy checks
        k = int(rng.integers(2, 41))
        m = from_upper(np.round(rng.uniform(0.0, 1.0, (k, k)) / step) * step)
        order = order_rng.permutation(k)
        permuted = SimilarityMatrix(tuple(m.ids[i] for i in order), m.values[np.ix_(order, order)])
        assert _partitions(single_linkage(permuted)) == _partitions(single_linkage(m))
