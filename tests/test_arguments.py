"""Public functions read their raw arguments with the spec field rule.

Each call below passes one misfit: an int too long to write, a float where an
int is expected, a bool, a str or an int where a sequence is expected, an int
where a callable is expected, or a length no array can have. Each raises
SpecError, whose message starts with the argument's name (`Probe.<field>` for a
`Probe` field, as for any spec) or is the function's own refusal, never a bare
ValueError, TypeError or AttributeError, and never builds.
"""

import sys

import numpy as np
import pytest

from shapeassoc import (
    Dendrogram,
    MergeStep,
    Pearson,
    Probe,
    PropertyId,
    SimilarityMatrix,
    SpecError,
    constant_series,
    contains_cluster,
    cut,
    load_set,
    parse_dataset_text,
    preset,
    replay,
    single_linkage,
    verify,
)
from shapeassoc.bench import benchmark_spec_from_dict

_HUGE = 10**5000
_LONG = "must have at most 4300 digits, got an integer of 5001 digits"
_SYM = (PropertyId.SYMMETRY,)
_ROWS = [[1, 2], [3, 5]]
_TEXT = "1 2 3\n4 5 6\n"  # with has_ids, the first field of each line would be an id
_TREE = single_linkage(SimilarityMatrix(("a", "b", "c"), [[1.0, 0.9, 0.2], [0.9, 1.0, 0.3], [0.2, 0.3, 1.0]]))
_MATRIX_IDS = "similarity matrix ids must be unique non-empty strings"
_LEAVES = "dendrogram leaves must be one or more unique non-empty strings"


def _zero(vx, vy):
    return 0.0


def _probe(**kwargs):
    return Probe(**{"kind": "association", "fn": _zero, "name": "p", **kwargs})


def _tree(level):
    return Dendrogram(("a", "b"), (MergeStep(("a",), ("b",), level),))


# (id, call, the start of its message)
_MISFITS = [
    ("verify-seed-huge", lambda: verify(Pearson(), _SYM, trials=5, seed=-_HUGE), f"seed {_LONG}"),
    ("verify-trials-huge", lambda: verify(Pearson(), _SYM, trials=-_HUGE), f"trials {_LONG}"),
    ("verify-n_range-huge", lambda: verify(Pearson(), _SYM, trials=5, n_range=(3, _HUGE)), f"n_range {_LONG}"),
    ("verify-n_range-bool", lambda: verify(Pearson(), _SYM, n_range=True), "n_range must be a tuple, got True"),
    ("verify-n_range-str", lambda: verify(Pearson(), _SYM, n_range="ab"), "n_range must be a tuple, got 'ab'"),
    # numpy draws no length past int64, and no array holds more than intp max // 8 float64 values
    (
        "verify-n_range-past-int64",
        lambda: verify(Pearson(), _SYM, trials=5, n_range=(3, 2**63)),
        f"bad n_range (3, {2**63}); it needs 2 <= start <= end <= {2**60 - 1}",
    ),
    (
        "verify-n_range-past-arrays",
        lambda: verify(Pearson(), _SYM, trials=5, n_range=(3, 2**62)),
        f"bad n_range (3, {2**62}); it needs 2 <= start <= end <= {2**60 - 1}",
    ),
    # the subject's least length, not the requested n_range, is what numpy would be asked for
    (
        "verify-min_n-past-arrays",
        lambda: verify(_probe(min_n=2**61), trials=1),
        f"the subject's least length {2**61} is past {2**60 - 1}, the most values an array holds",
    ),
    (
        "verify-min_n-past-int64",
        lambda: verify(_probe(min_n=2**62), trials=1),
        f"the subject's least length {2**62} is past {2**60 - 1}, the most values an array holds",
    ),
    ("verify-tol-huge", lambda: verify(Pearson(), _SYM, tol=-_HUGE), "tol must be >= 0, got an integer of 5001 digits"),
    ("verify-properties-huge", lambda: verify(Pearson(), _HUGE, trials=5), f"properties {_LONG}"),
    ("verify-properties-bool", lambda: verify(Pearson(), True, trials=5), "properties must be a tuple, got True"),
    ("verify-properties-str", lambda: verify(Pearson(), "symmetry"), "properties must be a tuple, got 'symmetry'"),
    ("probe-min_n-huge", lambda: _probe(min_n=_HUGE), f"Probe.min_n {_LONG}"),
    ("probe-kind-huge", lambda: _probe(kind=_HUGE), f"Probe.kind {_LONG}"),
    ("probe-name-float", lambda: _probe(name=2.0), "Probe.name must be a string, got 2.0"),
    ("probe-name-bool", lambda: _probe(name=True), "Probe.name must be a string, got True"),
    ("probe-fn-int", lambda: _probe(fn=5), "Probe.fn must be a Callable, got int"),
    ("probe-fn-huge", lambda: _probe(fn=_HUGE), f"Probe.fn {_LONG}"),
    ("replay-witness-huge", lambda: replay(Pearson(), _HUGE), f"witness {_LONG}"),
    ("replay-witness-float", lambda: replay(Pearson(), 1.5), "witness must be a Witness, got float"),
    ("replay-witness-bool", lambda: replay(Pearson(), True), "witness must be a Witness, got bool"),
    ("replay-witness-str", lambda: replay(Pearson(), "symmetry"), "witness must be a Witness, got str"),
    ("preset-name-huge", lambda: preset(_HUGE), f"name {_LONG}"),
    ("preset-r-huge", lambda: preset("center-mean", r=_HUGE), f"r {_LONG}"),
    ("preset-k-huge", lambda: preset("center-mean", k=_HUGE), f"k {_LONG}"),
    ("preset-m-huge", lambda: preset("unit-gmidrange", m=_HUGE), f"m {_LONG}"),
    ("preset-k-float", lambda: preset("center-mean", k=0.0), "k must be an integer, got 0.0"),
    ("preset-m-float", lambda: preset("unit-gmidrange", m=2.0), "m must be an integer, got 2.0"),
    ("preset-k-bool", lambda: preset("center-mean", k=False), "k must be an integer, got False"),
    ("preset-r-bool", lambda: preset("center-mean", r=True), "r must be a real number, got True"),
    ("cut-k-huge", lambda: cut(_TREE, _HUGE), f"k {_LONG}"),
    ("cut-k-float", lambda: cut(_TREE, 2.0), "k must be an integer, got 2.0"),
    ("cut-k-bool", lambda: cut(_TREE, True), "k must be an integer, got True"),
    ("constant_series-n-huge", lambda: constant_series(1.0, _HUGE), f"n {_LONG}"),
    ("constant_series-n-float", lambda: constant_series(1.0, 3.0), "n must be an integer, got 3.0"),
    ("constant_series-n-bool", lambda: constant_series(1.0, True), "n must be an integer, got True"),
    (
        "benchmark-config-huge",
        lambda: benchmark_spec_from_dict(_HUGE),
        "benchmark config must be an object, got an integer of 5001 digits",
    ),
    ("load_set-ids-huge", lambda: load_set(_ROWS, ids=_HUGE), f"ids {_LONG}"),
    ("load_set-ids-float", lambda: load_set(_ROWS, ids=(1.0, 2.0)), "ids must be a string, got 1.0"),
    ("load_set-ids-bool", lambda: load_set(_ROWS, ids=True), "ids must be a tuple, got True"),
    ("load_set-ids-str", lambda: load_set(_ROWS, ids="ab"), "ids must be a tuple, got 'ab'"),
    ("matrix-ids-str", lambda: SimilarityMatrix("ab", np.eye(2)), _MATRIX_IDS),
    ("matrix-ids-int", lambda: SimilarityMatrix(5, np.eye(2)), _MATRIX_IDS),
    ("dendrogram-leaves-str", lambda: Dendrogram("ab", (MergeStep(("a",), ("b",), 0.5),)), _LEAVES),
    ("dendrogram-leaves-int", lambda: Dendrogram(5, ()), _LEAVES),
    ("dendrogram-merges-huge", lambda: Dendrogram(("a", "b"), _HUGE), f"merges {_LONG}"),
    ("dendrogram-merges-int", lambda: Dendrogram(("a", "b"), (5,)), "merges must be a MergeStep, got int"),
    ("dendrogram-merges-str", lambda: Dendrogram(("a", "b"), "ab"), "merges must be a tuple, got 'ab'"),
    ("dendrogram-level-huge", lambda: _tree(_HUGE), "merge 1 has a non-finite level an integer of 5001"),
    ("dendrogram-level-bool", lambda: _tree(True), "merge 1 level must be a real number, got True"),
    ("dendrogram-level-str", lambda: _tree("0.5"), "merge 1 level must be a real number, got '0.5'"),
    (
        "dendrogram-levels-str",
        lambda: Dendrogram(("a", "b", "c"), (MergeStep(("a",), ("b",), "x"), MergeStep(("a", "b"), ("c",), 0.4))),
        "merge 1 level must be a real number, got 'x'",
    ),
    ("contains_cluster-huge", lambda: contains_cluster(_TREE, _HUGE), f"cluster {_LONG}"),
    ("contains_cluster-float", lambda: contains_cluster(_TREE, [1.0]), "cluster must be a string, got 1.0"),
    ("contains_cluster-bool", lambda: contains_cluster(_TREE, True), "cluster must be a tuple, got True"),
    ("contains_cluster-str", lambda: contains_cluster(_TREE, "ab"), "cluster must be a tuple, got 'ab'"),
    ("parse-has_ids-huge", lambda: parse_dataset_text(_TEXT, has_ids=_HUGE), f"has_ids {_LONG}"),
    ("parse-has_ids-float", lambda: parse_dataset_text(_TEXT, has_ids=1.0), "has_ids must be a boolean, got 1.0"),
    ("parse-delimiter-huge", lambda: parse_dataset_text(_TEXT, delimiter=_HUGE), f"delimiter {_LONG}"),
    ("parse-orientation-bool", lambda: parse_dataset_text(_TEXT, orientation=True), "orientation must be a string, got True"),
    ("parse-has_ids-str", lambda: parse_dataset_text(_TEXT, has_ids="no"), "has_ids must be a boolean, got 'no'"),
]


@pytest.fixture
def default_digit_limit():
    """Python's default limit on the digits of an int it writes, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.usefixtures("default_digit_limit")
class TestArgumentsFollowTheFieldRule:
    @pytest.mark.parametrize("call, message", [case[1:] for case in _MISFITS], ids=[case[0] for case in _MISFITS])
    def test_a_misfit_is_a_spec_error_naming_the_argument(self, call, message):
        with pytest.raises(SpecError) as exc:
            call()
        assert str(exc.value).startswith(message)
