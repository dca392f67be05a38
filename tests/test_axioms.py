import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shapeassoc import (
    AbsSimilarity,
    ArithmeticMean,
    Center,
    CenterScale,
    ComplementDecay,
    ConstantSeriesError,
    CosineStandardized,
    DissimilaritySpec,
    GeneralizedMidrange,
    GeneralizedMidrangeCorrelation,
    Max,
    Median,
    Midrange,
    Min,
    MinkowskiBranch,
    MinkowskiDeviation,
    OrderStatistic,
    OrderedWeightedMean,
    Pearson,
    Probe,
    Projection,
    PropertyId,
    RationalDecay,
    SimilarityBranch,
    SimilarityRecipe,
    SpecError,
    TruncatedMean,
    WeightedMean,
    applicable_properties,
    default_grid_measures,
    preset,
    replay,
    verify,
)
from shapeassoc import measures
from shapeassoc.axioms import _STYLES, SAM_PROPERTIES, _draw_series, _draw_trial, describe_subject

from axiom_cases import CRITERION_3_PROPS, CRITERION_3_SUBJECTS, coverage_suite
from implications import implication_checks

UNIT_MEAN = preset("unit-mean")
D2_UNIT = DissimilaritySpec(2.0, UNIT_MEAN)
RECIPE_UNIT = SimilarityRecipe(D2_UNIT, RationalDecay(1.0))
_KINDS = ("association", "similarity", "dissimilarity")
MIN_CENTER_BRANCH = SimilarityBranch(
    SimilarityRecipe(DissimilaritySpec(2.0, Center(Min())), RationalDecay(1.0))
)


class TestKinds:
    def test_subject_kinds(self):
        assert Pearson().kind == "association"
        assert D2_UNIT.kind == "dissimilarity"
        assert RECIPE_UNIT.kind == "similarity"
        assert AbsSimilarity(Pearson()).kind == "similarity"

    def test_applicable_properties(self):
        assoc = applicable_properties(Pearson())
        assert PropertyId.ASSOC_REFLEXIVITY in assoc
        assert PropertyId.SIM_REFLEXIVITY not in assoc
        assert PropertyId.DISSIM_SELF_ZERO not in assoc
        dis = applicable_properties(D2_UNIT)
        assert PropertyId.DISSIM_SELF_ZERO in dis
        assert PropertyId.INVERSE_RELATIONSHIP not in dis
        sim = applicable_properties(RECIPE_UNIT)
        assert PropertyId.SIM_REFLEXIVITY in sim
        assert PropertyId.SIGN_PERMUTATION in sim

    def test_describe_subject_is_json_ready(self):
        import json

        for subject in (Pearson(), D2_UNIT, RECIPE_UNIT, AbsSimilarity(Pearson())):
            json.dumps(describe_subject(subject))


def _per_kind_range_violation(value: float, kind: str, upper: float | None) -> float:
    # the range-bounds formula that branched on kind, kept as the oracle of `limits`
    if kind == "association":
        return max(0.0, abs(value) - 1.0)
    if kind == "similarity":
        return max(0.0, -value, value - 1.0)
    v = max(0.0, -value)
    return v if upper is None else max(v, value - upper)


def _identical(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestSubjectProtocol:
    def test_range_bounds_matches_the_per_kind_formula(self):
        d2_center = DissimilaritySpec(2.0, Center(ArithmeticMean()))
        assert D2_UNIT.normal and not d2_center.normal
        # (subject whose limits are used, its kind, the old upper bound)
        subjects = [
            (Pearson(), "association", None),
            (RECIPE_UNIT, "similarity", None),
            (AbsSimilarity(Pearson()), "similarity", None),
            (D2_UNIT, "dissimilarity", 2.0),
            (d2_center, "dissimilarity", None),
        ]
        # only the probes' limits are read: their fn is never called
        subjects += [(Probe(kind, lambda vx, vy: 0.0, "p"), kind, None) for kind in _KINDS]
        points = (-1.0, -0.0, 0.0, 1.0, 2.0)
        values = list(points) + [math.nextafter(p, to) for p in points for to in (-1e9, 1e9)]
        values += np.random.default_rng(71).uniform(-3.0, 3.0, 300).tolist()
        values += [-math.inf, math.inf, -1e300, 1e300]
        x = y = np.arange(3.0)
        for subject, kind, upper in subjects:
            for value in values:
                stand_in = SimpleNamespace(limits=subject.limits, checked=lambda vx, vy: value)
                got = PropertyId.RANGE_BOUNDS.violation(stand_in, x, y, {})
                want = _per_kind_range_violation(value, kind, upper)
                assert _identical(got, want), (subject, value, got, want)

    def test_every_coverage_subject_exposes_the_protocol(self):
        for case in coverage_suite():
            s = case.subject
            assert s.kind in _KINDS, case.label
            min_n, exact_n = s.bounds
            assert min_n >= 2 and exact_n is None, case.label
            lo, hi = s.limits
            assert lo < hi, case.label
            assert callable(s.checked), case.label

    def test_checked_goes_through_the_module_entry_points(self, monkeypatch):
        # a tracer that rebinds these module globals must see every checked call
        calls = []

        def counted(name):
            original = getattr(measures, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("associate_values", "dissimilarity_values"):
            monkeypatch.setattr(measures, name, counted(name))
        x, y = np.array([1.0, 3.0, 2.0]), np.array([2.0, 1.0, 5.0])
        assert Pearson().checked(x, y) == Pearson().evaluate(x, y)
        assert calls == ["associate_values"]
        D2_UNIT.checked(x, y)
        assert calls == ["associate_values", "dissimilarity_values"]

    def test_probe_is_described_by_its_kind_and_name(self):
        probe = Probe("dissimilarity", lambda vx, vy: 0.0, "zero", min_n=4)
        want = {"subject": "dissimilarity", "kind": "probe", "name": "zero"}
        assert describe_subject(probe) == want
        assert probe.limits == (0.0, math.inf)

    @pytest.mark.parametrize("min_n", ["3", 10.5, True, None])
    def test_probe_min_n_must_be_an_integer(self, min_n):
        with pytest.raises(SpecError) as exc:
            Probe("association", lambda vx, vy: 0.0, "p", min_n=min_n)
        assert str(exc.value) == f"Probe.min_n must be an integer, got {min_n!r}"

    def test_probe_min_n_is_stored_as_an_int(self):
        probe = Probe("association", lambda vx, vy: 0.0, "p", min_n=np.int64(10))
        assert type(probe.min_n) is int and probe.bounds == (10, None)
        report = verify(probe, (PropertyId.SYMMETRY,), trials=3)
        assert report.n_range == (10, 60) and json.loads(report.to_json())["n_range"] == [10, 60]


class TestVerify:
    def test_pearson_satisfies_the_association_axioms(self):
        report = verify(Pearson(), SAM_PROPERTIES, trials=200, seed=0)
        assert report.passed()
        for prop in SAM_PROPERTIES:
            r = report.result(prop)
            assert r.status == "pass"
            assert r.trials == 200
            assert r.witness is None
            assert r.worst_violation <= 1e-8

    @pytest.mark.parametrize("subject, count", [(Pearson(), 10), (RECIPE_UNIT, 13), (D2_UNIT, 7)])
    def test_default_properties_are_the_applicable_ones_in_order(self, subject, count):
        report = verify(subject, trials=5)
        checked = tuple(r.property for r in report.results)
        assert checked == applicable_properties(subject)
        assert checked == tuple(p for p in PropertyId if p in checked) and len(checked) == count

    def test_readme_quick_start_measure_passes(self):
        std = CenterScale(Median(), MinkowskiDeviation(2.0, Median()))
        measure = MinkowskiBranch(DissimilaritySpec(2.0, std), RationalDecay(1.0))
        report = verify(measure, seed=0)
        assert report.passed() and len(report.results) == 10

    def test_scale_invariance_also_holds_for_pearson(self):
        report = verify(
            Pearson(),
            (PropertyId.SCALE_INVARIANCE, PropertyId.AFFINE_SIGN_RULE),
            trials=200,
            seed=1,
        )
        assert report.passed()

    def test_center_only_branch_is_not_scale_invariant(self):
        spec = MinkowskiBranch(DissimilaritySpec(2.0, preset("center-mean")))
        report = verify(spec, (PropertyId.SCALE_INVARIANCE,), trials=100, seed=0)
        assert report.failures() == (PropertyId.SCALE_INVARIANCE,)

    def test_min_centered_branch_fails_inverse_relationship_with_witness(self):
        report = verify(MIN_CENTER_BRANCH, (PropertyId.INVERSE_RELATIONSHIP,), trials=200, seed=0)
        result = report.result(PropertyId.INVERSE_RELATIONSHIP)
        assert result.status == "fail"
        assert result.witness is not None
        assert result.worst_violation > 1e-8

    def test_witness_replays_to_the_same_violation(self):
        report = verify(MIN_CENTER_BRANCH, (PropertyId.INVERSE_RELATIONSHIP,), trials=200, seed=0)
        witness = report.result(PropertyId.INVERSE_RELATIONSHIP).witness
        assert replay(MIN_CENTER_BRANCH, witness) == witness.violation

    def test_raised_witness_replays_to_inf(self):
        subject = SimilarityRecipe(DissimilaritySpec(2.0, Center(ArithmeticMean())), ComplementDecay())
        report = verify(subject, (PropertyId.SYMMETRY,), trials=50, seed=0)
        witness = report.result(PropertyId.SYMMETRY).witness
        assert witness.violation == math.inf and witness.note.startswith("raised: ")
        assert replay(subject, witness) == witness.violation

    def test_nan_subject_fails_with_infinite_witnesses(self):
        nan = Probe("association", lambda x, y: float("nan"), "nan")
        props = (PropertyId.SYMMETRY, PropertyId.RANGE_BOUNDS, PropertyId.ASSOC_REFLEXIVITY)
        report = verify(nan, props, trials=20, seed=0)
        assert report.failures() == props
        for r in report.results:
            assert r.worst_violation == math.inf and r.witness.violation == math.inf
            assert r.witness.note == "raised: probe 'nan' returned NaN"
            assert replay(nan, r.witness) == math.inf
        assert json.loads(report.to_json())["results"][0]["worst_violation"] == "inf"

    def test_nan_violation_counts_as_infinite(self):
        # inf - inf is NaN, which a plain `v > worst` comparison lets pass
        inf = Probe("dissimilarity", lambda x, y: math.inf, "inf")
        result = verify(inf, (PropertyId.SYMMETRY,), trials=20, seed=0).result(PropertyId.SYMMETRY)
        assert result.status == "fail" and result.worst_violation == math.inf
        assert result.witness.note == "violation is NaN" and result.trials == 1
        assert replay(inf, result.witness) == math.inf

    def test_inapplicable_property_marked_not_applicable(self):
        report = verify(D2_UNIT, (PropertyId.ASSOC_REFLEXIVITY,), trials=10)
        assert report.result(PropertyId.ASSOC_REFLEXIVITY).status == "not-applicable"
        assert report.passed()  # not-applicable is not a failure

    def test_constant_similarity_na_for_scaled_standardizations(self):
        report = verify(RECIPE_UNIT, (PropertyId.CONSTANT_SERIES_SIMILARITY,), trials=10)
        assert report.result(PropertyId.CONSTANT_SERIES_SIMILARITY).status == "not-applicable"

    def test_constant_series_error_propagates_outside_the_constants_property(self):
        def refuses(vx, vy):
            raise ConstantSeriesError("probe refuses every pair")

        probe = Probe("similarity", refuses, "refuses")
        with pytest.raises(ConstantSeriesError, match="^probe refuses every pair$"):
            verify(probe, (PropertyId.SYMMETRY,), trials=5, seed=0)
        report = verify(probe, (PropertyId.CONSTANT_SERIES_SIMILARITY,), trials=5, seed=0)
        assert report.result(PropertyId.CONSTANT_SERIES_SIMILARITY).status == "not-applicable"

    def test_byte_identical_reports(self):
        a = verify(Pearson(), SAM_PROPERTIES, trials=50, seed=7)
        b = verify(Pearson(), SAM_PROPERTIES, trials=50, seed=7)
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

    def test_report_text_has_one_line_per_property(self):
        report = verify(Pearson(), SAM_PROPERTIES, trials=20, seed=0)
        lines = report.to_text().strip().splitlines()
        assert len(lines) == 2 + len(SAM_PROPERTIES)
        for prop in SAM_PROPERTIES:
            assert any(line.startswith(prop.value) for line in lines[2:])

    def test_json_report_is_loadable(self):
        import json

        report = verify(MIN_CENTER_BRANCH, (PropertyId.INVERSE_RELATIONSHIP,), trials=50, seed=0)
        payload = json.loads(report.to_json())
        entry = payload["results"][0]
        assert entry["status"] == "fail"
        assert isinstance(entry["witness"]["x"], list)

    def test_min_length_respected_for_parametric_measures(self):
        # requires n >= 5; n_range asking for 3 must be clamped, not crash
        report = verify(
            GeneralizedMidrangeCorrelation(0, 2),
            (PropertyId.SYMMETRY,),
            trials=30,
            n_range=(3, 10),
        )
        assert report.n_range[0] == 5
        assert report.passed()

    def test_fixed_length_subject_reports_its_length(self):
        subject = _fixed_length_branch()
        report = verify(subject, (PropertyId.SYMMETRY,), trials=5)
        assert report.n_range == (5, 5)
        assert "n_range=5..5" in report.to_text()
        assert report.passed()

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf, -(10**400)])
    def test_nan_or_negative_tol_is_refused(self, tol):
        with pytest.raises(SpecError, match="tol must be >= 0"):
            verify(Pearson(), (PropertyId.SYMMETRY,), trials=5, tol=tol)

    @pytest.mark.parametrize("tol", [True, "1e-8", None])
    def test_a_tol_that_is_not_a_real_number_is_refused(self, tol):
        with pytest.raises(SpecError, match="^tol must be a real number"):
            verify(Pearson(), (PropertyId.SYMMETRY,), trials=5, tol=tol)

    def test_an_int_beyond_float_range_is_an_infinite_tol(self):
        prop = PropertyId.INVERSE_RELATIONSHIP
        want = verify(MIN_CENTER_BRANCH, (prop,), trials=20, seed=0, tol=math.inf)
        got = verify(MIN_CENTER_BRANCH, (prop,), trials=20, seed=0, tol=10**400)
        assert got.passed() and got.to_json() == want.to_json()

    def test_a_numpy_tol_gives_the_float_report(self):
        props = (PropertyId.SYMMETRY, PropertyId.RANGE_BOUNDS)
        want = verify(Pearson(), props, trials=10, seed=0, tol=1e-8)
        got = verify(Pearson(), props, trials=10, seed=0, tol=np.float64(1e-8))
        assert type(got.tol) is float
        assert got.to_json() == want.to_json() and got.to_text() == want.to_text()

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_refused_by_name(self, seed):
        with pytest.raises(SpecError, match=f"seed must be >= 0, got {seed}"):
            verify(Pearson(), (PropertyId.SYMMETRY,), trials=5, seed=seed)

    def test_infinite_tol_passes_a_failing_subject(self):
        prop = PropertyId.INVERSE_RELATIONSHIP
        report = verify(MIN_CENTER_BRANCH, (prop,), trials=120, seed=0, tol=math.inf)
        assert report.passed() and report.result(prop).worst_violation > 0.0

    def test_bad_arguments(self):
        with pytest.raises(SpecError):
            verify(Pearson(), trials=0)
        with pytest.raises(SpecError):
            verify(Pearson(), n_range=(1, 0))
        with pytest.raises(SpecError):
            verify(Pearson(), properties=("symmetry",))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"seed": True}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"seed": "1"}, "seed"),
            ({"seed": None}, "seed"),
            ({"trials": True}, "trials"),
            ({"trials": 2.5}, "trials"),
            ({"trials": np.float64(3.0)}, "trials"),
            ({"n_range": (3.7, 10.2)}, "n_range"),
            ({"n_range": (3, np.bool_(True))}, "n_range"),
            ({"n_range": (3, 10, 99)}, "n_range"),
            ({"n_range": (3,)}, "n_range"),
            ({"n_range": 10}, "n_range"),
        ],
    )
    def test_non_integer_arguments_are_refused_by_name(self, kwargs, name):
        with pytest.raises(SpecError, match=f"^{name} must be"):
            verify(Pearson(), (PropertyId.SYMMETRY,), **{"trials": 5, **kwargs})

    def test_a_float_seed_is_refused_with_a_warm_cache_too(self):
        verify(Pearson(), (PropertyId.SYMMETRY,), trials=5, seed=1)
        with pytest.raises(SpecError, match="^seed must be an integer, got 1.0"):
            verify(Pearson(), (PropertyId.SYMMETRY,), trials=5, seed=1.0)

    def test_numpy_integers_give_the_python_int_report(self):
        props = (PropertyId.SYMMETRY, PropertyId.AFFINE_SIGN_RULE)
        want = verify(Pearson(), props, trials=20, n_range=(4, 9), seed=3)
        got = verify(
            Pearson(), props, trials=np.int32(20), n_range=np.array([4, 9]), seed=np.uint8(3)
        )
        assert type(got.seed) is int and type(got.trials) is int
        assert got.to_json() == want.to_json()


def _weights(n: int) -> tuple[float, ...]:
    w = np.linspace(1.0, 2.0, n)
    return tuple(w / w.sum())


_CATALOG_CENTERS = [
    Min(), Max(), Midrange(), Projection(1), Projection(3), OrderStatistic(1), Median(),
    TruncatedMean(0), TruncatedMean(1), GeneralizedMidrange(0, 1), ArithmeticMean(),
    WeightedMean((1.0, 0.0)), OrderedWeightedMean((0.0, 1.0)),
] + [est(_weights(n)) for est in (WeightedMean, OrderedWeightedMean) for n in range(2, 6)]


@pytest.mark.parametrize("center", _CATALOG_CENTERS, ids=repr)
def test_every_central_estimate_is_verified_on_two_samples_or_more(center):
    report = verify(CosineStandardized(Center(center)), trials=3)
    assert 2 <= center.bounds[0] <= report.n_range[0] and len(report.results) == 10


@pytest.mark.parametrize(
    "act, error, message",
    [
        (lambda: Probe("nonsense", lambda vx, vy: 0.0, "p"), SpecError, "unknown subject kind 'nonsense'"),
        (
            lambda: verify(Pearson(), (PropertyId.SYMMETRY,), trials=3).result(PropertyId.RANGE_BOUNDS),
            KeyError,
            "property 'range-bounds' was not checked",
        ),
    ],
)
def test_refusals(act, error, message):
    with pytest.raises(error) as exc:
        act()
    assert exc.value.args == (message,)


def _reference_trial(seed, prop, t, exact_n, lo, hi):
    # the per-subject draw that `_draw_trial` replaced, kept as its oracle
    rng = np.random.default_rng([seed, prop.index, t])
    n = int(exact_n if exact_n is not None else rng.integers(lo, hi + 1))
    style = _STYLES[t % 10]
    x = _draw_series(rng, n, style)
    y = _draw_series(rng, n, style) if prop.inputs == "xy" else None
    if prop.inputs == "constants":
        q, r = rng.uniform(-10.0, 10.0, 2)
        x, y = np.full(n, q), np.full(n, r)
    params = prop.draw(rng)
    return n, x, y, params


def _fixed_length_branch():
    w = WeightedMean((0.2,) * 5)
    return MinkowskiBranch(DissimilaritySpec(2.0, CenterScale(w, MinkowskiDeviation(2.0, w))))


class TestTrialCache:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_draw_equals_the_per_subject_draw(self, seed):
        exact_n = _fixed_length_branch().bounds[1]
        assert exact_n == 5
        ranges = ((None, 3, 60), (None, 5, 60), (exact_n, exact_n, exact_n))
        for prop in PropertyId:
            for exact, lo, hi in ranges:
                for t in range(30):
                    n, rx, ry, rparams = _reference_trial(seed, prop, t, exact, lo, hi)
                    x, y, params = _draw_trial(seed, prop, t, exact, lo, hi)
                    assert x.shape == (n,) and (x == rx).all()
                    assert (y is None) == (ry is None)
                    assert y is None or (y.shape == (n,) and (y == ry).all())
                    assert dict(params) == rparams
                    assert not x.flags.writeable and (y is None or not y.flags.writeable)

    def test_report_bytes_do_not_depend_on_the_cache(self):
        wide = GeneralizedMidrangeCorrelation(0, 2)  # least length 5: other bounds
        assert wide.bounds != Pearson().bounds
        props = CRITERION_3_PROPS
        _draw_trial.cache_clear()
        alone = verify(Pearson(), props, trials=40, seed=7).to_json()
        verify(wide, props, trials=40, seed=7)
        assert verify(Pearson(), props, trials=40, seed=7).to_json() == alone
        _draw_trial.cache_clear()
        assert verify(Pearson(), props, trials=40, seed=7).to_json() == alone

    def test_every_subject_shares_the_draws(self):
        # 2 length ranges (3..60, and 5..60 for two centers) x 7 properties x 50 trials
        _draw_trial.cache_clear()
        for _, subject in CRITERION_3_SUBJECTS:
            verify(subject, CRITERION_3_PROPS, trials=50, seed=0)
        info = _draw_trial.cache_info()
        assert info.misses == 2 * 7 * 50
        assert info.currsize <= info.maxsize
        assert info.hits == 15 * 7 * 50 - info.misses

    def test_long_series_leave_the_cache_small(self):
        _draw_trial.cache_clear()
        tracemalloc.start()
        try:
            report = verify(Pearson(), trials=200, n_range=(5000, 5000))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.passed() and report.n_range == (5000, 5000)
        assert held < 16 * 2**20

    def test_only_trials_of_at_most_62_values_are_kept(self):
        _draw_trial.cache_clear()
        for n in (62, 63):
            verify(Pearson(), (PropertyId.SYMMETRY,), trials=3, n_range=(n, n))
        assert _draw_trial.cache_info().currsize == 3
        assert _draw_trial.cache_info().maxsize * 2 * 62 <= 2**20  # floats the full cache holds

    def test_a_subject_cannot_write_into_the_shared_inputs(self):
        def overwrite(vx, vy):
            vx[0] = 0.0
            return 0.0

        props = (PropertyId.SYMMETRY, PropertyId.RANGE_BOUNDS)
        _draw_trial.cache_clear()
        writer = Probe("association", overwrite, "overwrite")
        with pytest.raises(ValueError, match="read-only"):
            verify(writer, props, trials=10, seed=0)
        after = verify(Pearson(), props, trials=10, seed=0).to_json()
        _draw_trial.cache_clear()
        assert verify(Pearson(), props, trials=10, seed=0).to_json() == after


class TestCoverage:
    def test_every_case_meets_its_expectation(self):
        for case in coverage_suite():
            report = verify(case.subject, (case.property,), trials=120, seed=3)
            assert report.result(case.property).status == case.expect, case.label

    def test_every_failing_witness_replays(self):
        for case in coverage_suite():
            if case.expect == "fail":
                report = verify(case.subject, (case.property,), trials=120, seed=3)
                witness = report.result(case.property).witness
                assert replay(case.subject, witness) == witness.violation, case.label

    def test_criterion_3_subjects_are_the_correlations_and_the_grid(self):
        names = [name for name, _ in CRITERION_3_SUBJECTS[:3]]
        assert names == ["pearson", "cosine", "gmidrange-correlation"]
        grid = {(bm.name, bm.measure) for bm in default_grid_measures(None)}
        assert len(grid) == 12 and set(CRITERION_3_SUBJECTS[3:]) == grid

    def test_every_property_has_a_pass_and_a_fail_case(self):
        suite = coverage_suite()
        for prop in PropertyId:
            expects = {c.expect for c in suite if c.property is prop}
            assert "pass" in expects, prop
            assert "fail" in expects, prop


class TestDocs:
    def test_readme_lists_every_property(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        missing = [p.value for p in PropertyId if f"`{p.value}`" not in readme]
        assert not missing


class TestImplications:
    def test_all_checks_hold(self):
        report = implication_checks(seed=0, trials=200)
        assert report.passed()
        assert len(report.results) == 6

    def test_deterministic(self):
        a = implication_checks(seed=5, trials=100)
        b = implication_checks(seed=5, trials=100)
        assert a.to_json() == b.to_json()
