import json
import math
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
    DissimilaritySpec,
    GeneralizedMidrangeCorrelation,
    Min,
    MinkowskiBranch,
    MinkowskiDeviation,
    Pearson,
    Probe,
    PropertyId,
    RationalDecay,
    SimilarityBranch,
    SimilarityRecipe,
    SpecError,
    WeightedMean,
    applicable_properties,
    coverage_suite,
    preset,
    replay,
    verify,
)
from shapeassoc import measures
from shapeassoc.axioms import SAM_PROPERTIES, describe_subject

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
        subjects += [(Probe(kind, None, "p"), kind, None) for kind in _KINDS]
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
        w = WeightedMean((0.2,) * 5)
        subject = MinkowskiBranch(DissimilaritySpec(2.0, CenterScale(w, MinkowskiDeviation(2.0, w))))
        report = verify(subject, (PropertyId.SYMMETRY,), trials=5)
        assert report.n_range == (5, 5)
        assert "n_range=5..5" in report.to_text()
        assert report.passed()

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_tol_is_refused(self, tol):
        with pytest.raises(SpecError, match="tol must be >= 0"):
            verify(Pearson(), (PropertyId.SYMMETRY,), trials=5, tol=tol)

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
