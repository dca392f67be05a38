import json
from pathlib import Path

import numpy as np
import pytest

from shapeassoc import (
    BenchmarkMeasure,
    BenchmarkSpec,
    FileDataset,
    Pearson,
    SpecError,
    SyntheticCluster,
    SyntheticDataset,
    default_grid_measures,
    default_synthetic_spec,
    generate_synthetic,
    run_benchmark,
)
from shapeassoc.bench import benchmark_spec_from_dict
from shapeassoc.config import to_dict


class TestSyntheticGenerator:
    def test_shape_and_ids(self):
        data, planted = generate_synthetic(SyntheticDataset(seed=0))
        assert len(data) == 14
        assert data.n == 365
        assert data.ids == tuple(f"s{i}" for i in range(1, 15))
        assert [len(c) for c in planted] == [4, 3, 3, 2, 2]
        assert planted[0] == frozenset({"s1", "s2", "s3", "s4"})
        assert planted[4] == frozenset({"s13", "s14"})

    def test_deterministic(self):
        a, _ = generate_synthetic(SyntheticDataset(seed=3))
        b, _ = generate_synthetic(SyntheticDataset(seed=3))
        for sid in a.ids:
            assert np.array_equal(a[sid].values, b[sid].values)

    def test_seed_changes_data(self):
        a, _ = generate_synthetic(SyntheticDataset(seed=0))
        b, _ = generate_synthetic(SyntheticDataset(seed=1))
        assert not np.array_equal(a["s1"].values, b["s1"].values)

    def test_inverted_members_are_negatively_associated(self):
        from shapeassoc import associate

        data, planted = generate_synthetic(SyntheticDataset(seed=0))
        # cluster 1 holds two upright and two inverted members
        assert associate(Pearson(), data["s1"], data["s2"]) > 0.8
        assert associate(Pearson(), data["s1"], data["s3"]) < -0.8
        assert associate(Pearson(), data["s3"], data["s4"]) > 0.8

    def test_cross_cluster_association_is_weak(self):
        from shapeassoc import associate

        data, planted = generate_synthetic(SyntheticDataset(seed=0))
        assert abs(associate(Pearson(), data["s1"], data["s5"])) < 0.5
        assert abs(associate(Pearson(), data["s5"], data["s8"])) < 0.5

    def test_parameter_validation(self):
        with pytest.raises(SpecError):
            SyntheticDataset(length=4)
        with pytest.raises(SpecError):
            SyntheticDataset(noise_scale=1.0)
        with pytest.raises(SpecError, match="synthetic seed must be >= 0, got -1"):
            SyntheticDataset(seed=-1)
        with pytest.raises(SpecError, match="synthetic seed must be >= 0, got -3"):
            benchmark_spec_from_dict({"dataset": {"kind": "synthetic", "seed": -3}})
        with pytest.raises(SpecError):
            SyntheticCluster(1)
        with pytest.raises(SpecError):
            SyntheticCluster(3, (True,))


class TestDefaultGrid:
    def test_twelve_measures(self):
        grid = default_grid_measures("all")
        assert len(grid) == 12
        names = {m.name for m in grid}
        for center in ("midrange", "projection2", "median", "truncmean2", "gmidrange02", "mean"):
            assert f"branch-{center}" in names
            assert f"contrast-{center}" in names
        assert all(m.expect == "all" for m in grid)

    def test_real_data_expectations(self):
        grid = default_grid_measures("real-data")
        by_name = {m.name: m.expect for m in grid}
        for center in ("midrange", "median", "gmidrange02"):
            assert by_name[f"branch-{center}"] == "all"
            assert by_name[f"contrast-{center}"] == "all"
        for center in ("projection2", "truncmean2", "mean"):
            assert by_name[f"branch-{center}"] == "not-all"
            assert by_name[f"contrast-{center}"] == "not-all"

    def test_explicit_expectation_map(self):
        grid = default_grid_measures({"branch-mean": "not-all"})
        by_name = {m.name: m.expect for m in grid}
        assert by_name["branch-mean"] == "not-all"
        assert by_name["contrast-median"] is None

    def test_expectations_must_name_grid_measures(self):
        with pytest.raises(SpecError, match=r"\['branch-midrnage'\]"):
            default_grid_measures({"branch-mean": "not-all", "branch-midrnage": "not-all"})


class TestRunBenchmark:
    def test_default_synthetic_passes(self):
        report = run_benchmark(default_synthetic_spec(seed=0))
        assert report.passed()
        assert len(report.outcomes) == 12
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert outcome.contains_all
            assert outcome.expectation_met
        assert len(report.true_clusters) == 5

    def test_report_serialization(self):
        report = run_benchmark(default_synthetic_spec(seed=0))
        payload = json.loads(report.to_json())
        assert payload["all_expectations_met"] is True
        assert len(payload["measures"]) == 12
        text = report.to_text()
        assert "all expectations met: yes" in text

    def test_not_all_expectation(self):
        # a deliberately mismatched expectation must flip the verdict
        spec = BenchmarkSpec(
            dataset=SyntheticDataset(seed=0),
            measures=(BenchmarkMeasure("p", Pearson(), "not-all"),),
        )
        report = run_benchmark(spec)
        outcome = report.outcomes[0]
        assert outcome.contains_all
        assert not outcome.expectation_met
        assert not report.passed()

    def test_no_expectation_always_met(self):
        spec = BenchmarkSpec(
            dataset=SyntheticDataset(seed=0),
            measures=(BenchmarkMeasure("p", Pearson(), None),),
        )
        assert run_benchmark(spec).passed()

    def test_constant_series_skip_runs(self, tmp_path):
        p = tmp_path / "flat.txt"
        p.write_text("1 2 3 4 5\n2 2 2 2 2\n5 4 3 2 1\n")
        spec = BenchmarkSpec(
            dataset=FileDataset(str(p)),
            measures=(BenchmarkMeasure("p", Pearson(), "all"),),
            true_clusters=(("s1", "s3"),),
        )
        report = run_benchmark(spec)
        assert report.constant_series == ("s2",)
        assert report.outcomes[0].status == "skipped"
        assert not report.outcomes[0].expectation_met
        assert not report.passed()
        assert "skipped" in report.to_text()

    def test_file_dataset_requires_true_clusters(self, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("1 2 3\n3 2 1\n")
        spec = BenchmarkSpec(
            dataset=FileDataset(str(p)),
            measures=(BenchmarkMeasure("p", Pearson(), None),),
        )
        with pytest.raises(SpecError, match="true_clusters"):
            run_benchmark(spec)

    def test_unknown_cluster_ids_rejected(self):
        spec = BenchmarkSpec(
            dataset=SyntheticDataset(seed=0),
            measures=(BenchmarkMeasure("p", Pearson(), None),),
            true_clusters=(("s1", "nope"),),
        )
        with pytest.raises(SpecError, match="nope"):
            run_benchmark(spec)

    def test_duplicate_measure_names_rejected(self):
        with pytest.raises(SpecError):
            BenchmarkSpec(
                dataset=SyntheticDataset(seed=0),
                measures=(
                    BenchmarkMeasure("p", Pearson(), None),
                    BenchmarkMeasure("p", Pearson(), "all"),
                ),
            )


class TestBenchmarkConfig:
    def test_synthetic_default_grid(self):
        spec = benchmark_spec_from_dict({"dataset": {"kind": "synthetic", "seed": 2}})
        assert isinstance(spec.dataset, SyntheticDataset)
        assert spec.dataset.seed == 2
        assert len(spec.measures) == 12
        assert all(m.expect == "all" for m in spec.measures)

    def test_explicit_measures_and_clusters(self):
        cfg = {
            "dataset": {"kind": "file", "path": "data.txt", "has_ids": True},
            "measures": [
                {"name": "pearson", "measure": "pearson", "expect": "all"},
            ],
            "true_clusters": [["a", "b"], ["c"]],
        }
        spec = benchmark_spec_from_dict(cfg)
        assert isinstance(spec.dataset, FileDataset)
        assert spec.dataset.has_ids
        assert spec.measures[0].measure == Pearson()
        assert spec.true_clusters == (("a", "b"), ("c",))

    def test_round_trip_through_dict(self):
        # the README bench config is the one ```json block naming a dataset
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split('```json\n{\n  "dataset"', 1)[1].split("```", 1)[0]
        readme_spec = benchmark_spec_from_dict(json.loads('{\n  "dataset"' + block))
        specs = (
            default_synthetic_spec(seed=1),
            readme_spec,
            BenchmarkSpec(
                FileDataset("x.txt", "tab", "rows", True),
                readme_spec.measures,
                (("a", "c"), ("b",)),
            ),
        )
        for spec in specs:
            d = json.loads(json.dumps(to_dict(spec)))
            again = benchmark_spec_from_dict(d)
            assert again.dataset == spec.dataset
            assert again.measures == spec.measures
            assert again == spec
        assert readme_spec.true_clusters == (("a", "c"), ("b",))

    def test_custom_clusters(self):
        cfg = {
            "dataset": {
                "kind": "synthetic",
                "clusters": [{"size": 3}, {"size": 2, "inverted": [True, False]}],
            }
        }
        spec = benchmark_spec_from_dict(cfg)
        assert spec.dataset.clusters == (
            SyntheticCluster(3),
            SyntheticCluster(2, (True, False)),
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError):
            benchmark_spec_from_dict({"dataset": {"kind": "synthetic", "bogus": 1}})
        with pytest.raises(SpecError):
            benchmark_spec_from_dict({"dataset": {"kind": "synthetic"}, "extra": 1})
        with pytest.raises(SpecError):
            benchmark_spec_from_dict(
                {
                    "dataset": {"kind": "synthetic"},
                    "measures": [{"name": "p", "measure": "pearson"}],
                    "expectations": "all",
                }
            )

    def test_missing_dataset_rejected(self):
        with pytest.raises(SpecError):
            benchmark_spec_from_dict({"measures": "default-grid"})


_PEARSON_ONLY = (BenchmarkMeasure("p", Pearson(), None),)
_SYNTHETIC = {"kind": "synthetic"}


@pytest.mark.parametrize(
    "act, message",
    [
        (lambda: SyntheticDataset(clusters=()), "synthetic dataset needs at least one cluster"),
        (
            lambda: BenchmarkMeasure("p", Pearson(), "some"),
            "expectation must be 'all', 'not-all' or null, got 'some'",
        ),
        (lambda: BenchmarkSpec(SyntheticDataset(), ()), "benchmark needs at least one measure"),
        (
            lambda: run_benchmark(BenchmarkSpec(SyntheticDataset(), _PEARSON_ONLY, ((),))),
            "true clusters must not be empty",
        ),
        (lambda: benchmark_spec_from_dict([]), "benchmark config must be an object, got []"),
        (
            lambda: benchmark_spec_from_dict({"dataset": _SYNTHETIC, "expectations": 3}),
            "expectations must be a string, object, or null",
        ),
        (
            lambda: benchmark_spec_from_dict({"dataset": _SYNTHETIC, "measures": []}),
            "measures must be 'default-grid' or a non-empty list",
        ),
        (
            lambda: benchmark_spec_from_dict({"dataset": _SYNTHETIC, "measures": "grid"}),
            "measures must be 'default-grid' or a non-empty list",
        ),
    ],
)
def test_refusals(act, message):
    with pytest.raises(SpecError) as exc:
        act()
    assert str(exc.value) == message
