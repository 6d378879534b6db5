"""Extra experiment-harness tests: ablations, report_all structure,
scatter machinery, drop-policy plumbing."""

import pytest

from repro.experiments import ablations, drop_policy, report_all, scatter
from repro.experiments.runner import ExperimentRunner, spec_key


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestSpecKey:
    def test_string_spec(self):
        assert spec_key("tpc") == "tpc"

    def test_factory_with_cache_key(self):
        def factory():
            return None

        factory.cache_key = "custom"
        assert spec_key(factory) == "custom"

    def test_factory_without_cache_key_uses_name(self):
        def my_factory():
            return None

        assert spec_key(my_factory) == "my_factory"


class TestScatter:
    def test_weight_modes(self, runner):
        apps = ["spec.libquantum"]
        by_mpki = scatter.collect_scatter(["stride"], apps, runner,
                                          weight_by="mpki")
        by_issued = scatter.collect_scatter(["stride"], apps, runner,
                                            weight_by="issued")
        assert by_mpki[0].points[0].weight != by_issued[0].points[0].weight

    def test_unknown_weight_mode(self, runner):
        with pytest.raises(ValueError):
            scatter.collect_scatter(["stride"], ["spec.libquantum"],
                                    runner, weight_by="bogus")

    def test_series_averages(self, runner):
        series = scatter.collect_scatter(
            ["tpc"], ["spec.libquantum", "spec.milc"], runner
        )[0]
        assert 0 <= series.average_scope <= 1
        assert series.average_accuracy > 0.5


class TestAblations:
    def test_variant_factories_buildable(self):
        for variant in ablations.VARIANTS:
            prefetcher = ablations._variant(variant)()
            assert prefetcher is not None
            prefetcher.reset()

    def test_small_run(self, runner):
        rows = ablations.run(runner, apps=["spec.libquantum"],
                             variants=["tpc", "plain-pc"])
        assert len(rows) == 2
        assert all(r.speedup > 0.9 for r in rows)
        assert "variant" in ablations.render(rows)

    def test_no_boost_variant_breaks_wire(self):
        from repro.core.composite import make_tpc
        composite = make_tpc(boost_pointer_triggers=False)
        t2, p1 = composite.components[0], composite.components[1]
        assert t2.boosted_pcs is not p1.pointer_trigger_pcs

    def test_t2_ablation_knobs(self):
        from repro.core.t2 import T2Prefetcher
        t2 = T2Prefetcher(activate_on_miss=False, use_mpc=False,
                          strided_threshold=8)
        from conftest import feed_stream
        # With activation-on-anything, even hit streams get tracked.
        requests = feed_stream(t2, [i * 64 for i in range(10)],
                               hit_after=0)
        assert 0x1000 in t2.sit.states  # tracked despite hits


class TestDropPolicyPlumbing:
    def test_custom_mixes(self):
        results = drop_policy.run(
            mixes=[["spec.libquantum", "spec.milc", "spec.lbm",
                    "spec.h264ref"]]
        )
        assert len(results) == 1
        assert results[0].random_speedup > 0.9
        assert "gain" in drop_policy.render(results)

    def test_default_mixes_defined(self):
        assert len(drop_policy.DROP_MIXES) >= 3
        for mix in drop_policy.DROP_MIXES:
            assert len(mix) == 4


class TestReportAll:
    def test_sections_cover_all_artifacts(self):
        titles = " ".join(title for title, _ in report_all.SECTIONS)
        for artifact in ["Table I", "Table II", "Fig. 1", "Fig. 8",
                         "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12",
                         "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16",
                         "drop policy", "Ablations"]:
            assert artifact in titles, artifact


class TestComponentSwap:
    def test_variants_buildable(self):
        from repro.experiments import component_swap
        for label, factory in component_swap._variants().items():
            prefetcher = factory()
            prefetcher.reset()
            assert prefetcher.components

    def test_small_run_and_render(self, runner):
        from repro.experiments import component_swap
        rows = component_swap.run(runner, apps=["npb.ep"])
        assert {r.variant for r in rows} == {
            "tpc", "spp/P1/C1", "stride/P1/C1", "T2/P1/sms"
        }
        assert "composite" in component_swap.render(rows)
