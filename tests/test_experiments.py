"""Tests for the experiment harness modules (small app subsets)."""

import pytest

from repro.experiments import fig01, fig08, fig09, fig10, fig12, fig13
from repro.experiments import fig14, fig15, fig16, tables
from repro.experiments.runner import ExperimentRunner

APPS = ["spec.libquantum", "spec.mcf", "spec.h264ref"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestTables:
    def test_table1_renders(self):
        out = tables.render_table1()
        assert "ROB entries" in out and "192" in out

    def test_table2_renders(self):
        out = tables.render_table2()
        assert "tpc" in out


class TestFig01:
    def test_run_and_render(self, runner):
        series = fig01.run(runner, apps=APPS)
        assert [s.prefetcher for s in series] == ["ampm", "bop", "sms"]
        out = fig01.render(series)
        assert "== average ==" in out

    def test_averages_within_bounds(self, runner):
        for s in fig01.run(runner, apps=APPS):
            assert 0.0 <= s.average_scope <= 1.0
            assert -1.0 <= s.average_accuracy <= 1.0


class TestFig08:
    def test_grid_shape_and_sorting(self, runner):
        grid = fig08.run(runner, apps=APPS, prefetchers=["bop", "tpc"])
        assert set(grid.apps) == set(APPS)
        assert grid.geomean("tpc") > 0
        out = fig08.render(grid)
        assert "== geomean ==" in out

    def test_best_counts_sum_to_apps(self, runner):
        grid = fig08.run(runner, apps=APPS, prefetchers=["bop", "tpc"])
        assert sum(grid.best_count(p) for p in grid.prefetchers) == len(APPS)


class TestFig09:
    def test_rows(self, runner):
        rows = fig09.run(runner, apps=APPS, prefetchers=["bop", "tpc"])
        assert len(rows) == 2
        for row in rows:
            assert row.low <= row.geomean <= row.high
        assert "traffic" in fig09.render(rows)


class TestFig10:
    def test_weighting_by_issued(self, runner):
        series = fig10.run(runner, apps=APPS, prefetchers=["tpc"])
        out = fig10.render(series)
        assert "tpc" in out
        assert fig10.render_points(series)


class TestFig12:
    def test_incremental_rows_present(self, runner):
        rows = fig12.run(runner, apps=APPS, monolithic=["bop"])
        labels = {r.label for r in rows}
        assert {"bop", "T2", "T2+P1", "TPC"} <= labels
        levels = {r.level for r in rows}
        assert levels == {1, 2}
        assert "eff_coverage" in fig12.render(rows)

    def test_scope_grows_with_components(self, runner):
        rows = fig12.run(runner, apps=APPS, monolithic=[])
        at_l1 = {r.label: r for r in rows if r.level == 1}
        assert at_l1["TPC"].scope >= at_l1["T2"].scope - 0.02


class TestFig13:
    def test_categories_covered(self, runner):
        rows = fig13.run(runner, apps=APPS, prefetchers=["tpc"])
        assert len(rows) == 3
        assert {r.category.value for r in rows} == {"LHF", "MHF", "HHF"}
        assert "LHF" in fig13.render(rows)

    def test_lhf_gets_most_prefetches_for_tpc(self, runner):
        rows = fig13.run(runner, apps=["spec.libquantum"],
                         prefetchers=["tpc"])
        by_category = {r.category.value: r for r in rows}
        assert by_category["LHF"].issued >= by_category["HHF"].issued


class TestFig14:
    def test_alone_vs_component(self, runner):
        rows = fig14.run(runner, apps=["spec.mcf", "spec.h264ref"],
                         extras=["sms"])
        modes = {(r.prefetcher, r.mode) for r in rows}
        assert modes == {("sms", "alone"), ("sms", "component")}
        assert "uncovered" in fig14.render(rows)


class TestReportOrder:
    def test_tracked_figures_replay_cached_cells(self, tmp_path,
                                                 monkeypatch):
        """Figs. 8, 13, 14 and 15 in report order simulate no (workload,
        spec key, tag) cell twice: Figs. 13-14 replay the credit logs
        of cells Figs. 8 and 14-15 share.  A second runner on the same
        cache renders Figs. 13-14 byte-identically, simulating
        nothing."""
        from repro.experiments import runner as runner_module

        simulated = []
        real_simulate = runner_module.simulate

        def counting(trace, *args, **kwargs):
            simulated.append((trace.name, kwargs.get("spec"),
                              kwargs.get("config_tag")))
            return real_simulate(trace, *args, **kwargs)

        monkeypatch.setattr(runner_module, "simulate", counting)
        apps = ["npb.ep"]
        tracked = (fig13, fig14)
        cold = ExperimentRunner(cache_dir=str(tmp_path))
        fig08.run(cold, apps=apps)
        texts = [m.render(m.run(cold, apps=apps)) for m in tracked]
        fig15.run(cold, apps=apps)
        assert simulated
        assert len(set(simulated)) == len(simulated)
        assert cold.counters["simulated"] == len(simulated)

        simulated.clear()
        warm = ExperimentRunner(cache_dir=str(tmp_path))
        assert [m.render(m.run(warm, apps=apps)) for m in tracked] == texts
        assert warm.counters["simulated"] == 0
        assert simulated == []


class TestFig15:
    def test_composite_and_shunt_rows(self, runner):
        rows = fig15.run(runner, apps=APPS, extras=["sms"])
        modes = {r.mode for r in rows}
        assert modes == {"composite", "shunt"}
        for row in rows:
            assert row.low <= row.average <= row.high


class TestFig16:
    def test_modes_present(self, runner):
        rows = fig16.run(runner, apps=["spec.libquantum"],
                         prefetchers=["bop"])
        assert {r.mode for r in rows} == {"L1", "L2", "stratified"}
        assert "destination" in fig16.render(rows)

    def test_oracle_wrapper_rewrites_levels(self, runner):
        from repro.analysis.classify import Category
        from repro.baselines.nextline import NextLinePrefetcher
        from repro.experiments.fig16 import OracleDestinationPrefetcher
        from conftest import make_event

        wrapped = OracleDestinationPrefetcher(
            NextLinePrefetcher(degree=1),
            lambda line: Category.LHF if line % 2 == 0 else Category.HHF,
        )
        requests = wrapped.on_access(make_event(addr=63, hit=False))
        assert requests[0].line == 1
        assert requests[0].target_level == 2
        requests = wrapped.on_access(make_event(addr=64 + 63, hit=False))
        assert requests[0].target_level == 1
