"""Integration tests of the experiment harness.

Each driver is run at a tiny scale and the *shape* of the paper's result is
asserted: who wins, whether curves grow, whether the optimization helps.
Absolute numbers are not checked — that is EXPERIMENTS.md's job.
"""

import pytest

from repro.core.engine import SequentialEngine
from repro.harness import (
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_table2,
)
from repro.harness.common import format_table, speedup
from repro.simulations.traffic import TrafficParameters, build_traffic_world


class TestCommonHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2.5], [10, 3000.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert len(lines) == 5

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        assert speedup(1.0, 0.0) == float("inf")
        assert speedup(0.0, 0.0) == 1.0


class TestRegistry:
    def test_full_scale_overrides_laptop_parameters(self):
        from repro.harness.registry import EXPERIMENTS

        figure4 = EXPERIMENTS["figure4"]
        assert figure4.parameters()["num_fish"] == 400
        assert figure4.parameters(full=True)["num_fish"] == 2000
        # Keys only the laptop scale sets fall through to the full scale.
        assert set(figure4.parameters(full=True)) == set(figure4.parameters())

    def test_list_describes_every_experiment(self, capsys):
        from repro.harness.__main__ import main
        from repro.harness.registry import experiment_names

        assert main(["all", "--list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == experiment_names()

    def test_there_is_no_backend_flag(self, capsys):
        # Figures 3 and 4 time both access paths themselves: the grid and
        # the linear scan.
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure3", "--backend", "python"])
        assert "--backend" in capsys.readouterr().err


class TestTable2:
    def test_rmspe_values_are_small(self):
        result = run_table2(segment_length=1200.0, ticks=30, seed=17)
        rows = result.rows()
        assert len(rows) == 4
        for row in rows:
            # Velocities agree closely; densities are noisier at this tiny
            # scale (the paper's lane 4 shows the same effect) but bounded.
            assert row["average_velocity_rmspe"] < 10.0
            assert row["average_density_rmspe"] < 50.0
        assert "Table 2" in result.format_table()


class TestSingleNodeFigures:
    def test_figure3_shape(self):
        result = run_figure3(segment_lengths=(400.0, 800.0, 1600.0), ticks=4, seed=11)
        rows = result.rows()
        assert len(rows) == 3
        # The hand-coded baseline is the fastest; the un-indexed engine is the
        # slowest at the largest problem size and grows faster than indexed.
        largest = rows[-1]
        assert largest["mitsim_seconds"] < largest["brace_index_seconds"]
        assert largest["brace_no_index_seconds"] > largest["brace_index_seconds"]
        no_index_growth = rows[-1]["brace_no_index_seconds"] / rows[0]["brace_no_index_seconds"]
        index_growth = rows[-1]["brace_index_seconds"] / rows[0]["brace_index_seconds"]
        assert no_index_growth > index_growth
        # The same shape in the deterministic work units: the scan's grow
        # quadratically with the segment length, the grid's about linearly.
        no_index_work_growth = (
            rows[-1]["brace_no_index_work_units"] / rows[0]["brace_no_index_work_units"]
        )
        index_work_growth = rows[-1]["brace_index_work_units"] / rows[0]["brace_index_work_units"]
        assert no_index_work_growth > 1.5 * index_work_growth
        assert "Figure 3" in result.format_table()

    def test_scan_series_charges_the_oracles_work_units(self):
        # One-worker BRACE on the scan charges exactly what the naive
        # oracle does, so the figure's no-index curve is the paper's.
        result = run_figure3(segment_lengths=(400.0,), ticks=2, seed=11)
        world = build_traffic_world(TrafficParameters().scaled_to(400.0), seed=11)
        oracle = SequentialEngine(world, check_visibility=False).run(2)
        assert result.no_index_work_units == [oracle.total_work_units]
        assert 0 < result.index_work_units[0] < oracle.total_work_units

    def test_figure4_shape(self):
        result = run_figure4(visibility_ranges=(3.0, 12.0), num_fish=250, ticks=3, seed=5)
        rows = result.rows()
        assert len(rows) == 2
        for row in rows:
            assert row["brace_index_seconds"] < row["brace_no_index_seconds"]
        # The indexing advantage shrinks as the visibility range grows.  The
        # work units are BRACE's deterministic cost (the wall-time
        # shape is timed by benchmarks/test_figure4_fish_visibility.py): the
        # scan charges the whole extent per probe at every radius, the grid
        # more as each probe's neighbourhood grows.
        no_index = [row["brace_no_index_work_units"] for row in rows]
        index = [row["brace_index_work_units"] for row in rows]
        assert no_index[0] == no_index[-1]
        assert index[0] < index[-1] < no_index[-1]
        assert no_index[-1] / index[-1] < no_index[0] / index[0]
        assert "Figure 4" in result.format_table()


class TestDistributedFigures:
    def test_figure5_inversion_and_indexing_help(self):
        result = run_figure5(num_fish=300, workers=16, ticks=3, seed=23)
        throughputs = result.throughputs
        assert set(throughputs) == set(result.CONFIGURATIONS)
        assert throughputs["Idx-Only"] > throughputs["No-Opt"]
        assert throughputs["Inv-Only"] > throughputs["No-Opt"]
        assert throughputs["Idx+Inv"] > throughputs["Idx-Only"]
        assert result.improvement_from_inversion(with_index=True) > 0.05
        assert result.improvement_from_inversion(with_index=False) > 0.0
        assert "Figure 5" in result.format_table()

    def test_figure6_throughput_grows_with_workers(self):
        result = run_figure6(worker_counts=(1, 4, 8, 16), vehicles_per_worker=50, ticks=2, seed=31)
        throughputs = result.throughputs
        assert all(b > a for a, b in zip(throughputs, throughputs[1:]))
        # Scale-up stays reasonably efficient once communication appears.
        efficiencies = [row["scaleup_efficiency"] for row in result.rows()]
        assert efficiencies[-1] > 0.4
        assert "Figure 6" in result.format_table()

    def test_figure7_load_balancing_wins_at_scale(self):
        result = run_figure7(
            worker_counts=(2, 8, 16), fish_per_worker=30, ticks=4, ticks_per_epoch=2, seed=41
        )
        rows = result.rows()
        assert rows[-1]["throughput_lb"] > rows[-1]["throughput_no_lb"]
        assert rows[-1]["throughput_lb"] > rows[0]["throughput_lb"]
        assert "Figure 7" in result.format_table()

    def test_figure8_lb_epochs_cheaper_after_rebalance(self):
        result = run_figure8(workers=8, num_fish=300, epochs=4, ticks_per_epoch=2, seed=47)
        rows = result.rows()
        assert len(rows) == 4
        # After the initial rebalancing epoch, the balanced run is cheaper.
        later_lb = [row["seconds_lb"] for row in rows[1:]]
        later_no_lb = [row["seconds_no_lb"] for row in rows[1:]]
        assert sum(later_lb) < sum(later_no_lb)
        assert "Figure 8" in result.format_table()
