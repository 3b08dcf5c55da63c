"""Tests for the experiment harnesses (small scales).

These check that each figure/table generator runs, produces the right
structure, and — where cheap enough — that the paper's qualitative
claims hold at test scale.
"""

import pytest

from repro.experiments import (
    DESIGNS_FIG4,
    ExperimentScale,
    baseline_design,
    representative_workloads,
    run_design_sweep,
)
from repro.experiments import bandwidth, fig2, fig3, fig4, fig5, merit, table1, table2

TINY = ExperimentScale(
    instructions_per_core=800,
    workloads=("gcc", "cactusADM"),
    seed=2,
)

#: the shape claims' scale: one latency-bound, one hit-heavy, one
#: associativity-sensitive, one miss-intensive workload and one mix
SHAPE = ExperimentScale(
    instructions_per_core=1500,
    workloads=("blackscholes", "ammp", "cactusADM", "canneal", "cpu2K6rand0"),
    seed=1,
)


class TestRunner:
    def test_baseline_is_hashed_sa4(self):
        base = baseline_design()
        assert base.kind == "sa"
        assert base.ways == 4
        assert base.hash_kind == "h3"

    def test_fig4_designs_match_paper(self):
        labels = [d.label() for d in DESIGNS_FIG4]
        assert labels == [
            "SA-4h-S", "SA-16h-S", "SA-32h-S", "SK-4-S", "Z4/16-S", "Z4/52-S",
        ]

    def test_sweep_returns_all_cells(self):
        sweep = run_design_sweep(
            "gcc", DESIGNS_FIG4[:2], policies=("lru",), scale=TINY
        )
        assert len(sweep.results) == 2

    def test_representative_workloads_exist(self):
        from repro.workloads import WORKLOADS

        assert all(w in WORKLOADS for w in representative_workloads())


class TestFig2:
    def test_analytic_and_simulated_agree(self):
        # The cache must be large relative to n: sampling with
        # repetition from B blocks yields ~B(1-(1-1/B)^n) unique
        # candidates, so small B understates n=64 visibly.
        result = fig2.run(cache_blocks=1024, accesses=25_000)
        for n in fig2.CANDIDATE_COUNTS:
            _cdf, ks = result.simulated[n]
            assert ks < 0.15
        assert len(fig2.render(result)) > 5


class TestFig3:
    @pytest.fixture(scope="class")
    def cells(self):
        """Three workloads, once, for the three assertions.

        Enough instructions that every design (including the
        efficiently-filling skew/z arrays) starts evicting.
        """
        return fig3.run(
            scale=ExperimentScale(instructions_per_core=3000, seed=2),
            workloads=("wupwise", "mgrid", "blackscholes"),
        )

    def test_cells_cover_panels(self, cells):
        cells = [c for c in cells if c.workload == "wupwise"]
        panels = {c.panel for c in cells}
        assert len(panels) == 4
        for c in cells:
            assert 0 < c.distribution.mean() <= 1.0

    def test_skew_closest_to_uniformity(self, cells):
        by_design = {c.design: c for c in cells if c.workload == "mgrid"}
        # The un-hashed 4-way SA must deviate more than the skew cache.
        assert (
            by_design["SK-4-S"].distribution.ks_to_uniformity(4)
            < by_design["SA-4-S"].distribution.ks_to_uniformity(4)
        )

    def test_panels_order_by_distance_from_uniformity(self, cells):
        def mean_ks(panel_prefix):
            sel = [
                c.distribution.ks_to_uniformity(c.candidates)
                for c in cells
                if c.panel.startswith(panel_prefix)
            ]
            return sum(sel) / len(sel)

        # Paper ordering: skew ~ uniformity, hashed SA better than plain SA.
        assert mean_ks("c:") < mean_ks("b:") < mean_ks("a:")


class TestTables:
    def test_table1_prints_paper_values(self):
        lines = "\n".join(table1.rows())
        assert "32 cores" in lines
        assert "8.00 MB" in lines
        assert "200 cycles" in lines

    def test_table2_checks_hold(self):
        c = table2.checks()
        assert c.serial_hit_ratio_32_vs_4 == pytest.approx(2.0, rel=0.05)
        assert c.parallel_hit_ratio_32_vs_4 == pytest.approx(3.3, rel=0.05)
        assert c.area_ratio_32_vs_4 == pytest.approx(1.22, abs=0.03)
        assert c.z52_keeps_4way_hit_energy
        assert c.z52_keeps_4way_latency
        assert 1.0 < c.z52_vs_sa32_miss_energy < 1.7


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run(scale=TINY, policies=("lru",))

    def test_structure_and_metrics(self, result):
        # 5 non-baseline designs x 1 policy x 2 metrics.
        assert len(result.series) == 10
        s = result.get("mpki", "lru", "Z4/52-S")
        assert len(s.points) == 2
        assert s.values() == sorted(s.values())

    def test_zcache_never_slower_than_baseline_latency(self, result):
        z = result.get("ipc", "lru", "Z4/52-S")
        # zcaches keep 4-way latency: IPC improvement >= ~1 everywhere.
        assert min(z.values()) > 0.97

    def test_candidates_not_ways_set_the_improvement(self):
        # Shape claims of paper Section VI-B, under both policies.
        result = fig4.run(scale=SHAPE, policies=("opt", "lru"))
        for policy in ("opt", "lru"):
            z16 = result.get("mpki", policy, "Z4/16-S").geomean()
            sa16 = result.get("mpki", policy, "SA-16h-S").geomean()
            z52 = result.get("mpki", policy, "Z4/52-S").geomean()
            # Same candidate count -> practically the same MPKI improvement.
            assert abs(z16 - sa16) < 0.05
            # More candidates never hurt the geomean materially.
            assert z52 > z16 - 0.03
            # zcaches keep the baseline's latency: IPC never collapses.
            assert min(result.get("ipc", policy, "Z4/52-S").values()) > 0.95


class TestFig5:
    @pytest.fixture(scope="class")
    def cells(self):
        return fig5.run(scale=TINY, policies=("lru",))

    def test_cells_cover_groups(self, cells):
        groups = {c.group for c in cells}
        assert "geomean-all" in groups
        assert "geomean-top10" in groups
        for c in cells:
            assert c.ipc_improvement > 0
            assert c.bips_per_watt_improvement > 0

    def test_baseline_normalised_to_one(self, cells):
        base = [
            c for c in cells
            if c.design == "SA-4h-S" and c.group == "geomean-all"
        ]
        assert base[0].ipc_improvement == pytest.approx(1.0)
        assert base[0].bips_per_watt_improvement == pytest.approx(1.0)

    def test_parallel_lookup_and_hit_energy_orderings(self):
        cells = fig5.run(scale=SHAPE, policies=("lru",))

        def geo(design, metric):
            (cell,) = [
                c for c in cells
                if c.design == design and c.group == "geomean-all"
            ]
            return getattr(cell, metric)

        # Parallel lookup helps IPC (lower hit latency) at the same design.
        assert geo("SA-4h-P", "ipc_improvement") >= geo(
            "SA-4h-S", "ipc_improvement"
        ) - 1e-9
        # 32-way parallel pays a large hit-energy premium; the zcache keeps
        # 4-way hit energy, so its efficiency must beat SA-32-parallel.
        assert geo("Z4/52-P", "bips_per_watt_improvement") > geo(
            "SA-32h-P", "bips_per_watt_improvement"
        )


class TestBandwidth:
    def test_points_and_loads(self):
        points = bandwidth.run(scale=TINY)
        assert len(points) == 2
        for p in points:
            assert 0 <= p.demand_load_per_bank < 1.0
            # The walk inflates tag traffic, but it stays far from
            # saturation (1 access/cycle/bank).
            assert p.demand_load_per_bank <= p.tag_load_per_bank < 0.8


class TestMerit:
    def test_formula_vs_measured(self):
        rows = merit.run(configs=((4, 2), (4, 3)), accesses=6_000)
        assert [row.r_formula for row in rows] == [16, 52]
        for row in rows:
            assert row.r_measured <= row.r_formula + 1e-9
            assert row.r_measured > 0.85 * row.r_formula
            assert row.mean_relocations <= row.levels - 1
        # E_miss grows with the candidates examined.
        assert rows[1].e_miss_nj > rows[0].e_miss_nj

    def test_walk_latency_paper_example(self):
        # Fig. 1g: W=3, L=3, 4-cycle tag reads -> 12 cycles.
        assert merit.walk_latency_cycles(3, 3, t_tag=4) == 12
