"""Tests for the Fig. 1 walkthrough and the buffering experiment."""

import pytest

from repro.experiments import buffering, fig1


class TestFig1:
    def test_matches_paper_structure(self):
        result = fig1.run(seed=4)
        assert result.candidates_per_level == {0: 3, 1: 6, 2: 12}
        assert result.total_candidates == 21
        assert result.walk_cycles == 12
        assert 0 <= result.victim_level <= 2
        assert result.relocations == result.victim_level
        assert result.timeline.hidden

    def test_deterministic_per_seed(self):
        a, b = fig1.run(seed=7), fig1.run(seed=7)
        assert a.victim_level == b.victim_level

    def test_rows_render(self):
        rows = fig1.render(fig1.run())
        assert any("21" in r for r in rows)
        assert any("walk level" in r for r in rows)


class TestBuffering:
    def test_validation(self):
        with pytest.raises(ValueError):
            buffering.run(blocks=100)

    def test_paper_ordering(self):
        points = {p.design: p for p in buffering.run(blocks=256, trials=3)}
        # Candidates, not ways, determine buffering capacity.
        assert (
            points["SA-4h"].pinnable_mean
            < points["SK-4"].pinnable_mean
            < points["Z4/16"].pinnable_mean
            < points["Z4/52"].pinnable_mean
        )
        # The zcache makes most of its capacity usable.
        assert points["Z4/52"].fraction > 0.8
        # A 4-way SA cache overflows at a small fraction of capacity.
        assert points["SA-4h"].fraction < 0.5

    def test_rows_render(self):
        for p in buffering.run(blocks=128, trials=2):
            assert "pinnable" in p.row()
            assert 0.0 < p.fraction <= 1.0
