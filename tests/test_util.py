"""Tests for the util package (rng, tables, timing)."""

import pytest

from repro.util.rng import derive_seed, make_rng, spawn_rngs, stable_choice_index
from repro.util.tables import TextTable, bar_chart, format_mapping_table, format_series
from repro.util.timing import Stopwatch, measure_best, measure_calls


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).integers(0, 100) == make_rng(5).integers(0, 100)

    def test_make_rng_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)

    def test_spawn_deterministic(self):
        xs = [r.integers(0, 100) for r in spawn_rngs(3, 3)]
        ys = [r.integers(0, 100) for r in spawn_rngs(3, 3)]
        assert xs == ys

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_stable_choice_bounds(self):
        rng = make_rng(0)
        for _ in range(100):
            assert 0 <= stable_choice_index(rng, 5) < 5

    def test_stable_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            stable_choice_index(make_rng(0), 0)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a") != derive_seed(1, "b")


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable(["name", "value"], title="demo")
        t.add_row(["x", 1])
        t.add_row(["longer", 2.5])
        text = t.render()
        assert "demo" in text
        assert "| longer | 2.50" in text

    def test_row_width_checked(self):
        t = TextTable(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_bool_formatting(self):
        t = TextTable(["ok"])
        t.add_row([True])
        assert "yes" in t.render()

    def test_add_rows(self):
        t = TextTable(["a", "b"])
        t.add_rows([[1, 2], [3, 4]])
        assert len(t.rows) == 2


class TestSeriesAndCharts:
    def test_format_series(self):
        text = format_series("LRU", [4, 5], [10.0, 20.5])
        assert text == "LRU: 4=10.00, 5=20.50"

    def test_format_series_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1], [1.0, 2.0])

    def test_mapping_table(self):
        text = format_mapping_table("cfg", {"n_rus": 4})
        assert "n_rus" in text and "4" in text

    def test_bar_chart(self):
        text = bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bar_chart_empty(self):
        assert "empty" in bar_chart([], [])

    def test_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])


class TestTiming:
    def test_stopwatch_accumulates(self):
        sw = Stopwatch()
        with sw:
            pass
        with sw:
            pass
        assert len(sw.laps) == 2
        assert sw.total_s >= 0
        assert sw.best_s <= sw.mean_s or sw.mean_s == 0

    def test_measure_best_positive(self):
        assert measure_best(lambda: sum(range(100)), repeats=2) >= 0

    def test_measure_best_invalid(self):
        with pytest.raises(ValueError):
            measure_best(lambda: None, repeats=0)

    def test_measure_calls_per_call(self):
        per_call = measure_calls(lambda: None, calls=100, repeats=2)
        assert per_call >= 0

    def test_measure_calls_invalid(self):
        with pytest.raises(ValueError):
            measure_calls(lambda: None, calls=0)


class TestAddSlots:
    def test_frozen_slotted_events_pickle_round_trip(self):
        import pickle

        from repro.graphs.task import ConfigId
        from repro.sim.tracing import ReconfigStart, RunEnd

        for event in (
            RunEnd(time=7),
            ReconfigStart(time=1, ru=2, config=ConfigId("A", 3), app_index=0, end=9),
        ):
            clone = pickle.loads(pickle.dumps(event))
            assert clone == event and not hasattr(clone, "__dict__")
