"""Tests of the benchmark's own measurement and checking code.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import time

import pytest

import benchcore as bc
import oplists
import wl_session
import wl_sweep


# -- op lists ------------------------------------------------------------
@pytest.mark.parametrize("make, n", [
    (oplists.session_cold_ops, 40),
    (oplists.sweep_pool_ops, 32),
    (oplists.daemon_mixed_ops, 40),
])
def test_op_lists_repeat_for_a_seed_and_differ_across_seeds(make, n):
    assert make(7, n) == make(7, n)
    assert make(7, n) != make(8, n)


@pytest.mark.parametrize("make, n, block", [
    (oplists.session_cold_ops, 40, oplists.SESSION_BLOCK),
    (oplists.sweep_pool_ops, 32, oplists.SWEEP_BLOCK),
    (oplists.daemon_mixed_ops, 40, oplists.DAEMON_BLOCK),
])
def test_op_i_depends_only_on_seed_and_i(make, n, block):
    """A longer run starts with exactly the ops of a shorter one."""
    assert make(3, n + 2 * block)[:n] == make(3, n)


def test_every_seed_gets_the_same_mix():
    def mix(ops):
        return sorted((op["length"], op["trace"], op["checkpoint_every"]) for op in ops)

    assert mix(oplists.session_cold_ops(1, 30)) == mix(oplists.session_cold_ops(2, 30))


def test_op_count_must_fill_whole_blocks():
    with pytest.raises(ValueError):
        oplists.session_cold_ops(0, 15)


# -- tail percentile -----------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10, 50.0),    # too few for any tail: the median stands in
    (19, 50.0),
    (20, 50.0),    # 10 beyond p50
    (40, 75.0),    # 10 beyond p75
    (99, 75.0),    # p90 would leave only 9 beyond
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (2000, 99.5),
    (10000, 99.9),
])
def test_tail_percentile_rule(n, expected):
    assert bc.tail_percentile(n) == expected
    assert bc.samples_beyond(n, expected) >= bc.TAIL_MIN_BEYOND or expected == 50.0


def test_latency_summary_reports_nearest_rank_values():
    values = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    summary = bc.latency_summary(values)
    assert summary["p50_ms"] == pytest.approx(50.0)
    assert summary["tail_pct"] == 90.0
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert summary["beyond"] == 10


# -- probe scaling -------------------------------------------------------
def test_scaling_is_identity_at_reference_speed():
    ref = bc.CPU_PROBE.ref_s
    assert bc.scaled(0.25, ref, ref) == pytest.approx(0.25)


def test_a_host_twice_as_slow_counts_half():
    ref = bc.CPU_PROBE.ref_s
    assert bc.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)


def test_scaling_uses_the_mean_of_both_probes():
    assert bc.scale_factor(1.0, 3.0, ref_s=1.0) == pytest.approx(0.5)


def test_scaling_rejects_empty_probes():
    with pytest.raises(ValueError):
        bc.scale_factor(0.0, 0.0)


def test_probed_clock_scales_each_interval_by_its_own_probe():
    readings = iter([0.002, 0.002, 0.001])
    clock = bc.ProbedClock(bc.Probe("fake", lambda: next(readings), ref_s=0.001))
    with clock.interval() as first:
        pass
    with clock.interval() as second:
        pass
    assert first.scaled_s == pytest.approx(first.raw_s * 0.5)
    assert second.scaled_s == pytest.approx(second.raw_s / 1.5)
    assert clock.probes == [0.002, 0.002, 0.001]


def test_real_probes_measure_something():
    for probe in (bc.CPU_PROBE, bc.SPAWN_PROBE):
        assert 0 < probe.measure() < 1.0


# -- output checks -------------------------------------------------------
SUMMARY = {
    "executions": 100, "reused": 30, "makespan_us": 5000, "ideal_makespan_us": 4000,
    "overhead_us": 1000, "reconfig_latency_us": 4000,
}


def test_a_perturbed_summary_counts_as_a_failed_op():
    pinned = [bc.digest(SUMMARY), bc.digest(SUMMARY)]
    perturbed = dict(SUMMARY, reused=31)
    outcomes = [
        bc.OpOutcome(0, 0.1, 0.1, bc.digest(SUMMARY)),
        bc.OpOutcome(1, 0.1, 0.1, bc.digest(perturbed)),
    ]
    assert bc.digest_mismatches(outcomes, pinned) == 1
    assert not outcomes[0].errors
    assert outcomes[1].errors


def test_ops_beyond_the_pinned_list_are_not_digest_checked():
    outcomes = [bc.OpOutcome(5, 0.1, 0.1, "anything")]
    assert bc.digest_mismatches(outcomes, ["x"]) == 0


def test_summary_invariants():
    assert bc.summary_errors(SUMMARY, 100) == []
    assert bc.summary_errors(SUMMARY, 101)  # a task went missing
    assert bc.summary_errors(dict(SUMMARY, reused=101), 100)
    assert bc.summary_errors(dict(SUMMARY, makespan_us=3000), 100)


def test_tally_aggregates_over_ops():
    tally = bc.Tally()
    tally.add_summary(SUMMARY)
    tally.add(100, 10, 3000.0, 4000)
    assert tally.reuse_pct == pytest.approx(20.0)
    assert tally.overhead_pct == pytest.approx(100.0 * 4000 / 800000)


# -- spans ---------------------------------------------------------------
def _span(span_id, start, end, parent=None):
    return bc.Span("s", span_id, parent, "t", start, end)


def test_self_time_is_duration_minus_child_coverage():
    root = _span(1, 0.0, 10.0)
    children = [_span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1)]
    assert bc.self_time(root, children) == pytest.approx(7.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    root = _span(1, 0.0, 10.0)
    children = [_span(2, 1.0, 4.0, 1), _span(3, 3.0, 5.0, 1), _span(4, 9.0, 12.0, 1)]
    assert bc.self_time(root, children) == pytest.approx(10.0 - 4.0 - 1.0)


def test_tracer_links_nested_spans():
    tracer = bc.Tracer()
    with tracer.span("op", "t1") as op:
        with tracer.span("inner", "t1") as inner:
            pass
    assert inner.parent_id == op.span_id
    assert op.parent_id is None
    tracer.set_scale("t1", 0.5)
    assert tracer.scaled(op) == pytest.approx(op.duration * 0.5)


def test_spread_matches_the_quartile_rule():
    assert bc.spread([10.0] * 5) == 0.0
    assert bc.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx((11.5 - 8.5) / 10.0)


# -- op mix against the percentile rule ----------------------------------
def _position_in_class(sizes, pct):
    """Where the nearest-rank ``pct`` op sits inside its size class (0..1)."""
    ordered = sorted(sizes)
    rank = len(ordered) - bc.samples_beyond(len(ordered), pct)
    value = ordered[rank - 1]
    first = ordered.index(value) + 1
    last = len(ordered) - ordered[::-1].index(value)
    return (rank - first + 0.5) / (last - first + 1)


@pytest.mark.parametrize("make, n_ops", [
    (oplists.session_cold_ops, wl_session.n_ops),
    (oplists.sweep_pool_ops, wl_sweep.n_ops),
])
def test_median_and_tail_sit_inside_a_size_class(make, n_ops):
    """Neither reported quantile lands on the step between two classes."""
    for seconds in range(1, 61):
        sizes = [op["length"] for op in make(0, n_ops(seconds))]
        for pct in (50.0, bc.tail_percentile(len(sizes))):
            assert 0.15 < _position_in_class(sizes, pct) < 0.85, (seconds, pct)


def test_paired_overhead_is_the_median_ratio():
    calls = []

    def work(seconds):
        def run():
            calls.append(seconds)
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass
        return run

    overhead = bc.paired_overhead_pct([(work(0.004), work(0.006))] * 5)
    assert len(calls) == 10
    assert 10.0 < overhead < 100.0
