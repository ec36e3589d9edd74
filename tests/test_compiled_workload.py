"""Tests for repro.workloads.compiled: structure, interning, payload codec,
and the artifact-store "compiled" kind."""

import json

import pytest

from repro.artifacts import compiled_key, decode_compiled, encode_compiled
from repro.artifacts.store import ArtifactStore
from repro.exceptions import WorkloadError
from repro.graphs.multimedia import benchmark_suite
from repro.graphs.task import ConfigId
from repro.graphs.task_graph import TaskGraph
from repro.graphs.task import TaskSpec
from repro.workloads.compiled import (
    CompiledWorkload,
    RefsView,
    WindowConfigSet,
    compile_workload,
    max_concurrency,
)
from repro.workloads.scenarios import make_scenario


@pytest.fixture(scope="module")
def quick_workload():
    return make_scenario("quick", length=12)


@pytest.fixture(scope="module")
def compiled(quick_workload):
    return CompiledWorkload.compile(quick_workload.apps)


class TestCompile:
    def test_distinct_graphs_first_appearance_order(self, quick_workload, compiled):
        seen = []
        for g in quick_workload.apps:
            if g.name not in seen:
                seen.append(g.name)
        assert [c.name for c in compiled.graphs] == seen

    def test_app_graph_maps_every_instance(self, quick_workload, compiled):
        assert compiled.n_apps == len(quick_workload.apps)
        for g, gi in zip(quick_workload.apps, compiled.app_graph):
            assert compiled.graphs[gi].name == g.name

    def test_rec_arrays_mirror_graph(self, compiled):
        by_name = {g.name: g for g in benchmark_suite()}
        for capp in compiled.graphs:
            graph = by_name[capp.name]
            assert capp.rec_order == graph.reconfiguration_order()
            assert capp.n_tasks == len(graph)
            for pos, nid in enumerate(capp.rec_order):
                spec = graph.task(nid)
                assert capp.rec_configs[pos] == ConfigId(graph.name, nid)
                assert capp.rec_exec_times[pos] == spec.exec_time
                assert capp.rec_bitstreams[pos] == spec.bitstream_kb
            assert capp.pred_counts == {
                nid: len(graph.predecessors(nid)) for nid in graph.node_ids
            }
            assert capp.max_concurrency == max_concurrency(graph)

    def test_dense_interning_is_bijective(self, compiled):
        assert len(set(compiled.config_ids)) == len(compiled.config_ids)
        for cid, config in enumerate(compiled.config_ids):
            assert compiled.config_index[config] == cid

    def test_flat_arrays_concatenate_sequences(self, quick_workload, compiled):
        expected = []
        for g in quick_workload.apps:
            expected.extend(
                ConfigId(g.name, nid) for nid in g.reconfiguration_order()
            )
        assert list(compiled.flat_configs) == expected
        assert [compiled.config_ids[c] for c in compiled.flat_cids] == expected
        assert compiled.app_offsets[0] == 0
        assert compiled.app_offsets[-1] == len(expected)
        assert compiled.n_tasks == len(expected)

    def test_matches(self, quick_workload, compiled):
        assert compiled.matches(quick_workload.apps)
        assert not compiled.matches(quick_workload.apps[:-1])

    def test_compile_workload_convenience(self, quick_workload):
        assert compile_workload(quick_workload).matches(quick_workload.apps)

    def test_empty_sequence_rejected(self):
        with pytest.raises(WorkloadError):
            CompiledWorkload.compile([])

    def test_same_name_different_content_rejected(self):
        a = TaskGraph("X", [TaskSpec(0, 10)])
        b = TaskGraph("X", [TaskSpec(0, 20)])
        with pytest.raises(WorkloadError, match="named 'X'"):
            CompiledWorkload.compile([a, b])

    def test_same_name_equal_content_shares_entry(self):
        a = TaskGraph("X", [TaskSpec(0, 10)])
        b = TaskGraph("X", [TaskSpec(0, 10)])  # equal, different object
        compiled = CompiledWorkload.compile([a, b])
        assert len(compiled.graphs) == 1
        assert compiled.app_graph == (0, 0)


class TestPayloadCodec:
    def test_round_trip(self, compiled):
        payload = json.loads(json.dumps(compiled.to_payload()))
        back = CompiledWorkload.from_payload(payload)
        assert back == compiled

    def test_malformed_payload_raises(self):
        with pytest.raises(WorkloadError):
            CompiledWorkload.from_payload({"graphs": []})

    def test_store_round_trip(self, tmp_path, compiled, quick_workload):
        store = ArtifactStore(tmp_path / "store")
        key = compiled_key("content")
        store.put("compiled", key, encode_compiled(key, compiled))
        back = store.load("compiled", key, decode_compiled)
        assert back == compiled
        assert back.matches(quick_workload.apps)


class TestRefsView:
    def test_sequence_protocol(self):
        flat = tuple(ConfigId("G", i) for i in range(6))
        view = RefsView(flat, 1, 4)
        assert len(view) == 3
        assert list(view) == list(flat[1:4])
        assert view[0] == flat[1] and view[-1] == flat[3]
        assert view[1:] == flat[2:4]
        assert view == flat[1:4]
        assert view.to_tuple() == flat[1:4]
        assert ConfigId("G", 2) in view
        assert ConfigId("G", 5) not in view
        assert view.find(ConfigId("G", 3)) == 2
        assert view.find(ConfigId("G", 0)) == -1
        with pytest.raises(IndexError):
            view[3]

    def test_bounds_are_clamped(self):
        flat = tuple(ConfigId("G", i) for i in range(3))
        assert len(RefsView(flat, 2, 1)) == 0
        assert RefsView(flat, -5, 99).to_tuple() == flat


class TestWindowConfigSet:
    def test_membership_tracks_counts(self):
        ids = (ConfigId("G", 0), ConfigId("G", 1))
        counts = [0, 2]
        view = WindowConfigSet(counts, {c: i for i, c in enumerate(ids)}, ids)
        assert ConfigId("G", 1) in view
        assert ConfigId("G", 0) not in view
        assert ConfigId("H", 9) not in view
        assert set(view) == {ConfigId("G", 1)}
        assert len(view) == 1
        counts[0] = 1
        assert ConfigId("G", 0) in view
        assert view.to_frozenset() == frozenset(ids)


class TestLoadCosts:
    def test_per_config_costs(self, compiled):
        from repro.hw.latency import BitstreamLatency
        from repro.hw.model import DeviceModel, RUSlot

        device = DeviceModel(
            slots=tuple(RUSlot() for _ in range(4)),
            latency_model=BitstreamLatency(us_per_kb=2),
        )
        costs = compiled.load_costs(device)
        assert costs == tuple(
            2 * kb for kb in compiled.config_bitstreams
        )


class TestStaleCompiledRejected:
    def test_matches_rejects_same_name_different_content(self, quick_workload):
        compiled = CompiledWorkload.compile(quick_workload.apps)
        # Same names, different exec times: must NOT match (silently
        # simulating stale data was the failure mode).
        first = quick_workload.apps[0]
        nid = first.node_ids[0]
        tampered = [
            g.with_exec_times({nid: g.task(nid).exec_time + 1})
            if g.name == first.name
            else g
            for g in quick_workload.apps
        ]
        assert not compiled.matches(tampered)

    def test_manager_rejects_stale_compiled(self, quick_workload):
        from repro.core.policies.classic import LRUPolicy
        from repro.core.replacement_module import PolicyAdvisor
        from repro.exceptions import SimulationError
        from repro.sim.manager import ExecutionManager

        compiled = CompiledWorkload.compile(quick_workload.apps)
        first = quick_workload.apps[0]
        nid = first.node_ids[0]
        tampered = [
            g.with_exec_times({nid: g.task(nid).exec_time + 1})
            if g.name == first.name
            else g
            for g in quick_workload.apps
        ]
        with pytest.raises(SimulationError, match="compiled workload"):
            ExecutionManager(
                graphs=tampered,
                n_rus=4,
                reconfig_latency=4000,
                advisor=PolicyAdvisor(LRUPolicy()),
                compiled=compiled,
            )


class TestScalarHookValidation:
    def test_incomplete_scalar_hooks_raise_clearly(self, quick_workload):
        from repro.core.policies.classic import LRUPolicy
        from repro.core.replacement_module import PolicyAdvisor
        from repro.exceptions import SimulationError
        from repro.sim.manager import ExecutionManager
        from repro.sim.tracing import AggregateTrace, resolve_trace_mode

        class IncompleteSink(AggregateTrace):
            def scalar_hooks(self):
                hooks = dict(super().scalar_hooks())
                del hooks["app_completed"]
                return hooks

        import repro.sim.manager as manager_mod

        sink = IncompleteSink()
        # Route the incomplete sink in as the single primary sink.
        original = manager_mod.resolve_trace_mode
        manager_mod.resolve_trace_mode = lambda trace, extra: (sink, (sink,))
        try:
            with pytest.raises(SimulationError, match="app_completed"):
                ExecutionManager(
                    graphs=quick_workload.apps,
                    n_rus=4,
                    reconfig_latency=4000,
                    advisor=PolicyAdvisor(LRUPolicy()),
                )
        finally:
            manager_mod.resolve_trace_mode = original

    def test_incomplete_scalar_hooks_raise_beside_other_sinks(self, quick_workload):
        from repro.core.policies.classic import LRUPolicy
        from repro.core.replacement_module import PolicyAdvisor
        from repro.exceptions import SimulationError
        from repro.sim.manager import ExecutionManager
        from repro.sim.tracing import AggregateTrace

        class IncompleteSink(AggregateTrace):
            def scalar_hooks(self):
                hooks = dict(super().scalar_hooks())
                del hooks["skip"]
                return hooks

        # Every sink's table is validated, not only a lone primary's.
        with pytest.raises(SimulationError, match="IncompleteSink.*skip"):
            ExecutionManager(
                graphs=quick_workload.apps,
                n_rus=4,
                reconfig_latency=4000,
                advisor=PolicyAdvisor(LRUPolicy()),
                trace="full",
                extra_sinks=(IncompleteSink(),),
            )
