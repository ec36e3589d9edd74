"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.core.policies.classic import LRUPolicy
from repro.core.policies.lfd import LFDPolicy, LocalLFDPolicy
from repro.core.replacement_module import PolicyAdvisor
from repro.experiments.motivational import (
    fig2_sequence,
    fig2_task_graph_1,
    fig2_task_graph_2,
    fig3_sequence,
    fig3_task_graph_1,
    fig3_task_graph_2,
)
from repro.graphs.builders import TaskGraphBuilder, chain_graph, fork_join_graph
from repro.graphs.multimedia import benchmark_suite
from repro.sim.semantics import ManagerSemantics
from repro.sim.simtime import ms


@pytest.fixture
def tiny_chain():
    """Three-task chain with 1/2/3 ms tasks."""
    return chain_graph("CHAIN", [ms(1), ms(2), ms(3)])


@pytest.fixture
def tiny_fork_join():
    """Classic diamond: 1 -> {2,3} -> 4."""
    return fork_join_graph("DIAMOND", ms(2), [ms(3), ms(4)], ms(1))


@pytest.fixture
def fig2_graphs():
    return fig2_task_graph_1(), fig2_task_graph_2()


@pytest.fixture
def fig2_apps():
    return fig2_sequence()


@pytest.fixture
def fig3_graphs():
    return fig3_task_graph_1(), fig3_task_graph_2()


@pytest.fixture
def fig3_apps():
    return fig3_sequence()


@pytest.fixture
def multimedia_apps():
    return benchmark_suite()


@pytest.fixture
def lru_advisor():
    return PolicyAdvisor(LRUPolicy())


@pytest.fixture
def local_lfd_advisor():
    return PolicyAdvisor(LocalLFDPolicy())


@pytest.fixture
def lfd_advisor():
    return PolicyAdvisor(LFDPolicy())


@pytest.fixture
def oracle_semantics():
    return ManagerSemantics(provide_oracle=True)


@pytest.fixture
def window1_semantics():
    return ManagerSemantics(lookahead_apps=1)


@pytest.fixture
def ideal_managers(monkeypatch):
    """Sequence length of every manager the zero-latency ideal builds."""
    import repro.sim.simulator as simulator

    built = []

    class CountingManager(simulator.ExecutionManager):
        def __init__(self, graphs, *args, **kwargs):
            built.append(len(graphs))
            super().__init__(graphs, *args, **kwargs)

    monkeypatch.setattr(simulator, "ExecutionManager", CountingManager)
    return built
