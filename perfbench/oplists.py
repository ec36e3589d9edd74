"""Fixed, seeded op lists — one per workload.

Every run of a workload executes exactly the op list these functions
return for ``(seed, n_ops)``: never a time-boxed loop, so two runs of the
same seed do identical work, and runs of different seeds differ only in
the simulated inputs, not in the mix.

The mix is stratified in blocks: each block holds a fixed set of op
*positions* (size class, trace mode, backend, ...), the seed shuffles
their order and draws the scenario seeds.  Every block therefore has the
same composition, and op ``i`` depends only on ``(seed, i)``.

Size classes are sized so that the reported median and tail percentiles
land inside a class, never on the step between two classes, for any op
count the benchmark uses (see README.md, "Op mix").

Ops are plain JSON-serialisable dicts; the workload drivers turn them
into calls into the program.
"""

from __future__ import annotations

import random
from typing import Dict, List

Op = Dict[str, object]

#: The fig. 9 policy lines, by short key (the drivers map keys to specs).
POLICY_LINES = (
    "LRU", "LFU", "LLFD1", "LLFD2", "LLFD4", "LLFD1S", "LLFD2S", "LLFD4S", "LFD",
)


def derive_seed(seed: int, *parts: object) -> int:
    """A scenario seed that depends only on the bench seed and ``parts``."""
    return random.Random(":".join(map(str, (seed,) + parts))).randrange(1, 2**31)


#: Fewest ops in a measured run: with 100 samples the tail is p90 or
#: higher, which the size mixes below keep inside the largest class.
MIN_OPS = 100


def op_count(nominal: float, block: int) -> int:
    """Ops for a run: ``nominal`` rounded to whole blocks, at least MIN_OPS."""
    blocks = max(round(nominal / block), -(-MIN_OPS // block))
    return blocks * block


def _blocks(n_ops: int, block: int) -> int:
    if n_ops < block or n_ops % block:
        raise ValueError(f"op count {n_ops} must be a positive multiple of {block}")
    return n_ops // block


def _shuffled(seed: int, tag: str, b: int, positions: List[Op]) -> List[Op]:
    order = list(positions)
    random.Random(f"{tag}:{seed}:{b}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# session-cold
# ----------------------------------------------------------------------
#: Block of ten: 30% short (60 apps), 50% medium (500), 20% long (2000).
#: The median falls 40% into the medium class and every tail percentile
#: from p90 up falls inside the long class.
SESSION_BLOCK = 10
_SESSION_POSITIONS = (
    (60, "aggregate", 0), (60, "full", 0), (60, "aggregate", 1),
    (500, "aggregate", 0), (500, "full", 0), (500, "aggregate", 0),
    (500, "aggregate", 1), (500, "aggregate", 0),
    (2000, "aggregate", 0), (2000, "aggregate", 1),
)
#: Events between checkpoints for the checkpointed slice.
CHECKPOINT_EVERY = 1000


def session_cold_ops(seed: int, n_ops: int) -> List[Op]:
    """Fresh ``Session.run`` calls on workloads nobody has seen."""
    ops: List[Op] = []
    for b in range(_blocks(n_ops, SESSION_BLOCK)):
        positions = []
        for pos, (length, trace, ckpt) in enumerate(_SESSION_POSITIONS):
            positions.append({
                "scenario": ("paper-eval", "bursty")[(b + pos) % 2],
                "length": length,
                "policy": POLICY_LINES[(b * 7 + pos) % len(POLICY_LINES)],
                "n_rus": (4, 6, 8)[(b + pos) % 3],
                "trace": trace,
                "checkpoint_every": CHECKPOINT_EVERY if ckpt else 0,
            })
        for op in _shuffled(seed, "session-cold", b, positions):
            index = len(ops)
            ops.append(dict(op, index=index,
                            seed=derive_seed(seed, "session-cold", index)))
    return ops


# ----------------------------------------------------------------------
# sweep-pool
# ----------------------------------------------------------------------
#: Block of eight: 25% small, 50% medium, 25% large workloads; two of the
#: eight positions use the work-stealing backend.
SWEEP_BLOCK = 8
SWEEP_LENGTHS = {"S": 40, "M": 100, "L": 200}
SWEEP_RUS = (4, 6, 8)
_SWEEP_POSITIONS = (
    ("S", "process-pool"), ("S", "work-stealing"),
    ("M", "process-pool"), ("M", "process-pool"),
    ("M", "work-stealing"), ("M", "process-pool"),
    ("L", "process-pool"), ("L", "process-pool"),
)


#: Workloads per size class in the shared set (half paper-eval, half bursty).
SWEEP_PER_SIZE = 4


def sweep_workloads(seed: int) -> List[Op]:
    """The small shared set of workloads every sweep op draws from."""
    return [
        {"scenario": ("paper-eval", "bursty")[k % 2], "length": length,
         "seed": derive_seed(seed, "sweep-workload", size, k)}
        for size, length in SWEEP_LENGTHS.items()
        for k in range(SWEEP_PER_SIZE)
    ]


def sweep_pool_ops(seed: int, n_ops: int) -> List[Op]:
    """Fresh sessions running a fig. 9 spec set over several RU counts."""
    workloads = sweep_workloads(seed)
    by_size = {size: [w for w in workloads if w["length"] == length]
               for size, length in SWEEP_LENGTHS.items()}
    ops: List[Op] = []
    for b in range(_blocks(n_ops, SWEEP_BLOCK)):
        positions = []
        for pos, (size, backend) in enumerate(_SWEEP_POSITIONS):
            workload = by_size[size][(b + pos) % len(by_size[size])]
            positions.append(dict(
                workload,
                figure=("fig9a", "fig9b", "fig9c")[(b + pos) % 3],
                rus=list(SWEEP_RUS),
                backend=backend,
            ))
        for op in _shuffled(seed, "sweep-pool", b, positions):
            ops.append(dict(op, index=len(ops)))
    return ops


# ----------------------------------------------------------------------
# daemon-mixed
# ----------------------------------------------------------------------
#: Block of ten jobs: the four parts of the service mix.  Hot runs are
#: the fastest 30 % and event streams the slowest 30 %, so the median
#: falls in the middle of the fresh-run and sweep jobs and the tail
#: (p95 at the default size) inside the event streams.
DAEMON_BLOCK = 10
#: Hot-set size: enough distinct workloads that the aggregate reuse does
#: not hinge on a few random sequences (seed-to-seed spread ~3 %).
HOT_SET = 32
_DAEMON_POSITIONS = (
    "hot-run", "hot-run", "hot-run",
    "fresh-run", "fresh-run",
    "hot-sweep", "hot-sweep",
    "events-run", "events-run", "events-run",
)
_DAEMON_POLICIES = (
    {"policy": "lru"},
    {"policy": "local-lfd", "window": 1, "skip_events": True},
    {"policy": "local-lfd", "window": 2},
    {"policy": "lfu"},
)


def hot_workloads(seed: int) -> List[Dict[str, object]]:
    """Scenario kwargs of the hot set (primed before timing starts)."""
    return [{"length": 30, "seed": derive_seed(seed, "hot", k)} for k in range(HOT_SET)]


def _hot_job(seed: int, b: int, pos: int) -> Dict[str, object]:
    hot = hot_workloads(seed)[(b + pos) % HOT_SET]
    return {"kind": "run", "scenario": "quick", "scenario_kwargs": dict(hot),
            **_DAEMON_POLICIES[(b + pos) % len(_DAEMON_POLICIES)]}


def daemon_job(seed: int, part: str, b: int, pos: int, index: int) -> Dict[str, object]:
    """The job spec (as POSTed to ``/jobs``) for one position of one block."""
    if part == "hot-run":
        return _hot_job(seed, b, pos)
    if part == "fresh-run":
        return {"kind": "run", "scenario": "paper-eval",
                "scenario_kwargs": {"length": 60,
                                    "seed": derive_seed(seed, "daemon-fresh", index)},
                **_DAEMON_POLICIES[(b + pos) % len(_DAEMON_POLICIES)]}
    if part == "hot-sweep":
        hot = hot_workloads(seed)[(b + pos) % HOT_SET]
        return {"kind": "sweep", "scenario": "quick", "scenario_kwargs": dict(hot),
                "policies": ["lru", "local-lfd"], "rus": [4, 6]}
    if part == "events-run":
        return dict(_hot_job(seed, b, pos), events=True)
    raise ValueError(f"unknown daemon job part {part!r}")


def daemon_mixed_ops(seed: int, n_ops: int) -> List[Op]:
    """Closed-loop service jobs: hot runs, fresh runs, sweeps, event streams."""
    ops: List[Op] = []
    for b in range(_blocks(n_ops, DAEMON_BLOCK)):
        positions = list(enumerate(_DAEMON_POSITIONS))
        random.Random(f"daemon-mixed:{seed}:{b}").shuffle(positions)
        for pos, part in positions:
            index = len(ops)
            ops.append({"index": index, "part": part,
                        "job": daemon_job(seed, part, b, pos, index)})
    return ops


def warmup_jobs(seed: int) -> List[Dict[str, object]]:
    """Untimed jobs that prime the daemon's hot set before measuring: the
    run and the sweep of every hot workload, with the policy its hot runs
    use."""
    jobs = []
    for k, hot in enumerate(hot_workloads(seed)):
        policy = _DAEMON_POLICIES[k % len(_DAEMON_POLICIES)]
        jobs.append({"kind": "run", "scenario": "quick", "scenario_kwargs": dict(hot),
                     **policy})
        jobs.append({"kind": "sweep", "scenario": "quick", "scenario_kwargs": dict(hot),
                     "policies": ["lru", "local-lfd"], "rus": [4, 6]})
    return jobs
