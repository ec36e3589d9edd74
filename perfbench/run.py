"""Benchmark entry point: one workload per invocation.

Run from the root of a checkout (``src/repro`` must exist there)::

    python3 perfbench/run.py --workload session-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep-pool --trace 1          # per-layer run
    python3 perfbench/run.py --workload daemon-mixed --self-check 5   # steadiness

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (raw times, the tail percentile and its sample count,
the output digest, failure reasons).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchcore as bc  # noqa: E402

WORKLOADS = ("session-cold", "sweep-pool", "daemon-mixed")
DEFAULT_SEED = 0
BASELINE = os.path.join(HERE, "baseline.json")
#: Scratch space inside the checkout; removed when the run ends.
WORK_ROOT = ".bench_tmp"


class Context:
    """What a workload driver needs: seed, size, scratch dir, tracer."""

    def __init__(self, seed: int, seconds: int, traced: bool,
                 work: str, env: dict, pinned: list) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = bc.Tracer() if traced else None
        self.work = work
        self.env = env
        self.pinned = pinned


def _driver(name: str):
    if name == "session-cold":
        import wl_session as mod
    elif name == "sweep-pool":
        import wl_sweep as mod
    else:
        import wl_daemon as mod
    return mod


def _load_baseline() -> dict:
    try:
        with open(BASELINE, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def end_to_end(out: dict) -> dict:
    """The eight end-to-end metrics from a driver's output."""
    outcomes = out["outcomes"]
    lat = bc.latency_summary([o.scaled_s for o in outcomes])
    tally = out["tally"]
    ops_per_s, execs_per_s = bc.window_rates(out["windows"])
    return {
        "setup_s": bc.metric(out["setup_s"], "s"),
        "latency_p50_ms": bc.metric(lat["p50_ms"], "ms"),
        "latency_tail_ms": bc.metric(lat["tail_ms"], "ms"),
        "ops_per_s": bc.metric(ops_per_s, "1/s"),
        "sim_events_per_s": bc.metric(execs_per_s, "1/s"),
        "peak_rss_mb": bc.metric(out["peak_rss_mb"], "MB"),
        "reuse_pct": bc.metric(tally.reuse_pct, "%"),
        "overhead_pct": bc.metric(tally.overhead_pct, "%"),
    }


def details(out: dict, digest: str) -> dict:
    outcomes = out["outcomes"]
    raw = bc.latency_summary([o.raw_s for o in outcomes])
    lat = bc.latency_summary([o.scaled_s for o in outcomes])
    failures = [f"op {o.index}: {e}" for o in outcomes for e in o.errors]
    return {
        "digest": digest,
        "ops": len(outcomes),
        "tail_percentile": lat["tail_pct"],
        "tail_samples_beyond": lat["beyond"],
        "raw_latency_p50_ms": raw["p50_ms"],
        "raw_latency_tail_ms": raw["tail_ms"],
        "phase_raw_s": out["phase_raw_s"],
        "windows": len(out["windows"]),
        "probe_median_ms": statistics.median(out["probes"]) * 1000.0,
        "setup_samples_s": out["setup_samples"],
        "executions": out["tally"].executions,
        "failures": failures[:20],
    }


def run_workload(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program to measure (src/repro missing under {root})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.abspath(WORK_ROOT))
    tempfile.tempdir = work
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=work,
               REPRO_CACHE_DIR=os.path.join(work, "default-store"))
    os.environ.update(TMPDIR=work, REPRO_CACHE_DIR=env["REPRO_CACHE_DIR"])
    baseline = _load_baseline()
    pinned = []
    if args.seed == DEFAULT_SEED:
        pinned = baseline.get("digests", {}).get(args.workload, [])
    ctx = Context(args.seed, args.seconds, bool(args.trace), work, env,
                  [] if args.pin else pinned)
    try:
        out = _driver(args.workload).run(ctx)
        outcomes = out["outcomes"]
        bc.digest_mismatches(outcomes, ctx.pinned)
        digest = bc.combined_digest([o.digest for o in outcomes])
        failed = sum(1 for o in outcomes if o.errors)
        info = details(out, digest)
        if ctx.tracer is not None:
            metrics = layer_metrics(ctx, out)
            span_path = os.path.join(root, WORK_ROOT, f"spans-{args.workload}.jsonl")
            ctx.tracer.dump(span_path)
            info["spans"] = os.path.relpath(span_path, root)
        else:
            metrics = end_to_end(out)
        if args.pin:
            if failed:
                print("error: refusing to pin digests of a run with failed ops",
                      file=sys.stderr)
                return 1
            baseline.setdefault("digests", {})[args.workload] = [o.digest for o in outcomes]
            with open(BASELINE, "w", encoding="utf-8") as handle:
                json.dump(baseline, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(ctx, out) -> dict:
    import layers

    units = {m["name"]: m["unit"] for m in _bench_spec()["per_layer"]}
    values = layers.layer_suite(ctx, skip=set(out["layers"]))
    values.update(out["layers"])
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    return {name: bc.metric(values[name], units[name]) for name in units}


def _bench_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def self_check(args) -> int:
    """Repeat one workload over ``--self-check`` seeds; print each spread."""
    spec = _bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [args.seed + k for k in range(args.self_check)] + [args.seed]
    results = []
    for seed in seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        results.append((seed, info, result))
        print(f"seed {seed}: {time.monotonic() - t0:.1f}s, "
              f"{result['failed']}/{result['attempted']} failed, "
              f"p50 {result['metrics']['latency_p50_ms']['value']:.1f} ms "
              f"(raw {info['raw_latency_p50_ms']:.1f}), "
              f"probe {info['probe_median_ms'] * 1000:.0f} us", file=sys.stderr)
    ok = all(r["correct"] for _s, _i, r in results)
    first, again = results[0], results[-1]
    for key in ("reuse_pct", "overhead_pct"):
        if first[2]["metrics"][key] != again[2]["metrics"][key]:
            print(f"NOT REPEATABLE: {key} differs between two runs of seed {args.seed}")
            ok = False
    if first[1]["digest"] != again[1]["digest"]:
        print(f"NOT REPEATABLE: output digest differs between two runs of seed {args.seed}")
        ok = False
    print(f"{'metric':18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for _s, _i, r in results[:-1]]
        sp = bc.spread(values) if len(values) >= 2 else 0.0
        verdict = "steady" if sp < bound / 3 else "within bound" if sp <= bound else "TOO NOISY"
        if name == "setup_s" and verdict == "TOO NOISY":
            verdict = "noisy (not gated on spread)"
        elif verdict == "TOO NOISY":
            ok = False
        print(f"{name:18} {statistics.median(values):12.4f} {sp:8.4f} {bound:6.2f}  {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sizes the fixed op list (about this long on the reference host)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--self-check", type=int, default=0, metavar="N",
                        help="repeat the workload over N seeds and print each spread")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's op digests in baseline.json")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.self_check:
        return self_check(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
