"""``setup_s``: what a user waits for before the first op can start.

Each measurement starts a fresh interpreter (a fresh daemon for the
service path) and times it until it reports ready.  The reported value
is the raw median over several starts — not probe-scaled: scaling a
sub-second start made it noisier, the median of several starts is
steady.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from typing import Callable, Dict, List, Tuple

READY = "perfbench-ready"

_IMPORT_CLI = f"import repro.cli; print({READY!r}, flush=True)"

# A fresh interpreter whose process pool has started and initialised its
# two workers (the state `repro fig9a --jobs 2` reaches before it can
# dispatch its first cell).
_WARM_POOL = f"""
from repro import Session, local_lfd_spec, lru_spec
s = Session(workload="quick", length=4, trace="aggregate")
s.sweep([lru_spec(), local_lfd_spec(1)], parallel=2)
print({READY!r}, flush=True)
s.close()
"""


def _time_to_ready(argv: List[str], env: Dict[str, str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if READY not in line or code != 0:
        raise RuntimeError(f"set-up probe {argv[-1][:40]!r} failed (exit {code})")
    return elapsed


def fresh_import(env: Dict[str, str]) -> float:
    """A fresh interpreter importing ``repro.cli``."""
    return _time_to_ready([sys.executable, "-c", _IMPORT_CLI], env)


def fresh_pool(env: Dict[str, str]) -> float:
    """A fresh interpreter plus a warmed two-worker process pool."""
    return _time_to_ready([sys.executable, "-c", _WARM_POOL], env)


def spawn_daemon(env: Dict[str, str], store: str, log_path: str,
                 workers: int = 2) -> Tuple[subprocess.Popen, int]:
    """Start ``repro serve`` on an ephemeral port; return it and the port.

    The daemon's stderr goes to ``log_path`` (a pipe nobody drains could
    fill up and stall it).
    """
    log = open(log_path, "w", encoding="utf-8")
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--quota-rate", "0", "--store", store],
            env=env, stdout=subprocess.DEVNULL, stderr=log,
        )
    finally:
        log.close()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        with open(log_path, encoding="utf-8") as handle:
            match = re.search(r"listening on http://[^:]+:(\d+) ", handle.read())
        if match:
            return proc, int(match.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    stop_daemon(proc)
    raise RuntimeError(f"repro serve did not start (see {log_path})")


def wait_healthy(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    url = f"http://127.0.0.1:{port}/healthz"
    while True:
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                if response.status == 200:
                    return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def stop_daemon(proc: subprocess.Popen) -> None:
    """SIGTERM, then SIGKILL after a grace period; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def fresh_daemon(env: Dict[str, str], workdir: str, k: int) -> float:
    """Spawning ``repro serve`` until ``/healthz`` answers."""
    store = os.path.join(workdir, f"setup-store-{k}")
    t0 = time.perf_counter()
    proc, port = spawn_daemon(env, store, os.path.join(workdir, f"setup-serve-{k}.log"))
    try:
        wait_healthy(port)
        return time.perf_counter() - t0
    finally:
        stop_daemon(proc)


def median_of(fn: Callable[[int], float], repeats: int) -> Tuple[float, List[float]]:
    samples = [fn(k) for k in range(repeats)]
    return statistics.median(samples), samples
