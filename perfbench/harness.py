"""Closed-loop runner, metrics, set-up probes, traced run and self-check.

One client in one process runs the workload's task cycles back to back;
the next task starts only when the previous one (for ``cli-cold``, the
previous child process) has finished.  Whole cycles are run until the
requested number of seconds has passed, so every task class keeps its
share of the samples.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import (Recorder, layer_metrics, load_spans, module_self_times,
                     root_inclusive_times)

WORKLOADS = wl.WORKLOADS
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"l{level}"] = _read(str(index / "size")).strip()
    return out


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": None}


def _blas_threads() -> int | None:
    """Pool size reported by the OpenBLAS numpy loaded, if it is OpenBLAS."""
    paths = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
             if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": "compare only with runs on this machine; CPU frequency "
                "scaling and pinning are not controlled",
    }


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    latencies: list = field(default_factory=list)
    names: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    max_err: float = 0.0
    max_err_task: str = ""
    peak_child_kib: int = 0
    cycles: int = 0
    cycle_rates: list = field(default_factory=list)

    def record(self, task, seconds, value, raised, workload) -> None:
        self.latencies.append(seconds)
        self.names.append(task.name)
        usage = getattr(workload, "last_usage", None)
        if usage is not None:
            self.peak_child_kib = max(self.peak_child_kib, usage.ru_maxrss)
        if raised is not None:
            self.failures.append(f"{task.name}: {type(raised).__name__}: "
                                 f"{raised}")
            return
        try:
            err = task.check(value)
        except Exception as exc:  # a miss or a malformed output both fail
            self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
            return
        if err is not None and err >= self.max_err:
            self.max_err, self.max_err_task = err, task.name


class SpeedProbe:
    """Fixed numpy-only kernel timed between tasks to follow host speed.

    On a shared 2-vCPU Xeon VM the host's speed changed by up to 1.7x
    within an hour, uniformly enough across code that task times divided
    by this kernel's median time in the same run stay steady.  It runs at
    most every INTERVAL seconds, outside any task's timer, and mixes the
    kinds of work the workloads do: small FFTs (per-call overhead), a BLAS
    matmul, a large FFT (memory), a cache-resident elementwise recurrence
    and a pure-Python loop.  Each sample is the faster of two back-to-back
    runs, so a cold cache or a sleeping BLAS pool after a task does not
    count as a slower host.
    """

    INTERVAL = 1.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((64, 256)) + 0j
        self.mat = rng.standard_normal((256, 256)) + 1j
        self.big = rng.standard_normal((512, 512)) + 0j
        self.line = np.linspace(-5.0, 5.0, 16385)
        self.times: list = []
        self._last = -math.inf

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < self.INTERVAL:
            return
        self.times.append(min(self._kernel(), self._kernel()))
        self._last = time.perf_counter()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for row in self.rows:
            np.fft.fft(row)
        self.mat @ self.mat
        np.fft.fft2(self.big)
        prev, cur = np.zeros_like(self.line), np.exp(-0.5 * self.line**2)
        for j in range(1, 100):
            prev, cur = cur, (-self.line * cur - 0.5 * prev) / j
        sum(i * i for i in range(20000))
        return time.perf_counter() - t0


def run_cycles(workload, deadline=None, cycles=None,
               recorder: Recorder | None = None,
               probe: SpeedProbe | None = None) -> Outcome:
    """Run whole cycles from k = 0 until the deadline or the cycle count."""
    out = Outcome()
    clock = time.perf_counter
    while True:
        first = len(out.latencies)
        for task in workload.cycle(out.cycles):
            if recorder is not None:
                recorder.task = len(out.latencies)
            raised = value = None
            t0 = clock()
            try:
                value = task.run()
            except Exception as exc:  # counted as a failed task
                raised = exc
            elapsed = clock() - t0
            if recorder is not None:
                recorder.task = -1
            out.record(task, elapsed, value, raised, workload)
            if probe is not None:
                probe.maybe_sample()
        done = out.latencies[first:]
        out.cycle_rates.append(len(done) / sum(done))
        out.cycles += 1
        if cycles is not None and out.cycles >= cycles:
            return out
        if deadline is not None and clock() >= deadline:
            return out


def warm_up(workload) -> None:
    """One untimed task (the first of cycle 0); it must pass its check."""
    task = workload.cycle(0)[0]
    task.check(task.run())


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def tail(latencies: list) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def class_stats(out: Outcome) -> dict:
    by: dict = {}
    for name, lat in zip(out.names, out.latencies):
        by.setdefault(name, []).append(lat)
    return {name: {"n": len(v), "p50_ms": 1e3 * statistics.median(v),
                   "busy_s": sum(v)} for name, v in sorted(by.items())}


def probe_setup(workload: str, seed: int, root: Path, env: dict) -> float:
    """Wall time from spawning a fresh run to its first timed task."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def setup_probe(workload: str, seed: int, root: Path, env: dict) -> int:
    w = wl.build(workload, seed, wl.DESK, root, env)
    try:
        warm_up(w)
        print("ready", flush=True)
    finally:
        w.close()
    return 0


def raw_times(out: Outcome) -> dict:
    """Task throughput and latencies in seconds-based units."""
    return {"tasks_per_s": statistics.median(out.cycle_rates),
            "task_p50_ms": 1e3 * statistics.median(out.latencies),
            "task_tail_ms": 1e3 * tail(out.latencies)[0]}


def end_to_end(out: Outcome, setup_s: float, children_rss: bool,
               ref_s: float) -> dict:
    """End-to-end metrics; task times are in units of the speed probe."""
    n = len(out.latencies)
    raw = raw_times(out)
    peak_kib = out.peak_child_kib if children_rss else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "tasks_per_ref": (raw["tasks_per_s"] * ref_s, "1/ref"),
        "task_p50_ref": (1e-3 * raw["task_p50_ms"] / ref_s, "ref"),
        "task_tail_ref": (1e-3 * raw["task_tail_ms"] / ref_s, "ref"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "max_rel_err": (out.max_err, "rel"),
        "ok_ratio": ((n - len(out.failures)) / n, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _cold_seconds(code: str, env: dict, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cli_spans(workload, traced: Outcome) -> tuple[list, list]:
    """Merge child span files; return spans and per-process outside-main s."""
    spans, outside = [], []
    for task_id, (path, wall) in enumerate(zip(workload.span_files,
                                               traced.latencies)):
        base = len(spans)
        local = load_spans(path) if path.exists() else []
        for span in local:
            span.task = task_id
            if span.parent >= 0:
                span.parent += base
        spans.extend(local)
        main_s = sum(s.t1 - s.t0 for s in local if s.parent < base)
        outside.append(wall - main_s)
    return spans, outside


def traced_pass(w, cycles: int, out_dir: Path, tag: str):
    """Run cycles with spans recorded; cli-cold children record their own.

    Returns the outcome, the recorder holding every span, and for cli-cold
    the per-process wall time spent outside ``cli.main``.
    """
    recorder = Recorder()
    is_cli = isinstance(w, wl.CliCold)
    if is_cli:
        w.spans_dir, w.span_files = out_dir / f"spans-{tag}-children", []
        shutil.rmtree(w.spans_dir, ignore_errors=True)
        w.spans_dir.mkdir(parents=True)
    else:
        recorder.install(callers=[wl])
    try:
        traced = run_cycles(w, cycles=cycles, recorder=recorder)
    finally:
        recorder.uninstall()
    outside: list = []
    if is_cli:
        recorder.spans, outside = _cli_spans(w, traced)
        shutil.rmtree(w.spans_dir, ignore_errors=True)
        w.spans_dir = None
    return traced, recorder, outside


def traced_run(w, seconds: float, out_dir: Path, env: dict, tag: str):
    """Untraced, traced, untraced passes over the same cycles.

    The untraced time is the mean of the passes either side of the traced
    one, so drift during the run does not show up as tracing overhead.
    """
    plain = run_cycles(w, deadline=time.perf_counter() + seconds / 3)
    traced, recorder, outside = traced_pass(w, plain.cycles, out_dir, tag)
    is_cli = isinstance(w, wl.CliCold)
    recorder.dump(out_dir / f"spans-{tag}.json")
    again = run_cycles(w, cycles=plain.cycles)
    spread = abs(sum(plain.latencies) - sum(again.latencies))
    plain.latencies += again.latencies
    plain.failures += again.failures

    untraced_s = sum(plain.latencies) / 2
    traced_s = sum(traced.latencies)
    metrics = layer_metrics(recorder.spans)
    self_sum = sum(s.self_s for s in recorder.spans) + sum(outside)
    if is_cli:
        bare = _cold_seconds("pass", env)
        metrics["cli.import_s"] = _cold_seconds("import awsym.cli", env) - bare
        metrics["cli.process_s"] = statistics.median(outside)
    else:
        metrics["cli.import_s"] = 0.0
        metrics["cli.process_s"] = 0.0
    overhead = traced_s - untraced_s
    metrics.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": overhead,
        "trace.untraced_spread_s": spread,
        "trace.self_sum_s": self_sum,
        "trace.cycles": plain.cycles,
    })
    modules = module_self_times(recorder.spans)
    if is_cli:
        modules["cli.process"] = sum(outside)
    detail = {
        "module_self_s": modules,
        "dominant_module": max(modules, key=modules.get) if modules else None,
        "root_inclusive_s": root_inclusive_times(recorder.spans),
        "self_sum_minus_untraced_s": self_sum - untraced_s,
        # the two untraced passes bound the noise of the untraced figure
        "self_sum_within_overhead":
            abs(self_sum - untraced_s) <= abs(overhead) + spread,
        "spans": len(recorder.spans),
    }
    return plain, traced, metrics, detail


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_read") \
            or name.endswith("bytes_written"):
        return "B"
    if name.endswith("band_ratio"):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        env: dict, started: float, probes: int) -> dict:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    setup_times = [] if trace else \
        [probe_setup(workload, seed, root, env) for _ in range(probes)]
    w = wl.build(workload, seed, wl.DESK, root, env)
    try:
        warm_up(w)
        own_setup = time.perf_counter() - started
        tag = f"{workload}-s{seed}"
        detail: dict = {"workload": workload, "seed": seed, "trace": trace,
                        "seconds": seconds, "machine": machine_block(),
                        "load": "closed loop, 1 client, 1 process",
                        "own_setup_s": own_setup}
        if trace:
            plain, out, metrics, tdetail = traced_run(w, seconds, out_dir,
                                                      env, tag)
            detail["trace_detail"] = tdetail
            result_metrics = {k: {"value": v, "unit": _units(k)}
                              for k, v in metrics.items()}
            failures = plain.failures + out.failures
            attempted = len(plain.latencies) + len(out.latencies)
        else:
            probe = SpeedProbe()
            out = run_cycles(w, deadline=time.perf_counter() + seconds,
                             probe=probe)
            ref_s = statistics.median(probe.times)
            result_metrics = end_to_end(out, statistics.median(setup_times),
                                        w.children_rss, ref_s)
            detail.update({"setup_probe_s": setup_times,
                           "speed_probe_ms": 1e3 * ref_s,
                           "speed_probe_samples": len(probe.times),
                           "raw": raw_times(out)})
            failures = out.failures
            attempted = len(out.latencies)
    finally:
        w.close()
    _, pct = tail(out.latencies)
    detail.update({
        "tasks": len(out.latencies), "cycles": out.cycles,
        "cycle_tasks_per_s": out.cycle_rates,
        "tail_percentile": pct, "tail_samples": len(out.latencies),
        "task_classes": class_stats(out),
        "max_rel_err_task": out.max_err_task,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    })
    with open(out_dir / f"{tag}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    summary = {"correct": not failures, "attempted": attempted,
               "failed": len(failures), "metrics": result_metrics}
    return {"detail": detail, "summary": summary}


def self_check(root: Path, env: dict) -> int:
    """Every workload's task list once at N=64, L=4, untraced and traced."""
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    bad = 0
    for name in WORKLOADS:
        t0 = time.perf_counter()
        w = wl.build(name, 12345, wl.SELF_CHECK, root, env)
        try:
            plain = run_cycles(w, cycles=1)
            traced, recorder, _ = traced_pass(w, 1, out_dir, "self-check")
        finally:
            w.close()
        failures = plain.failures + traced.failures
        called = sorted({s.name for s in recorder.spans})
        if failures or not called:
            bad += 1
        print(f"[self-check] {name}: {len(traced.latencies)} tasks, "
              f"{len(failures)} failed, max_rel_err {traced.max_err:.3e}, "
              f"{len(called)} traced layers, "
              f"{time.perf_counter() - t0:.1f} s")
        for line in failures[:10]:
            print(f"    {line}")
    print("[self-check] " + ("PASS" if not bad else f"FAIL ({bad})"))
    return 1 if bad else 0
