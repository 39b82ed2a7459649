#!/usr/bin/env python3
"""End-to-end benchmark of the serial and the hybrid Trinity pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload whitefly-p8 --seed 1 --seconds 30 --trace 0

Each timed iteration assembles the workload's reads (generated from
``--seed``) once with ``TrinityPipeline.run`` and once with
``ParallelTrinityDriver.run``, checks that the two transcript lists are
identical (names, order, sequences, descriptions), and times both calls.
Iterations repeat while the next one still fits in ``--seconds``; each
metric is the median over the iterations.  Host times are reported in
full-speed seconds of the core the process is pinned to (see
``hostspeed.py``); the raw wall times are printed next to them.  ``--trace 1`` runs the same
timed loop and then one traced iteration, from which the per-layer
metrics are derived (see ``layers.py``).  Every metric is printed by
name with its unit; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run artefacts (per-iteration workdirs, trace files), ignored by git.
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: glibc's ``mallopt`` parameter for the number of malloc arenas.
M_ARENA_MAX = -8
#: What the benchmark imports from the program; timed for ``setup_s``.
PROGRAM_IMPORTS = ("repro.parallel.driver", "repro.trinity", "repro.simdata")

E2E_UNITS = {
    "makespan_s": "s",
    "sim_wall_s": "s",
    "serial_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}



Window = Tuple[float, float]


def _import_program() -> Window:
    """Put the checkout's ``src/`` first on the path and import the
    program; returns the import's ``perf_counter`` window."""
    pkg = SRC / "repro"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {pkg}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    for name in PROGRAM_IMPORTS:
        importlib.import_module(name)
    window = (t0, time.perf_counter())
    import repro

    if Path(repro.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {pkg}")
    return window


def _fresh_import_window() -> Window:
    """The program import's window in a fresh interpreter.  On Linux
    ``perf_counter`` reads CLOCK_MONOTONIC, which every process shares."""
    code = (f"import time; t0 = time.perf_counter(); import {', '.join(PROGRAM_IMPORTS)}; "
            "print(t0, time.perf_counter())")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    t0, t1 = map(float, proc.stdout.strip().splitlines()[-1].split())
    return t0, t1


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_s() -> float:
    """This process's user + system CPU seconds."""
    t = os.times()
    return t.user + t.system


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One benchmark process: a workload, its read draws and iterations.

    Iteration ``i`` assembles read draw ``i`` (see ``Workload.reads``),
    so a run's medians average over several sequencing runs of the
    workload's organism as well as over host noise.
    """

    def __init__(self, workload: Any, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.draws: Dict[int, Any] = {}
        self.gen_windows: List[Window] = []
        for draw in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.reads(draw)
            self.gen_windows.append((t0, time.perf_counter()))
        self.attempted = 0
        self.failed = 0
        self.n_iter = 0

    def reads(self, draw: int) -> Any:
        if draw not in self.draws:
            self.draws[draw] = self.workload.reads(self.seed, draw)
        return self.draws[draw]

    def _dirs(self) -> Dict[str, Optional[Path]]:
        if not self.workload.files:
            return {"serial": None, "hybrid": None, "ckpt": None}
        base = self.scratch / f"iter{self.n_iter}"
        return {name: base / name for name in ("serial", "hybrid", "ckpt")}

    def iteration(self, draw: int, recorder: Any = None) -> Optional[Dict[str, Any]]:
        """Serial + hybrid run on one draw, with the output check; None on
        failure."""
        from repro.obs.metrics import GLOBAL_METRICS
        from repro.parallel.driver import ParallelTrinityDriver
        from repro.trinity import TrinityPipeline

        import layers
        import tracing

        wl, seed, reads = self.workload, self.seed, self.reads(draw)
        dirs = self._dirs()
        self.n_iter += 1
        self.attempted += 1
        try:
            gc.collect()
            c0, t0 = _cpu_s(), time.perf_counter()
            serial = TrinityPipeline(wl.trinity_config(seed)).run(
                reads, workdir=dirs["serial"]
            )
            serial_win = (t0, time.perf_counter())
            serial_cpu = _cpu_s() - c0
            driver = ParallelTrinityDriver(wl.parallel_config(seed))
            writes0 = GLOBAL_METRICS.get("checkpoint.writes")
            gc.collect()
            traced = tracing.traced_driver(recorder) if recorder else contextlib.nullcontext()
            with traced:
                c0, t0 = _cpu_s(), time.perf_counter()
                hybrid = driver.run(
                    reads, workdir=dirs["hybrid"], checkpoint_dir=dirs["ckpt"]
                )
                hybrid_win = (t0, time.perf_counter())
                hybrid_cpu = _cpu_s() - c0
                sim_wall_s = hybrid_win[1] - t0
            want = [t.to_record() for t in serial.outputs.transcripts]
            got = [t.to_record() for t in hybrid.outputs.transcripts]
            if got != want:
                diff = next(
                    (i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                    min(len(want), len(got)),
                )
                raise AssertionError(
                    f"hybrid transcripts differ from serial: {len(got)} vs {len(want)} "
                    f"records, first difference at index {diff}"
                )
            ckpt = dirs["ckpt"]
            return {
                "serial": serial,
                "hybrid": hybrid,
                "serial_win": serial_win,
                "hybrid_win": hybrid_win,
                "raw_serial_s": serial_win[1] - serial_win[0],
                "serial_cpu_share": serial_cpu / (serial_win[1] - serial_win[0]),
                "hybrid_cpu_share": hybrid_cpu / sim_wall_s,
                "raw_sim_wall_s": sim_wall_s,
                "raw_makespan_s": layers.makespan_s(hybrid, sim_wall_s),
                "glue_s": layers.glue_s(hybrid, sim_wall_s),
                "n_reads": len(reads),
                "n_transcripts": len(got),
                "checkpoint_writes": GLOBAL_METRICS.get("checkpoint.writes") - writes0,
                "checkpoint_bytes": (
                    sum(f.stat().st_size for f in ckpt.glob("*.ckpt.pkl")) if ckpt else 0
                ),
            }
        except Exception:  # noqa: BLE001 - every failure counts toward `failed`
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            shutil.rmtree(self.scratch / f"iter{self.n_iter - 1}", ignore_errors=True)


def _emit(name: str, value: float, unit: str) -> None:
    print(f"  {name:34s} {value:14.6g} {unit}")


def _unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_sent"):
        return "B"
    if name.endswith("speedup"):
        return "x"
    if name.endswith(("imbalance", "per_read", "ratio", "karp_flatt", "_frac")):
        return "ratio"
    return "count"


def _per_layer(it: Dict[str, Any], untraced: Dict[str, float], p: int,
               failed_frac: float, recorder: Any) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the traced iteration ``it``, and the printed
    bases of its derived ratios."""
    import layers

    hybrid, serial = it["hybrid"], it["serial"]
    children = hybrid.children
    out: Dict[str, float] = {}
    for res in children:
        out.update(layers.stage_metrics(res, it["n_reads"]))
    out.update(layers.runtime_metrics(children))
    out["driver.glue_s"] = it["glue_s"]
    out["driver.checkpoint_writes"] = it["checkpoint_writes"]
    out["driver.checkpoint_bytes"] = float(it["checkpoint_bytes"])
    for name in layers.SERIAL_MONITOR_STAGES:
        out[f"serial.{name}_s"] = serial.metrics.get(f"stage.{name}_s", 0.0)

    # Derived ratios (not gated), each printed with its base.
    speedup = it["serial_s"] / it["makespan_s"]
    serial_frac, frac_stages = layers.critical_serial_fraction(children)
    out["pipeline.speedup"] = speedup
    out["pipeline.karp_flatt"] = layers.karp_flatt(speedup, p)
    out["pipeline.serial_frac"] = serial_frac
    bases = [
        f"pipeline.speedup = serial_s {it['serial_s']:.4f} s / makespan_s "
        f"{it['makespan_s']:.4f} s = {speedup:.3f}x at p={p}",
        f"pipeline.serial_frac = tagged-serial critical-rank time / makespan over "
        f"traced stages {','.join(frac_stages)} = {serial_frac:.4f}",
    ]
    for res in children:
        prefix = layers.STAGES[res.stage]
        base = layers.serial_stage_s(serial, prefix) * it["serial_speed"]
        makespan = res.makespan * it["hybrid_speed"]
        s = base / makespan if makespan > 0 else 0.0
        out[f"{prefix}.karp_flatt"] = layers.karp_flatt(s, p)
        bases.append(
            f"{prefix}.karp_flatt from S = serial {base:.4f} s / makespan "
            f"{makespan:.4f} s (full-speed) = {s:.3f}x at p={p}"
        )
    out["trace.makespan_overhead_s"] = it["makespan_s"] - untraced["makespan_s"]
    out["trace.sim_wall_overhead_s"] = it["sim_wall_s"] - untraced["sim_wall_s"]
    out["failed_frac"] = failed_frac
    bases.append(
        f"trace overhead: makespan_s {it['makespan_s']:.4f} s traced vs "
        f"{untraced['makespan_s']:.4f} s untraced "
        f"({it['makespan_s'] / untraced['makespan_s'] - 1:+.1%}), sim_wall_s "
        f"{it['sim_wall_s']:.4f} s vs {untraced['sim_wall_s']:.4f} s"
    )
    stage_sum = sum(c.makespan for c in children)
    bases.append(
        f"stage makespans {stage_sum:.4f} s + driver.glue_s {it['glue_s']:.4f} s = "
        f"{stage_sum + it['glue_s']:.4f} s; x host speed {it['hybrid_speed']:.4f} = "
        f"traced makespan_s {it['makespan_s']:.4f} s"
    )
    bases.append("host self time: " + ", ".join(
        f"{name} {value:.4f} s" for name, value in sorted(recorder.self_times().items())
    ))
    return out, bases


def _at_full_speed(it: Dict[str, Any], speed: Any) -> None:
    """Add the iteration's host times in full-speed seconds: ``serial_s``
    over the serial call's window; ``sim_wall_s`` and ``makespan_s``
    (whose virtual part is thread CPU time) over the hybrid call's."""
    it["serial_speed"] = speed.speed(*it["serial_win"])
    it["hybrid_speed"] = speed.speed(*it["hybrid_win"])
    it["serial_s"] = it["raw_serial_s"] * it["serial_speed"]
    it["sim_wall_s"] = it["raw_sim_wall_s"] * it["hybrid_speed"]
    it["makespan_s"] = it["raw_makespan_s"] * it["hybrid_speed"]


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hostspeed import SpeedSampler

    # The simulated ranks are threads under one GIL.  On one CPU their
    # hand-offs never wait for a second, possibly preempted, CPU, which
    # keeps both host wall and thread-time-based virtual clocks steady.
    # Threads started later, the speed sampler's too, inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # With one arena per thread, whether a rank thread's arena keeps its
    # freed pages depends on the reads: deep-io-p2's peak RSS read 134 or
    # 149-156 MB by seed, the same on every run of a seed.  One arena for
    # all threads reads 124.5-124.9 MB.  Set before any thread starts.
    if not ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1):
        raise SystemExit("perfbench: mallopt(M_ARENA_MAX, 1) failed")
    speed = SpeedSampler().start()
    try:
        return _run(args, speed)
    finally:
        speed.stop()


def _run(args: argparse.Namespace, speed: Any) -> int:
    import_windows = [_import_program()]
    import layers
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    import_windows += [_fresh_import_window() for _ in range(SETUP_REPEATS - 1)]
    scratch = OUT / f"{wl.name}-s{args.seed}-tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        bench = Bench(wl, args.seed, scratch)
        print(f"perfbench {wl.name} seed={args.seed}: {len(bench.reads(0))} reads per "
              f"draw, {wl.nprocs} ranks x {wl.nthreads} threads, deal={wl.strategy}, "
              f"files={wl.files}, faults={wl.faults is not None}")

        # --trace 1 times one untraced iteration as the base of the tracing
        # overhead, then traces the same draw.
        results: List[Dict[str, Any]] = []
        durations: List[float] = []
        t_loop = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            it = bench.iteration(bench.n_iter)
            durations.append(time.perf_counter() - t0)
            if len(durations) == 1:
                # The process peak through one serial and one hybrid run,
                # as a user running each once sees it.  Later iterations
                # add the heap the first one left behind.
                peak_rss_mb = _peak_rss_mb()
            if it is not None:
                # Keep the scalars only, so each iteration's StageResults
                # are freed before the next iteration runs.
                results.append({k: v for k, v in it.items() if k not in ("serial", "hybrid")})
            it = None
            elapsed = time.perf_counter() - t_loop
            if args.trace or elapsed + statistics.median(durations) > args.seconds:
                break

        traced = None
        if args.trace and results:
            recorder = tracing.SpanRecorder(f"{wl.name}-s{args.seed}-traced")
            traced = bench.iteration(0, recorder)
        speed.stop()

        setup_s = (statistics.median(speed.full_speed_s(*w) for w in import_windows)
                   + statistics.median(speed.full_speed_s(*w) for w in bench.gen_windows))
        for i, r in enumerate(results, 1):
            _at_full_speed(r, speed)
            print(f"  iter {i}: full-speed (raw) serial_s {r['serial_s']:.4f} "
                  f"({r['raw_serial_s']:.4f}) sim_wall_s {r['sim_wall_s']:.4f} "
                  f"({r['raw_sim_wall_s']:.4f}) makespan_s {r['makespan_s']:.4f} "
                  f"({r['raw_makespan_s']:.4f}), host speed serial {r['serial_speed']:.3f} "
                  f"hybrid {r['hybrid_speed']:.3f}, CPU share serial {r['serial_cpu_share']:.3f} "
                  f"hybrid {r['hybrid_cpu_share']:.3f}; transcripts {r['n_transcripts']} identical")
        print(f"  {speed.summary()}")
        e2e: Dict[str, float] = {"setup_s": setup_s}
        for key in ("makespan_s", "sim_wall_s", "serial_s"):
            e2e[key] = statistics.median(r[key] for r in results) if results else 0.0

        layer: Dict[str, float] = {}
        bases: List[str] = []
        if traced is not None:
            _at_full_speed(traced, speed)
            layer, bases = _per_layer(traced, results[0], wl.nprocs,
                                      bench.failed / bench.attempted, recorder)
            per_rank = {layers.STAGES[res.stage]: layers.rank_clocks(res)
                        for res in traced["hybrid"].children}
            trace_path = tracing.write_spans(
                OUT / f"trace-{wl.name}-s{args.seed}.json", recorder,
                {"per_rank": per_rank, "metrics": layer},
            )
            print(f"  spans written to {trace_path.relative_to(ROOT)}")
        traced = None
        e2e["peak_rss_mb"] = peak_rss_mb
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = bench.failed == 0 and bool(results) and (not args.trace or bool(layer))
    print(f"transcripts per draw: {[r['n_transcripts'] for r in results]}; "
          f"hybrid identical to serial in "
          f"{bench.attempted - bench.failed}/{bench.attempted} iterations "
          f"(failed_frac {bench.failed / bench.attempted:.4f})")
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        print("per-layer metrics (traced iteration):")
        for name, value in sorted(layer.items()):
            _emit(name, value, _unit(name))
            metrics[name] = {"value": value, "unit": _unit(name)}
        for line in bases:
            print(f"  {line}")
    print(f"end-to-end metrics (median of {len(results)} iterations):")
    for name, unit in E2E_UNITS.items():
        _emit(name, e2e[name], unit)
        if not args.trace:
            metrics[name] = {"value": e2e[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
