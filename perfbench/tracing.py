"""Host-wall spans recorded from the benchmark's own files.

The traced run wraps the names the parallel driver calls — its two
``mpirun`` launchers, ``scaffold_pairs_from_sam`` and
``repro.trinity.pairs.reconcile_with_pairs`` — so each call becomes one
:class:`HostSpan` with a parent and the run id.  The launcher wrappers
also force ``trace=True`` so every stage returns its per-rank clock
segments.  Spans stay in memory until :func:`write_spans` at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.parallel.driver as driver_mod
import repro.trinity.pairs as pairs_mod


@dataclass
class HostSpan:
    """One host-wall interval of the traced run."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span stack for one traced run (single host thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[HostSpan] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[HostSpan]:
        parent = self._stack[-1] if self._stack else None
        rec = HostSpan(
            id=len(self.spans), name=name, start=time.perf_counter() - self._t0,
            end=0.0, parent=parent, run_id=self.run_id,
        )
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter() - self._t0

    def wrap(self, fn: Callable[..., Any], name: str, force_trace: bool = False):
        """``fn`` recorded as a child span of whatever span is open."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name
            if force_trace:
                kwargs["trace"] = True
                label = f"{name}:{getattr(args[0], '__name__', 'stage')}"
            with self.span(label):
                return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its children cover.

        Children of one parent run one after another on the host thread,
        so their summed duration is the covered part.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration - covered[s.id]
        return out


@contextlib.contextmanager
def traced_driver(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch the driver's callees with recording wrappers, then restore."""
    patches = [
        (driver_mod, "mpirun", True),
        (driver_mod, "mpirun_with_recovery", True),
        (driver_mod, "scaffold_pairs_from_sam", False),
        (pairs_mod, "reconcile_with_pairs", False),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, force in patches:
            setattr(mod, attr, recorder.wrap(getattr(mod, attr), attr, force_trace=force))
        with recorder.span("ParallelTrinityDriver.run"):
            yield recorder
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def write_spans(path: Path, recorder: SpanRecorder, extra: Dict[str, Any]) -> Path:
    """Write the host spans plus derived per-rank tables as one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "run_id": recorder.run_id,
        "spans": [asdict(s) for s in recorder.spans],
        "self_s": recorder.self_times(),
        **extra,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path
