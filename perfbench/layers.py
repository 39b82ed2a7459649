"""Per-layer metrics derived from one traced hybrid run.

Layers are the stage modules.  Every number comes from the
:class:`~repro.obs.result.StageResult` objects the two pipeline entry
points return: the six ``mpirun`` children of the driver's result (run
with ``trace=True``), the serial pipeline's ``stage.*_s`` spans, and the
host-wall timing taken around the calls.

A phase time is the critical rank's ``phase`` span duration for that
label, in virtual seconds; the critical rank is the one whose clock ends
last.  Per-rank compute/wait/comm come from the raw clock segments a
traced ``mpirun`` adds to ``spans``.  A stage recovered after a rank
crash keeps only its final attempt's segments (the recovery wrapper drops
per-rank traces by design), so its split and phase times cover the final
attempt and the lost attempts show up in ``recovery.overhead_s``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.critical import critical_path
from repro.obs.result import StageResult
from repro.obs.span import CLOCK_KINDS

#: ``mpirun`` stage name -> metric prefix.
STAGES: Dict[str, str] = {
    "mpi_jellyfish": "jellyfish",
    "mpi_inchworm": "inchworm",
    "mpi_bowtie": "bowtie",
    "mpi_graph_from_fasta": "gff",
    "mpi_reads_to_transcripts": "rtt",
    "mpi_chrysalis_backend": "chrysalis",
}

#: Per prefix: metric suffix -> phase label.
PHASES: Dict[str, Dict[str, str]] = {
    "jellyfish": {"count_s": "jellyfish:count", "exchange_s": "jellyfish:exchange"},
    "inchworm": {"components_s": "inchworm:components", "assemble_s": "inchworm:assemble"},
    "bowtie": {"split_s": "bowtie:split", "align_s": "bowtie:align", "merge_s": "bowtie:merge"},
    "gff": {"setup_s": "gff:setup", "loop1_s": "gff:loop1", "loop2_s": "gff:loop2"},
    "rtt": {"loop_s": "rtt:loop"},
    "chrysalis": {"deal_s": "chrysalis:deal", "loop_s": "chrysalis:loop",
                  "merge_s": "chrysalis:merge"},
}

IMBALANCE = ("inchworm", "gff", "chrysalis")
BYTES_SENT = ("jellyfish", "bowtie", "gff", "rtt", "chrysalis")

#: Per prefix: the serial pipeline's monitor stages doing the same work.
#: The serial ``butterfly`` stage also runs pair reconciliation, which
#: the hybrid run does in driver glue.
SERIAL_STAGES: Dict[str, Tuple[str, ...]] = {
    "jellyfish": ("jellyfish",),
    "inchworm": ("inchworm",),
    "bowtie": ("chrysalis.bowtie",),
    "gff": ("chrysalis.graph_from_fasta",),
    "rtt": ("chrysalis.reads_to_transcripts",),
    "chrysalis": ("chrysalis.fasta_to_debruijn", "chrysalis.quantify_graph", "butterfly"),
}

SERIAL_MONITOR_STAGES = tuple(s for names in SERIAL_STAGES.values() for s in names)


def karp_flatt(speedup: float, p: int) -> float:
    """Experimentally determined serial fraction e = (1/S - 1/p)/(1 - 1/p)."""
    if p <= 1 or speedup <= 0:
        return 0.0
    return (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p)


def _attempt_start(res: StageResult) -> float:
    """Virtual time at which the attempt that produced the output began."""
    return res.metrics.get("faults.recovery_overhead_s", 0.0)


def rank_clocks(res: StageResult) -> Dict[str, Dict[str, float]]:
    """Per rank track: summed compute/wait/comm segment durations."""
    out: Dict[str, Dict[str, float]] = {}
    for s in res.spans:
        if s.kind in CLOCK_KINDS and s.track.startswith("rank "):
            row = out.setdefault(s.track, dict.fromkeys(CLOCK_KINDS, 0.0))
            row[s.kind] += s.duration
    return out


def critical_track(res: StageResult) -> str:
    rank = max(range(len(res.elapsed)), key=lambda r: (res.elapsed[r], -r))
    return f"rank {rank}"


def phase_time(res: StageResult, label: str) -> float:
    """The critical rank's duration of ``label`` in the final attempt."""
    track, t0 = critical_track(res), _attempt_start(res)
    return sum(
        s.duration for s in res.spans
        if s.kind == "phase" and s.label == label and s.track == track
        and s.start >= t0
    )


def imbalance(res: StageResult) -> float:
    """max/mean per-rank compute (``StageResult.imbalance`` reads 1.00
    because each stage's closing collective syncs every clock)."""
    compute = [row["compute"] for row in rank_clocks(res).values()]
    mean = sum(compute) / len(compute) if compute else 0.0
    return max(compute) / mean if mean > 0 else 1.0


def serial_stage_s(serial: StageResult, prefix: str) -> float:
    return sum(serial.metrics.get(f"stage.{name}_s", 0.0) for name in SERIAL_STAGES[prefix])


def stage_metrics(res: StageResult, n_reads: int) -> Dict[str, float]:
    """One stage's makespan, phase times, imbalance, bytes and counts."""
    prefix = STAGES[res.stage]
    out = {f"{prefix}.makespan_s": res.makespan}
    for suffix, label in PHASES[prefix].items():
        out[f"{prefix}.{suffix}"] = phase_time(res, label)
    if prefix in IMBALANCE:
        out[f"{prefix}.imbalance"] = imbalance(res)
    if prefix in BYTES_SENT:
        out[f"{prefix}.bytes_sent"] = res.metrics["bytes_sent"]
    if prefix == "bowtie":
        # Reads each rank aligned, summed over ranks, per input read: p
        # while every rank aligns every read, 1 once reads are dealt.
        t0 = _attempt_start(res)
        aligned = sum(
            s.attr("reads", 0) for s in res.spans
            if s.kind == "phase" and s.label == "bowtie:align" and s.start >= t0
        )
        out["bowtie.align_attempts_per_read"] = aligned / n_reads
    if prefix == "inchworm":
        out["inchworm.n_components"] = float(res.outputs[0].n_components)
    return out


def runtime_metrics(children: Iterable[StageResult]) -> Dict[str, float]:
    """``repro.mpi`` runtime and recovery counters over all six stages."""
    wait = comm = collectives = hits = computes = losses = overhead = 0.0
    for res in children:
        crit = rank_clocks(res).get(critical_track(res), dict.fromkeys(CLOCK_KINDS, 0.0))
        wait += crit["wait"]
        comm += crit["comm"]
        collectives += res.metrics["n_collectives"]
        hits += res.metrics["shared_hits"]
        computes += res.metrics["shared_computes"]
        losses += res.metrics.get("faults.rank_losses", 0.0)
        overhead += res.metrics.get("faults.recovery_overhead_s", 0.0)
    return {
        "mpi.wait_s": wait,
        "mpi.comm_s": comm,
        "mpi.n_collectives": collectives,
        "mpi.shared_hit_ratio": hits / (hits + computes) if hits + computes else 0.0,
        "recovery.rank_losses": losses,
        "recovery.overhead_s": overhead,
    }


def critical_serial_fraction(children: Iterable[StageResult]) -> Tuple[float, List[str]]:
    """Tagged-serial share of the summed makespan of the stages that kept
    per-rank traces (``repro.obs.critical``), and those stages' names."""
    serial = makespan = 0.0
    names: List[str] = []
    for res in children:
        if res.traces is None:
            continue
        report = critical_path(res)
        serial += report.serial_time
        makespan += report.makespan
        names.append(STAGES[res.stage])
    return (serial / makespan if makespan > 0 else 0.0), names


def glue_s(hybrid: StageResult, sim_wall_s: float) -> float:
    """Driver host time outside the six ``mpirun`` monitor spans."""
    launched = sum(v for k, v in hybrid.metrics.items()
                   if k.startswith("stage.") and k.endswith("[mpi]_s"))
    return sim_wall_s - launched


def makespan_s(hybrid: StageResult, sim_wall_s: float) -> float:
    """Modelled time to transcripts: the six virtual stage makespans plus
    the driver's glue, which runs serially on the front end."""
    return sum(c.makespan for c in hybrid.children) + glue_s(hybrid, sim_wall_s)
