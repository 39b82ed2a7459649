"""MPI Bowtie by read dealing.

The paper (SS:III.A) ran Bowtie on several nodes by splitting the
*target* FASTA of Inchworm contigs with PyFasta: every node aligned all
reads against its piece, so per-node work never shrank with the node
count.  Here the *reads* are dealt instead, the way read-parallel
aligners such as merAligner work: each rank aligns its chunks of the
read list (:func:`repro.parallel.chunks.deal_reads`) against the full
contig index, built once per run through :meth:`SimComm.shared` and
charged to every rank.  Each rank resolves its own SAM records; the
merge pools them and puts them back in input order, so the merged SAM
is record-for-record identical to a single-node run — a tested
invariant.

The paper's PyFasta split survives only in Figure 10's analytic model
(:func:`repro.parallel.scaling.simulate_bowtie_point`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.parallel.chunks import deal_reads, undeal
from repro.parallel.recovery import with_retry
from repro.parallel.stage import parallel_stage
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import SamRecord, sam_header, write_sam
from repro.trinity.bowtie import BowtieConfig, BowtieIndex, bowtie_align

PathLike = Union[str, Path]


@dataclass(frozen=True)
class BowtieInputs:
    """Workload data for the parallel Bowtie (identical on every rank)."""

    reads: Sequence[SeqRecord]
    contigs: Sequence[Contig]


@dataclass(frozen=True)
class BowtieStageConfig:
    """Distribution knobs on top of the serial :class:`BowtieConfig`."""

    bowtie: BowtieConfig = BowtieConfig()
    workdir: Optional[PathLike] = None  # per-rank SAM pieces + merged SAM


@dataclass
class BowtieOutputs:
    """What the parallel Bowtie computes."""

    records: List[SamRecord]  # full merged SAM (on all ranks)
    part_path: Optional[Path] = None  # this rank's SAM piece, if written


@parallel_stage(
    "bowtie", inputs=BowtieInputs, config=BowtieStageConfig, outputs=BowtieOutputs
)
def mpi_bowtie(
    comm: SimComm,
    inputs: BowtieInputs,
    config: Optional[BowtieStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`."""
    config = config or BowtieStageConfig()
    reads, contigs = inputs.reads, inputs.contigs
    workdir = config.workdir

    # -- per-rank: align my dealt reads against the full index --------------
    # Thread CPU time: all ranks align concurrently, so wall time here
    # would grow with nprocs through GIL contention.
    my_reads = [reads[i] for i in deal_reads(len(reads), comm.rank, comm.size)]
    with comm.region("bowtie:align", reads=len(my_reads)) as align_region:
        index = comm.shared("bowtie:index", lambda: BowtieIndex(contigs, config.bowtie))
        t0 = time.thread_time()
        mine = bowtie_align(my_reads, index)
        comm.clock.advance(time.thread_time() - t0, label="bowtie:align")
    align_time = align_region.elapsed

    part_path: Optional[Path] = None
    if workdir is not None:
        part_path = Path(workdir) / f"bowtie.part{comm.rank}.sam"
        part_path.parent.mkdir(parents=True, exist_ok=True)
        with_retry(comm, "bowtie:write_part", lambda: write_sam(part_path, mine))

    # -- merge: pool every rank's records back into input order -------------
    with comm.region("bowtie:merge", serial=True) as merge_region:
        parts = comm.allgather(mine)
        t0 = time.thread_time()
        merged = undeal(parts, len(reads))
        comm.clock.advance(time.thread_time() - t0, label="bowtie:merge")
        if workdir is not None and comm.rank == 0:
            header = sam_header([(c.name, len(c.seq)) for c in contigs])
            with_retry(
                comm,
                "bowtie:write_sam",
                lambda: write_sam(Path(workdir) / "bowtie.sam", merged, header),
            )
    return StageResult(
        stage="bowtie",
        outputs=BowtieOutputs(records=merged, part_path=part_path),
        makespan=comm.clock.now,
        metrics={
            "align_time": align_time,
            "merge_time": merge_region.elapsed,
            "n_records": float(len(merged)),
        },
        rank=comm.rank,
    )
