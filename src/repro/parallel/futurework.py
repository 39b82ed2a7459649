"""Implementations of the paper's named future work (SS:VI).

The conclusions list three concrete directions, each compared
head-to-head with the paper's design in the ``fw-*`` experiments:

* "continue our work by focusing on the non-parallelized regions of
  Chrysalis" — the shipped :mod:`repro.parallel.mpi_graph_from_fasta`
  now shards the weldmer-index build (the dominant serial region)
  across ranks and merges with an allgather;
* "investigate more optimal ways to partition the workload" — the
  ``dynamic`` strategy in :mod:`repro.parallel.scaling`;
* "exploring MPI-I/O for RNA-Seq data" —
  :func:`mpi_reads_to_transcripts_striped`, where each rank reads only
  its own stripe of the input instead of the whole file.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mpi.comm import SimComm
from repro.obs.result import StageResult
from repro.openmp import Schedule, ThreadTeam
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs,
    RttOutputs,
    RttStageConfig,
    _chunk_read_cost,
)
from repro.parallel.stage import parallel_stage
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadAssignment,
    assign_read,
    build_kmer_map,
    stream_chunks,
)


@parallel_stage(
    "rtt-striped", inputs=RttInputs, config=RttStageConfig, outputs=RttOutputs
)
def mpi_reads_to_transcripts_striped(
    comm: SimComm,
    inputs: RttInputs,
    config: Optional[RttStageConfig] = None,
) -> StageResult:
    """MPI-I/O variant of ReadsToTranscripts.

    Identical chunk ownership (chunk ``i`` -> rank ``i mod size``) and
    identical assignments to the shipped redundant-read version — a
    tested invariant — but each rank's virtual clock is charged only for
    the chunks it actually owns, modelling a collective file view.
    ``config.workdir``/``kernel``/``pool`` are ignored (always pools,
    per-read kernel).
    """
    config = config or RttStageConfig()
    reads, contigs, components = inputs.reads, inputs.contigs, inputs.components
    cfg = config.rtt
    team = ThreadTeam(config.nthreads, Schedule.DYNAMIC)

    with comm.region("fw:rtt:setup", serial=True) as setup_region:
        kmer_map = comm.shared(
            "fw:rtt:kmer_map",
            lambda: build_kmer_map(contigs, components, cfg.k),
        )
    setup_time = setup_region.elapsed
    comm.clock.advance(0.0005, label="fw:rtt:file_open")  # MPI_File_open + Set_view

    mine: List[ReadAssignment] = []
    with comm.region("fw:rtt:loop", strategy="striped") as loop_region:
        for chunk_idx, chunk in enumerate(stream_chunks(reads, cfg.max_mem_reads)):
            if chunk_idx % comm.size != comm.rank:
                continue  # striped: other ranks' chunks are never read
            comm.clock.advance(_chunk_read_cost(chunk), label=f"fw:rtt:read_chunk{chunk_idx}")
            result = team.map(
                lambda item: assign_read(item[0], item[1], kmer_map, cfg), chunk
            )
            mine.extend(result.values)
            comm.clock.advance(
                result.makespan,
                label=f"fw:rtt:assign_chunk{chunk_idx}",
                attrs=result.as_span_attrs(),
            )
    loop_time = loop_region.elapsed

    pooled = comm.allgather(mine)
    assignments = sorted((a for part in pooled for a in part), key=lambda a: a.read_index)
    return StageResult(
        stage="rtt-striped",
        outputs=RttOutputs(assignments=assignments, out_path=None),
        makespan=comm.clock.now,
        metrics={
            "loop_time": loop_time,
            "setup_time": setup_time,
            "concat_time": 0.0,
            "n_assignments": float(len(assignments)),
        },
        rank=comm.rank,
    )
