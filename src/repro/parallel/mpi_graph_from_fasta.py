"""Hybrid MPI+OpenMP GraphFromFasta (paper SS:III.B).

Each of the two compute loops is distributed with the chunked round-robin
strategy; after each loop the per-rank results are pooled on *every* rank
with ``allgatherv`` — strings (packed welding subsequences) after loop 1,
a flat int array (pair indices) after loop 2, exactly the wire formats
the paper describes.

The setup region is split by what it scans.  The contig side (weld-k-mer
-> contigs map, shared seeds) is small and runs redundantly on every
*real* rank, as do the weld indexing and component construction — the
non-parallel regions whose share of total time grows with node count
(Figure 8).  In the simulation these read-only structures are built once
per run through :meth:`repro.mpi.comm.SimComm.shared`: every rank is
still *charged* the single-rank build cost on its virtual clock, but the
host does not pay O(nprocs x setup) wall-clock.  The read side — the
weldmer scan, the dominant setup cost — is sharded instead: each rank
scans its dealt reads (:func:`repro.parallel.chunks.deal_reads`), and the
partial weldmer tables are pooled with ``allgatherv`` and summed, as in
distributed k-mer overlap detection (Guidi et al., arXiv 2010.10055).
The pooled tables are small (tens of entries), so pooling them costs
less than an owner-exchange round would.

The per-contig kernels are imported from the serial implementation, so
the weld/pair/component *sets* computed here are identical to
:func:`repro.trinity.chrysalis.graph_from_fasta.graph_from_fasta` — a
tested invariant.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mpi.comm import SimComm
from repro.mpi.datatypes import pack_int_pairs, pack_strings, unpack_int_pairs, unpack_strings
from repro.obs.result import StageResult
from repro.openmp import Schedule, ThreadTeam
from repro.parallel.chunks import (
    chunk_ranges,
    chunks_for_rank,
    deal_reads,
    default_chunk_size,
)
from repro.parallel.recovery import with_retry
from repro.parallel.stage import parallel_stage
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.components import Component, build_components
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    WeldCandidate,
    build_kmer_to_contigs,
    build_weld_index,
    build_weldmer_index,
    find_weld_pairs_for_contig,
    harvest_welds_for_contig,
    shared_seed_array,
    weld_index_keys,
)


@dataclass(frozen=True)
class GffInputs:
    """Workload data for the hybrid GraphFromFasta (identical on every rank).

    ``extra_pairs`` carries the Bowtie scaffold pairs the driver folds
    into component construction — input data, not a knob.
    """

    contigs: Sequence[Contig]
    reads: Sequence[SeqRecord]
    extra_pairs: Sequence[Tuple[int, int]] = ()


@dataclass(frozen=True)
class GffStageConfig:
    """Distribution knobs on top of the serial :class:`GraphFromFastaConfig`."""

    gff: GraphFromFastaConfig = GraphFromFastaConfig()
    nthreads: int = 16
    chunk_size: Optional[int] = None  # None -> default_chunk_size


@dataclass
class GffOutputs:
    """What the hybrid GraphFromFasta computes.

    All ranks hold identical ``welds`` / ``pairs`` / ``components`` (the
    pooling collectives guarantee it — also a tested invariant).
    """

    welds: List[WeldCandidate]
    pairs: List[Tuple[int, int]]
    components: List[Component]


@parallel_stage(
    "gff", inputs=GffInputs, config=GffStageConfig, outputs=GffOutputs
)
def mpi_graph_from_fasta(
    comm: SimComm,
    inputs: GffInputs,
    config: Optional[GffStageConfig] = None,
) -> StageResult:
    """SPMD body; run under :func:`repro.mpi.mpirun`."""
    config = config or GffStageConfig()
    contigs, reads, extra_pairs = inputs.contigs, inputs.reads, inputs.extra_pairs
    cfg = config.gff
    nthreads = config.nthreads
    team = ThreadTeam(nthreads, Schedule.DYNAMIC)
    chunk_size = config.chunk_size
    if chunk_size is None:
        chunk_size = default_chunk_size(len(contigs), comm.size, nthreads)
    ranges = chunk_ranges(len(contigs), chunk_size)
    my_chunks = chunks_for_rank(len(ranges), comm.rank, comm.size)

    # Simulated input-FASTA read: the retryable I/O point for flaky-I/O
    # fault plans.  A no-op in fault-free runs (zero cost, no spans).
    with_retry(comm, "gff:read_fasta", lambda: None)

    # -- setup: replicated contig-side seeds, sharded read-side scan -------
    def _seeds():
        kmer_map = build_kmer_to_contigs(contigs, cfg.k)
        return kmer_map, shared_seed_array(kmer_map, cfg)

    my_reads = [reads[i] for i in deal_reads(len(reads), comm.rank, comm.size)]
    with comm.region("gff:setup", reads=len(my_reads)):
        with comm.region("gff:setup:seeds", serial=True) as seeds_region:
            kmer_map, shared_seeds = comm.shared("gff:setup", _seeds)
        # Thread CPU time: every rank scans its shard concurrently, so
        # wall time here would grow with nprocs through GIL contention.
        t0 = time.thread_time()
        my_weldmers = build_weldmer_index(my_reads, shared_seeds, cfg)
        comm.clock.advance(time.thread_time() - t0, label="gff:weldmer_scan")
        weldmers: Counter = Counter()
        for table in comm.allgatherv(my_weldmers):
            weldmers.update(table)
    serial_time = seeds_region.elapsed

    # -- loop 1: harvest welds over my chunks ------------------------------
    my_welds: List[WeldCandidate] = []
    with comm.region("gff:loop1", chunks=len(my_chunks)) as loop1_region:
        for c in my_chunks:
            start, stop = ranges[c]
            result = team.map(
                lambda idx: harvest_welds_for_contig(
                    idx, contigs[idx], kmer_map, cfg, shared_seeds
                ),
                list(range(start, stop)),
            )
            for welds in result.values:
                my_welds.extend(welds)
            comm.clock.advance(
                result.makespan,
                label=f"gff:loop1:chunk{c}",
                attrs=result.as_span_attrs(),
            )
    loop1_time = loop1_region.elapsed

    # -- pool welds on every rank (packed strings + Allgatherv) ------------
    # Wire format mirrors the paper: the vector of welding subsequences is
    # packed into a single byte sequence (flanks/seed delimited so the
    # receiving side can rebuild the candidates), sizes exchanged first.
    payload, lengths = pack_strings(
        [f"{w.left_flank},{w.seed},{w.right_flank}" for w in my_welds]
    )
    owners = np.array([w.owner for w in my_welds], dtype=np.int64)
    seeds = np.array([w.seed_code for w in my_welds], dtype=np.uint64)
    pooled = comm.allgatherv((payload, lengths, owners, seeds))
    welds: List[WeldCandidate] = []
    for pay, lens, own, sds in pooled:
        for packed, o, s in zip(unpack_strings(pay, lens), own.tolist(), sds.tolist()):
            left, seed, right = packed.split(",")
            welds.append(
                WeldCandidate(
                    left_flank=left,
                    seed=seed,
                    right_flank=right,
                    owner=int(o),
                    seed_code=int(s),
                )
            )

    # -- serial region: weld index rebuild (charged per rank, built once;
    # valid because the pooled weld list is identical on every rank) -------
    def _weld_index():
        index = build_weld_index(welds)
        return index, weld_index_keys(index)

    with comm.region("gff:weld_index", serial=True) as widx_region:
        weld_index, weld_keys = comm.shared("gff:weld_index", _weld_index)
    serial_time += widx_region.elapsed

    # -- loop 2: find pairs over my chunks ----------------------------------
    my_pairs: Set[Tuple[int, int]] = set()
    with comm.region("gff:loop2", chunks=len(my_chunks)) as loop2_region:
        for c in my_chunks:
            start, stop = ranges[c]
            result = team.map(
                lambda idx: find_weld_pairs_for_contig(
                    idx, contigs[idx], welds, weld_index, weldmers, cfg, weld_keys
                ),
                list(range(start, stop)),
            )
            for pairs in result.values:
                my_pairs.update(pairs)
            comm.clock.advance(
                result.makespan,
                label=f"gff:loop2:chunk{c}",
                attrs=result.as_span_attrs(),
            )
    loop2_time = loop2_region.elapsed

    # -- pool pairs on every rank (flat int array + Allgatherv) ------------
    flat = pack_int_pairs(sorted(my_pairs))
    pooled_pairs = comm.allgatherv(flat)
    pair_set: Set[Tuple[int, int]] = set()
    for arr in pooled_pairs:
        pair_set.update(unpack_int_pairs(arr))
    for a, b in extra_pairs:
        pair_set.add((min(a, b), max(a, b)))
    pairs = sorted(pair_set)

    # -- serial region: components (charged per rank, built once; the
    # pooled pair list is identical on every rank) --------------------------
    with comm.region("gff:components", serial=True) as comp_region:
        components = comm.shared(
            "gff:components", lambda: build_components(len(contigs), pairs)
        )
    serial_time += comp_region.elapsed

    return StageResult(
        stage="gff",
        outputs=GffOutputs(welds=welds, pairs=pairs, components=components),
        makespan=comm.clock.now,
        metrics={
            "loop1_time": loop1_time,
            "loop2_time": loop2_time,
            "serial_time": serial_time,
            "n_welds": float(len(welds)),
            "n_pairs": float(len(pairs)),
            "n_components": float(len(components)),
        },
        rank=comm.rank,
    )
