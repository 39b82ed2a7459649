"""Integration tests for the three MPI stages run standalone."""

import pytest

from repro.mpi import mpirun
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs,
    RttStageConfig,
    mpi_reads_to_transcripts,
    mpi_reads_to_transcripts_master_slave,
)
from repro.seq.sam import read_sam, write_sam
from repro.trinity.bowtie import BowtieConfig, BowtieIndex, bowtie_align
from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaConfig, graph_from_fasta
from repro.trinity.chrysalis.reads_to_transcripts import (
    ReadsToTranscriptsConfig,
    reads_to_transcripts,
)
from repro.trinity.inchworm import InchwormConfig, inchworm_assemble
from repro.trinity.jellyfish import jellyfish_count


@pytest.fixture(scope="module")
def artefacts(smoke_reads):
    counts = jellyfish_count(smoke_reads, 25)
    contigs = inchworm_assemble(counts, InchwormConfig(seed=1))
    gff = graph_from_fasta(contigs, smoke_reads, GraphFromFastaConfig(k=24))
    return counts, contigs, gff


class TestMpiBowtie:
    def test_matches_single_index_alignment(self, smoke_reads, artefacts):
        _counts, contigs, _gff = artefacts
        serial = bowtie_align(smoke_reads, contigs, BowtieConfig())
        run = mpirun(
            mpi_bowtie, 3,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig()),
        )
        merged = run.outputs[0].records
        assert [r.to_line() for r in merged] == [r.to_line() for r in serial]

    def test_writes_parts_and_merged_sam(self, smoke_reads, artefacts, tmp_path):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_bowtie, 2,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig(), workdir=tmp_path),
        )
        assert (tmp_path / "bowtie.part0.sam").exists()
        assert (tmp_path / "bowtie.part1.sam").exists()
        merged = list(read_sam(tmp_path / "bowtie.sam"))
        assert len(merged) == len(smoke_reads)

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_every_read_aligned_once(self, smoke_reads, artefacts, nprocs):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_bowtie, nprocs,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig()),
        )
        assert _phase_reads(run, "bowtie:align") == len(smoke_reads)

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_sam_file_matches_serial(self, smoke_reads, artefacts, tmp_path, nprocs):
        _counts, contigs, _gff = artefacts
        index = BowtieIndex(contigs, BowtieConfig())
        serial = tmp_path / "serial.sam"
        write_sam(serial, bowtie_align(smoke_reads, index), index.header())
        mpirun(
            mpi_bowtie, nprocs,
            BowtieInputs(reads=smoke_reads, contigs=contigs),
            BowtieStageConfig(bowtie=BowtieConfig(), workdir=tmp_path / "wd"),
        )
        assert (tmp_path / "wd" / "bowtie.sam").read_bytes() == serial.read_bytes()


def _phase_reads(run, label):
    """Sum of the ``reads`` attributes of every rank's ``label`` phase."""
    return sum(s.attr("reads", 0) for s in run.spans if s.kind == "phase" and s.label == label)


class TestMpiGff:
    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_matches_serial(self, smoke_reads, artefacts, nprocs):
        _counts, contigs, gff = artefacts
        run = mpirun(
            mpi_graph_from_fasta, nprocs,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        )
        key = lambda w: (w.owner, w.seed_code, w.left_flank, w.seed, w.right_flank)
        for r in run.outputs:
            # Bit-identical welds: pooling permutes chunk order, so compare
            # under a canonical sort.
            assert sorted(r.welds, key=key) == sorted(gff.welds, key=key)
            assert r.pairs == gff.pairs
            assert r.components == gff.components

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_weldmer_scan_reads_each_read_once(self, smoke_reads, artefacts, nprocs):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_graph_from_fasta, nprocs,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        )
        assert _phase_reads(run, "gff:setup") == len(smoke_reads)

    def test_serial_region_time_nprocs_independent(self, smoke_reads, artefacts):
        """The redundant serial regions are computed once and charged at
        single-rank cost, so their measured virtual time must not inflate
        with nprocs (the GIL-contention bug this guards against blew it up
        ~50x at 64 ranks).  Generous bound: the two runs measure real CPU
        work, so allow scheduler noise."""
        _counts, contigs, _gff = artefacts
        inputs = GffInputs(contigs=contigs, reads=smoke_reads)
        config = GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2)
        one = mpirun(mpi_graph_from_fasta, 1, inputs, config)
        eight = mpirun(mpi_graph_from_fasta, 8, inputs, config)
        t1 = one.outputs[0].serial_time
        t8 = max(r.serial_time for r in eight.outputs)
        assert t1 > 0 and t8 > 0
        assert t8 < 2.5 * t1
        # Whole-job sanity: splitting the loops over 8 ranks must not make
        # the *virtual* makespan grow (it was ~7x at 8 ranks when wall
        # clocks measured other ranks' GIL time).
        assert eight.makespan < 2.5 * one.makespan

    def test_loop_times_positive(self, smoke_reads, artefacts):
        _counts, contigs, _gff = artefacts
        run = mpirun(
            mpi_graph_from_fasta, 2,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2),
        )
        r = run.outputs[0]
        assert r.loop1_time >= 0
        assert r.serial_time > 0

    def test_explicit_chunk_size(self, smoke_reads, artefacts):
        _counts, contigs, gff = artefacts
        run = mpirun(
            mpi_graph_from_fasta, 2,
            GffInputs(contigs=contigs, reads=smoke_reads),
            GffStageConfig(gff=GraphFromFastaConfig(k=24), nthreads=2, chunk_size=1),
        )
        assert run.outputs[0].pairs == gff.pairs


class TestMpiRtt:
    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_matches_serial(self, smoke_reads, artefacts, nprocs):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        serial = reads_to_transcripts(smoke_reads, contigs, gff.components, cfg)
        run = mpirun(
            mpi_reads_to_transcripts, nprocs,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
        )
        for r in run.outputs:
            assert r.assignments == serial

    def test_master_slave_strategy_same_result(self, smoke_reads, artefacts):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        serial = reads_to_transcripts(smoke_reads, contigs, gff.components, cfg)
        run = mpirun(
            mpi_reads_to_transcripts_master_slave, 3,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
        )
        assert run.outputs[0].assignments == serial

    def test_output_concatenation(self, smoke_reads, artefacts, tmp_path):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        run = mpirun(
            mpi_reads_to_transcripts, 2,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2, workdir=tmp_path),
        )
        out = run.outputs[0].out_path
        assert out is not None and out.exists()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(smoke_reads)

    def test_every_rank_holds_full_table(self, smoke_reads, artefacts):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        run = mpirun(
            mpi_reads_to_transcripts, 4,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
        )
        for r in run.outputs:
            assert len(r.assignments) == len(smoke_reads)


class TestMpiRttSerialEquality:
    """Satellite guard: the batched MPI stage writes byte-identical
    assignment files to the serial streaming driver, at every nprocs and
    for both kernels, and survives an injected rank crash unchanged."""

    @pytest.fixture(scope="class")
    def serial_bytes(self, smoke_reads, artefacts, tmp_path_factory):
        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        path = tmp_path_factory.mktemp("rtt_serial") / "serial.tsv"
        reads_to_transcripts(smoke_reads, contigs, gff.components, cfg, out_path=path)
        return path.read_bytes()

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    @pytest.mark.parametrize("kernel", ["batched", "per_read"])
    def test_file_matches_serial_driver(
        self, smoke_reads, artefacts, tmp_path, serial_bytes, nprocs, kernel
    ):
        from repro.trinity.chrysalis.reads_to_transcripts import write_assignments

        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        run = mpirun(
            mpi_reads_to_transcripts, nprocs,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2, kernel=kernel),
        )
        for rank, r in enumerate(run.outputs):
            path = tmp_path / f"rank{rank}_{kernel}.tsv"
            write_assignments(path, r.assignments)
            assert path.read_bytes() == serial_bytes

    def test_recovery_after_crash_matches_serial(
        self, smoke_reads, artefacts, tmp_path, serial_bytes
    ):
        from repro.mpi import CrashFault, FaultPlan
        from repro.parallel import mpirun_with_recovery
        from repro.trinity.chrysalis.reads_to_transcripts import write_assignments

        _counts, contigs, gff = artefacts
        cfg = ReadsToTranscriptsConfig(k=25, max_mem_reads=50)
        plan = FaultPlan(crashes=(CrashFault(rank=5, phase="rtt:loop"),))
        rec = mpirun_with_recovery(
            mpi_reads_to_transcripts,
            8,
            RttInputs(reads=smoke_reads, contigs=contigs, components=gff.components),
            RttStageConfig(rtt=cfg, nthreads=2),
            faults=plan,
        )
        path = tmp_path / "recovered.tsv"
        write_assignments(path, rec.outputs[0].assignments)
        assert path.read_bytes() == serial_bytes
