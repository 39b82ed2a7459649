"""Parallel Trinity driver: the ``Trinity.pl --nprocs N`` equivalent.

The paper's software methodology (SS:III.C): ``Trinity.pl`` gains an
``nprocs`` argument; Chrysalis prepends ``mpirun -np nprocs`` to the
GraphFromFasta and ReadsToTranscripts command lines (and Bowtie runs over
PyFasta-split pieces; here it deals reads instead, see
:mod:`repro.parallel.mpi_bowtie`).  Mirroring that, this driver launches one
simulated ``mpirun`` per Chrysalis substep, and — going past the paper
into its named future work on "the non-parallelized regions" —
distributes the Jellyfish front end (:mod:`repro.parallel.mpi_jellyfish`),
Inchworm via k-mer-graph component partitioning
(:mod:`repro.parallel.mpi_inchworm`, hybrid MPI x simulated OpenMP
threads per rank), and the whole Chrysalis *back end* — orient +
FastaToDebruijn + QuantifyGraph + Butterfly fused into one
component-parallel stage (:mod:`repro.parallel.mpi_chrysalis_backend`)
— all byte-identical to their serial stages at any rank count.  No
compute stage runs on the front-end node any more; the driver only
launches ``mpirun``\\ s and glues their outputs.

Every MPI stage conforms to the :class:`repro.parallel.stage.ParallelStage`
protocol, so all six launches flow through the one ``_launch`` path
(checkpoint restore -> (recovering) mpirun -> checkpoint write).

The result object is a :class:`repro.trinity.pipeline.TrinityResult`, so
serial and parallel outputs feed the same validation harness.
"""

from __future__ import annotations

import logging
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.monitor import ResourceMonitor
from repro.obs.metrics import GLOBAL_METRICS
from repro.obs.result import StageResult
from repro.mpi import mpirun
from repro.mpi.faults import FaultPlan
from repro.mpi.network import IDATAPLEX_FDR10, NetworkModel
from repro.parallel.recovery import DEFAULT_RECOVERY, RecoveryPolicy, mpirun_with_recovery
from repro.seq.fasta import write_fasta
from repro.seq.records import SeqRecord
from repro.trinity.bowtie import scaffold_pairs_from_sam
from repro.trinity.chrysalis.quantify import ComponentQuant
from repro.trinity.pipeline import TrinityConfig, TrinityResult
from repro.parallel.mpi_bowtie import BowtieInputs, BowtieStageConfig, mpi_bowtie
from repro.parallel.mpi_butterfly import STRATEGIES, ButterflyStageConfig
from repro.parallel.mpi_inchworm import (
    InchwormInputs,
    InchwormStageConfig,
    mpi_inchworm,
)
from repro.parallel.mpi_chrysalis_backend import (
    ChrysalisBackendInputs,
    ChrysalisBackendStageConfig,
    mpi_chrysalis_backend,
)
from repro.parallel.mpi_jellyfish import (
    JellyfishInputs,
    JellyfishStageConfig,
    mpi_jellyfish,
)
from repro.parallel.mpi_graph_from_fasta import (
    GffInputs,
    GffStageConfig,
    mpi_graph_from_fasta,
)
from repro.parallel.mpi_reads_to_transcripts import (
    RttInputs,
    RttStageConfig,
    mpi_reads_to_transcripts,
)

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ParallelTrinityConfig:
    """Hybrid-run parameters on top of the serial :class:`TrinityConfig`.

    Only *distribution* knobs live here (rank/thread counts, network,
    faults, dealing strategy); every stage-algorithm parameter is derived
    from ``trinity`` through the ``*_stage()`` accessors, so the serial
    and hybrid runs cannot silently diverge on shared settings.
    """

    trinity: TrinityConfig = TrinityConfig()
    nprocs: int = 4
    nthreads: int = 16  # OpenMP threads per rank (paper: 16 per node)
    network: NetworkModel = IDATAPLEX_FDR10
    #: Deterministic fault schedule injected into every MPI stage launch.
    faults: Optional[FaultPlan] = None
    #: Crash-recovery policy; set (or leave default with ``faults``) to
    #: launch stages through :func:`mpirun_with_recovery`.
    recovery: Optional[RecoveryPolicy] = None
    #: Component-dealing strategy for the fused Chrysalis back end (and
    #: the standalone distributed Butterfly): ``"round_robin"``
    #: (cost-blind chunked deal) or ``"dynamic"`` (master-dealt LPT over
    #: the per-component cost model).
    butterfly_strategy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise PipelineError(f"nprocs must be positive, got {self.nprocs}")
        if self.nthreads <= 0:
            raise PipelineError(f"nthreads must be positive, got {self.nthreads}")
        if self.butterfly_strategy not in STRATEGIES:
            raise PipelineError(
                f"unknown Butterfly strategy {self.butterfly_strategy!r}; "
                f"known: {STRATEGIES}"
            )

    @property
    def inchworm_threads(self) -> int:
        """Simulated OpenMP thread count for the Inchworm front end.

        Delegates to ``trinity.inchworm_threads`` — the single source of
        truth shared with the serial pipeline (this used to be a
        duplicated field that could silently diverge).  Straggler faults
        from ``faults`` slow the matching thread's clock.
        """
        return self.trinity.inchworm_threads

    # -- stage-config accessors (the parallel analogue of TrinityConfig's
    # .inchworm()/.gff()/.rtt()/.butterfly() serial accessors) -------------

    def jellyfish_stage(
        self, workdir: Optional[PathLike] = None
    ) -> JellyfishStageConfig:
        return JellyfishStageConfig(jellyfish=self.trinity.jellyfish(), workdir=workdir)

    def inchworm_stage(
        self, workdir: Optional[PathLike] = None
    ) -> InchwormStageConfig:
        return InchwormStageConfig(
            inchworm=self.trinity.inchworm(),
            n_threads=self.inchworm_threads,
            batch_size=self.trinity.inchworm_batch,
            strategy=self.butterfly_strategy,
            workdir=workdir,
            thread_slowdowns=_inchworm_slowdown_table(
                self.faults, self.nprocs, self.inchworm_threads
            ),
        )

    def bowtie_stage(self, workdir: Optional[PathLike] = None) -> BowtieStageConfig:
        return BowtieStageConfig(bowtie=self.trinity.bowtie(), workdir=workdir)

    def gff_stage(self) -> GffStageConfig:
        return GffStageConfig(gff=self.trinity.gff(), nthreads=self.nthreads)

    def rtt_stage(self, workdir: Optional[PathLike] = None) -> RttStageConfig:
        return RttStageConfig(
            rtt=self.trinity.rtt(), nthreads=self.nthreads, workdir=workdir
        )

    def butterfly_stage(
        self, workdir: Optional[PathLike] = None
    ) -> ButterflyStageConfig:
        return ButterflyStageConfig(
            butterfly=self.trinity.butterfly(),
            nthreads=self.nthreads,
            strategy=self.butterfly_strategy,
            workdir=workdir,
        )

    def chrysalis_stage(
        self, workdir: Optional[PathLike] = None
    ) -> ChrysalisBackendStageConfig:
        return ChrysalisBackendStageConfig(
            k=self.trinity.k,
            weld_k=self.trinity.weld_k,
            min_kmer_count=self.trinity.min_kmer_count,
            butterfly=self.trinity.butterfly(),
            nthreads=self.nthreads,
            strategy=self.butterfly_strategy,
            workdir=workdir,
        )


def _inchworm_thread_slowdowns(
    plan: Optional[FaultPlan], n_threads: int, rank: int = 0
) -> Optional[np.ndarray]:
    """Straggler factors from ``plan`` mapped onto Inchworm's threads.

    The fault plan indexes stragglers by a flat id; the distributed
    Inchworm numbers its hybrid workers ``rank * n_threads + thread``,
    so straggler id ``f`` slows thread ``f - rank * n_threads`` of
    ``rank`` whenever that lands in ``[0, n_threads)``.  The default
    ``rank=0`` reproduces the historical front-end mapping exactly
    (straggler rank ``t`` -> thread ``t`` when ``t < n_threads``).
    Returns ``None`` when no straggler lands on a live thread, so the
    fast no-faults path stays allocation-free.  Slowdowns only stretch
    virtual thread clocks — stage output never depends on them.
    """
    if plan is None or not plan.stragglers:
        return None
    slow = np.ones(n_threads)
    base = rank * n_threads
    for s in plan.stragglers:
        t = s.rank - base
        if 0 <= t < n_threads:
            slow[t] = max(slow[t], s.slowdown)
    if np.all(slow == 1.0):
        return None
    return slow


def _inchworm_slowdown_table(
    plan: Optional[FaultPlan], nprocs: int, n_threads: int
) -> Optional[Tuple[Tuple[float, ...], ...]]:
    """Per-rank straggler rows for the distributed Inchworm stage.

    One :func:`_inchworm_thread_slowdowns` row per rank (all-ones rows
    for ranks no straggler maps onto); ``None`` when the plan touches no
    (rank, thread) pair at all.
    """
    if plan is None or not plan.stragglers:
        return None
    rows = [
        _inchworm_thread_slowdowns(plan, n_threads, rank=r) for r in range(nprocs)
    ]
    if all(row is None for row in rows):
        return None
    ones = (1.0,) * n_threads
    return tuple(
        ones if row is None else tuple(float(f) for f in row) for row in rows
    )


def _checkpoint_path(checkpoint_dir: PathLike, stage: str) -> Path:
    return Path(checkpoint_dir) / f"{stage}.ckpt.pkl"


def _load_checkpoint(
    checkpoint_dir: PathLike, stage: str, key: Dict[str, Any]
) -> Optional[StageResult]:
    """A previously checkpointed StageResult, or None if absent/stale.

    Corrupt pickles and key mismatches (different workload, nprocs or
    fault plan) are treated as misses — the stage recomputes.
    """
    path = _checkpoint_path(checkpoint_dir, stage)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as f:
            payload = pickle.load(f)
    except Exception as exc:  # noqa: BLE001 - any corruption => recompute
        logger.warning("discarding unreadable checkpoint %s: %r", path, exc)
        return None
    if not isinstance(payload, dict) or payload.get("key") != key:
        logger.info("checkpoint %s is stale (key mismatch); recomputing", path)
        return None
    GLOBAL_METRICS.inc("checkpoint.restores")
    logger.info("restored stage %r from checkpoint %s", stage, path)
    return payload["result"]


def _write_checkpoint(
    checkpoint_dir: PathLike, stage: str, key: Dict[str, Any], result: StageResult
) -> None:
    """Atomically persist a stage result (tmp file + rename)."""
    ckpt_dir = Path(checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    path = _checkpoint_path(ckpt_dir, stage)
    tmp = path.with_suffix(".tmp")
    try:
        with open(tmp, "wb") as f:
            pickle.dump({"key": key, "result": result}, f)
        tmp.replace(path)
    except Exception as exc:  # noqa: BLE001 - checkpointing is best-effort
        logger.warning("failed to write checkpoint %s: %r", path, exc)
        tmp.unlink(missing_ok=True)
        return
    GLOBAL_METRICS.inc("checkpoint.writes")


@dataclass
class ParallelStageTimings:
    """Virtual makespans of the six MPI stages (Figs 7-10 + the fused
    Chrysalis back end + the distributed Jellyfish and Inchworm front
    end)."""

    bowtie: StageResult
    gff: StageResult
    rtt: StageResult
    chrysalis: StageResult
    jellyfish: StageResult
    inchworm: StageResult


class ParallelTrinityDriver:
    """Run Trinity with the hybrid MPI+OpenMP Chrysalis."""

    def __init__(self, config: Optional[ParallelTrinityConfig] = None) -> None:
        self.config = config or ParallelTrinityConfig()
        self.last_timings: Optional[ParallelStageTimings] = None

    def _launch(
        self,
        fn: Callable[..., Any],
        *args: Any,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_key: Optional[Dict[str, Any]] = None,
        **kwargs: Any,
    ) -> StageResult:
        """One MPI stage launch: checkpoint restore, else (recovering)
        ``mpirun``, then checkpoint write."""
        cfg = self.config
        stage = getattr(fn, "__name__", "stage")
        if checkpoint_dir is not None:
            cached = _load_checkpoint(checkpoint_dir, stage, checkpoint_key or {})
            if cached is not None:
                return cached
        if cfg.faults is not None or cfg.recovery is not None:
            res = mpirun_with_recovery(
                fn, cfg.nprocs, *args,
                faults=cfg.faults,
                policy=cfg.recovery or DEFAULT_RECOVERY,
                network=cfg.network,
                **kwargs,
            )
        else:
            res = mpirun(fn, cfg.nprocs, *args, network=cfg.network, **kwargs)
        if checkpoint_dir is not None:
            _write_checkpoint(checkpoint_dir, stage, checkpoint_key or {}, res)
        return res

    def run(
        self,
        reads: Sequence[SeqRecord],
        workdir: Optional[PathLike] = None,
        checkpoint_dir: Optional[PathLike] = None,
    ) -> StageResult:
        """Assemble ``reads`` with the hybrid Chrysalis; per-stage MPI
        timings land in :attr:`last_timings`.

        Returns a :class:`~repro.obs.result.StageResult` whose ``outputs``
        is the :class:`TrinityResult` and whose ``children`` are the six
        ``mpirun`` StageResults (jellyfish, inchworm, bowtie, gff, rtt,
        and the fused chrysalis back end) — the full span tree a single
        :func:`repro.obs.chrome.write_chrome_trace` can export.

        With ``checkpoint_dir``, each MPI stage's result is pickled there
        after it completes and restored (skipping the launch) on a rerun
        with an identical workload/config — stage-level restart after a
        non-recoverable failure.  Stale or corrupt checkpoints recompute.
        With ``config.faults``/``config.recovery`` set, stages launch via
        :func:`repro.parallel.recovery.mpirun_with_recovery`.
        """
        cfg = self.config
        tcfg = cfg.trinity
        monitor = ResourceMonitor()
        files: Dict[str, Path] = {}
        wd = Path(workdir) if workdir is not None else None
        if wd is not None:
            wd.mkdir(parents=True, exist_ok=True)

        logger.info(
            "parallel trinity: %d reads, nprocs=%d, nthreads=%d",
            len(reads), cfg.nprocs, cfg.nthreads,
        )

        # Jellyfish and Inchworm launch before any contigs exist, so the
        # front-end checkpoint key pins the front-end dependencies only.
        front_key = {
            "nprocs": cfg.nprocs,
            "nthreads": cfg.nthreads,
            "n_reads": len(reads),
            "faults": repr(cfg.faults),
            "workdir": str(wd),
            "jellyfish": repr(tcfg.jellyfish()),
        }

        # -- mpirun Jellyfish (distributed front end) -------------------------
        with monitor.stage("jellyfish[mpi]") as st:
            jellyfish_run = self._launch(
                mpi_jellyfish,
                JellyfishInputs(reads=reads),
                cfg.jellyfish_stage(workdir=wd),
                checkpoint_dir=checkpoint_dir,
                checkpoint_key=front_key,
            )
            counts = jellyfish_run.outputs[0].counts
            st.ram_bytes = counts.memory_bytes()
        if jellyfish_run.outputs[0].out_path is not None:
            files["jellyfish_dump"] = jellyfish_run.outputs[0].out_path

        # -- mpirun Inchworm (component-partitioned, hybrid MPI x threads) -----
        # The last front-end compute stage: components of the k-mer
        # overlap graph are dealt to ranks, each rank runs the threaded
        # engine per component, and the merge re-emits the global seed
        # order.  Its checkpoint pins the inchworm config, the per-rank
        # thread count and the dealing strategy on top of the front key.
        inchworm_key = {
            **front_key,
            "inchworm": repr(tcfg.inchworm()),
            "inchworm_threads": cfg.inchworm_threads,
            "strategy": cfg.butterfly_strategy,
        }
        with monitor.stage("inchworm[mpi]") as st:
            inchworm_run = self._launch(
                mpi_inchworm,
                InchwormInputs(counts=counts),
                cfg.inchworm_stage(workdir=wd),
                checkpoint_dir=checkpoint_dir,
                checkpoint_key=inchworm_key,
            )
            contigs = inchworm_run.outputs[0].contigs
            st.ram_bytes = counts.memory_bytes() + sum(len(c.seq) for c in contigs)
        if inchworm_run.outputs[0].out_path is not None:
            files["inchworm_contigs"] = inchworm_run.outputs[0].out_path
        if not contigs:
            raise PipelineError("inchworm produced no contigs")
        # Aggregate the per-rank thread-team totals into the historical
        # pipeline-level attrs (straggler faults still drag speedup down).
        team_serial = sum(r.metrics["team_serial_s"] for r in inchworm_run.outputs)
        team_makespan = sum(
            r.metrics["team_makespan_s"] for r in inchworm_run.outputs
        )
        inchworm_attrs: Dict[str, float] = {
            "inchworm.n_threads": float(cfg.inchworm_threads),
            "inchworm.team_serial_s": team_serial,
            "inchworm.team_makespan_s": team_makespan,
            "inchworm.speedup": (
                team_serial / team_makespan if team_makespan > 0 else 1.0
            ),
        }

        # The checkpoint key pins everything a stage result depends on;
        # any mismatch (other workload, nprocs or fault plan) recomputes.
        ckpt_key = {
            "nprocs": cfg.nprocs,
            "nthreads": cfg.nthreads,
            "n_reads": len(reads),
            "n_contigs": len(contigs),
            "faults": repr(cfg.faults),
            "workdir": str(wd),
        }

        # -- mpirun Bowtie ----------------------------------------------------
        with monitor.stage("chrysalis.bowtie[mpi]"):
            bowtie_run = self._launch(
                mpi_bowtie,
                BowtieInputs(reads=reads, contigs=contigs),
                cfg.bowtie_stage(workdir=wd),
                checkpoint_dir=checkpoint_dir,
                checkpoint_key=ckpt_key,
            )
        sams = bowtie_run.outputs[0].records
        if wd is not None:
            files["bowtie_sam"] = wd / "bowtie.sam"
        name_to_idx = {c.name: i for i, c in enumerate(contigs)}
        lengths = {c.name: len(c.seq) for c in contigs}
        scaffolds: List[Tuple[int, int]] = []
        if tcfg.use_bowtie_scaffolds:
            scaffolds = scaffold_pairs_from_sam(sams, name_to_idx, contig_lengths=lengths)

        # -- mpirun GraphFromFasta ---------------------------------------------
        with monitor.stage("chrysalis.graph_from_fasta[mpi]"):
            gff_run = self._launch(
                mpi_graph_from_fasta,
                GffInputs(contigs=contigs, reads=reads, extra_pairs=tuple(scaffolds)),
                cfg.gff_stage(),
                checkpoint_dir=checkpoint_dir,
                checkpoint_key=ckpt_key,
            )
        gff = gff_run.outputs[0]
        from repro.trinity.chrysalis.graph_from_fasta import GraphFromFastaResult

        gff_result = GraphFromFastaResult(
            welds=gff.welds, pairs=gff.pairs, components=gff.components
        )

        # -- mpirun ReadsToTranscripts ------------------------------------------
        # Runs straight after GFF: the fused back end consumes RTT's
        # routing, so no graphs are built on the front-end node any more.
        with monitor.stage("chrysalis.reads_to_transcripts[mpi]"):
            rtt_run = self._launch(
                mpi_reads_to_transcripts,
                RttInputs(
                    reads=reads, contigs=contigs, components=gff_result.components
                ),
                cfg.rtt_stage(workdir=wd),
                checkpoint_dir=checkpoint_dir,
                checkpoint_key=ckpt_key,
            )
        assignments = rtt_run.outputs[0].assignments
        if rtt_run.outputs[0].out_path is not None:
            files["reads_to_transcripts"] = rtt_run.outputs[0].out_path

        # -- mpirun fused Chrysalis back end ------------------------------------
        # One component-parallel stage runs orient + FastaToDebruijn +
        # QuantifyGraph + Butterfly per component on its owner rank; the
        # graphs never cross the wire and the old serial middle
        # (fasta_to_debruijn / quantify_graph monitor stages) is gone.
        # Its checkpoint additionally pins the component count and the
        # dealing strategy — the two knobs the deal depends on that the
        # generic key does not cover.
        chrysalis_key = {
            **ckpt_key,
            "n_components": len(gff_result.components),
            "butterfly_strategy": cfg.butterfly_strategy,
        }
        with monitor.stage("chrysalis.backend[mpi]") as st:
            chrysalis_run = self._launch(
                mpi_chrysalis_backend,
                ChrysalisBackendInputs(
                    contigs=contigs,
                    reads=reads,
                    components=gff_result.components,
                    assignments=assignments,
                    counts=counts,
                ),
                cfg.chrysalis_stage(workdir=wd),
                checkpoint_dir=checkpoint_dir,
                checkpoint_key=chrysalis_key,
            )
            st.ram_bytes = sum(
                q.graph.n_edges
                for out in chrysalis_run.outputs
                for q in out.local_quants.values()
            ) * 120
        transcripts = chrysalis_run.outputs[0].transcripts
        # Graphs stay rank-local in the stage; the serial-shaped quants
        # dict (ascending component id, like the serial pipeline's
        # component order) is unioned host-side from the per-rank locals.
        local_quants: Dict[int, ComponentQuant] = {}
        for out in chrysalis_run.outputs:
            local_quants.update(out.local_quants)
        quants = {cid: local_quants[cid] for cid in sorted(local_quants)}
        if chrysalis_run.outputs[0].out_path is not None:
            files["chrysalis_backend_fasta"] = chrysalis_run.outputs[0].out_path
        if tcfg.use_pair_reconciliation:
            with monitor.stage("butterfly.pair_reconciliation"):
                from repro.trinity.pairs import reconcile_with_pairs

                transcripts, _pair_stats = reconcile_with_pairs(
                    transcripts, list(reads), assignments
                )
        if wd is not None:
            files["transcripts"] = wd / "Trinity.fasta"
            write_fasta(files["transcripts"], [t.to_record() for t in transcripts])

        logger.info(
            "mpi stage makespans: jellyfish=%.3fs inchworm=%.3fs bowtie=%.3fs "
            "gff=%.3fs (imb %.2fx) rtt=%.3fs chrysalis=%.3fs",
            jellyfish_run.makespan, inchworm_run.makespan, bowtie_run.makespan,
            gff_run.makespan, gff_run.imbalance, rtt_run.makespan,
            chrysalis_run.makespan,
        )
        self.last_timings = ParallelStageTimings(
            bowtie=bowtie_run, gff=gff_run, rtt=rtt_run, chrysalis=chrysalis_run,
            jellyfish=jellyfish_run, inchworm=inchworm_run,
        )
        result = TrinityResult(
            transcripts=transcripts,
            contigs=contigs,
            gff=gff_result,
            assignments=assignments,
            quants=quants,
            counts=counts,
            timeline=monitor.timeline,
            files=files,
        )
        timeline = monitor.timeline
        return StageResult(
            stage="parallel-trinity",
            outputs=result,
            makespan=timeline.total_s,
            spans=list(timeline.spans),
            metrics={
                **{f"stage.{name}_s": timeline.duration_of(name) for name in timeline.stages()},
                **inchworm_attrs,
                "nprocs": float(cfg.nprocs),
                "nthreads": float(cfg.nthreads),
                "inchworm_threads": float(cfg.inchworm_threads),
                "n_transcripts": float(len(transcripts)),
                "mpi.jellyfish_makespan_s": jellyfish_run.makespan,
                "mpi.inchworm_makespan_s": inchworm_run.makespan,
                "mpi.bowtie_makespan_s": bowtie_run.makespan,
                "mpi.gff_makespan_s": gff_run.makespan,
                "mpi.rtt_makespan_s": rtt_run.makespan,
                "mpi.chrysalis_makespan_s": chrysalis_run.makespan,
                "peak_ram_gb": timeline.peak_ram_gb,
            },
            children=[
                jellyfish_run, inchworm_run, bowtie_run, gff_run, rtt_run,
                chrysalis_run,
            ],
        )
