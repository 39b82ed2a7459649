"""The three end-to-end workloads of the pipeline benchmark.

Each workload is a read recipe plus the hybrid run's distribution knobs.
The recipe's organism is fixed and ``--seed`` draws the reads (see
:meth:`Workload.reads`).  The program under test sees only the generated
reads; the recipe parameters never reach it.  Why each workload was
chosen is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.mpi.faults import CrashFault, FaultPlan
from repro.parallel.driver import ParallelTrinityConfig
from repro.seq.records import SeqRecord
from repro.simdata import DatasetRecipe, ReadSimulator, get_recipe, lognormal_expression
from repro.simdata import generate_transcriptome
from repro.simdata.reads import flatten_reads
from repro.trinity import TrinityConfig

#: Seed of each workload's transcriptome and expression profile.  The
#: organism is part of the workload; ``--seed`` draws the sequencing run.
ORGANISM_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark input: reads recipe + hybrid-run configuration."""

    name: str
    recipe: DatasetRecipe
    nprocs: int
    nthreads: int
    strategy: str = "round_robin"
    #: Stage files under a workdir plus per-stage checkpoints, for both
    #: the serial and the hybrid run.
    files: bool = False
    faults: Optional[FaultPlan] = None

    def reads(self, seed: int, draw: int = 0) -> List[SeqRecord]:
        """Read draw ``draw`` of run ``seed``: the recipe's fixed organism
        (transcriptome and expression) sequenced with a seed derived from
        ``(seed, draw)`` — the read-sampling half of
        ``DatasetRecipe.materialize``."""
        r = self.recipe
        txome = generate_transcriptome(
            r.n_genes, seed=ORGANISM_SEED, shared_utr_prob=r.shared_utr_prob
        )
        seqs = [iso.seq for iso in txome.isoforms]
        expr = lognormal_expression(len(seqs), seed=ORGANISM_SEED, sigma=r.expression_sigma)
        sim = ReadSimulator(
            read_len=r.read_len, error_rate=r.error_rate, paired_fraction=r.paired_fraction
        )
        read_seed = int(np.random.SeedSequence([seed, draw]).generate_state(1)[0])
        return flatten_reads(sim.simulate(seqs, expr, r.n_reads, seed=read_seed))

    def trinity_config(self, seed: int) -> TrinityConfig:
        return TrinityConfig(seed=seed)

    def parallel_config(self, seed: int) -> ParallelTrinityConfig:
        return ParallelTrinityConfig(
            trinity=self.trinity_config(seed),
            nprocs=self.nprocs,
            nthreads=self.nthreads,
            butterfly_strategy=self.strategy,
            faults=self.faults,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="whitefly-p8",
            recipe=get_recipe("whitefly-mini"),
            nprocs=8,
            nthreads=4,
        ),
        Workload(
            name="deep-io-p2",
            recipe=DatasetRecipe(name="deep-io", n_genes=12, n_reads=10_000),
            nprocs=2,
            nthreads=2,
            files=True,
        ),
        Workload(
            name="wide-skew-p8",
            recipe=DatasetRecipe(
                name="wide-skew",
                n_genes=160,
                n_reads=6000,
                expression_sigma=1.6,
                shared_utr_prob=0.2,
            ),
            nprocs=8,
            nthreads=4,
            strategy="dynamic",
            faults=FaultPlan(crashes=(CrashFault(rank=5, phase="chrysalis:deal"),)),
        ),
    ]
}
