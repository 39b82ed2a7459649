"""A Bowtie-like seed-and-extend short-read aligner.

Trinity uses Bowtie (a third-party tool) to align the input reads to the
Inchworm contigs; read pairs whose mates land on the single ends of two
different contigs contribute scaffolding welds to Chrysalis (paper
SS:III.A).  This module provides the same interface surface: build an
index over a contig FASTA, align reads to SAM, and extract scaffold pairs
from the SAM output.

Substitution note: real Bowtie is an FM-index aligner; a seed-and-extend
aligner over a sorted seed index has the same inputs, outputs and
accuracy regime at our error rates, and — crucially for the reproduction
— the same *parallel structure*: every read aligns independently against
one read-only index, so reads can be dealt across ranks
(:mod:`repro.parallel.mpi_bowtie`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import BATCH_READS, kmer_array, kmer_arrays_batch
from repro.seq.records import Contig, SeqRecord
from repro.seq.sam import FLAG_REVERSE, FLAG_UNMAPPED, SamRecord, sam_header


@dataclass(frozen=True)
class BowtieConfig:
    """Aligner parameters (seed length mirrors bowtie -l default 28,
    shortened for 75 bp simulated reads)."""

    seed_len: int = 20
    max_mismatches: int = 3
    n_seed_offsets: int = 3  # distinct seed positions tried per read

    def __post_init__(self) -> None:
        if self.seed_len < 8:
            raise PipelineError(f"seed_len too small: {self.seed_len}")
        if self.max_mismatches < 0:
            raise PipelineError("max_mismatches must be >= 0")


class BowtieIndex:
    """Seed index over a set of target contigs.

    Stored as sorted arrays: ``codes`` holds each distinct seed once, and
    its hits ``(contig, position)`` sit in ``hit_contig`` / ``hit_pos``
    between ``bounds[i]`` and ``bounds[i + 1]``, in contig then position
    order.  A position counts the contig's valid (N-free) seed windows.
    """

    def __init__(self, contigs: Sequence[Contig], cfg: Optional[BowtieConfig] = None):
        self.cfg = cfg or BowtieConfig()
        self.contigs = list(contigs)
        self.contig_lens = np.array([len(c.seq) for c in self.contigs], dtype=np.int64)
        codes, cidx, pos = kmer_arrays_batch(
            [c.seq for c in self.contigs], self.cfg.seed_len
        )
        order = np.argsort(codes, kind="stable")
        self.hit_contig = cidx[order]
        self.hit_pos = pos[order]
        self.codes, first = np.unique(codes[order], return_index=True)
        self.bounds = np.append(first, order.size)

    @property
    def n_seeds(self) -> int:
        return int(self.codes.size)

    def candidates(self, seed_code: int) -> List[Tuple[int, int]]:
        i = int(np.searchsorted(self.codes, np.uint64(seed_code)))
        if i == self.codes.size or int(self.codes[i]) != seed_code:
            return []
        lo, hi = self.bounds[i], self.bounds[i + 1]
        return list(zip(self.hit_contig[lo:hi].tolist(), self.hit_pos[lo:hi].tolist()))

    def header(self) -> List[str]:
        return sam_header([(c.name, len(c.seq)) for c in self.contigs])


def _mismatches(a: str, b: str, limit: int) -> int:
    """Hamming distance with early exit once past ``limit``."""
    mm = 0
    for x, y in zip(a, b):
        if x != y:
            mm += 1
            if mm > limit:
                return mm
    return mm


def _try_align(
    read_seq: str, index: BowtieIndex, cfg: BowtieConfig
) -> Optional[Tuple[int, int, int]]:
    """Best (contig, pos, mismatches) for one orientation, or None."""
    s = cfg.seed_len
    if len(read_seq) < s:
        return None
    arr = kmer_array(read_seq, s)
    if arr.size == 0:
        return None
    n_offsets = min(cfg.n_seed_offsets, arr.size)
    offsets = np.linspace(0, arr.size - 1, n_offsets).astype(int)
    best: Optional[Tuple[int, int, int]] = None
    seen: set = set()
    for off in offsets.tolist():
        for cidx, pos in index.candidates(int(arr[off])):
            start = pos - off
            key = (cidx, start)
            if key in seen:
                continue
            seen.add(key)
            contig_seq = index.contigs[cidx].seq
            if start < 0 or start + len(read_seq) > len(contig_seq):
                continue
            mm = _mismatches(read_seq, contig_seq[start : start + len(read_seq)], cfg.max_mismatches)
            if mm > cfg.max_mismatches:
                continue
            cand = (mm, cidx, start)
            if best is None or cand < (best[2], best[0], best[1]):
                best = (cidx, start, mm)
    return best


def align_read_detail(
    read: SeqRecord, index: BowtieIndex
) -> Tuple[Optional[Tuple[int, int, int]], Optional[Tuple[int, int, int]]]:
    """Per-orientation bests: ``(fwd, rev)``, each ``(contig, pos, mm)``.

    The one-read reference the batched :func:`bowtie_align` is tested
    against: forward is preferred on equal mismatches, then the lowest
    contig index, then position.
    """
    cfg = index.cfg
    fwd = _try_align(read.seq, index, cfg)
    rev = _try_align(reverse_complement(read.seq), index, cfg)
    return fwd, rev


def _best_hits(
    seqs: Sequence[str], index: BowtieIndex
) -> List[Optional[Tuple[int, int, int]]]:
    """Best ``(contig, pos, mismatches)`` per sequence, or None.

    The batched form of :func:`_try_align`: one :func:`kmer_arrays_batch`
    pass seeds every sequence, the seed offsets (``np.linspace`` over
    each sequence's valid windows) and the index lookups are array
    operations, and only the extension of each distinct candidate
    ``(sequence, contig, start)`` runs per read.
    """
    cfg = index.cfg
    best: List[Optional[Tuple[int, int, int]]] = [None] * len(seqs)
    codes, sid, _pos = kmer_arrays_batch(seqs, cfg.seed_len)
    if codes.size == 0 or index.codes.size == 0:
        return best
    counts = np.bincount(sid, minlength=len(seqs))
    n_off = np.minimum(cfg.n_seed_offsets, counts)
    q = np.repeat(np.arange(len(seqs)), n_off)
    i = np.arange(q.size) - np.repeat(np.cumsum(n_off) - n_off, n_off)
    # np.linspace(0, count - 1, n_off): i * step, last offset pinned.
    step = (counts - 1) / np.maximum(n_off - 1, 1)
    off = (i * step[q]).astype(np.int64)
    last = (n_off[q] > 1) & (i == n_off[q] - 1)
    off[last] = counts[q][last] - 1
    seeds = codes[np.cumsum(counts)[q] - counts[q] + off]

    slot = np.searchsorted(index.codes, seeds)
    slot[slot == index.codes.size] = 0
    n_hits = np.where(
        index.codes[slot] == seeds, index.bounds[slot + 1] - index.bounds[slot], 0
    )
    hit = np.repeat(index.bounds[slot] - (np.cumsum(n_hits) - n_hits), n_hits)
    hit += np.arange(hit.size)
    cq = np.repeat(q, n_hits)
    cidx = index.hit_contig[hit]
    start = index.hit_pos[hit] - np.repeat(off, n_hits)
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ok = (start >= 0) & (start + lens[cq] <= index.contig_lens[cidx])
    cq, cidx, start = cq[ok], cidx[ok], start[ok]
    # Distinct candidates in (sequence, contig, start) order, so a strictly
    # smaller mismatch count is the only way a later candidate wins.
    order = np.lexsort((start, cidx, cq))
    cq, cidx, start = cq[order], cidx[order], start[order]
    new = np.ones(cq.size, dtype=bool)
    new[1:] = (cq[1:] != cq[:-1]) | (cidx[1:] != cidx[:-1]) | (start[1:] != start[:-1])

    limit = cfg.max_mismatches
    contigs = index.contigs
    for qi, ci, st in zip(cq[new].tolist(), cidx[new].tolist(), start[new].tolist()):
        cur = best[qi]
        if cur is not None and cur[2] == 0:
            continue
        seq = seqs[qi]
        window = contigs[ci].seq[st : st + len(seq)]
        mm = 0 if seq == window else _mismatches(seq, window, limit)
        if mm <= limit and (cur is None or mm < cur[2]):
            best[qi] = (ci, st, mm)
    return best


def resolve_orientation(
    read: SeqRecord,
    fwd: Optional[Tuple[int, int, int]],
    rev: Optional[Tuple[int, int, int]],
    contig_name: "callable",
) -> SamRecord:
    """Build the final SAM record from per-orientation bests.

    ``contig_name(idx)`` maps a contig index (in whatever index space the
    bests were computed) to its reference name.
    """
    choice = None
    flag = 0
    seq = read.seq
    if fwd is not None and (rev is None or fwd[2] <= rev[2]):
        choice = fwd
    elif rev is not None:
        choice = rev
        flag = FLAG_REVERSE
        seq = reverse_complement(read.seq)
    if choice is None:
        return SamRecord(read.name, FLAG_UNMAPPED, "*", 0, 0, "*", read.seq)
    cidx, start, mm = choice
    return SamRecord(
        qname=read.name,
        flag=flag,
        rname=contig_name(cidx),
        pos=start + 1,  # SAM is 1-based
        mapq=255,
        cigar=f"{len(read.seq)}M",
        seq=seq,
        nm=mm,
    )


def align_read(read: SeqRecord, index: BowtieIndex) -> SamRecord:
    """Align one read; returns an unmapped record when nothing clears the
    mismatch budget."""
    return bowtie_align([read], index)[0]


def bowtie_align(
    reads: Sequence[SeqRecord],
    target: Union[BowtieIndex, Sequence[Contig]],
    cfg: Optional[BowtieConfig] = None,
) -> List[SamRecord]:
    """Align reads against a built index, or against contigs (indexed
    here with ``cfg``): one SAM record per read, in input order.

    Reads go through in batches of at most :data:`BATCH_READS`, both
    orientations of a batch seeded in one pass (:func:`_best_hits`).
    """
    index = target if isinstance(target, BowtieIndex) else BowtieIndex(target, cfg)
    name = lambda i: index.contigs[i].name
    records: List[SamRecord] = []
    for lo in range(0, len(reads), BATCH_READS):
        batch = reads[lo : lo + BATCH_READS]
        seqs = [r.seq for r in batch]
        bests = _best_hits(seqs + [reverse_complement(s) for s in seqs], index)
        n = len(batch)
        records.extend(
            resolve_orientation(read, bests[j], bests[n + j], name)
            for j, read in enumerate(batch)
        )
    return records


def scaffold_pairs_from_sam(
    records: Sequence[SamRecord],
    contig_name_to_idx: Dict[str, int],
    end_window: int = 300,
    contig_lengths: Optional[Dict[str, int]] = None,
    min_support: int = 2,
) -> List[Tuple[int, int]]:
    """Contig pairs supported by read pairs spanning two contigs.

    A mate pair ``x/1``, ``x/2`` mapping to *different* contigs, each
    within ``end_window`` of a contig end, is evidence the contigs belong
    to one transcript (paper SS:III.A); pairs with at least
    ``min_support`` spanning mate pairs are emitted.
    """
    by_base: Dict[str, List[SamRecord]] = {}
    for rec in records:
        if rec.is_unmapped:
            continue
        base = rec.qname.rsplit("/", 1)[0] if "/" in rec.qname else rec.qname
        by_base.setdefault(base, []).append(rec)
    support: Dict[Tuple[int, int], int] = {}
    for base, recs in by_base.items():
        if len(recs) != 2:
            continue
        a, b = recs
        if a.rname == b.rname:
            continue
        if contig_lengths is not None and not (
            _near_end(a, end_window, contig_lengths) and _near_end(b, end_window, contig_lengths)
        ):
            continue
        ia = contig_name_to_idx.get(a.rname)
        ib = contig_name_to_idx.get(b.rname)
        if ia is None or ib is None:
            continue
        key = (min(ia, ib), max(ia, ib))
        support[key] = support.get(key, 0) + 1
    return sorted(pair for pair, n in support.items() if n >= min_support)


def _near_end(rec: SamRecord, window: int, lengths: Dict[str, int]) -> bool:
    length = lengths.get(rec.rname)
    if length is None:
        return False
    start = rec.pos - 1
    end = start + len(rec.seq)
    return start < window or end > length - window
