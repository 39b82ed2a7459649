"""Property tests: the batched read kernels equal their per-read paths.

The batched Bowtie aligner is checked against the one-read reference
``align_read_detail``; the batched weldmer scan against the per-read scan
written out below.  Inputs carry N runs, reads shorter than the seed or
weldmer window, the empty read list, and (with the batch size shrunk)
reads on both sides of a batch boundary.
"""

import importlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.seq.alphabet import reverse_complement
from repro.seq.records import Contig, SeqRecord
from repro.trinity import bowtie as bowtie_mod
from repro.trinity.bowtie import (
    BowtieConfig,
    BowtieIndex,
    align_read_detail,
    bowtie_align,
    resolve_orientation,
)
from repro.trinity.chrysalis.graph_from_fasta import (
    GraphFromFastaConfig,
    _in_sorted,
    build_kmer_to_contigs,
    build_weldmer_index,
    canonical_weldmer,
    shared_seed_array,
    weld_kmer_codes,
)

# (the package re-exports a same-named function, so fetch the module
# through importlib rather than attribute access)
gff_mod = importlib.import_module("repro.trinity.chrysalis.graph_from_fasta")

bases = st.text(alphabet="ACGT", min_size=40, max_size=90)


@st.composite
def reads_from(draw, sources, max_reads=12):
    """Reads sampled from ``sources`` (either strand), some mutated, some
    with an N run, some shorter than any seed, some unrelated."""
    reads = []
    for i in range(draw(st.integers(0, max_reads))):
        kind = draw(
            st.sampled_from(["exact", "mutated", "ends", "n_run", "short", "random"])
        )
        src = draw(st.sampled_from(sources))
        lo = draw(st.integers(0, max(0, len(src) - 30)))
        seq = src[lo : lo + draw(st.integers(20, 60))]
        if kind in ("mutated", "ends"):
            # "ends" kills the first and last seed, so the inner seed
            # offsets decide whether (and where) the read aligns.
            chars = list(seq)
            hits = draw(st.lists(st.integers(0, len(chars) - 1), max_size=4))
            if kind == "ends":
                hits = [0, len(chars) - 1] + hits[:1]
            for pos in hits:
                chars[pos] = draw(st.sampled_from("ACGT"))
            seq = "".join(chars)
        elif kind == "n_run":
            at = draw(st.integers(0, len(seq)))
            seq = seq[:at] + "N" * draw(st.integers(1, 8)) + seq[at:]
        elif kind == "short":
            seq = seq[: draw(st.integers(0, 11))]
        elif kind == "random":
            seq = draw(st.text(alphabet="ACGTN", max_size=60))
        if draw(st.booleans()):
            seq = reverse_complement(seq)
        reads.append(SeqRecord(f"r{i}", seq))
    return reads


@st.composite
def alignment_case(draw):
    contigs = [
        Contig(f"c{i}", s)
        for i, s in enumerate(draw(st.lists(bases, min_size=1, max_size=4)))
    ]
    return contigs, draw(reads_from([c.seq for c in contigs]))


@settings(max_examples=100, deadline=None)
@given(
    alignment_case(),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(8, 14),
    st.integers(1, 4),
)
@example(case=([Contig("c0", "ACGT" * 12)], []), n_offsets=3, seed_len=8, batch=2)
def test_batched_bowtie_equals_per_read(case, n_offsets, seed_len, batch):
    contigs, reads = case
    cfg = BowtieConfig(seed_len=seed_len, n_seed_offsets=n_offsets)
    index = BowtieIndex(contigs, cfg)
    expected = [
        resolve_orientation(r, *align_read_detail(r, index), lambda i: contigs[i].name)
        for r in reads
    ]
    with mock.patch.object(bowtie_mod, "BATCH_READS", batch):
        got = bowtie_align(reads, index)
    assert [r.to_line() for r in got] == [r.to_line() for r in expected]


def _weldmers_per_read(reads, shared_arr, cfg):
    """The per-read weldmer scan the batched kernel replaced."""
    k, half = cfg.k, cfg.k // 2
    index = {}
    for read in reads:
        seq = read.seq
        if len(seq) < cfg.window:
            continue
        canon = weld_kmer_codes(seq, k)
        view = canon[half : len(seq) - k - half + 1]
        for off in np.nonzero(_in_sorted(view, shared_arr))[0].tolist():
            pos = off + half
            weldmer = canonical_weldmer(seq[pos - half : pos + k + half])
            index[weldmer] = index.get(weldmer, 0) + 1
    return index


@st.composite
def weldmer_case(draw):
    core = draw(st.text(alphabet="ACGT", min_size=10, max_size=20))
    # Contigs sharing a core, so there are shared seeds to centre on.
    contigs = [
        Contig(f"c{i}", a + core + b)
        for i, (a, b) in enumerate(
            draw(st.lists(st.tuples(bases, bases), min_size=2, max_size=3))
        )
    ]
    return contigs, draw(reads_from([c.seq for c in contigs], max_reads=16))


@settings(max_examples=60, deadline=None)
@given(weldmer_case(), st.sampled_from([6, 8, 10]), st.integers(1, 4))
@example(
    case=([Contig("c0", "ACGTACGGTCA" * 4), Contig("c1", "TTACGTACGGTCA" * 3)], []),
    k=6,
    batch=2,
)
def test_batched_weldmer_scan_equals_per_read(case, k, batch):
    contigs, reads = case
    cfg = GraphFromFastaConfig(k=k)
    shared = shared_seed_array(build_kmer_to_contigs(contigs, k), cfg)
    expected = _weldmers_per_read(reads, shared, cfg)
    with mock.patch.object(gff_mod, "BATCH_READS", batch):
        got = build_weldmer_index(reads, shared, cfg)
    # Same counts, inserted in the same (read, position) order.
    assert list(got.items()) == list(expected.items())

