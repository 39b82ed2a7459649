"""GraphFromFasta: weld harvesting, pair discovery, contig clustering.

The module is organised around the paper's two compute-intensive loops so
that the hybrid MPI+OpenMP version (:mod:`repro.parallel.mpi_graph_from_fasta`)
can reuse the exact same per-contig kernels:

* **Loop 1** (:func:`harvest_welds_for_contig`): for one contig, find the
  weld-k-mers it shares with other contigs and harvest "welding"
  subsequences of size 2k — the seed k-mer plus k/2-base left and right
  flanks (paper SS:III.B).
* **Loop 2** (:func:`find_weld_pairs_for_contig`): for one contig, check
  every harvested weld whose seed occurs in this contig; the two contigs
  are welded if a *junction weldmer* — one contig's flank, the shared
  seed, the other contig's flank — occurs verbatim in the reads ("welding
  pairs of contigs together if read support exists").

Weld k-mer size: Inchworm consumes each assembly k-mer exactly once, so
two contigs never share a full assembly k-mer — they overlap by k-1 bases
at de Bruijn branch points.  Welding therefore runs at ``k_weld = k - 1``
(Trinity: Inchworm k=25, welding/graph k=24), which is also the node size
of the component de Bruijn graphs, so welded contigs thread through
shared nodes downstream.

Read support ("weldmers"): because no single assembly k-mer can span from
one contig's flank across the whole seed into the other's flank, k-mer
abundances cannot distinguish a genuine junction from two contigs that
merely share a repeat.  GraphFromFasta therefore scans the *reads* for
2k-base weldmers around every shared seed (the serial setup region before
loop 2); a junction counts as supported only if its exact weldmer occurs
in at least ``min_weld_read_support`` reads.

The shared read-only inputs of the loops — the weld-k-mer -> contigs map
and the weldmer table built from the reads — are the "non-parallel
regions" of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.seq.alphabet import reverse_complement
from repro.seq.kmers import BATCH_READS, kmer_array, kmer_arrays_batch, revcomp_codes
from repro.seq.records import Contig, SeqRecord
from repro.trinity.chrysalis.components import Component, build_components


@dataclass(frozen=True)
class GraphFromFastaConfig:
    """Parameters of the welding stage.

    ``k`` is the *weld* k-mer size and must be even (the window carries
    k/2 flanks); with assembly k-mers of ``k + 1`` this is Trinity's
    24/25 pairing.
    """

    k: int = 24  # weld seed size; must be even (k/2 flanks)
    min_weld_read_support: int = 2
    min_contigs_sharing: int = 2  # seed must occur in >= this many contigs

    def __post_init__(self) -> None:
        if self.k % 2 != 0:
            raise PipelineError(f"weld k must be even (k/2 flanks), got {self.k}")
        if self.k < 4:
            raise PipelineError(f"weld k too small: {self.k}")

    @property
    def window(self) -> int:
        """Weldmer size: seed k-mer plus two k/2 flanks = 2k."""
        return 2 * self.k


@dataclass(frozen=True)
class WeldCandidate:
    """A welding subsequence harvested in loop 1.

    Flanks are in the owner contig's frame; flanks that would run past
    the contig's ends come out shorter than k/2 and loop 2 only forms
    junctions for the sides whose flanks are complete.
    """

    left_flank: str
    seed: str
    right_flank: str
    owner: int  # contig index it was harvested from
    seed_code: int  # canonical packed code of the seed k-mer

    def __post_init__(self) -> None:
        if not self.seed:
            raise PipelineError("weld seed must be non-empty")

    @property
    def window(self) -> str:
        return self.left_flank + self.seed + self.right_flank


# --------------------------------------------------------------------------
# Shared setup (the serial region before the loops)
# --------------------------------------------------------------------------


def weld_kmer_codes(seq: str, k: int) -> np.ndarray:
    """Canonical weld-k-mer codes along a sequence."""
    arr = kmer_array(seq, k)
    if arr.size == 0:
        return arr
    return np.minimum(arr, revcomp_codes(arr, k))


def build_kmer_to_contigs(contigs: Sequence[Contig], k: int) -> Dict[int, Set[int]]:
    """Canonical weld-k-mer code -> set of contig indices containing it."""
    table: Dict[int, Set[int]] = {}
    for idx, contig in enumerate(contigs):
        for code in np.unique(weld_kmer_codes(contig.seq, k)).tolist():
            table.setdefault(code, set()).add(idx)
    return table


def shared_seed_codes(kmer_to_contigs: Dict[int, Set[int]], cfg: GraphFromFastaConfig) -> Set[int]:
    """Seeds occurring in >= ``min_contigs_sharing`` contigs."""
    return {
        code
        for code, members in kmer_to_contigs.items()
        if len(members) >= cfg.min_contigs_sharing
    }


def shared_seed_array(
    kmer_to_contigs: Dict[int, Set[int]], cfg: GraphFromFastaConfig
) -> np.ndarray:
    """Sorted uint64 array of the shared seed codes.

    The vector-friendly form of :func:`shared_seed_codes`: loop 1 tests
    whole contigs against it with one ``searchsorted`` instead of one
    dict probe per position.
    """
    shared = shared_seed_codes(kmer_to_contigs, cfg)
    arr = np.fromiter(shared, dtype=np.uint64, count=len(shared))
    arr.sort()
    return arr


def canonical_weldmer(window: str) -> str:
    """Strand-canonical form of a weldmer string."""
    rc = reverse_complement(window)
    return window if window <= rc else rc


def build_weldmer_index(
    reads: Iterable[SeqRecord],
    shared_seeds: "Set[int] | np.ndarray",
    cfg: GraphFromFastaConfig,
) -> Dict[str, int]:
    """Scan the reads for 2k weldmers centred on shared seeds.

    ``shared_seeds`` is a set of codes or, equivalently, an already-sorted
    uint64 array from :func:`shared_seed_array`.  Returns canonical
    weldmer string -> read-occurrence count.  This is the read-support
    evidence loop 2 consults and the heaviest part of the setup region
    (which the hybrid stage shards over the reads).

    Reads are seeded in batches of at most :data:`BATCH_READS` with one
    :func:`kmer_arrays_batch` pass each.  A read's weld k-mer ``j`` (in
    its valid-window enumeration) is a candidate centre when
    ``half <= j <= len - k - half``; the weldmer is the read text
    ``[j - half, j + k + half)``.  Counts are keyed in read then
    position order.
    """
    k = cfg.k
    half = k // 2
    if isinstance(shared_seeds, np.ndarray):
        shared_arr = shared_seeds
    else:
        shared_arr = np.fromiter(shared_seeds, dtype=np.uint64, count=len(shared_seeds))
        shared_arr.sort()
    index: Dict[str, int] = {}
    if shared_arr.size == 0:
        return index
    seqs = [read.seq for read in reads if len(read.seq) >= cfg.window]
    for lo in range(0, len(seqs), BATCH_READS):
        batch = seqs[lo : lo + BATCH_READS]
        codes, sid, pos = kmer_arrays_batch(batch, k)
        lens = np.fromiter(map(len, batch), dtype=np.int64, count=len(batch))
        centre = np.flatnonzero((pos >= half) & (pos <= lens[sid] - k - half))
        canon = codes[centre]
        canon = np.minimum(canon, revcomp_codes(canon, k))
        hits = centre[_in_sorted(canon, shared_arr)]
        for q, j in zip(sid[hits].tolist(), pos[hits].tolist()):
            weldmer = canonical_weldmer(batch[q][j - half : j + k + half])
            index[weldmer] = index.get(weldmer, 0) + 1
    return index


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Vectorised membership of ``values`` in a sorted uint64 array."""
    if sorted_arr.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx[idx == sorted_arr.size] = 0
    return sorted_arr[idx] == values


# --------------------------------------------------------------------------
# Loop 1 kernel
# --------------------------------------------------------------------------


def harvest_welds_for_contig(
    contig_idx: int,
    contig: Contig,
    kmer_to_contigs: Dict[int, Set[int]],
    cfg: GraphFromFastaConfig,
    shared_seeds: Optional[np.ndarray] = None,
) -> List[WeldCandidate]:
    """Loop-1 body: harvest welding candidates from one contig.

    A candidate is any seed k-mer shared with at least one *other*
    contig, packaged with this contig's flanks.  The first occurrence of
    each shared seed (in position order) wins.

    Membership is tested with one vectorised ``searchsorted`` over
    ``shared_seeds`` (pass the :func:`shared_seed_array` of
    ``kmer_to_contigs`` when calling in a loop; it is derived on the fly
    otherwise) instead of a per-position dict probe.
    """
    k = cfg.k
    half = k // 2
    seq = contig.seq
    if len(seq) < k:
        return []
    canon = weld_kmer_codes(seq, k)
    if shared_seeds is None:
        shared_seeds = shared_seed_array(kmer_to_contigs, cfg)
    hit_pos = np.nonzero(_in_sorted(canon, shared_seeds))[0]
    if hit_pos.size == 0:
        return []
    # First occurrence per seed code, emitted in ascending position order
    # (np.unique returns first-occurrence indices for sorted unique codes).
    _codes, first = np.unique(canon[hit_pos], return_index=True)
    out: List[WeldCandidate] = []
    for pos in hit_pos[np.sort(first)].tolist():
        out.append(
            WeldCandidate(
                left_flank=seq[max(0, pos - half) : pos],
                seed=seq[pos : pos + k],
                right_flank=seq[pos + k : pos + k + half],
                owner=contig_idx,
                seed_code=int(canon[pos]),
            )
        )
    return out


# --------------------------------------------------------------------------
# Between-loop pooling (serial region between the loops)
# --------------------------------------------------------------------------


def build_weld_index(welds: Sequence[WeldCandidate]) -> Dict[int, List[int]]:
    """Canonical seed code -> indices into the pooled weld list."""
    index: Dict[int, List[int]] = {}
    for i, weld in enumerate(welds):
        index.setdefault(weld.seed_code, []).append(i)
    return index


def weld_index_keys(weld_index: Dict[int, List[int]]) -> np.ndarray:
    """Sorted uint64 array of a weld index's seed codes (loop 2's
    vectorised membership filter, the analogue of
    :func:`shared_seed_array` for loop 1)."""
    arr = np.fromiter(weld_index.keys(), dtype=np.uint64, count=len(weld_index))
    arr.sort()
    return arr


# --------------------------------------------------------------------------
# Loop 2 kernel
# --------------------------------------------------------------------------


def find_weld_pairs_for_contig(
    contig_idx: int,
    contig: Contig,
    welds: Sequence[WeldCandidate],
    weld_index: Dict[int, List[int]],
    weldmers: Dict[str, int],
    cfg: GraphFromFastaConfig,
    weld_keys: Optional[np.ndarray] = None,
) -> List[Tuple[int, int]]:
    """Loop-2 body: read-supported weld pairs involving this contig.

    For every weld whose seed occurs in this contig, build the two
    possible junction weldmers (owner's left flank + seed + this contig's
    right flank, and vice versa, orientation-corrected) and weld the pair
    if either occurs in the reads often enough.

    The sparse per-position dict probe is replaced by one vectorised mask
    over ``weld_keys`` (pass :func:`weld_index_keys` of ``weld_index``
    when calling in a loop); only positions carrying a weld seed fall
    through to the Python junction checks.
    """
    k = cfg.k
    half = k // 2
    seq = contig.seq
    if len(seq) < k:
        return []
    fwd = kmer_array(seq, k)
    if fwd.size == 0:
        return []
    canon = np.minimum(fwd, revcomp_codes(fwd, k))
    if weld_keys is None:
        weld_keys = weld_index_keys(weld_index)
    hit_pos = np.nonzero(_in_sorted(canon, weld_keys))[0]
    pairs: Set[Tuple[int, int]] = set()
    for pos in hit_pos.tolist():
        hits = weld_index[int(canon[pos])]
        my_left = seq[max(0, pos - half) : pos]
        my_seed = seq[pos : pos + k]
        my_right = seq[pos + k : pos + k + half]
        for widx in hits:
            weld = welds[widx]
            if weld.owner == contig_idx:
                continue
            pair = (min(weld.owner, contig_idx), max(weld.owner, contig_idx))
            if pair in pairs:
                continue
            if _junction_supported(weld, my_left, my_seed, my_right, weldmers, cfg):
                pairs.add(pair)
    return sorted(pairs)


def _junction_supported(
    weld: WeldCandidate,
    my_left: str,
    my_seed: str,
    my_right: str,
    weldmers: Dict[str, int],
    cfg: GraphFromFastaConfig,
) -> bool:
    """Check the two chimeric junction weldmers against the read index.

    The weld's flanks are in the owner's frame; if this contig carries
    the seed on the opposite strand, its flanks are reverse-complemented
    into the owner's frame first.
    """
    half = cfg.k // 2
    if my_seed == weld.seed:
        left, right = my_left, my_right
    else:
        left = reverse_complement(my_right)
        right = reverse_complement(my_left)
    support = cfg.min_weld_read_support
    # Junction A: owner's left flank + seed + this contig's right flank.
    if len(weld.left_flank) == half and len(right) == half:
        window = canonical_weldmer(weld.left_flank + weld.seed + right)
        if weldmers.get(window, 0) >= support:
            return True
    # Junction B: this contig's left flank + seed + owner's right flank.
    if len(left) == half and len(weld.right_flank) == half:
        window = canonical_weldmer(left + weld.seed + weld.right_flank)
        if weldmers.get(window, 0) >= support:
            return True
    return False


# --------------------------------------------------------------------------
# Serial driver (the original OpenMP-only GraphFromFasta)
# --------------------------------------------------------------------------


@dataclass
class GraphFromFastaResult:
    """Everything GraphFromFasta produces."""

    welds: List[WeldCandidate]
    pairs: List[Tuple[int, int]]
    components: List[Component]


def graph_from_fasta(
    contigs: Sequence[Contig],
    reads: Sequence[SeqRecord],
    cfg: Optional[GraphFromFastaConfig] = None,
    extra_pairs: Sequence[Tuple[int, int]] = (),
) -> GraphFromFastaResult:
    """Reference serial GraphFromFasta.

    ``reads`` provide the weldmer evidence; ``extra_pairs`` carries the
    Bowtie scaffolding pairs that are "later combined with welding pairs
    ... for full construction of Inchworm bundles" (paper SS:III.A).
    """
    cfg = cfg or GraphFromFastaConfig()
    kmer_map = build_kmer_to_contigs(contigs, cfg.k)  # serial region
    shared = shared_seed_array(kmer_map, cfg)
    weldmers = build_weldmer_index(reads, shared, cfg)  # serial region
    welds: List[WeldCandidate] = []
    for idx, contig in enumerate(contigs):  # loop 1
        welds.extend(harvest_welds_for_contig(idx, contig, kmer_map, cfg, shared))
    weld_index = build_weld_index(welds)  # serial region
    weld_keys = weld_index_keys(weld_index)
    pair_set: Set[Tuple[int, int]] = set()
    for idx, contig in enumerate(contigs):  # loop 2
        pair_set.update(
            find_weld_pairs_for_contig(
                idx, contig, welds, weld_index, weldmers, cfg, weld_keys
            )
        )
    for a, b in extra_pairs:
        pair_set.add((min(a, b), max(a, b)))
    pairs = sorted(pair_set)
    components = build_components(len(contigs), pairs)  # serial region (output)
    return GraphFromFastaResult(welds=welds, pairs=pairs, components=components)
