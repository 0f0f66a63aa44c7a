"""Retrieval metrics: truncated mean average precision and recall at k.

Queries are captions and the gallery is audio (text-to-audio retrieval),
so a similarity matrix with audio on rows and captions on columns is
scored column by column.  Relevance arrives as data, one ordered id list
per query whose first entry is the query's own paired item; "multiple"
mode scores against the full list, "single" mode against that first
entry only.

Ranking is descending score with ties broken by ascending gallery index,
the order a stable sort of the negated scores gives.  `evaluate` never
sorts the gallery: the 1-based rank of relevant item g is
#{score > s_g} + #{score == s_g and index < g} + 1, which is that same
order, and AP@k and R@k follow from the ranks of the relevant items.
The ranking kernel takes a leading candidate axis: `evaluate` runs it on
one matrix, the weight search on a block of fused matrices at once.  Each
column carries its gallery index for the tie term, so the search can rank
only the items it has proved can move a rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import as_matrix
from .errors import ConfigError, ContractError, DataError

MODES = ("multiple", "single")
METRIC_KEYS = ("map_at_10", "map_at_16", "r_at_1", "r_at_5", "r_at_10")
_AP_CUTOFFS = (10, 16)
_RECALL_CUTOFFS = (1, 5, 10)
# Bounds a block of queries: the score rows their caller holds plus the
# ranking masks (one byte per gallery item and candidate, one more for the
# tie term), so neither a long relevance list nor a block of weight
# vectors can force a big allocation.  The search builds its kept sets in
# blocks of the same size.
_RANK_BLOCK_BYTES = 8 << 20
# Fused candidates are ranked as many at once as leave room for blocks of
# this many queries.
_QUERIES_PER_BLOCK = 32


class RelevanceMap:
    """Ordered relevant gallery ids per query; entry 0 is the paired item.

    Held flat: query q's ids are ids[starts[q]:starts[q] + widths[q]],
    the form the ranking kernel reads.
    """

    def __init__(self, entries):
        entries = tuple(entries)
        widths = np.fromiter(map(len, entries), np.intp, len(entries))
        ids = np.fromiter(map(int, itertools.chain.from_iterable(entries)),
                          np.intp, int(widths.sum()))
        self._set(widths, ids)

    @classmethod
    def _from_flat(cls, widths, ids):
        relevance = cls.__new__(cls)
        relevance._set(widths, ids)
        return relevance

    def _set(self, widths, ids):
        """Check every query at once: no empty query, no negative id, no
        id listed twice in one query.  Only when one fails is the first
        failing query looked at, to name it."""
        starts = np.cumsum(widths) - widths
        query = np.repeat(np.arange(len(widths)), widths)
        # one sorted key per (query, id) pair; an equal neighbour is an id
        # its query lists twice
        span = max(len(ids), 1)
        key = np.sort(query * span + np.unique(ids, return_inverse=True)[1])
        bad = widths == 0
        bad[query[ids < 0]] = True
        bad[key[1:][key[1:] == key[:-1]] // span] = True
        if bad.any():
            q = int(bad.argmax())
            listed = ids[starts[q]:starts[q] + widths[q]]
            if not listed.size:
                raise DataError(f"query {q} has no relevant items")
            if (listed < 0).any():
                raise DataError(f"query {q} lists a negative gallery id")
            raise DataError(f"query {q} lists a gallery id twice")
        for array in (widths, ids, starts):
            array.flags.writeable = False
        self.widths, self.ids, self.starts = widths, ids, starts

    def __len__(self):
        return len(self.widths)

    def max_id(self):
        return int(self.ids.max())


@dataclass(frozen=True)
class MetricsReport:
    """Mean retrieval metrics over all queries."""

    map_at_10: float
    map_at_16: float
    r_at_1: float
    r_at_5: float
    r_at_10: float
    query_count: int

    def __post_init__(self):
        for key in METRIC_KEYS:
            v = getattr(self, key)
            if not 0.0 <= v <= 1.0:
                raise ContractError(f"{key} must be in [0, 1], got {v}")
        if not self.r_at_1 <= self.r_at_5 <= self.r_at_10:
            raise ContractError("recall must be monotone in k")
        if self.query_count < 1:
            raise ContractError("query_count must be >= 1")

    def as_dict(self):
        d = {key: getattr(self, key) for key in METRIC_KEYS}
        d["query_count"] = self.query_count
        return d


def rank_gallery(scores):
    """Gallery indices in descending score order, ties by ascending index."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ContractError(f"scores must be 1-D, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    return np.argsort(-s, kind="stable")


def _relevance_arrays(relevance, mode, shape):
    """(n_gallery, widths, flat ids, starts) of the ids `mode` scores,
    after checking `relevance` against a (gallery, queries) shape.

    Query q's ids are flat[starts[q]:starts[q] + widths[q]].  `evaluate`
    and the weight search both start here, so a bad mode, an empty matrix
    or an id outside the gallery fails before any score is ranked.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    n_gallery, n_queries = shape
    if n_gallery == 0 or n_queries == 0:
        raise ContractError(
            f"a similarity matrix needs gallery rows and query columns, "
            f"got shape {tuple(shape)}")
    if len(relevance) != n_queries:
        raise ContractError(
            f"{len(relevance)} relevance entries for {n_queries} queries")
    if relevance.max_id() >= n_gallery:
        raise ContractError(
            f"relevance names gallery id {relevance.max_id()} but the "
            f"gallery holds {n_gallery} items")
    widths, flat, starts = relevance.widths, relevance.ids, relevance.starts
    if mode == "single":
        widths, flat = np.ones_like(widths), flat[starts]
        starts = np.arange(n_queries)
    return n_gallery, widths, flat, starts


def _count_true(mask):
    """True entries along the last axis; uint8 sums run several times
    faster than numpy's bool count."""
    wide = mask.shape[-1] >= 1 << 16
    return mask.view(np.uint8).sum(axis=-1,
                                   dtype=np.intp if wide else np.uint16)


def _relevant_ranks(scores, ids, index):
    """Sorted 1-based ranks of the columns ids[b] in score rows
    scores[p, b] of each candidate p: (P, b, W) and (b, w) give (P, b, w).

    Column c of row b is gallery item index[b, c], and the rank of g is
    #{score > s_g} + #{score == s_g and index < g} + 1, its position in
    `rank_gallery` order.  One id at a time through one reused (P, b, W)
    mask; the index term is counted only when a relevant score equals
    another score, through one (b, W) mask more.
    """
    n_rows, width = ids.shape
    ranks = np.empty(scores.shape[:-1] + (width,), np.intp)
    mask = np.empty(scores.shape, bool)
    rows = np.arange(n_rows)
    for k in range(width):
        target = scores[:, rows, ids[:, k]][:, :, None]
        np.greater(scores, target, out=mask)
        ranks[..., k] = _count_true(mask) + 1
        np.equal(scores, target, out=mask)
        if (_count_true(mask) > 1).any():
            mask &= index < index[rows, ids[:, k], None]
            ranks[..., k] += _count_true(mask)
    ranks.sort(axis=-1)
    return ranks


def _query_metrics(ranks, n_relevant):
    """Per-query METRIC_KEYS from sorted ranks (..., w), in the float
    operation order of a per-query loop: AP@k adds hits / rank over the
    hits in the top k, then divides by min(w, k)."""
    out = np.empty(ranks.shape[:-1] + (len(METRIC_KEYS),))
    for col, k in enumerate(_AP_CUTOFFS):
        total = np.zeros(ranks.shape[:-1])
        for hits in range(1, min(n_relevant, k) + 1):
            rank = ranks[..., hits - 1]
            total = total + np.where(rank <= k, hits / rank, 0.0)
        out[..., col] = total / min(n_relevant, k)
    for col, k in enumerate(_RECALL_CUTOFFS, start=len(_AP_CUTOFFS)):
        out[..., col] = np.count_nonzero(ranks <= k, axis=-1) / n_relevant
    return out


def _kept_bytes(n_candidates, n_queries):
    """Bytes of the per-query values of every candidate and their
    running sums."""
    return 16 * len(METRIC_KEYS) * n_candidates * n_queries


def _kept_layout(arrays, kept, queries, width):
    """(index, rows) of a block of queries' columns padded to width: the
    gallery index each column ranks as (n_gallery on padding) and the
    gallery row its scores come from (a dropped item on padding).  Each
    query's relevant ids come first, then the items set in its bits."""
    n_gallery, widths, flat, starts = arrays
    bits, columns, pads = kept
    first, slot = widths[queries, None], np.arange(width)
    index = np.where(slot < first, flat.take(starts[queries, None] + slot,
                                             mode="clip"), n_gallery)
    index[(slot >= first) & (slot < columns[queries, None])] = np.nonzero(
        np.unpackbits(bits[queries], axis=1, count=n_gallery))[1]
    return index, np.where(index < n_gallery, index, pads[queries, None])


def _candidates_per_block(columns):
    """How many fused candidates, each with a scratch row of its own
    beside one shared scratch row, fit _RANK_BLOCK_BYTES with a block of
    _QUERIES_PER_BLOCK queries of the mean column count."""
    n_queries = len(columns)
    rows = -(-columns.sum() // n_queries) * min(n_queries,
                                                _QUERIES_PER_BLOCK)
    free = _RANK_BLOCK_BYTES - rows * (8 * 2 + 1)
    return max(1, free // (rows * 9 + _kept_bytes(1, n_queries)))


def _mean_metrics(score_rows, arrays, kept, n_candidates, scratch_rows):
    """(P, METRIC_KEYS) means over all queries of P candidate matrices.

    Each query ranks the whole gallery, or with the search's kept sets
    (bits, columns, pads) its `_kept_layout` columns, columns[q] in all.
    Queries run by column count, in blocks padded to their most columns
    that fit _RANK_BLOCK_BYTES with the per-query values of every
    candidate.  score_rows(queries, rows, scratch) returns a block's (P,
    b, W) score rows, read from gallery rows `rows` (None: all, in
    order); it may hold one gathered (b, W) array at a time and use
    scratch, (scratch_rows, b, W) floats allocated here once.  Each
    candidate's per-query values are then summed in query order, as the
    sorting loop does.
    """
    n_gallery, widths, flat, starts = arrays
    n_queries = len(widths)
    columns, positions, layout, unpacked = (np.full(n_queries, n_gallery),
                                            flat, 0, 0)
    if kept is not None:     # the relevant ids are each query's first columns
        columns, layout, unpacked = kept[1], 40, n_gallery
        positions = np.arange(len(flat)) - np.repeat(starts, widths)
    # Bytes per column: a gathered value, the scratch rows, a mask byte per
    # candidate, one for the tie term, and the search layout's index, rows
    # and their build; each query of it also unpacks its bits.
    per_column = 8 * (1 + scratch_rows) + n_candidates + 1 + layout
    free = _RANK_BLOCK_BYTES - _kept_bytes(n_candidates, n_queries)
    order, blocks = np.lexsort((widths, columns)), []
    while len(order):
        widest = np.maximum.accumulate(
            columns[order[:max(1, free // (per_column + unpacked))]])
        fits = (np.arange(1, len(widest) + 1)
                * (widest * per_column + unpacked) <= free)
        queries, order = np.split(order, [max(1, np.count_nonzero(fits))])
        blocks.append(queries)
    scratch = np.empty(scratch_rows * max(
        len(queries) * columns[queries].max() for queries in blocks))
    per_query = np.empty((n_candidates, n_queries, len(METRIC_KEYS)))
    for queries in blocks:
        queries = queries[np.argsort(widths[queries], kind="stable")]
        width = columns[queries].max()
        index, rows = np.broadcast_to(np.arange(width),
                                      (len(queries), width)), None
        if kept is not None:
            index, rows = _kept_layout(arrays, kept, queries, width)
        scores = score_rows(queries, rows, scratch[
            :scratch_rows * len(queries) * width].reshape(
                scratch_rows, len(queries), width))
        cuts = np.flatnonzero(np.diff(widths[queries])) + 1
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(queries)]):
            block = queries[a:b]
            n_relevant = int(widths[block[0]])
            ids = positions[starts[block, None] + np.arange(n_relevant)]
            per_query[:, block] = _query_metrics(
                _relevant_ranks(scores[:, a:b], ids, index[a:b]), n_relevant)
        del scores, index, rows      # freed before the next block's
    # Sequential sums in query order (np.sum's pairwise order moves bits).
    return np.cumsum(per_query, axis=1)[:, -1] / n_queries


def evaluate(sim, relevance, mode="multiple"):
    """Score a similarity matrix column-by-column against relevance data.

    Column q of `sim` holds caption q's scores over the audio gallery.
    "multiple" mode uses each query's full relevant list; "single" mode
    keeps only the first (paired) id.  The report equals, bit for bit,
    ranking each column with `rank_gallery`, scoring each query in rank
    order, and summing over the queries in order.
    """
    s = as_matrix(sim, "similarity matrix")
    arrays = _relevance_arrays(relevance, mode, s.shape)
    # the queries' columns, gathered as rows: a block of s.T only
    means = _mean_metrics(lambda queries, rows, scratch: s.T[queries][None],
                          arrays, None, 1, 0)[0]
    return MetricsReport(**dict(zip(METRIC_KEYS, means.tolist())),
                         query_count=s.shape[1])
