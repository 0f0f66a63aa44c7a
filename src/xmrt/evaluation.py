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
# Bounds a block of queries: their score rows copied out of s.T (8 bytes
# per gallery item) plus their (queries x relevant ids x gallery) boolean
# comparisons, so a long relevance list cannot force a big allocation.
_RANK_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class RelevanceMap:
    """Ordered relevant gallery ids per query; entry 0 is the paired item."""

    entries: tuple

    def __post_init__(self):
        normalized = []
        for q, ids in enumerate(self.entries):
            ids = tuple(int(i) for i in ids)
            if not ids:
                raise DataError(f"query {q} has no relevant items")
            if any(i < 0 for i in ids):
                raise DataError(f"query {q} lists a negative gallery id")
            if len(set(ids)) != len(ids):
                raise DataError(f"query {q} lists a gallery id twice")
            normalized.append(ids)
        object.__setattr__(self, "entries", tuple(normalized))

    def __len__(self):
        return len(self.entries)

    def max_id(self):
        return max(max(ids) for ids in self.entries)


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


def average_precision_at_k(ranking, relevant, k):
    """Truncated AP: mean precision at each relevant hit in the top k.

    Normalized by min(|relevant|, k) so a perfect ranking scores 1 even
    when more relevant items exist than the cutoff can hold.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    rel = set(int(i) for i in relevant)
    if not rel:
        raise DataError("relevant set is empty")
    hits = 0
    total = 0.0
    for rank, item in enumerate(np.asarray(ranking)[:k], start=1):
        if int(item) in rel:
            hits += 1
            total += hits / rank
    return total / min(len(rel), k)


def recall_at_k(ranking, relevant, k):
    """Fraction of the relevant set found in the top k."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    rel = set(int(i) for i in relevant)
    if not rel:
        raise DataError("relevant set is empty")
    top = set(int(i) for i in np.asarray(ranking)[:k])
    return len(rel & top) / len(rel)


def _query_blocks(widths, n_gallery):
    """(start, stop) runs of consecutive queries within _RANK_BLOCK_BYTES,
    one query at least."""
    cost = np.cumsum(n_gallery * (8 + widths))
    start = 0
    while start < len(widths):
        spent = cost[start - 1] if start else 0
        end = int(np.searchsorted(cost, spent + _RANK_BLOCK_BYTES, "right"))
        end = max(end, start + 1)
        yield start, end
        start = end


def _relevant_ranks(scores, ids):
    """Sorted 1-based ranks of the gallery ids ids[b] in score row b.

    rank = #{score > s_g} + #{score == s_g and index < g} + 1, the
    position `rank_gallery` gives item g.  The index term is computed
    only in rows where a relevant score equals another gallery score.
    """
    target = np.take_along_axis(scores, ids, axis=1)[:, :, None]
    ranks = np.count_nonzero(scores[:, None, :] > target, axis=2) + 1
    equal = scores[:, None, :] == target
    rows = np.flatnonzero((np.count_nonzero(equal, axis=2) > 1).any(axis=1))
    if rows.size:
        lower = np.arange(scores.shape[1]) < ids[rows, :, None]
        ranks[rows] += np.count_nonzero(equal[rows] & lower, axis=2)
    ranks.sort(axis=1)
    return ranks


def _query_metrics(ranks, n_relevant):
    """Per-query METRIC_KEYS from sorted ranks, in the float operation
    order of average_precision_at_k and recall_at_k."""
    out = np.empty((len(ranks), len(METRIC_KEYS)))
    for col, k in enumerate(_AP_CUTOFFS):
        total = np.zeros(len(ranks))
        for hits in range(1, min(n_relevant, k) + 1):
            rank = ranks[:, hits - 1]
            total = total + np.where(rank <= k, hits / rank, 0.0)
        out[:, col] = total / min(n_relevant, k)
    for col, k in enumerate(_RECALL_CUTOFFS, start=len(_AP_CUTOFFS)):
        out[:, col] = np.count_nonzero(ranks <= k, axis=1) / n_relevant
    return out


def evaluate(sim, relevance, mode="multiple"):
    """Score a similarity matrix column-by-column against relevance data.

    Column q of `sim` holds caption q's scores over the audio gallery.
    "multiple" mode uses each query's full relevant list; "single" mode
    keeps only the first (paired) id.  The report equals, bit for bit,
    ranking each column with `rank_gallery`, scoring it with
    `average_precision_at_k` and `recall_at_k`, and summing over the
    queries in order.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    s = as_matrix(sim, "similarity matrix")
    n_gallery, n_queries = s.shape
    if len(relevance) != n_queries:
        raise ContractError(
            f"{len(relevance)} relevance entries for {n_queries} queries")
    if relevance.max_id() >= n_gallery:
        raise ContractError(
            f"relevance names gallery id {relevance.max_id()} but the "
            f"gallery holds {n_gallery} items")
    entries = relevance.entries
    if mode == "single":
        entries = [ids[:1] for ids in entries]
    widths = np.fromiter(map(len, entries), np.intp, n_queries)
    flat = np.fromiter(itertools.chain.from_iterable(entries), np.intp,
                       int(widths.sum()))
    starts = np.cumsum(widths) - widths
    per_query = np.empty((n_queries, len(METRIC_KEYS)))
    for q0, q1 in _query_blocks(widths, n_gallery):
        # distinct widths; np.unique's first call would keep ~0.5 MB
        # allocated for the life of the process
        for width in np.flatnonzero(np.bincount(widths[q0:q1])).tolist():
            queries = q0 + np.flatnonzero(widths[q0:q1] == width)
            ids = flat[starts[queries, None] + np.arange(width)]
            # the queries' columns, copied as rows: a block of s.T only
            per_query[queries] = _query_metrics(
                _relevant_ranks(s.T[queries], ids), width)
    # Sequential sums in query order (np.sum's pairwise order moves bits).
    sums = np.cumsum(per_query, axis=0)[-1]
    means = {key: float(v) / n_queries for key, v in zip(METRIC_KEYS, sums)}
    return MetricsReport(**means, query_count=n_queries)
