"""Tests for the retrieval metrics against a direct-definition oracle."""

import re
import tracemalloc

import numpy as np
import pytest

from xmrt import (ConfigError, ContractError, DataError, MetricsReport,
                  RelevanceMap, evaluate, rank_gallery)
from xmrt import evaluation

from conftest import relevance_entries


# The metric helpers `evaluate` reproduces bit for bit (`_loop_report`).
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


def _oracle_ranking(scores):
    """Sort by descending score, ascending index on ties, via sorted()."""
    return [i for _, i in sorted(((-(s), i) for i, s in enumerate(scores)))]


def _oracle_ap(ranking, relevant, k):
    relevant = set(relevant)
    hits, total = 0, 0.0
    for rank, item in enumerate(ranking[:k], start=1):
        if item in relevant:
            hits += 1
            total += hits / rank
    return total / min(len(relevant), k)


def _oracle_recall(ranking, relevant, k):
    relevant = set(relevant)
    return len(relevant & set(ranking[:k])) / len(relevant)


def _oracle_evaluate(sim, entries, mode):
    """Plain-python re-implementation of the full report."""
    n_gallery, n_queries = sim.shape
    sums = {"map_at_10": 0.0, "map_at_16": 0.0,
            "r_at_1": 0.0, "r_at_5": 0.0, "r_at_10": 0.0}
    for q in range(n_queries):
        rel = entries[q][:1] if mode == "single" else entries[q]
        ranking = _oracle_ranking(sim[:, q].tolist())
        sums["map_at_10"] += _oracle_ap(ranking, rel, 10)
        sums["map_at_16"] += _oracle_ap(ranking, rel, 16)
        sums["r_at_1"] += _oracle_recall(ranking, rel, 1)
        sums["r_at_5"] += _oracle_recall(ranking, rel, 5)
        sums["r_at_10"] += _oracle_recall(ranking, rel, 10)
    return {key: value / n_queries for key, value in sums.items()}


def _random_instance(rng, n=100, max_rel=5):
    sim = rng.standard_normal((n, n))
    entries = []
    for _ in range(n):
        size = int(rng.integers(1, max_rel + 1))
        entries.append(tuple(
            int(i) for i in rng.choice(n, size=size, replace=False)))
    return sim, entries


class TestRankGallery:
    def test_descending_order(self):
        np.testing.assert_array_equal(
            rank_gallery(np.array([0.1, 0.9, 0.5])), [1, 2, 0])

    def test_single_item(self):
        np.testing.assert_array_equal(rank_gallery(np.array([0.3])), [0])

    def test_ties_break_by_index(self):
        np.testing.assert_array_equal(
            rank_gallery(np.array([0.5, 0.7, 0.5, 0.7])), [1, 3, 0, 2])

    def test_rejects_matrix_input(self):
        with pytest.raises(ContractError, match="1-D"):
            rank_gallery(np.ones((2, 2)))

    def test_rejects_nan_scores(self):
        with pytest.raises(DataError, match="finite"):
            rank_gallery(np.array([0.1, np.nan]))


class TestAveragePrecision:
    def test_single_relevant_at_rank_1(self):
        assert average_precision_at_k([3, 1, 0], {3}, 10) == 1.0

    def test_single_relevant_at_rank_3(self):
        ranking = [5, 4, 7, 1, 0]
        assert abs(average_precision_at_k(ranking, {7}, 10) - 1 / 3) < 1e-12

    def test_two_relevant_at_ranks_1_and_3(self):
        ranking = [9, 4, 8] + list(range(4))
        ap = average_precision_at_k(ranking, {9, 8}, 16)
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12
        assert abs(ap - 0.8333333333) < 1e-9

    def test_relevant_beyond_cutoff_scores_zero(self):
        ranking = list(range(20))
        assert average_precision_at_k(ranking, {19}, 10) == 0.0

    def test_normalization_caps_at_k(self):
        # 12 relevant, k=10, perfect ranking: still 1.0
        ranking = list(range(30))
        assert average_precision_at_k(ranking, set(range(12)), 10) == 1.0

    def test_empty_relevant_set(self):
        with pytest.raises(DataError, match="empty"):
            average_precision_at_k([0, 1], set(), 10)

    def test_bad_k(self):
        with pytest.raises(ContractError):
            average_precision_at_k([0], {0}, 0)


class TestRecall:
    def test_target_at_rank_1(self):
        assert recall_at_k([4, 2, 0], {4}, 1) == 1.0

    def test_target_at_rank_6(self):
        ranking = [9, 8, 7, 6, 5, 0]
        assert recall_at_k(ranking, {0}, 5) == 0.0
        assert recall_at_k(ranking, {0}, 10) == 1.0

    def test_partial_set(self):
        assert recall_at_k([1, 2, 3, 4, 5], {1, 9}, 5) == 0.5

    def test_empty_relevant_set(self):
        with pytest.raises(DataError, match="empty"):
            recall_at_k([0], set(), 5)


class TestEvaluate:
    def test_identity_similarity_scores_perfectly(self):
        rel = RelevanceMap(tuple((q,) for q in range(8)))
        report = evaluate(np.eye(8), rel)
        assert report.as_dict() == {"map_at_10": 1.0, "map_at_16": 1.0,
                                    "r_at_1": 1.0, "r_at_5": 1.0,
                                    "r_at_10": 1.0, "query_count": 8}

    def test_buried_targets_score_zero(self):
        # paired item always ranked last in a 20-item gallery
        sim = -np.eye(20)
        rel = RelevanceMap(tuple((q,) for q in range(20)))
        report = evaluate(sim, rel)
        assert report.map_at_16 == 0.0 and report.r_at_10 == 0.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            sim, entries = _random_instance(rng, n=60)
            rel = RelevanceMap(tuple(entries))
            for mode in ("multiple", "single"):
                report = evaluate(sim, rel, mode=mode)
                expected = _oracle_evaluate(sim, entries, mode)
                for key, value in expected.items():
                    assert abs(getattr(report, key) - value) < 1e-12, (
                        trial, mode, key)

    def test_truncation_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sim, entries = _random_instance(rng, n=40)
            report = evaluate(sim, RelevanceMap(tuple(entries)))
            assert report.map_at_10 <= report.map_at_16 + 1e-15

    def test_monotone_transform_invariance(self):
        # metrics depend only on the ranking, so exp() changes nothing
        rng = np.random.default_rng(2)
        sim, entries = _random_instance(rng, n=30)
        rel = RelevanceMap(tuple(entries))
        a = evaluate(sim, rel).as_dict()
        b = evaluate(np.exp(sim), rel).as_dict()
        assert a == b

    def test_single_mode_uses_only_the_first_id(self):
        # query 0: paired item 5 ranked first, extra relevant 1 buried
        sim = np.zeros((8, 1))
        sim[5, 0] = 1.0
        sim[1, 0] = -1.0
        rel = RelevanceMap(((5, 1),))
        multiple = evaluate(sim, rel, mode="multiple")
        single = evaluate(sim, rel, mode="single")
        assert single.r_at_5 == 1.0
        assert multiple.r_at_5 == 0.5
        assert single.map_at_10 == 1.0

    def test_rectangular_gallery(self):
        # 6 gallery items, 3 queries
        sim = np.zeros((6, 3))
        for q, hit in enumerate([4, 0, 2]):
            sim[hit, q] = 1.0
        rel = RelevanceMap(((4,), (0,), (2,)))
        assert evaluate(sim, rel).map_at_16 == 1.0

    def test_query_count_mismatch(self):
        rel = RelevanceMap(((0,), (1,)))
        with pytest.raises(ContractError, match="relevance entries"):
            evaluate(np.eye(3), rel)

    def test_gallery_id_out_of_range(self):
        rel = RelevanceMap(((0,), (3,)))
        with pytest.raises(ContractError, match="gallery"):
            evaluate(np.eye(2), rel)

    def test_unknown_mode(self):
        rel = RelevanceMap(((0,),))
        with pytest.raises(ConfigError, match="mode"):
            evaluate(np.eye(1), rel, mode="both")

    @pytest.mark.parametrize("shape, entries", [
        ((3, 0), ()), ((0, 3), ((0,),) * 3), ((0, 0), ())])
    def test_empty_matrix_is_a_contract_error(self, shape, entries):
        with pytest.raises(ContractError,
                           match="needs gallery rows and query columns"):
            evaluate(np.zeros(shape), RelevanceMap(entries))


def _loop_report(sim, entries, mode):
    """The per-query loop `evaluate` reproduces bit for bit: a stable
    sort per query, then the public metric helpers, summed in query
    order."""
    sums = [0.0] * 5
    for q in range(sim.shape[1]):
        rel = entries[q][:1] if mode == "single" else entries[q]
        ranking = rank_gallery(sim[:, q])
        values = (average_precision_at_k(ranking, rel, 10),
                  average_precision_at_k(ranking, rel, 16),
                  recall_at_k(ranking, rel, 1),
                  recall_at_k(ranking, rel, 5),
                  recall_at_k(ranking, rel, 10))
        for i, value in enumerate(values):
            sums[i] += value
    report = {key: total / sim.shape[1]
              for key, total in zip(evaluation.METRIC_KEYS, sums)}
    report["query_count"] = sim.shape[1]
    return report


def _per_entry_arrays(entries, mode, shape):
    """`_relevance_arrays` as built one entry at a time."""
    if mode == "single":
        entries = [ids[:1] for ids in entries]
    widths = np.array([len(ids) for ids in entries], np.intp)
    flat = np.array([i for ids in entries for i in ids], np.intp)
    return shape[0], widths, flat, np.cumsum(widths) - widths


def _entries(rng, n_gallery, widths):
    return [tuple(int(i) for i in rng.choice(n_gallery, w, replace=False))
            for w in widths]


def _bits_case(name):
    """(sim, entries) for each named case of TestEvaluateBitsEqualLoop."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "random":
        sim = rng.standard_normal((50, 40))
    elif name == "tie_heavy":
        sim = np.round(rng.standard_normal((50, 40)), 1)
    elif name == "all_equal":
        sim = np.full((30, 12), 0.25)
    elif name == "long_lists":
        sim = np.round(rng.standard_normal((60, 15)), 1)
        return sim, _entries(rng, 60, rng.integers(17, 40, 15))
    elif name == "small_gallery":
        sim = np.round(rng.standard_normal((7, 20)), 1)
    elif name == "one_item_gallery":
        sim = rng.standard_normal((1, 5))
    elif name == "uneven_widths":
        sim = np.round(rng.standard_normal((300, 30)), 1)
        return sim, _entries(rng, 300, [1] * 12 + [200] + [1] * 17)
    n_gallery, n_queries = sim.shape
    widths = rng.integers(1, min(5, n_gallery) + 1, n_queries)
    return sim, _entries(rng, n_gallery, widths)


class TestEvaluateBitsEqualLoop:
    """`evaluate` ranks only the relevant items; its report must equal
    the sorting loop's exactly, not within a tolerance."""

    CASES = ("random", "tie_heavy", "all_equal", "long_lists",
             "small_gallery", "one_item_gallery", "uneven_widths")

    @pytest.mark.parametrize("mode", ["multiple", "single"])
    @pytest.mark.parametrize("name", CASES)
    def test_report_equals_sorting_loop(self, name, mode):
        # the flat RelevanceMap gives back its entries and the arrays a
        # per-entry build gives, whether built from entries or flat
        sim, entries = _bits_case(name)
        rel = RelevanceMap(tuple(entries))
        widths = np.array([len(ids) for ids in entries], np.intp)
        flat = RelevanceMap._from_flat(
            widths, np.array([i for ids in entries for i in ids], np.intp))
        for built in (rel, flat):
            assert relevance_entries(built) == tuple(entries)
            got = evaluation._relevance_arrays(built, mode, sim.shape)
            want = _per_entry_arrays(entries, mode, sim.shape)
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            report = evaluate(sim, built, mode)
            assert report.as_dict() == _loop_report(sim, entries, mode)

    @pytest.mark.parametrize("mode", ["multiple", "single"])
    @pytest.mark.parametrize("block_bytes", [1, 2500, 9000])
    def test_query_blocks_ending_partway(self, monkeypatch, block_bytes,
                                         mode):
        # 1 byte forces one query per block; the others end blocks in
        # the middle of runs of equal width and leave a short last block
        monkeypatch.setattr(evaluation, "_RANK_BLOCK_BYTES", block_bytes)
        for name in ("tie_heavy", "uneven_widths", "long_lists"):
            sim, entries = _bits_case(name)
            report = evaluate(sim, RelevanceMap(tuple(entries)), mode)
            assert report.as_dict() == _loop_report(sim, entries, mode), name

    def test_queries_are_summed_in_order(self):
        # a case where numpy's pairwise np.sum gives other bits than the
        # sequential sum, so only the loop's order passes
        rng = np.random.default_rng(0)
        sim = rng.standard_normal((30, 40))
        entries = _entries(rng, 30, rng.integers(1, 6, 40))
        aps = [average_precision_at_k(rank_gallery(sim[:, q]), entries[q], 10)
               for q in range(40)]
        expected = _loop_report(sim, entries, "multiple")
        assert np.sum(aps) / 40 != expected["map_at_10"]
        report = evaluate(sim, RelevanceMap(tuple(entries)))
        assert report.as_dict() == expected


class TestRankingKernel:
    """`_relevant_ranks` ranks P candidate matrices at once; evaluate is
    its P = 1 case."""

    def test_candidate_axis_ranks_each_candidate_by_the_stable_order(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.standard_normal((4, 6, 30)), 1)
        scores[1] = 0.25                      # every score ties
        zeros = np.where(rng.random((6, 30)) < 0.5, 0.0, -0.0)
        scores[3] = np.where(rng.random((6, 30)) < 0.6, zeros, scores[3])
        ids = np.stack([rng.choice(30, 3, replace=False) for _ in range(6)])
        index = np.broadcast_to(np.arange(30), (6, 30))
        ranks = evaluation._relevant_ranks(scores, ids, index)
        assert ranks.shape == (4, 6, 3)
        for p in range(4):
            alone = evaluation._relevant_ranks(scores[p:p + 1], ids, index)[0]
            assert np.array_equal(ranks[p], alone)
            for b in range(6):
                order = rank_gallery(scores[p, b]).tolist()
                assert ranks[p, b].tolist() == sorted(
                    order.index(g) + 1 for g in ids[b])

    def test_ties_compare_the_gallery_index_of_each_column(self):
        # columns shuffled per row, each tagged with its gallery index,
        # rank as the gallery itself does
        rng = np.random.default_rng(5)
        scores = np.round(rng.standard_normal((3, 6, 30)), 0)
        ids = np.stack([rng.choice(30, 3, replace=False) for _ in range(6)])
        index = np.stack([rng.permutation(30) for _ in range(6)])
        shuffled = np.take_along_axis(scores, index[None], axis=-1)
        columns = np.argsort(index, axis=1)   # where each gallery item went
        assert np.array_equal(
            evaluation._relevant_ranks(
                shuffled, np.take_along_axis(columns, ids, axis=1), index),
            evaluation._relevant_ranks(
                scores, ids, np.broadcast_to(np.arange(30), (6, 30))))


class TestRankBlockMemory:
    """A block of queries, with its ranking masks, stays within
    _RANK_BLOCK_BYTES whether or not its scores tie."""

    @pytest.mark.parametrize("ties", [True, False])
    def test_evaluate_peak_stays_within_the_budget(self, ties):
        rng = np.random.default_rng(4)
        sim = rng.standard_normal((2000, 400))
        if ties:
            sim = np.round(sim, 1)    # every relevant score ties
        rel = RelevanceMap(tuple(tuple(rng.choice(2000, 50, replace=False))
                                 for _ in range(400)))
        tracemalloc.start()
        try:
            evaluate(sim, rel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * evaluation._RANK_BLOCK_BYTES


class TestRelevanceMap:
    def test_rejects_empty_entry(self):
        with pytest.raises(DataError, match="no relevant"):
            RelevanceMap(((0,), ()))

    def test_rejects_duplicates(self):
        with pytest.raises(DataError, match="twice"):
            RelevanceMap(((1, 1),))

    def test_rejects_negative_ids(self):
        with pytest.raises(DataError, match="negative"):
            RelevanceMap(((-2,),))

    @pytest.mark.parametrize("entries, message", [
        (((0,), (1, 2), (), (4, 4)), "query 2 has no relevant items"),
        (((0,), (1, 2), (3, -1), ()), "query 2 lists a negative gallery id"),
        (((0,), (1, 2), (3, 0, 3), (-4,)), "query 2 lists a gallery id twice"),
        (((0,), (5, 1, 5), (-1,)), "query 1 lists a gallery id twice"),
        (((0,), (-1, 2, 2), (1, 1)), "query 1 lists a negative gallery id"),
    ])
    def test_names_the_first_later_offender(self, entries, message):
        with pytest.raises(DataError, match=re.escape(message)):
            RelevanceMap(entries)

    def test_matches_the_per_entry_check_on_random_lists(self):
        # the first failing query, and its first failing check, as a loop
        # over the entries finds them
        rng = np.random.default_rng(6)
        kinds = set()
        for _ in range(300):
            entries = [tuple(int(i) for i in rng.integers(-1, 8, w))
                       for w in rng.integers(0, 5, rng.integers(1, 8))]
            want = None
            for q, ids in enumerate(entries):
                if not ids:
                    want = f"query {q} has no relevant items"
                elif min(ids) < 0:
                    want = f"query {q} lists a negative gallery id"
                elif len(set(ids)) < len(ids):
                    want = f"query {q} lists a gallery id twice"
                if want:
                    break
            try:
                rel = RelevanceMap(entries)
                got = None
                assert relevance_entries(rel) == tuple(entries)
            except DataError as exc:
                got = str(exc)
            assert got == want, entries
            kinds.add(want and want.split(" ", 2)[2])
        assert len(kinds) == 4

    def test_max_id(self):
        assert RelevanceMap(((0, 7), (3,))).max_id() == 7


class TestMetricsReport:
    def test_bounds_checked(self):
        with pytest.raises(ContractError):
            MetricsReport(1.2, 1.0, 1.0, 1.0, 1.0, 1)

    def test_recall_monotonicity_checked(self):
        with pytest.raises(ContractError, match="monotone"):
            MetricsReport(0.5, 0.5, 0.9, 0.5, 0.9, 1)
