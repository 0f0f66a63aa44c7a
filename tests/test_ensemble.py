"""Tests for similarity fusion, the weight table, and the grid search."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from xmrt import (ConfigError, ContractError, DataError, EnsembleSpec,
                  GridSearchConfig, Member, RelevanceMap, WeightTable,
                  bundled_weight_table, evaluate, fuse, grid_search,
                  hierarchical_grid_search, load_coefficients,
                  read_weight_table, write_weight_table)
from xmrt import ensemble, evaluation
from xmrt.ensemble import _compositions, _grid_size


def _spec(weights, strategy="system-first"):
    members = tuple(Member(system=i, model=f"m{i}", weight=w)
                    for i, w in enumerate(weights))
    return EnsembleSpec(members=members, strategy=strategy)


class TestEnsembleSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ContractError, match="sum"):
            _spec([0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractError, match="negative"):
            Member(2, "passt", -0.1)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            EnsembleSpec(members=())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            _spec([1.0], strategy="middle-out")


class TestFuse:
    def test_single_member_identity(self):
        m = np.random.default_rng(0).standard_normal((4, 4))
        out = fuse([m], _spec([1.0]))
        np.testing.assert_array_equal(out, m)

    def test_one_hot_weights_reproduce_member_bit_exactly(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((5, 5)) for _ in range(3)]
        out = fuse(mats, _spec([0.0, 1.0, 0.0]))
        assert out.tobytes() == mats[1].tobytes()

    def test_identical_matrices_any_convex_weights(self):
        m = np.random.default_rng(2).standard_normal((3, 3))
        out = fuse([m, m.copy()], _spec([0.3, 0.7]))
        np.testing.assert_allclose(out, m, atol=1e-15)

    def test_arithmetic(self):
        out = fuse([np.array([[1.0]]), np.array([[0.0]])], _spec([0.5, 0.5]))
        np.testing.assert_array_equal(out, [[0.5]])

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((6, 6)) for _ in range(4)]
        weights = [0.1, 0.2, 0.3, 0.4]
        base = fuse(mats, _spec(weights))
        perm = [2, 0, 3, 1]
        swapped = fuse([mats[i] for i in perm],
                       _spec([weights[i] for i in perm]))
        np.testing.assert_allclose(base, swapped, atol=1e-12)

    def test_member_count_mismatch(self):
        with pytest.raises(ContractError, match="matrices"):
            fuse([np.eye(2)], _spec([0.5, 0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ContractError, match="shape"):
            fuse([np.eye(2), np.eye(3)], _spec([0.5, 0.5]))

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_data_error(self):
        big = np.full((2, 2), np.finfo(float).max)
        with pytest.raises(DataError, match="fusion overflowed"):
            fuse([big, big, big], _spec([0.1, 0.5, 0.4]))


class TestWeightTable:
    def test_round_trip(self, tmp_path):
        table = WeightTable(
            row_names=("E1", "E2"),
            systems=(2, 3),
            models=("passt", "eat"),
            values=np.array([[0.1, 0.2, 0.3, 0.4],
                             [0.25, 0.25, 0.25, 0.25]]))
        path = tmp_path / "weights.tsv"
        write_weight_table(path, table)
        back = read_weight_table(path)
        assert back.row_names == table.row_names
        assert back.systems == table.systems
        assert back.models == table.models
        np.testing.assert_array_equal(back.values, table.values)

    def test_column_tags_are_system_major(self):
        table = WeightTable(("E1",), (2, 3), ("passt", "eat"),
                            np.full((1, 4), 0.25))
        assert table.column_tags() == ((2, "passt"), (2, "eat"),
                                       (3, "passt"), (3, "eat"))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("name\tsid2_passt\nE1\t1.0\n")
        with pytest.raises(DataError, match="ensemble"):
            read_weight_table(path)

    def test_non_numeric_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ensemble\tsid2_passt\tsid2_eat\nE1\t0.5\thalf\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_weight_table(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ensemble\tsid2_passt\tsid2_eat\nE1\t1.0\n")
        with pytest.raises(DataError, match="entries"):
            read_weight_table(path)

    def test_repeated_row_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ensemble\tsid2_passt\tsid2_eat\nE1\t1.0\t0.0\n"
                        "E2\t0.5\t0.5\nE1\t0.0\t1.0\n")
        with pytest.raises(DataError, match="row 'E1' appears twice"):
            read_weight_table(path)


class TestBundledCoefficients:
    def test_four_rows_load_and_sum_to_one(self):
        specs = load_coefficients(bundled_weight_table())
        assert list(specs) == ["E1", "E2", "E3", "E4"]
        for spec in specs.values():
            total = math.fsum(m.weight for m in spec.members)
            assert abs(total - 1.0) < 1e-12
            assert len(spec.members) == 12

    def test_known_slot_value(self):
        specs = load_coefficients(bundled_weight_table())
        by_tag = {(m.system, m.model): m.weight
                  for m in specs["E4"].members}
        assert by_tag[(5, "passt")] == 0.15

    def test_strategies_split_half_and_half(self):
        specs = load_coefficients(bundled_weight_table())
        assert specs["E1"].strategy == "system-first"
        assert specs["E2"].strategy == "system-first"
        assert specs["E3"].strategy == "model-first"
        assert specs["E4"].strategy == "model-first"

    def test_negative_weight_rejected(self):
        table = bundled_weight_table()
        bad = np.array(table.values, copy=True)
        bad[0, 0] = -bad[0, 0]
        bad[0, 1] += 2 * table.values[0, 0]  # keep the sum at 1
        broken = WeightTable(table.row_names, table.systems, table.models,
                             bad)
        with pytest.raises(DataError, match="negative"):
            load_coefficients(broken)

    def test_bad_row_sum_rejected(self):
        table = bundled_weight_table()
        bad = np.array(table.values, copy=True)
        bad[2, 0] += 0.5
        broken = WeightTable(table.row_names, table.systems, table.models,
                             bad)
        with pytest.raises(DataError, match="sums to"):
            load_coefficients(broken)

    def test_wrong_grid_rejected(self):
        table = WeightTable(("E1",), (1, 2), ("passt",), np.full((1, 2), 0.5))
        with pytest.raises(DataError, match="systems"):
            load_coefficients(table)


class TestCompositions:
    def test_enumerates_the_simplex_in_lex_order(self):
        got = list(_compositions(2, 2))
        assert got == [(0, 2), (1, 1), (2, 0)]

    def test_count_matches_closed_form(self):
        got = list(_compositions(10, 3))
        assert len(got) == _grid_size(10, 3) == math.comb(12, 2)
        assert all(sum(c) == 10 for c in got)
        assert got == sorted(got)


class TestGridSearch:
    def _relevance(self, n):
        return RelevanceMap(tuple((q,) for q in range(n)))

    def test_dominant_member_takes_all_weight(self):
        # member 0 alone is perfect; member 1 alone (and any mixture
        # short of weight 1 on member 0) buries every paired item
        n = 20
        a = np.eye(n)
        b = 100.0 * (np.ones((n, n)) - 2.0 * np.eye(n))
        rel = self._relevance(n)
        assert evaluate(a, rel).map_at_16 == 1.0
        assert evaluate(b, rel).map_at_16 == 0.0
        result = grid_search([a, b], rel)
        assert result.spec.members[0].weight == 1.0
        assert result.spec.members[1].weight == 0.0
        assert result.map_at_16 == 1.0

    def test_two_identical_members_tie_to_lex_smallest(self):
        sim = np.eye(6)
        result = grid_search([sim, sim.copy()], self._relevance(6))
        assert [m.weight for m in result.spec.members] == [0.0, 1.0]

    def test_planted_interior_optimum_matches_fine_brute_force(self):
        # one query, gallery of 5, relevant item 0 scores 0.9 in both
        # members; each member promotes its own distractor to 1.0, so
        # only interior mixtures rank item 0 first
        a = np.array([[0.9], [1.0], [0.0], [0.0], [0.0]])
        b = np.array([[0.9], [0.0], [1.0], [0.0], [0.0]])
        rel = RelevanceMap(((0,),))
        result = grid_search([a, b], rel)
        assert result.map_at_16 == 1.0

        fine = None
        for units in range(401):  # 0.0025 grid over w0
            w0 = units / 400.0
            value = evaluate(w0 * a + (1.0 - w0) * b, rel).map_at_16
            if fine is None or value > fine[1]:
                fine = (w0, value)
        coarse_w0 = result.spec.members[0].weight
        assert fine[1] == result.map_at_16
        assert abs(coarse_w0 - fine[0]) <= 0.01 + 1e-12

    @staticmethod
    def _tie_heavy(seed):
        # scores rounded to 0.1 tie often, so any fusion whose last bits
        # differ from fuse's reorders items and shifts mAP@16
        rng = np.random.default_rng(seed)
        mats = [np.round(rng.standard_normal((60, 80)), 1) for _ in range(3)]
        rel = RelevanceMap(tuple(
            tuple(rng.choice(60, size=rng.integers(1, 4), replace=False))
            for _ in range(80)))
        mats.append(np.round(rng.standard_normal((60, 80)), 1))
        return mats, rel

    @pytest.mark.parametrize("seed", [1, 2, 6, 12, 27, 36])
    @pytest.mark.parametrize(
        "search", ["flat", "refine", "system-first", "model-first"])
    def test_objective_matches_independent_reevaluation(self, search, seed):
        mats, rel = self._tie_heavy(seed)
        cfg = GridSearchConfig(step=0.05)
        if search in ("flat", "refine"):
            ordered = mats[:3]
            result = grid_search(ordered, rel, cfg, refine=search == "refine")
        else:
            grid = dict(zip([(2, "passt"), (2, "eat"), (3, "passt"),
                             (3, "eat")], mats))
            result = hierarchical_grid_search(grid, rel, cfg,
                                              strategy=search)
            ordered = [grid[(m.system, m.model)]
                       for m in result.spec.members]
        replay = evaluate(fuse(ordered, result.spec), rel, "multiple")
        assert replay.map_at_16 == result.map_at_16

    def test_points_evaluated_counts_the_whole_simplex(self):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((6, 6)) for _ in range(3)]
        cfg = GridSearchConfig(step=0.25)
        result = grid_search(mats, self._relevance(6), cfg)
        assert result.points_evaluated == _grid_size(4, 3)

    def test_budget_exceeded_suggests_coarser_step(self):
        mats = [np.eye(4)] * 5
        with pytest.raises(ConfigError, match="coarser"):
            grid_search(mats, self._relevance(4))

    def test_refine_never_hurts(self):
        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((10, 10)) for _ in range(2)]
        rel = self._relevance(10)
        cfg = GridSearchConfig(step=0.1)
        coarse = grid_search(mats, rel, cfg)
        refined = grid_search(mats, rel, cfg, refine=True)
        assert refined.map_at_16 >= coarse.map_at_16
        total = math.fsum(m.weight for m in refined.spec.members)
        assert abs(total - 1.0) < 1e-9

    def test_needs_two_members(self):
        with pytest.raises(ContractError, match=">= 2"):
            grid_search([np.eye(2)], self._relevance(2))

    def test_tags_attach_to_members(self):
        rng = np.random.default_rng(7)
        mats = [rng.standard_normal((4, 4)) for _ in range(2)]
        result = grid_search(mats, self._relevance(4),
                             tags=[(2, "passt"), (3, "eat")])
        assert [(m.system, m.model) for m in result.spec.members] == \
            [(2, "passt"), (3, "eat")]

    def test_step_must_divide_one(self):
        with pytest.raises(ConfigError, match="divide"):
            GridSearchConfig(step=0.03)

    def test_refine_rejects_a_step_off_the_refine_lattice(self):
        # 0.004 / 0.0025 = 1.6 would round to a 0.002 lattice
        mats = [np.eye(4), np.eye(4)[::-1]]
        cfg = GridSearchConfig(step=0.004)
        with pytest.raises(ConfigError, match="whole multiple of 0.0025"):
            grid_search(mats, self._relevance(4), cfg, refine=True)
        assert grid_search(mats, self._relevance(4), cfg).points_evaluated \
            == 251

    def test_strategy_is_checked_before_any_point_is_scored(
            self, monkeypatch):
        def score(*args, **kwargs):
            raise AssertionError("a grid point was scored")
        monkeypatch.setattr(ensemble, "_mean_metrics", score)
        mats = [np.eye(4), np.eye(4)[::-1]]
        with pytest.raises(ConfigError, match="strategy must be one of"):
            grid_search(mats, self._relevance(4), strategy="bogus")

    def test_empty_members_fail_before_any_point_is_scored(
            self, monkeypatch):
        def score(*args, **kwargs):
            raise AssertionError("a grid point was scored")
        monkeypatch.setattr(ensemble, "_mean_metrics", score)
        with pytest.raises(ContractError,
                           match="needs gallery rows and query columns"):
            grid_search([np.zeros((3, 0))] * 2, RelevanceMap(()))

    def test_overflowing_fusion_is_a_data_error(self):
        # 0.1, 0.5 and 0.4 of the largest float sum past it; the error
        # names the fused matrix and no numpy warning leaks
        top = np.full((4, 4), np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite"):
                grid_search([top] * 3, self._relevance(4),
                            GridSearchConfig(step=0.1))

    def test_an_overflowing_vector_fails_only_when_its_value_is_read(self):
        top = np.full((4, 4), np.finfo(np.float64).max)
        scores = ensemble._grid_scores([top] * 3, self._relevance(4),
                                       "multiple")
        values = scores([[0.5, 0.5, 0.0], [0.1, 0.5, 0.4]])
        assert next(values) == evaluate(top, self._relevance(4)).map_at_16
        with pytest.raises(DataError, match="non-finite"):
            next(values)

    def test_refine_ignores_an_overflow_past_the_improving_move(self):
        # In units of 1/400, the coarse optimum is (160, 160, 80).  Its
        # first sweep improves first at move 9, (163, 157, 80), and scores
        # it in the block of moves 8-15, whose move 13, (161, 160, 79),
        # overflows in the last column: max, max and the float below max
        # sum past max there.  No point the sequential rule scores
        # overflows, so the search must return its result.
        big = np.finfo(np.float64).max

        def units(k, at_least):
            v = np.full(3, -at_least / 400)
            v[k] += 1
            return v

        # the weights lie in a box around (160, 160, 80) and (163, 157, 80)
        # (each bound counted twice), and u0 - u1 >= 5.5 favors the latter
        box = [units(0, 159.5), -units(0, 163.5), units(1, 156.5),
               -units(1, 160.5), units(2, 79.5), -units(2, 80.5)]
        favored = units(0, 5.5) - np.array([0.0, 1.0, 0.0])
        queries = np.array(box + box + [favored])
        mats = []
        for k, top in enumerate([big, big, np.nextafter(big, 0)]):
            m = np.zeros((3, len(queries) + 1))
            m[2, :-1] = queries[:, k]
            m[0, -1] = top
            mats.append(m)
        rel = RelevanceMap(((2,),) * (len(queries) + 1))
        with pytest.raises(DataError, match="non-finite"):
            list(ensemble._grid_scores(mats, rel, "multiple")(
                [[161 / 400, 160 / 400, 79 / 400]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid_search(mats, rel, GridSearchConfig(step=0.2),
                              refine=True)
        assert [m.weight for m in got.spec.members] == [0.4075, 0.3925, 0.2]
        assert (got.map_at_16, got.points_evaluated) \
            == _reference_search(mats, rel, 0.2, refine=True)[1:]

    @pytest.mark.parametrize("step", [0.01, 0.005])
    def test_refined_weights_lie_on_the_refine_lattice(self, step):
        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((10, 10)) for _ in range(2)]
        result = grid_search(mats, self._relevance(10),
                             GridSearchConfig(step=step), refine=True)
        for member in result.spec.members:
            units = member.weight / 0.0025
            assert abs(units - round(units)) < 1e-9


class TestHierarchicalGridSearch:
    def _instance(self, seed=0):
        rng = np.random.default_rng(seed)
        n = 8
        mats = {(s, m): rng.standard_normal((n, n))
                for s in (2, 3) for m in ("passt", "eat")}
        rel = RelevanceMap(tuple((q,) for q in range(n)))
        return mats, rel

    def test_flat_equivalence_invariant(self):
        # the returned flat product weights must reproduce the reported
        # objective when fused and evaluated independently
        mats, rel = self._instance()
        cfg = GridSearchConfig(step=0.25)
        for strategy in ("system-first", "model-first"):
            result = hierarchical_grid_search(mats, rel, cfg,
                                              strategy=strategy)
            ordered = [mats[(m.system, m.model)]
                       for m in result.spec.members]
            again = evaluate(fuse(ordered, result.spec), rel).map_at_16
            assert again == result.map_at_16
            total = math.fsum(m.weight for m in result.spec.members)
            assert abs(total - 1.0) < 1e-9

    def test_members_cover_the_grid_in_system_major_order(self):
        mats, rel = self._instance(seed=1)
        result = hierarchical_grid_search(mats, rel,
                                          GridSearchConfig(step=0.5))
        tags = [(m.system, m.model) for m in result.spec.members]
        assert tags == [(2, "passt"), (2, "eat"), (3, "passt"), (3, "eat")]

    def test_dominant_member_found_through_both_stages(self):
        n = 10
        good = np.eye(n)
        bad = 100.0 * (np.ones((n, n)) - 2.0 * np.eye(n))
        mats = {(2, "passt"): good, (2, "eat"): bad,
                (3, "passt"): bad, (3, "eat"): bad}
        rel = RelevanceMap(tuple((q,) for q in range(n)))
        result = hierarchical_grid_search(mats, rel,
                                          GridSearchConfig(step=0.05))
        weights = {(m.system, m.model): m.weight
                   for m in result.spec.members}
        assert result.map_at_16 == 1.0
        assert weights[(2, "passt")] == 1.0

    def test_incomplete_matrix_grid(self):
        mats, rel = self._instance(seed=6)
        del mats[(3, "eat")]
        with pytest.raises(ContractError, match="grid"):
            hierarchical_grid_search(mats, rel, GridSearchConfig(step=0.5))

    def test_unknown_strategy(self):
        mats, rel = self._instance()
        with pytest.raises(ConfigError, match="strategy"):
            hierarchical_grid_search(mats, rel, GridSearchConfig(step=0.5),
                                     strategy="flat")

    @pytest.mark.parametrize("strategy", ["system-first", "model-first"])
    @pytest.mark.parametrize("tags, axis", [
        ([(2, "passt"), (2, "eat")], "systems"),
        ([(2, "passt"), (3, "passt")], "models")])
    def test_one_wide_grid_is_rejected_before_any_point_is_scored(
            self, monkeypatch, strategy, tags, axis):
        def score(*args, **kwargs):
            raise AssertionError("a grid point was scored")
        monkeypatch.setattr(ensemble, "_mean_metrics", score)
        mats = {tag: np.eye(4) for tag in tags}
        with pytest.raises(ContractError, match=f">= 2 {axis}, got 1"):
            hierarchical_grid_search(mats, self._instance()[1],
                                     GridSearchConfig(step=0.5),
                                     strategy=strategy)


def _reference_search(mats, rel, step, refine=False):
    """The weight search spelled out: every simplex point in lexicographic
    order keeping strict improvements, then nested-loop first-improvement
    sweeps moving 1-3 units of 0.0025 from member i to member j."""
    n = len(mats)
    divisions = round(1 / step)

    def score(weights):
        return evaluate(fuse(mats, _spec(weights)), rel).map_at_16

    best_value, evaluated = -1.0, 0
    for counts in itertools.product(range(divisions + 1), repeat=n):
        if sum(counts) != divisions:
            continue
        value = score([c / divisions for c in counts])
        evaluated += 1
        if value > best_value:
            best_value, best = value, counts
    if not refine:
        return [c / divisions for c in best], best_value, evaluated
    units_total = round(1 / 0.0025)
    units = [c * (units_total // divisions) for c in best]
    for _ in range(100):
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for shift in range(1, 4):
                    if units[i] < shift:
                        break
                    trial = list(units)
                    trial[i] -= shift
                    trial[j] += shift
                    value = score([u / units_total for u in trial])
                    evaluated += 1
                    if value > best_value:
                        best_value, units, improved = value, trial, True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return [u / units_total for u in units], best_value, evaluated


class TestSearchMatchesReference:
    """Which improving move the refinement takes, and the exact product
    weights of both hierarchical strategies, pinned bit for bit."""

    TAGS = [(2, "passt"), (2, "eat"), (3, "passt"), (3, "eat")]
    # Stage-1 groups: system-first searches across systems per model.
    GROUPS = {"system-first": [[(2, "passt"), (3, "passt")],
                               [(2, "eat"), (3, "eat")]],
              "model-first": [[(2, "passt"), (2, "eat")],
                              [(3, "passt"), (3, "eat")]]}

    @staticmethod
    def _bits(weights, value, evaluated):
        return [float(w).hex() for w in weights], value.hex(), evaluated

    @pytest.mark.parametrize("seed", range(1, 13))
    @pytest.mark.parametrize(
        "search", ["flat", "refine", "system-first", "model-first"])
    def test_result_bits_match_the_reference(self, search, seed):
        mats, rel = TestGridSearch._tie_heavy(seed)
        step = 0.05
        cfg = GridSearchConfig(step=step)
        if search in ("flat", "refine"):
            refine = search == "refine"
            got = grid_search(mats[:3], rel, cfg, refine=refine)
            want = _reference_search(mats[:3], rel, step, refine)
        else:
            grid = dict(zip(self.TAGS, mats))
            got = hierarchical_grid_search(grid, rel, cfg, strategy=search)
            stage1, fused, evaluated = {}, [], 0
            for group in self.GROUPS[search]:
                ws, _, count = _reference_search(
                    [grid[t] for t in group], rel, step)
                stage1.update(zip(group, ws))
                fused.append(fuse([grid[t] for t in group], _spec(ws)))
                evaluated += count
            ws, _, count = _reference_search(fused, rel, step)
            stage2 = {t: w for group, w in zip(self.GROUPS[search], ws)
                      for t in group}
            product = [stage2[t] * stage1[t] for t in self.TAGS]
            value = evaluate(fuse(mats, _spec(product)), rel).map_at_16
            want = product, value, evaluated + count
            assert [(m.system, m.model) for m in got.spec.members] \
                == self.TAGS
        assert self._bits([m.weight for m in got.spec.members],
                          got.map_at_16, got.points_evaluated) \
            == self._bits(*want)


def _grid(n, divisions):
    return [[c / divisions for c in counts]
            for counts in _compositions(divisions, n)]


class TestBlockScoresEqualEvaluate:
    """Every point of a scored block equals
    `evaluate(fuse(...)).map_at_16` bit for bit, whatever the block."""

    @staticmethod
    def _assert_bits(mats, rel, mode, weights):
        got = list(ensemble._grid_scores(mats, rel, mode)(weights))
        want = [evaluate(fuse(mats, _spec(w)), rel, mode).map_at_16
                for w in weights]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("mode", ["multiple", "single"])
    @pytest.mark.parametrize("seed", range(1, 13))
    def test_tie_heavy_grid(self, seed, mode):
        mats, rel = TestGridSearch._tie_heavy(seed)
        self._assert_bits(mats[:3], rel, mode, _grid(3, 10))

    def test_one_hot_and_zero_weight_points(self):
        mats, rel = TestGridSearch._tie_heavy(3)
        one_hot = np.eye(4).tolist()
        got = list(ensemble._grid_scores(mats, rel, "multiple")(one_hot))
        assert got == [evaluate(m, rel).map_at_16 for m in mats]
        self._assert_bits(mats, rel, "multiple", one_hot + [
            [0.0, 0.5, 0.0, 0.5], [0.25, 0.0, 0.75, 0.0],
            [0.0, 0.0, 0.3, 0.7], [0.1, 0.2, 0.3, 0.4]])

    @pytest.mark.parametrize("mode", ["multiple", "single"])
    def test_members_with_both_signed_zeros(self, mode):
        # scores in {-2..2} with zeros of both signs: fused zeros of
        # either sign tie with each other
        rng = np.random.default_rng(8)
        mats = []
        for _ in range(3):
            m = np.round(rng.standard_normal((40, 30)))
            m[rng.random(m.shape) < 0.3] = -0.0
            m[rng.random(m.shape) < 0.3] = 0.0
            signs = np.signbit(m[m == 0])
            assert signs.any() and not signs.all()
            mats.append(m)
        rel = RelevanceMap(tuple(
            tuple(rng.choice(40, size=rng.integers(1, 4), replace=False))
            for _ in range(30)))
        self._assert_bits(mats, rel, mode, _grid(3, 10))

    @pytest.mark.parametrize("budget, points, queries", [
        (1, 1, 1), (1 << 62, 15, 80)])
    def test_block_budget_extremes(self, monkeypatch, budget, points,
                                   queries):
        # 1 byte: one point and one query per block; 2**62: the whole
        # grid and every query in one block
        mats, rel = TestGridSearch._tie_heavy(2)
        cfg = GridSearchConfig(step=0.25)
        want = grid_search(mats[:3], rel, cfg, refine=True)
        blocks = []

        def mean_metrics(score_rows, arrays, n_candidates, scratch_rows):
            def rows(queries, scratch):
                blocks.append((n_candidates, len(queries)))
                return score_rows(queries, scratch)
            return evaluation._mean_metrics(rows, arrays, n_candidates,
                                            scratch_rows)

        monkeypatch.setattr(evaluation, "_RANK_BLOCK_BYTES", budget)
        monkeypatch.setattr(ensemble, "_mean_metrics", mean_metrics)
        for mode in ("multiple", "single"):
            self._assert_bits(mats[:3], rel, mode, _grid(3, 4))
        assert max(blocks) == (points, queries)
        assert grid_search(mats[:3], rel, cfg, refine=True) == want

    def test_search_peak_stays_within_the_budget(self):
        # three 2000 x 400 members are 6.4 MB each: the search gathers
        # block columns and holds no whole-member copy
        rng = np.random.default_rng(9)
        mats = [np.round(rng.standard_normal((2000, 400)), 1)
                for _ in range(3)]
        rel = RelevanceMap(tuple(
            tuple(rng.choice(2000, size=rng.integers(1, 6), replace=False))
            for _ in range(400)))
        tracemalloc.start()
        try:
            grid_search(mats, rel, GridSearchConfig(step=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * evaluation._RANK_BLOCK_BYTES
