"""Tests for similarity fusion, the weight table, and the grid search."""

import math

import numpy as np
import pytest

from xmrt import (ConfigError, ContractError, DataError, EnsembleSpec,
                  GridSearchConfig, Member, RelevanceMap, WeightTable,
                  bundled_weight_table, evaluate, fuse, grid_search,
                  hierarchical_grid_search, load_coefficients,
                  read_weight_table, write_weight_table)
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
