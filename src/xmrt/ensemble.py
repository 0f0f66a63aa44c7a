"""Similarity-matrix fusion, published weight tables, and weight search.

An ensemble is a convex combination of member similarity matrices, each
member tagged by (system id, audio model).  The two hierarchical
strategies differ only in which axis is combined first; both collapse to
a flat weighted sum with product weights.  Weights are found by
exhaustive search over the discretized simplex, maximizing mAP@16 on
validation relevance, with an optional finer greedy refinement pass.
"""

from __future__ import annotations

import importlib.resources
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import _as_equal_shape_matrices
from .errors import ConfigError, ContractError, DataError
from .evaluation import (METRIC_KEYS, _candidates_per_block, _mean_metrics,
                         _relevance_arrays, evaluate)
from .tensorfile import atomic_open

STRATEGIES = ("system-first", "model-first")
TABLE_SYSTEMS = (2, 3, 4, 5)
TABLE_MODELS = ("passt", "eat", "beats")
WEIGHT_SUM_TOL = 1e-6
REFINE_STEP = 0.0025
MAX_REFINE_SWEEPS = 100
MAX_MEMBERS = 12
_MAP_AT_16 = METRIC_KEYS.index("map_at_16")


@dataclass(frozen=True)
class Member:
    """One ensemble member: a system/model tag pair and its weight."""

    system: object
    model: object
    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ContractError(
                f"member ({self.system}, {self.model}) has negative "
                f"weight {self.weight}")


def _check_strategy(strategy):
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}")


@dataclass(frozen=True)
class EnsembleSpec:
    """A full fusion recipe: tagged members whose weights sum to one."""

    members: tuple
    strategy: str = "system-first"

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ContractError("an ensemble needs at least one member")
        _check_strategy(self.strategy)
        total = math.fsum(m.weight for m in members)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ContractError(
                f"member weights sum to {total}, expected 1")
        object.__setattr__(self, "members", members)


def _weighted_sums_into(out, tmp, mats, weight_vectors):
    """out[p] = sequential sum of w * m over the nonzero weights of
    weight_vectors[p]; tmp holds each later term.

    The bits are those of `out + w * m` term by term, and one-hot weights
    return the chosen member exactly.  mats may be a generator: each
    member is used once, for every vector, before the next is drawn.
    Both `fuse` and the weight search fuse through this, so a search
    score replays exactly.
    """
    started = [False] * len(out)
    for k, m in enumerate(mats):
        for p, weights in enumerate(weight_vectors):
            w = weights[k]
            if w == 0.0:
                continue
            if started[p]:
                np.multiply(w, m, out=tmp)
                out[p] += tmp
            else:
                np.multiply(w, m, out=out[p])
                started[p] = True
        del m  # a generator draws the next member only after this one goes


def fuse(matrices, spec):
    """Elementwise weighted sum of the member matrices.

    Zero-weight members are skipped entirely, so one-hot weights return
    the selected member bit-for-bit.  An overflowing sum raises DataError.
    """
    if len(matrices) != len(spec.members):
        raise ContractError(
            f"{len(matrices)} matrices for {len(spec.members)} members")
    mats = _as_equal_shape_matrices(matrices, "matrix")
    out = np.empty((1,) + mats[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        _weighted_sums_into(out, np.empty_like(out[0]), mats,
                            [[m.weight for m in spec.members]])
    if not np.isfinite(out).all():
        raise DataError("fusion overflowed: weighted sum is not finite")
    return out[0]


@dataclass(frozen=True)
class WeightTable:
    """Named rows of per-(system, model) weights, system-major columns."""

    row_names: tuple
    systems: tuple
    models: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        rows = tuple(self.row_names)
        systems = tuple(self.systems)
        models = tuple(self.models)
        expected = (len(rows), len(systems) * len(models))
        if vals.shape != expected:
            raise ContractError(
                f"table values shaped {vals.shape}, expected {expected}")
        object.__setattr__(self, "row_names", rows)
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "values", vals)

    def column_tags(self):
        return tuple((s, m) for s in self.systems for m in self.models)


def write_weight_table(path, table):
    """Write a weight table as tab-delimited text with one header row."""
    header = ["ensemble"] + [f"sid{s}_{m}" for s, m in table.column_tags()]
    lines = ["\t".join(header)]
    for name, row in zip(table.row_names, table.values):
        lines.append("\t".join([name] + [repr(float(v)) for v in row]))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_weight_table(text, source):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise DataError(f"{source}: need a header row and at least one row")
    header = lines[0].split("\t")
    if header[0] != "ensemble":
        raise DataError(f"{source}: first column must be 'ensemble'")
    tags = []
    for col in header[1:]:
        if not col.startswith("sid") or "_" not in col:
            raise DataError(f"{source}: bad column label {col!r}")
        sid, model = col[3:].split("_", 1)
        try:
            tags.append((int(sid), model))
        except ValueError:
            raise DataError(f"{source}: bad system id in {col!r}") from None
    systems = tuple(dict.fromkeys(s for s, _ in tags))
    models = tuple(dict.fromkeys(m for _, m in tags))
    if tags != [(s, m) for s in systems for m in models]:
        raise DataError(f"{source}: columns must be system-major blocks")
    names = []
    rows = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != len(header):
            raise DataError(
                f"{source}: row {parts[0]!r} has {len(parts) - 1} entries, "
                f"expected {len(header) - 1}")
        if parts[0] in names:
            raise DataError(f"{source}: row {parts[0]!r} appears twice")
        names.append(parts[0])
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError:
            raise DataError(
                f"{source}: non-numeric weight in row {parts[0]!r}") from None
    return WeightTable(row_names=tuple(names), systems=systems,
                       models=models, values=np.array(rows))


def read_weight_table(path):
    """Parse a tab-delimited weight table written by write_weight_table."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_weight_table(fh.read(), str(path))


def bundled_weight_table():
    """The packaged published coefficient table (four ensembles)."""
    text = (importlib.resources.files("xmrt") / "data" /
            "ensemble_weights.tsv").read_text(encoding="utf-8")
    return _parse_weight_table(text, "bundled weight table")


def load_coefficients(table):
    """Validate a published-style table into one EnsembleSpec per row.

    The table must cover exactly systems 2-5 by models passt/eat/beats,
    all entries nonnegative, each row summing to 1 within 1e-6.  The
    first half of the rows is tagged system-first, the second half
    model-first, mirroring how the four published ensembles were built.
    """
    if table.systems != TABLE_SYSTEMS or table.models != TABLE_MODELS:
        raise DataError(
            f"coefficient table must cover systems {TABLE_SYSTEMS} by "
            f"models {TABLE_MODELS}, got {table.systems} by {table.models}")
    specs = {}
    half = len(table.row_names) / 2
    for r, name in enumerate(table.row_names):
        row = table.values[r]
        if np.any(row < 0):
            raise DataError(f"row {name!r} has a negative weight")
        total = math.fsum(row)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise DataError(
                f"row {name!r} sums to {total}, expected 1")
        strategy = "system-first" if r < half else "model-first"
        members = tuple(Member(system=s, model=m, weight=float(w))
                        for (s, m), w in zip(table.column_tags(), row))
        specs[name] = EnsembleSpec(members=members, strategy=strategy)
    return specs


@dataclass(frozen=True)
class GridSearchConfig:
    """Simplex discretization and budget for the weight search."""

    step: float = 0.01
    max_grid_points: int = 200_000

    def __post_init__(self):
        if not 0 < self.step <= 1:
            raise ConfigError(f"step must be in (0, 1], got {self.step}")
        divisions = round(1.0 / self.step)
        if abs(divisions * self.step - 1.0) > 1e-9:
            raise ConfigError(
                f"step {self.step} does not divide 1 exactly")
        if self.max_grid_points < 1:
            raise ConfigError("max_grid_points must be >= 1")

    @property
    def divisions(self):
        return round(1.0 / self.step)


def _compositions(total, parts):
    """All nonnegative integer vectors of the given length summing to
    total, in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _grid_size(divisions, parts):
    return math.comb(divisions + parts - 1, parts - 1)


@dataclass(frozen=True)
class SearchResult:
    """Winning spec, its validation mAP@16, and the search effort."""

    spec: EnsembleSpec
    map_at_16: float
    points_evaluated: int


def grid_search(matrices, relevance, cfg=None, *, tags=None,
                strategy="system-first", mode="multiple", refine=False):
    """Exhaustive simplex search for the weights maximizing mAP@16.

    Weight vectors are enumerated at resolution step in ascending
    lexicographic order and only strict improvements are kept, so ties
    resolve to the lexicographically smallest vector.  With refine=True
    a greedy pairwise mass-transfer pass at resolution 0.0025 runs from
    the coarse optimum (first-improvement sweeps until none helps); step
    must then be a whole multiple of 0.0025, or ConfigError is raised
    before any point is scored.
    """
    cfg = cfg if cfg is not None else GridSearchConfig()
    n = len(matrices)
    if n < 2:
        raise ContractError(f"grid search needs >= 2 members, got {n}")
    if n > MAX_MEMBERS:
        raise ConfigError(f"{n} members exceeds the limit of {MAX_MEMBERS}")
    size = _grid_size(cfg.divisions, n)
    if size > cfg.max_grid_points:
        raise ConfigError(
            f"grid of {size} points exceeds budget {cfg.max_grid_points}; "
            f"use a coarser step than {cfg.step}")
    tags = tuple(((i, f"m{i}") for i in range(n)) if tags is None else tags)
    if len(tags) != n:
        raise ContractError(f"{len(tags)} tags for {n} matrices")
    refine_units = round(cfg.step / REFINE_STEP)
    if refine and (refine_units < 1
                   or abs(refine_units * REFINE_STEP - cfg.step) > 1e-9):
        raise ConfigError(
            f"refine needs a step that is a whole multiple of {REFINE_STEP}, "
            f"got {cfg.step}")
    _check_strategy(strategy)
    scores = _grid_scores(_as_equal_shape_matrices(matrices, "matrix"),
                          relevance, mode)

    divisions = cfg.divisions
    best_counts = None
    best_value = -1.0
    grid, weights = itertools.tee(_compositions(divisions, n))
    for counts, value in zip(grid, scores(
            [c / divisions for c in counts] for counts in weights)):
        if value > best_value:
            best_value = value
            best_counts = counts

    evaluated = size
    units, units_total = best_counts, divisions
    if refine and refine_units > 1:
        units_total = divisions * refine_units
        best_value, units, extra = _refine_units(
            scores, [c * refine_units for c in units], units_total,
            best_value)
        evaluated += extra

    members = tuple(Member(system=s, model=m, weight=u / units_total)
                    for (s, m), u in zip(tags, units))
    spec = EnsembleSpec(members=members, strategy=strategy)
    return SearchResult(spec=spec, map_at_16=best_value,
                        points_evaluated=evaluated)


def _refine_units(scores, units, units_total, best_value):
    """Greedy first-improvement mass transfers in fine-grid units: each
    sweep takes the first move of 1-3 units from i to j that helps.

    A sweep scores its moves in blocks of 1, 2, 4, ... and stops at the
    block that holds the first improving move, so it scores fewer than
    twice the moves up to that one; only those count."""
    evaluated = 0
    for _ in range(MAX_REFINE_SWEEPS):
        trials = []
        for i, j in itertools.permutations(range(len(units)), 2):
            for shift in range(1, min(3, units[i]) + 1):
                trials.append(list(units))
                trials[-1][i] -= shift
                trials[-1][j] += shift
        weights = [[u / units_total for u in trial] for trial in trials]
        values = itertools.chain.from_iterable(
            scores(weights[2**k - 1:2**(k + 1) - 1])
            for k in range(len(weights).bit_length()))
        for trial, value in zip(trials, values):
            evaluated += 1
            if value > best_value:
                best_value = value
                units = trial
                break
        else:
            break
    return best_value, units, evaluated


def _grid_scores(mats, relevance, mode):
    """scores(weight_vectors): a generator of the mAP@16 of each vector,
    each equal bit for bit to
    `evaluate(fuse(mats, spec), relevance, mode).map_at_16`.

    The relevance is checked here, before any point is scored.  Vectors
    are scored in blocks of `evaluation._candidates_per_block`: for each
    block of queries the members' columns are gathered one member at a
    time and fused for every vector of the block by
    `_weighted_sums_into`, then ranked with the kernel `evaluate` runs.
    No whole-member copy is held, and a block is scored only when its
    first value is asked for.
    """
    arrays = _relevance_arrays(relevance, mode, mats[0].shape)
    points = _candidates_per_block(arrays)

    def scores(weight_vectors):
        vectors = iter(weight_vectors)
        while weights := list(itertools.islice(vectors, points)):
            overflowed = np.zeros(len(weights), bool)

            def fused_rows(queries, scratch):
                out, tmp = scratch[:-1], scratch[-1]
                # A convex sum of finite members overflows only at the edge
                # of the float range, and a vector's total shows it in one
                # pass; numpy's warnings are left to the DataError.
                with np.errstate(over="ignore", invalid="ignore"):
                    _weighted_sums_into(out, tmp,
                                        (m.T[queries] for m in mats), weights)
                    totals = out.sum(axis=(1, 2))
                for p in np.flatnonzero(~np.isfinite(totals)):
                    overflowed[p] |= not np.isfinite(out[p]).all()
                return out

            means = _mean_metrics(fused_rows, arrays, len(weights),
                                  len(weights) + 1)
            # a vector that overflowed fails when its value is asked for
            for value, bad in zip(means[:, _MAP_AT_16].tolist(), overflowed):
                if bad:
                    raise DataError("similarity matrix contains non-finite "
                                    "entries")
                yield value
    return scores


def hierarchical_grid_search(matrices, relevance, cfg=None, *,
                             strategy="system-first", mode="multiple",
                             refine=False):
    """Factored weight search mirroring the two published strategies.

    Stage 1 searches each within-group simplex on its own (for
    system-first, across systems inside each model); stage 2 searches
    across the stage-1 fused group matrices.  The grid must be full and
    at least 2 by 2.  Returns a flat spec of the stage-product weights.
    """
    cfg = cfg if cfg is not None else GridSearchConfig()
    _check_strategy(strategy)
    systems = tuple(dict.fromkeys(s for s, _ in matrices))
    models = tuple(dict.fromkeys(m for _, m in matrices))
    tags = [(s, m) for s in systems for m in models]
    if set(matrices) != set(tags):
        raise ContractError(
            "matrices must cover the full system-by-model grid")
    for axis, count in (("systems", len(systems)), ("models", len(models))):
        if count < 2:
            raise ContractError(f"the grid needs >= 2 {axis}, got {count}")
    by_model = [[(s, m) for s in systems] for m in models]
    by_system = [[(s, m) for m in models] for s in systems]
    groups = by_model if strategy == "system-first" else by_system

    stage1 = {}
    fused_groups = []
    evaluated = 0
    for group in groups:
        mats = [matrices[tag] for tag in group]
        result = grid_search(mats, relevance, cfg, mode=mode, refine=refine)
        stage1.update((tag, m.weight)
                      for tag, m in zip(group, result.spec.members))
        fused_groups.append(fuse(mats, result.spec))
        evaluated += result.points_evaluated

    top = grid_search(fused_groups, relevance, cfg, mode=mode, refine=refine)
    evaluated += top.points_evaluated
    stage2 = {tag: m.weight for group, m in zip(groups, top.spec.members)
              for tag in group}

    spec = EnsembleSpec(tuple(Member(s, m, stage2[(s, m)] * stage1[(s, m)])
                              for s, m in tags), strategy=strategy)
    flat = fuse([matrices[tag] for tag in tags], spec)
    achieved = evaluate(flat, relevance, mode).map_at_16
    return SearchResult(spec=spec, map_at_16=achieved,
                        points_evaluated=evaluated)
