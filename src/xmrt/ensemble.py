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
import math
from dataclasses import dataclass

import numpy as np

from .core import as_matrix
from .errors import ConfigError, ContractError, DataError
from .evaluation import evaluate

STRATEGIES = ("system-first", "model-first")
TABLE_SYSTEMS = (2, 3, 4, 5)
TABLE_MODELS = ("passt", "eat", "beats")
WEIGHT_SUM_TOL = 1e-6
REFINE_STEP = 0.0025
MAX_REFINE_SWEEPS = 100
MAX_MEMBERS = 12


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


@dataclass(frozen=True)
class EnsembleSpec:
    """A full fusion recipe: tagged members whose weights sum to one."""

    members: tuple
    strategy: str = "system-first"

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ContractError("an ensemble needs at least one member")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, "
                f"got {self.strategy!r}")
        total = math.fsum(m.weight for m in members)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ContractError(
                f"member weights sum to {total}, expected 1")
        object.__setattr__(self, "members", members)


def _check_matrices(matrices):
    mats = [as_matrix(m, f"matrix {i}") for i, m in enumerate(matrices)]
    shape = mats[0].shape
    for i, m in enumerate(mats[1:], start=1):
        if m.shape != shape:
            raise ContractError(
                f"matrix {i} has shape {m.shape}, expected {shape}")
    return mats


def _weighted_sum(mats, weights):
    """Sequential sum of w * m over the nonzero weights, in place.

    The bits are those of `out + w * m` term by term, and one-hot weights
    return the chosen member exactly.  Both `fuse` and the weight search
    fuse through this, so a search score replays exactly.
    """
    out = tmp = None
    for m, w in zip(mats, weights):
        if w == 0.0:
            continue
        if out is None:
            out = w * m
            tmp = np.empty_like(out)
        else:
            np.multiply(w, m, out=tmp)
            out += tmp
    return out


def fuse(matrices, spec):
    """Elementwise weighted sum of the member matrices.

    Zero-weight members are skipped entirely, so one-hot weights return
    the selected member bit-for-bit.
    """
    if len(matrices) != len(spec.members):
        raise ContractError(
            f"{len(matrices)} matrices for {len(spec.members)} members")
    return _weighted_sum(_check_matrices(matrices),
                         [m.weight for m in spec.members])


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
    with open(path, "w", encoding="utf-8") as fh:
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


def _default_tags(n):
    return tuple((i, f"m{i}") for i in range(n))


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
    tags = _default_tags(n) if tags is None else tuple(tags)
    if len(tags) != n:
        raise ContractError(f"{len(tags)} tags for {n} matrices")
    refine_units = round(cfg.step / REFINE_STEP)
    if refine and (refine_units < 1
                   or abs(refine_units * REFINE_STEP - cfg.step) > 1e-9):
        raise ConfigError(
            f"refine needs a step that is a whole multiple of {REFINE_STEP}, "
            f"got {cfg.step}")
    mats = _check_matrices(matrices)
    divisions = cfg.divisions

    best_counts = None
    best_value = -1.0
    evaluated = 0
    for counts in _compositions(divisions, n):
        weights = [c / divisions for c in counts]
        value = evaluate(_weighted_sum(mats, weights), relevance,
                         mode).map_at_16
        evaluated += 1
        if value > best_value:
            best_value = value
            best_counts = counts

    if refine and refine_units > 1:
        units_total = divisions * refine_units
        units = [c * refine_units for c in best_counts]
        best_value, units, extra = _refine_units(
            mats, units, units_total, best_value, relevance, mode)
        evaluated += extra
        weights = tuple(u / units_total for u in units)
    else:
        weights = tuple(c / divisions for c in best_counts)

    members = tuple(Member(system=s, model=m, weight=w)
                    for (s, m), w in zip(tags, weights))
    spec = EnsembleSpec(members=members, strategy=strategy)
    return SearchResult(spec=spec, map_at_16=best_value,
                        points_evaluated=evaluated)


def _refine_units(mats, units, units_total, best_value, relevance, mode):
    """Greedy first-improvement mass transfers in fine-grid units."""
    n = len(units)
    evaluated = 0
    for _ in range(MAX_REFINE_SWEEPS):
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
                    weights = [u / units_total for u in trial]
                    value = evaluate(_weighted_sum(mats, weights),
                                     relevance, mode).map_at_16
                    evaluated += 1
                    if value > best_value:
                        best_value = value
                        units = trial
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            return best_value, units, evaluated
    return best_value, units, evaluated


def _grid_keys(matrices):
    systems = tuple(dict.fromkeys(s for s, _ in matrices))
    models = tuple(dict.fromkeys(m for _, m in matrices))
    expected = {(s, m) for s in systems for m in models}
    if set(matrices) != expected:
        raise ContractError(
            "matrices must cover the full system-by-model grid")
    return systems, models


def _strategy_axes(matrices, strategy):
    """(outer, inner, key) for a (system, model) matrix grid.

    Stage 1 combines the inner tags within each outer group, stage 2 the
    outer groups; key(outer, inner) is the (system, model) matrix key.
    system-first groups by model, model-first by system.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    systems, models = _grid_keys(matrices)
    if strategy == "system-first":
        return models, systems, lambda o, i: (i, o)
    return systems, models, lambda o, i: (o, i)


def hierarchical_grid_search(matrices, relevance, cfg=None, *,
                             strategy="system-first", mode="multiple",
                             refine=False):
    """Factored weight search mirroring the two published strategies.

    Stage 1 searches each within-group simplex on its own (for
    system-first, across systems inside each model); stage 2 searches
    across the stage-1 fused group matrices.  Returns a flat spec whose
    member weights are the stage products.
    """
    cfg = cfg if cfg is not None else GridSearchConfig()
    outer, inner, key = _strategy_axes(matrices, strategy)

    stage1 = {}
    fused_groups = []
    evaluated = 0
    for o in outer:
        group = [matrices[key(o, i)] for i in inner]
        result = grid_search(group, relevance, cfg, mode=mode, refine=refine)
        weights = {i: m.weight
                   for i, m in zip(inner, result.spec.members)}
        stage1[o] = weights
        fused_groups.append(fuse(group, result.spec))
        evaluated += result.points_evaluated

    outer_result = grid_search(fused_groups, relevance, cfg, mode=mode,
                               refine=refine)
    stage2 = {o: m.weight
              for o, m in zip(outer, outer_result.spec.members)}
    evaluated += outer_result.points_evaluated

    weights = {key(o, i): stage2[o] * stage1[o][i]
               for o in outer for i in inner}
    systems, models = _grid_keys(matrices)
    tags = [(s, m) for s in systems for m in models]
    spec = EnsembleSpec(tuple(Member(s, m, weights[(s, m)]) for s, m in tags),
                        strategy=strategy)
    flat = fuse([matrices[tag] for tag in tags], spec)
    achieved = evaluate(flat, relevance, mode).map_at_16
    return SearchResult(spec=spec, map_at_16=achieved,
                        points_evaluated=evaluated)
