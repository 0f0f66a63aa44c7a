"""Similarity-matrix fusion, published weight tables, and weight search.

An ensemble is a convex combination of member similarity matrices, each
found by its (system id, audio model) tag in a map.  The two hierarchical
strategies differ only in which axis is combined first; both collapse to
a flat weighted sum with product weights.  A weight table file reads
into named EnsembleSpecs over the one published grid (systems 2-5 by
passt/eat/beats).  Weights are found by exhaustive search over the
simplex discretized at a `step` keyword, maximizing mAP@16 on
validation relevance, with an optional finer greedy refinement pass.
Each query ranks only the items that could move a relevant item's rank
(`_kept_sets`), so a point costs a fraction of an `evaluate`, bit-equal.
"""

from __future__ import annotations

import importlib.resources
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .core import _as_equal_shape_matrices
from .errors import ConfigError, ContractError, DataError
from .evaluation import (METRIC_KEYS, _candidates_per_block, _mean_metrics,
                         _relevance_arrays, evaluate)
from .tensorfile import _read_rows

STRATEGIES = ("system-first", "model-first")
TABLE_SYSTEMS = (2, 3, 4, 5)
TABLE_MODELS = ("passt", "eat", "beats")
_TABLE_TAGS = tuple((s, m) for s in TABLE_SYSTEMS for m in TABLE_MODELS)
_TABLE_HEADER = ("ensemble", *(f"sid{s}_{m}" for s, m in _TABLE_TAGS))
WEIGHT_SUM_TOL = 1e-6
REFINE_STEP = 0.0025
MAX_REFINE_SWEEPS = 100
MAX_MEMBERS = 12
MAX_GRID_POINTS = 200_000
_MAP_AT_16 = METRIC_KEYS.index("map_at_16")


@dataclass(frozen=True)
class Member:
    """One ensemble member: a system/model tag pair and its weight."""

    system: object
    model: object
    weight: float

    def __post_init__(self):
        if not 0 <= self.weight < math.inf:
            raise ContractError(
                f"member ({self.system}, {self.model}) weight must be "
                f"finite and nonnegative, got {self.weight}")


def _check_strategy(strategy):
    if strategy not in STRATEGIES:
        raise ConfigError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}")


@dataclass(frozen=True)
class EnsembleSpec:
    """A fusion recipe: distinctly tagged members whose weights sum to 1."""

    members: tuple
    strategy: str = "system-first"

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ContractError("an ensemble needs at least one member")
        _check_strategy(self.strategy)
        tags = set()
        for tag in ((m.system, m.model) for m in members):
            try:
                repeated = tag in tags
            except TypeError:   # no members map could hold it
                raise ContractError(f"member {tag} is unhashable") from None
            if repeated:
                raise ContractError(f"member {tag} is listed twice")
            tags.add(tag)
        try:
            total = math.fsum(m.weight for m in members)
        except OverflowError:       # finite weights, a sum that is not
            total = math.inf
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
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


def fuse(members, spec):
    """Elementwise weighted sum of the spec members' matrices, in spec order.

    Each spec member's matrix is `members[(system, model)]`; one missing,
    even at weight 0, is a ContractError, and entries the spec does not
    name are not read.  Zero-weight members are skipped, so one-hot weights
    return the selected member bit-for-bit; overflow is a DataError.
    """
    _check_map(members)
    tags = [(m.system, m.model) for m in spec.members]
    if missing := [tag for tag in tags if tag not in members]:
        raise ContractError(f"no member matrix for {missing[0]}")
    mats = _as_equal_shape_matrices([members[tag] for tag in tags], "matrix")
    out = np.empty((1,) + mats[0].shape)
    with np.errstate(over="ignore", invalid="ignore"):
        _weighted_sums_into(out, np.empty_like(out[0]), mats,
                            [[m.weight for m in spec.members]])
    if not np.isfinite(out).all():
        raise DataError("fusion overflowed: weighted sum is not finite")
    return out[0]


def read_weight_table(path):
    """{row name: EnsembleSpec} in file order from a table of the bundled
    table's layout.  The first half of the rows are system-first and the
    second half model-first, as the four published ensembles were built.
    Weights that `Member` or `EnsembleSpec` reject are a DataError naming
    the row."""
    rows = list(_read_rows(path))
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one row")
    if tuple(rows[0]) != _TABLE_HEADER:
        raise DataError(
            f"{path}: header must be ensemble, then sid<system>_<model> "
            f"for systems {TABLE_SYSTEMS} by models {TABLE_MODELS}, "
            f"system-major")
    specs = {}
    for r, (name, *fields) in enumerate(rows[1:]):
        if len(fields) != len(_TABLE_TAGS):
            raise DataError(
                f"{path}: row {name!r} has {len(fields)} entries, "
                f"expected {len(_TABLE_TAGS)}")
        if name in specs:
            raise DataError(f"{path}: row {name!r} appears twice")
        try:
            weights = zip(_TABLE_TAGS, list(map(float, fields)))
            specs[name] = EnsembleSpec(
                tuple(Member(s, m, w) for (s, m), w in weights),
                STRATEGIES[2 * r >= len(rows) - 1])
        except ValueError:
            raise DataError(
                f"{path}: non-numeric weight in row {name!r}") from None
        except ContractError as exc:
            raise DataError(f"{path}: row {name!r}: {exc}") from None
    return specs


def bundled_weight_table():
    """{row name: EnsembleSpec} of the packaged published coefficient
    table (four ensembles)."""
    table = importlib.resources.files("xmrt") / "data" / "ensemble_weights.tsv"
    with importlib.resources.as_file(table) as path:
        return read_weight_table(path)


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


def _check_map(members):
    if not isinstance(members, Mapping):
        raise ContractError("members must be a {(system, model): matrix} map")


def _check_pairs(members):
    """ContractError unless `members` is a map whose keys are 2-tuples."""
    _check_map(members)
    for tag in members:
        if not (isinstance(tag, tuple) and len(tag) == 2):
            raise ContractError(f"key {tag!r} is not a (system, model) pair")


def grid_search(members, relevance, *, step=0.01, mode="multiple",
                refine=False):
    """Exhaustive simplex search for the weights maximizing mAP@16.

    Weight vectors over the {(system, model): matrix} map `members`, in its
    order, are enumerated at resolution `step`, which must lie in (0, 1]
    and divide 1 exactly, in ascending lexicographic order and only strict
    improvements are kept, so ties resolve to the lexicographically
    smallest vector.  With refine=True a greedy pairwise mass-transfer pass
    at resolution 0.0025 runs from the coarse optimum (first-improvement
    sweeps until none helps); step must then be a whole multiple of 0.0025.
    A step that breaks either rule is a ConfigError before any point is
    scored, as are over MAX_MEMBERS members or MAX_GRID_POINTS points.  The
    spec is tagged by the map's keys and keeps the default strategy label.
    """
    # nan fails every comparison; a subnormal step's 1/step is inf, and
    # float() keeps a numpy scalar's overflow from warning
    if not (0 < step <= 1 and 1.0 / float(step) < math.inf):
        raise ConfigError(f"step must be in (0, 1] with a finite 1/step, "
                          f"got {step}")
    divisions = round(1.0 / step)
    if abs(divisions * step - 1.0) > 1e-9:
        raise ConfigError(f"step {step} does not divide 1 exactly")
    _check_pairs(members)
    n = len(members)
    if n < 2:
        raise ContractError(f"grid search needs >= 2 members, got {n}")
    if n > MAX_MEMBERS:
        raise ConfigError(f"{n} members exceeds the limit of {MAX_MEMBERS}")
    size = _grid_size(divisions, n)
    if size > MAX_GRID_POINTS:
        raise ConfigError(
            f"the grid at step {step} over {n} members exceeds the "
            f"budget of {MAX_GRID_POINTS} points; use a coarser step")
    refine_units = round(step / REFINE_STEP)
    if refine and (refine_units < 1
                   or abs(refine_units * REFINE_STEP - step) > 1e-9):
        raise ConfigError(
            f"refine needs a step that is a whole multiple of {REFINE_STEP}, "
            f"got {step}")
    scores = _grid_scores(_as_equal_shape_matrices(members.values(), "matrix"),
                          relevance, mode)

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

    spec = EnsembleSpec(tuple(Member(system=s, model=m, weight=u / units_total)
                              for (s, m), u in zip(members, units)))
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


def _tie_margin(n_members, largest):
    """A gap above which no grid point fuses two of a query's items
    equal, when every member scores one above the other by it.

    `_weighted_sums_into` adds the n products w·m in order, so with u =
    2**-53 and γ = nu / (1 - nu) a fused value is within γ·W·largest +
    (1 + γ)·n·2**-1075 of the exact Σ w·m (W = Σ w, largest the query's
    largest |score|; the second term is underflowing products).  A gap d
    in every member parts the exact values by W·d, so the fused ones
    differ if d > 2γ·largest + (1 + γ)·n·2**-1074 / W.  Weights c / total
    are each within a relative u of exact, so W ≥ 1 - u ≥ 1/2.  Twice
    the bound also covers the rounding of d and of the margin itself.
    """
    return 4 * n_members * 2.0**-53 * largest + n_members * 2.0**-1072


def _kept_sets(mats, arrays):
    """(bits, columns, pads) for `evaluation._mean_metrics`: the items
    each query ranks, one bit each, built in blocks of queries.

    Item g drops if every member scores it at or below every relevant
    id, and g follows them all or trails them by over `_tie_margin` in
    every member.  Rounding is monotone, so g fuses at or below each
    relevant id r at every point and never counts in r's `>` term, and
    it cannot tie an r it precedes.  So no rank moves.  A query whose
    scores could fuse past the float range keeps every item.
    """
    n_gallery, widths, flat, starts = arrays
    bits = np.empty((len(widths), -(-n_gallery // 8)), np.uint8)
    columns, pads = np.empty_like(widths), np.empty_like(widths)
    per_block = max(1, evaluation._RANK_BLOCK_BYTES // (40 * n_gallery))
    for q0 in range(0, len(widths), per_block):
        queries = slice(q0, q0 + per_block)
        seg = starts[queries] - starts[q0]
        owner = np.repeat(np.arange(len(seg)), widths[queries])
        ids = flat[starts[q0]:starts[q0] + len(owner)]
        gap, largest = np.inf, 0.0
        with np.errstate(over="ignore"):
            for m in mats:
                block = m[:, queries]
                low = np.minimum.reduceat(block[ids, owner], seg)
                gap = np.minimum(gap, low - block)
                largest = np.maximum(largest, np.abs(block).max(axis=0))
        keep = (gap < 0) | ((gap <= _tie_margin(len(mats), largest))
                            & (np.arange(n_gallery)[:, None]
                               <= np.maximum.reduceat(ids, seg)))
        keep[:, largest > np.finfo(np.float64).max / 2] = True
        pads[queries] = keep.argmin(axis=0)
        keep[ids, owner] = False    # ranked first, not from the bits
        bits[queries] = np.packbits(keep, axis=0).T
        columns[queries] = np.count_nonzero(keep, axis=0) + widths[queries]
    return bits, columns, pads


def _grid_scores(mats, relevance, mode):
    """scores(weight_vectors): a generator of the mAP@16 of each vector,
    each equal bit for bit to `evaluate(fuse(members, spec), relevance,
    mode).map_at_16` for `members` that map the spec's tags to `mats`.

    The relevance is checked and the `_kept_sets` built here, before any
    point is scored.  Vectors are scored in blocks of
    `evaluation._candidates_per_block`: for each block of queries the
    members' kept values are gathered one member at a time and fused for
    every vector of the block by `_weighted_sums_into`, then ranked with
    the kernel `evaluate` runs.  No whole-member copy is held, and a
    block is scored only when its first value is asked for.
    """
    arrays = _relevance_arrays(relevance, mode, mats[0].shape)
    kept = _kept_sets(mats, arrays)
    points = _candidates_per_block(kept[1])

    def scores(weight_vectors):
        vectors = iter(weight_vectors)
        while weights := list(itertools.islice(vectors, points)):
            overflowed = np.zeros(len(weights), bool)

            def fused_rows(queries, rows, scratch):
                out, tmp = scratch[:-1], scratch[-1]
                # A convex sum of finite members overflows only at the edge
                # of the float range, and a vector's total shows it in one
                # pass; numpy's warnings are left to the DataError.
                with np.errstate(over="ignore", invalid="ignore"):
                    _weighted_sums_into(out, tmp, (m[rows, queries[:, None]]
                                                   for m in mats), weights)
                    totals = out.sum(axis=(1, 2))
                for p in np.flatnonzero(~np.isfinite(totals)):
                    overflowed[p] |= not np.isfinite(out[p]).all()
                return out

            means = _mean_metrics(fused_rows, arrays, kept, len(weights),
                                  len(weights) + 1)
            # a vector that overflowed fails when its value is asked for
            for value, bad in zip(means[:, _MAP_AT_16].tolist(), overflowed):
                if bad:
                    raise DataError("similarity matrix contains non-finite "
                                    "entries")
                yield value
    return scores


def hierarchical_grid_search(members, relevance, *, step=0.01,
                             strategy="system-first", mode="multiple",
                             refine=False):
    """Factored weight search mirroring the two published strategies.

    Stage 1 searches each group's sub-map of `members` on its own (for
    system-first, across systems inside each model); stage 2 searches
    across the stage-1 fused group matrices; every search takes `step`,
    `mode` and `refine` as grid_search does.  The grid must be full and
    at least 2 by 2.  Returns a flat spec of the stage-product weights.
    """
    _check_strategy(strategy)
    _check_pairs(members)
    systems = tuple(dict.fromkeys(s for s, _ in members))
    models = tuple(dict.fromkeys(m for _, m in members))
    tags = [(s, m) for s in systems for m in models]
    if set(members) != set(tags):
        raise ContractError("members must cover the full system-by-model grid")
    for axis, count in (("systems", len(systems)), ("models", len(models))):
        if count < 2:
            raise ContractError(f"the grid needs >= 2 {axis}, got {count}")
    by_model = {(None, m): [(s, m) for s in systems] for m in models}
    by_system = {(s, None): [(s, m) for m in models] for s in systems}
    groups = by_model if strategy == "system-first" else by_system

    stage1 = {}
    fused_groups = {}
    evaluated = 0
    for key, group in groups.items():
        result = grid_search({tag: members[tag] for tag in group}, relevance,
                             step=step, mode=mode, refine=refine)
        stage1[key] = result.spec.members
        fused_groups[key] = fuse(members, result.spec)
        evaluated += result.points_evaluated

    top = grid_search(fused_groups, relevance, step=step, mode=mode,
                      refine=refine)
    evaluated += top.points_evaluated
    weights = {(m.system, m.model): g.weight * m.weight
               for g in top.spec.members for m in stage1[(g.system, g.model)]}

    spec = EnsembleSpec(tuple(Member(s, m, weights[(s, m)]) for s, m in tags),
                        strategy=strategy)
    achieved = evaluate(fuse(members, spec), relevance, mode).map_at_16
    return SearchResult(spec=spec, map_at_16=achieved,
                        points_evaluated=evaluated)
