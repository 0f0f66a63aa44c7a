"""In-memory span tracer that wraps xmrt's public functions where imported.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each target
function in every loaded ``xmrt`` module namespace that binds it (its own
module, for calls from inside that module, and every import site), and
``Tracer.uninstall`` puts the originals back.  Each call records one span:

    (span_id, parent_id, op_id, name, start_s, end_s, value)

``parent_id`` is the innermost traced call that was open when this one
started (-1 at the top), ``op_id`` indexes ``Tracer.ops`` (the CLI op or
set-up being run), and ``value`` is the span's counter: bytes for tensor
files, rows for teacher forwards, queries for ``evaluate``, and the
computed n*n*r*8 pairwise bytes for ``density_cluster``.  Spans stay in
memory until ``write_spans`` dumps those of the chosen ops as JSON lines.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded and nested, so children never
overlap.

Run ``python3 perfbench/tracing.py <spans.jsonl>`` for a self-time table
per op.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _tensor_file_bytes(arr):
    # magic + version + rank, dims, float64 payload, crc
    return 7 + 4 * arr.ndim + 8 * arr.size + 4


def _saved_bytes(args, kwargs, result):
    return _tensor_file_bytes(np.asarray(args[1] if len(args) > 1
                                         else kwargs["array"]))


def _loaded_bytes(args, kwargs, result):
    return _tensor_file_bytes(result)


def _queries(args, kwargs, result):
    return np.shape(args[0] if args else kwargs["sim"])[1]


def _pairwise_bytes(args, kwargs, result):
    n, r = np.shape(args[0] if args else kwargs["points"])
    return n * n * r * 8


# (defining module, attribute path, counter).  Span names drop the
# "xmrt." prefix: "losses.ensemble_average", "encoders.ModelParams.
# with_tensors".
TARGETS = (
    ("xmrt.cli", "main", None),
    ("xmrt.config", "load_config", None),
    ("xmrt.datasets", "load_paired_dataset", None),
    ("xmrt.datasets", "read_relevance", None),
    ("xmrt.datasets", "align_relevance", None),
    ("xmrt.datasets", "read_labels", None),
    ("xmrt.datasets", "write_labels", None),
    ("xmrt.datasets", "relevance_as_indices", None),
    ("xmrt.tensorfile", "save_tensor", _saved_bytes),
    ("xmrt.tensorfile", "load_tensor", _loaded_bytes),
    ("xmrt.checkpoints", "save_checkpoint", None),
    ("xmrt.checkpoints", "load_checkpoint", None),
    ("xmrt.fixtures", "generate_fixtures", None),
    ("xmrt.training", "run_stage", None),
    ("xmrt.training", "make_batches", None),
    ("xmrt.training", "adamw_step", None),
    ("xmrt.training", "expand_with_mixes", None),
    ("xmrt.losses", "loss_and_gradients", None),
    ("xmrt.losses", "student_similarity", None),   # counter set by Tracer
    ("xmrt.losses", "targets_from_teacher_sims", None),
    ("xmrt.losses", "ensemble_average", None),
    ("xmrt.losses", "teacher_soft_targets", None),
    ("xmrt.encoders", "ModelParams.with_tensors", None),
    ("xmrt.encoders", "init_params", None),
    ("xmrt.encoders", "init_heads", None),
    ("xmrt.encoders", "encode", None),
    ("xmrt.core", "cosine_similarity_matrix", None),
    ("xmrt.core", "softmax_with_temperature", None),
    ("xmrt.clustering", "cluster_pipeline", None),
    ("xmrt.clustering", "reduce_dimensionality", None),
    ("xmrt.clustering", "density_cluster", _pairwise_bytes),
    ("xmrt.clustering", "reassign_outliers", None),
    ("xmrt.clustering", "build_pseudo_labels", None),
    ("xmrt.evaluation", "evaluate", _queries),
    ("xmrt.evaluation", "rank_gallery", None),
    ("xmrt.ensemble", "grid_search", None),
    ("xmrt.ensemble", "hierarchical_grid_search", None),
    ("xmrt.ensemble", "fuse", None),
)

# Import sites whose calls get their own span name.  The search objective
# calls evaluate once per grid point; the evaluate command calls it once.
SITE_NAMES = {("xmrt.ensemble", "evaluate"): "ensemble.evaluate"}


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self):
        self.spans = []
        self.ops = []                # op_id -> (repeat, label, command)
        self.op_id = -1
        self.teacher_rows = defaultdict(set)   # op_id -> {(teacher, row)}
        self._stack = []
        self._restore = []

    def begin_op(self, repeat, label, command):
        self.ops.append((repeat, label, command))
        self.op_id = len(self.ops) - 1

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "xmrt" or name.startswith("xmrt."))
                   and m is not None]
        for mod_name, path, counter in TARGETS:
            owner = sys.modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{mod_name[len('xmrt.'):]}.{path}"
            if path == "student_similarity":
                counter = self._count_teacher_rows
            if outer:            # a method: patch the class attribute
                self._patch(owner, attr, self._wrap(name, original, counter))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        site = SITE_NAMES.get((mod.__name__, key), name)
                        self._patch(mod, key,
                                    self._wrap(site, original, counter))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count_teacher_rows(self, args, kwargs, result):
        teacher, batch = args[0], args[1]
        rows = np.hstack([batch.audio_features, batch.text_features])
        seen = self.teacher_rows[self.op_id]
        for row in rows:
            seen.add((id(teacher), row.tobytes()))
        return rows.shape[0]

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.op_id, name, start,
                                  end, 0)
            if counter is not None:
                spans[span_id] = spans[span_id][:6] + (
                    counter(args, kwargs, result),)
            return result

        return traced

    def write_spans(self, path, op_ids):
        """Dump the given ops, then their spans, one JSON array per line."""
        wanted = set(op_ids)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for op_id in sorted(wanted):
                repeat, label, command = self.ops[op_id]
                fh.write(json.dumps(["op", op_id, repeat, label, command])
                         + "\n")
            for span in self.spans:
                if span[2] in wanted:
                    fh.write(json.dumps(["span", *span]) + "\n")


def self_times(spans):
    """Map span_id -> self time in seconds."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def aggregate(spans, ops, op_ids):
    """Per span name over the given ops: calls, total, self and counter.

    Also keyed by (name, command) so per-stage figures can be read off.
    """
    wanted = set(op_ids)
    chosen = [s for s in spans if s[2] in wanted]
    own = self_times(chosen)
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "value": 0})
    for s in chosen:
        for key in (s[3], (s[3], ops[s[2]][2])):
            entry = stats[key]
            entry["calls"] += 1
            entry["total_s"] += s[5] - s[4]
            entry["self_s"] += own[s[0]]
            entry["value"] += s[6]
    return stats


def read_spans(path):
    """(ops keyed by op_id, spans) from a file written by write_spans."""
    ops, spans = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            kind, *rest = json.loads(line)
            if kind == "op":
                ops[rest[0]] = tuple(rest[1:])
            else:
                spans.append(tuple(rest))
    return ops, spans


def main(argv):
    """Print, per op of the span file, the spans by descending self time."""
    if len(argv) != 1:
        print("usage: python3 perfbench/tracing.py <spans.jsonl>",
              file=sys.stderr)
        return 2
    ops, spans = read_spans(argv[0])
    for op_id, (repeat, label, command) in sorted(ops.items()):
        stats = aggregate(spans, ops, [op_id])
        names = [k for k in stats if isinstance(k, str)]
        if not names:
            continue
        op_spans = [s for s in spans if s[2] == op_id and s[1] == -1]
        wall = sum(s[5] - s[4] for s in op_spans)
        print(f"op {op_id} repeat {repeat} {label} ({command}): "
              f"{wall * 1e3:.1f} ms traced")
        for name in sorted(names, key=lambda k: -stats[k]["self_s"]):
            e = stats[name]
            share = e["self_s"] / wall if wall else 0.0
            print(f"  {name:45s} calls {e['calls']:7d}  self "
                  f"{e['self_s'] * 1e3:9.2f} ms  {share:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
