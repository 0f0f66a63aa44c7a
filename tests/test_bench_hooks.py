"""The benchmark's tracer (perfbench/tracing.py) wraps xmrt functions by
module and name, so a refactor that drops or renames one of them fails
here instead of breaking the benchmark."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from xmrt.losses import student_similarity

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_xmrt_bench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(mod_name, path):
    owner = sys.modules[mod_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_wraps_every_target_and_restores_it():
    importlib.import_module("xmrt.cli")   # loads every module it patches
    tracing = _load_tracing()
    originals = {(m, p): getattr(*_owner(m, p)) for m, p, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (mod_name, path), original in originals.items():
            assert getattr(*_owner(mod_name, path)) is not original, path
    finally:
        tracer.uninstall()
    for (mod_name, path), original in originals.items():
        assert getattr(*_owner(mod_name, path)) is original, path


def test_student_similarity_takes_params_then_batch():
    # The tracer's teacher-row counter reads args[0] and args[1].
    params = list(inspect.signature(student_similarity).parameters.values())
    assert [p.name for p in params] == ["params", "batch"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
