"""Every module uses each name it imports; package __init__ re-exports are
exempt, and `xmrt.__all__` lists exactly those re-exports.  JSON files are
read and written only by `checkpoints.read_json` / `write_json`, files are
opened for writing only by `tensorfile.atomic_open`, in cli.py only
`_input_path` and `cmd_report` ask whether a path exists, every grid point
of the weight search is scored by the block scorer `_grid_scores` (its one
call of the ranking driver `_mean_metrics`, which `evaluate` shares), and
ensemble.py calls `evaluate` only for the final replay of
`hierarchical_grid_search`, and datasets.py reads tensor files only in
`_gather_rows`, the one gather of a split load.  Plain `ast` passes, so
the checks need no linter install."""

import ast
from pathlib import Path

import xmrt

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src/xmrt", "tests", "demos")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names
                            if a.name != "*")
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_and_keeps_used_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from math import comb, fsum as total\n"
              "np.zeros(comb(3, 1))\n")
    assert _unused_imports(source) == ["os", "total"]


def test_no_module_imports_a_name_it_never_uses():
    offenders = {}
    for folder in CHECKED_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            unused = _unused_imports(path.read_text(encoding="utf-8"))
            if unused:
                offenders[str(path.relative_to(ROOT))] = unused
    assert offenders == {}


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((ROOT / "src/xmrt/__init__.py").read_text(
        encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom)
                and node.module != "__future__" for a in node.names}
    assert len(xmrt.__all__) == len(set(xmrt.__all__))
    assert set(xmrt.__all__) == imported | {"__version__"}
    for name in xmrt.__all__:
        assert hasattr(xmrt, name), name


# load_config reads JSON itself so that bad JSON is a ConfigError.
JSON_FILE_IO_ALLOWED = {"src/xmrt/checkpoints.py", "src/xmrt/config.py"}


def _json_file_calls(source):
    """json.load / json.dump calls; the string forms loads/dumps pass."""
    return [f"json.{node.func.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and node.func.attr in ("load", "dump")]


def test_json_files_go_through_the_one_reader_and_writer():
    assert _json_file_calls("import json\njson.dump(x, fh)\n"
                            "json.dumps(x)\njson.loads(s)\n") == ["json.dump"]
    offenders = {}
    for path in sorted((ROOT / "src/xmrt").rglob("*.py")):
        name = str(path.relative_to(ROOT))
        calls = _json_file_calls(path.read_text(encoding="utf-8"))
        if calls and name not in JSON_FILE_IO_ALLOWED:
            offenders[name] = calls
    assert offenders == {}


def _functions_around(source, matches):
    """The outermost function around each node that matches, in source
    order; "<module>" for a node outside every function."""
    found = []

    def visit(node, outermost):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(outermost or "<module>")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, outermost or (child.name if is_def else None))

    visit(ast.parse(source), None)
    return found


def _opens_for_writing(node):
    """An open(...) call whose mode is not a literal read-only mode."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    return mode is not None and not (
        isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def _asks_if_a_path_exists(node):
    return (isinstance(node, ast.Attribute) and node.attr == "exists"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "path"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "os")


def test_detectors_find_write_opens_and_exists_checks():
    source = ("open(p)\nopen(p, 'rb')\n"
              "def save(p, mode):\n"
              "    def inner():\n        open(p, 'w')\n"
              "    open(p, mode=mode)\n    os.path.exists(p)\n"
              "    os.path.isdir(p)\n")
    assert _functions_around(source, _opens_for_writing) == ["save", "save"]
    assert _functions_around(source, _asks_if_a_path_exists) == ["save"]


def test_files_are_written_only_through_atomic_open():
    offenders = {}
    for path in sorted((ROOT / "src/xmrt").rglob("*.py")):
        name = str(path.relative_to(ROOT))
        where = _functions_around(path.read_text(encoding="utf-8"),
                                  _opens_for_writing)
        if name == "src/xmrt/tensorfile.py":
            where = [w for w in where if w != "atomic_open"]
        if where:
            offenders[name] = where
    assert offenders == {}


def test_cli_asks_if_a_path_exists_only_when_resolving_or_reporting():
    where = _functions_around((ROOT / "src/xmrt/cli.py").read_text(
        encoding="utf-8"), _asks_if_a_path_exists)
    assert set(where) <= {"_input_path", "cmd_report"}


def _calls(name):
    def matches(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)
    return matches


def test_weight_search_scores_points_through_the_block_scorer():
    assert _functions_around("def f():\n    def score():\n        "
                             "evaluate(x)\nevaluate(y)\nm.evaluate(z)\n",
                             _calls("evaluate")) == ["f", "<module>"]
    source = (ROOT / "src/xmrt/ensemble.py").read_text(encoding="utf-8")
    # one ranking call scores every point, coarse and refined alike
    assert _functions_around(source, _calls("_mean_metrics")) \
        == ["_grid_scores"]
    assert _functions_around(source, _calls("_grid_scores")) \
        == ["grid_search"]
    # the final replay of the hierarchical search
    assert _functions_around(source, _calls("evaluate")) \
        == ["hierarchical_grid_search"]
    # evaluate and the search share one ranking kernel
    source = (ROOT / "src/xmrt/evaluation.py").read_text(encoding="utf-8")
    for kernel in ("_relevant_ranks", "_query_metrics"):
        assert _functions_around(source, _calls(kernel)) == ["_mean_metrics"]
    assert _functions_around(source, _calls("_mean_metrics")) == ["evaluate"]


def test_a_split_load_reads_tensors_only_in_the_gather():
    source = (ROOT / "src/xmrt/datasets.py").read_text(encoding="utf-8")
    assert _functions_around(source, _calls("load_tensor")) \
        == ["_gather_rows"]
