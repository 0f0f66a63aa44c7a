"""Every module uses each name it imports; package __init__ re-exports are
exempt, and `xmrt.__all__` lists exactly those re-exports.  JSON files are
read and written only by `checkpoints.read_json` / `write_json`.  Plain
`ast` passes, so the checks need no linter install."""

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
