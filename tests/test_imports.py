"""Every module uses each name it imports; package __init__ re-exports are
exempt, and `xmrt.__all__` lists exactly those re-exports.  JSON files are
read and written only by `checkpoints.read_json` / `write_json`, files are
opened for writing only by `tensorfile.atomic_open`, text is cut into
lines only in tensorfile.py, where `_read_rows` reads every text table
(outside it only `read_json` calls `_read_text`), in cli.py only
`_input_path` and `cmd_report` ask whether a path exists, every grid point
of the weight search is scored by the block scorer `_grid_scores` (its one
call of the ranking driver `_mean_metrics`, which `evaluate` shares), and
ensemble.py calls `evaluate` only for the final replay of
`hierarchical_grid_search`, and datasets.py reads tensor files only in
`_gather_rows`, the one gather of a split load.  The per-modality head
file names appear only in checkpoints.py, and head tensors are stacked
only by `load_checkpoint` (`init_heads` fills a preallocated pair).  No
module in `src/xmrt` reads the environment, so the config and the flags
are the only run inputs.  Every function, class and public method in
`src/xmrt` is used by `src/`, `demos/` or `perfbench/`, not by tests
alone, and so is every defaulted parameter of one.  No statement in
`src/xmrt` builds an instance of a class defined there only to drop it.
Plain `ast` passes, so the checks need no linter install."""

import ast
import math
from collections import defaultdict
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


def test_only_the_pipeline_chains_the_cluster_steps():
    for path in sorted((ROOT / "src/xmrt").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for step in ("reduce_dimensionality", "density_cluster",
                     "reassign_outliers"):
            expected = (["cluster_pipeline"] if path.name == "clustering.py"
                        else [])
            assert _functions_around(source, _calls(step)) == expected, (
                path.name, step)


def _splits_lines(node):
    """A .split("\\n") or .splitlines() call: text cut into lines."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return False
    first = node.args[0] if node.args else None
    return node.func.attr == "splitlines" or (
        node.func.attr == "split" and isinstance(first, ast.Constant)
        and first.value == "\n")


def _reads_text(node):
    """A call of _read_text, by name or attribute."""
    return isinstance(node, ast.Call) and "_read_text" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _text_readers(source, name):
    """The functions of module `name` that cut text into lines or call
    `_read_text`, each once in source order, but for tensorfile.py, which
    owns both, and `read_json` in checkpoints.py."""
    if name == "tensorfile.py":
        return []
    where = _functions_around(source, _splits_lines) \
        + _functions_around(source, _reads_text)
    return [f for f in dict.fromkeys(where)
            if (name, f) != ("checkpoints.py", "read_json")]


def test_text_reader_detector():
    source = ('def read(p):\n    return _read_text(p).split("\\n")\n'
              'def fields(s):\n    return s.split("\\t") + s.split()\n'
              'def lines(s):\n    return s.splitlines()\n'
              'def load(p):\n    return tensorfile._read_text(p)\n'
              'def read_json(p):\n    return _read_text(p)\n')
    assert _text_readers(source, "datasets.py") \
        == ["read", "lines", "load", "read_json"]
    assert _text_readers(source, "checkpoints.py") \
        == ["read", "lines", "load"]
    assert _text_readers(source, "tensorfile.py") == []


def test_text_tables_are_read_only_through_read_rows():
    found = {}
    for path in sorted((ROOT / "src/xmrt").glob("*.py")):
        where = _text_readers(path.read_text(encoding="utf-8"), path.name)
        if where:
            found[path.name] = where
    assert found == {}


def _reads_the_environment(source):
    """"os.<name>" for each read of os.environ, os.environb or os.getenv,
    as an attribute of os or a name imported from it, sorted."""
    names = {"environ", "environb", "getenv"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names if a.name in names]
    return sorted(found)


def test_environment_detector():
    source = ("import os\nos.environ.get('X')\nos.getenv('Y', '0')\n"
              "from os import environb, path\nos.path.join(a)\n"
              "settings.environ\nos.environ_like\n")
    assert _reads_the_environment(source) \
        == ["os.environ", "os.environb", "os.getenv"]


def test_no_module_reads_the_environment():
    found = {}
    for path in sorted((ROOT / "src/xmrt").glob("*.py")):
        reads = _reads_the_environment(path.read_text(encoding="utf-8"))
        if reads:
            found[path.name] = reads
    assert found == {}


def test_a_split_load_reads_tensors_only_in_the_gather():
    source = (ROOT / "src/xmrt/datasets.py").read_text(encoding="utf-8")
    assert _functions_around(source, _calls("load_tensor")) \
        == ["_gather_rows"]


def _head_file_names(source):
    """Each string, or f-string piece, that names a per-modality head
    file ("audio_head.", "text_head.", or "_head." after a modality)."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "_head." in node.value]


def _stacks(node):
    """An np.stack call, or an np.array call on a list or tuple display
    or a comprehension: one new array built from several."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"):
        return False
    first = node.args[0] if node.args else None
    return node.func.attr == "stack" or node.func.attr == "array" and (
        isinstance(first, (ast.List, ast.Tuple, ast.ListComp,
                           ast.GeneratorExp)))


def test_head_detectors():
    source = ('def f(m, p):\n    return f"{m}_head.{p}", "audio_head.w1"\n'
              'def g(t):\n    return np.stack(t), np.array([t]), '
              'np.array(t), np.array(x for x in t), np.hstack([t])\n')
    assert sorted(_head_file_names(source)) == ["_head.", "audio_head.w1"]
    assert _functions_around(source, _stacks) == ["g", "g", "g"]


# Where src/xmrt builds one array from several, each named with what it
# stacks; none is a head tensor.
STACKS_ALLOWED = {
    ("clustering.py", "density_cluster"),    # cluster centroids
    ("cli.py", "_run_training_stage"),       # pseudo-labels by caption id
}


def test_no_module_names_a_head_file_or_stacks_heads():
    stacks = set()
    for path in sorted((ROOT / "src/xmrt").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert _head_file_names(source) == [], path.name
        stacks |= {(path.name, f)
                   for f in _functions_around(source, _stacks)}
    assert stacks == STACKS_ALLOWED    # so no allowance outlives its use


# Kept although only tests and the tracer call them, each for its reason.
TEST_ONLY_ALLOWED = {
    "rank_gallery": "perfbench/tracing.py wraps it; the metric tests rank "
                    "with it",
}


def _definitions(tree):
    """Top-level functions and classes, and their classes' public methods
    as "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _references(tree):
    """(names, attribute names) a module reads, leaving out each
    top-level definition's references to itself.  Imports and strings
    are not references, so a package re-export does not count."""
    names, attrs = set(), set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                attrs.add(node.attr)
    return names, attrs


def test_reference_detectors():
    tree = ast.parse("from m import g, unused\n"
                     "__all__ = ['unused']\n"
                     "def f():\n    return f() + g.h\n"
                     "class C:\n    def m(self):\n        return self.k\n"
                     "    def _p(self):\n        return C\n")
    assert list(_definitions(tree)) == ["f", "C", "C.m"]
    assert _references(tree) == ({"__all__", "g", "self"}, {"h", "k"})


def test_src_defines_nothing_only_tests_use():
    names, attrs = set(), set()
    for folder in ("src", "demos", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                found = _references(ast.parse(path.read_text(
                    encoding="utf-8")))
                names |= found[0]
                attrs |= found[1]
    unused = []
    for path in sorted((ROOT / "src/xmrt").glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            owner, _, method = name.rpartition(".")
            # a method is reached as an attribute, anything else either way
            used = method in attrs if owner else name in names | attrs
            if not used and name not in TEST_ONLY_ALLOWED:
                unused.append(f"{path.name}: {name}")
    assert unused == []


def _defaulted_parameters(tree):
    """(function, parameter, position) of each parameter with a default
    in every function and method of tree.  The position counts the
    arguments a call passes before it, self or cls excluded; it is None
    for a keyword-only parameter."""
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and not any(
                   isinstance(d, ast.Name) and d.id == "staticmethod"
                   for d in item.decorator_list)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for at, arg in enumerate(positional[first:], first):
            yield node.name, arg.arg, at - (id(node) in methods)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _unpassed(trees, defining):
    """name(parameter) of each defaulted parameter in `defining` that no
    call in trees passes, callees matched by name.  A starred argument
    passes every position, and ** every keyword."""
    passed = defaultdict(lambda: [0, set()])    # name -> [positions, keywords]
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Call):   # f(...) or x.f(...), by name f
            entry = passed[getattr(node.func, "id",
                                   getattr(node.func, "attr", None))]
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            entry[0] = max(entry[0], math.inf if starred else len(node.args))
            entry[1].update(k.arg for k in node.keywords)   # None for **
    return [f"{name}({param})"
            for name, param, at in _defaulted_parameters(defining)
            if not ({param, None} & passed[name][1]
                    or at is not None and passed[name][0] > at)]


def test_default_detector():
    tree = ast.parse("def f(a, b=1, /, c=2, *, d=3, e=4):\n    pass\n"
                     "class K:\n    def m(self, x=0, y=1):\n        pass\n"
                     "    @staticmethod\n    def s(z=0):\n        pass\n"
                     "def g(h=1):\n    pass\n"
                     "f(0, 1, e=5)\nK().m(2)\nK.s(*zs)\ng(**kw)\n")
    assert list(_defaulted_parameters(tree)) == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("f", "e", None),
        ("g", "h", 0), ("m", "x", 0), ("m", "y", 1), ("s", "z", 0)]
    assert _unpassed([tree], tree) == ["f(c)", "f(d)", "m(y)"]


def test_every_defaulted_parameter_is_passed_outside_tests():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if "tests" not in path.relative_to(ROOT).parts]
    unused = []
    for path in sorted((ROOT / "src/xmrt").glob("*.py")):
        unused += [f"{path.name}: {name}" for name in _unpassed(
            trees, ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == []


def _discarded_constructions(tree, classes):
    """(line, class) of each statement that only calls one of `classes`,
    by name or attribute, and drops the instance: a construction kept
    for its checks alone."""
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            for name in [getattr(node.value.func, "id",
                                 getattr(node.value.func, "attr", None))]
            if name in classes]


def test_discarded_construction_detector():
    tree = ast.parse("class A:\n    pass\n"
                     "A(1)\nx = A(2)\nf(A(3))\nm.A(4)\n"
                     "def g():\n    A()\n    return A()\nB()\nf()\n")
    assert _discarded_constructions(tree, {"A"}) == [(3, "A"), (6, "A"),
                                                     (8, "A")]


def test_src_builds_no_instance_only_to_drop_it():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src/xmrt").glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    found = [f"{name}:{line} ({cls})" for name, tree in trees.items()
             for line, cls in _discarded_constructions(tree, classes)]
    assert found == []
