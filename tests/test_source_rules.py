"""Rules that keep the source tree minimal, on one parse of each file.

- No unused import in src, tests or benchmarks: an imported name that is
  never read fails, unless it is listed in `__all__`, its line carries
  "# noqa" or it comes from `__future__`.
- No unused parameter in src/catcavity: an argument of a function or
  lambda, other than self or cls, that its body (nested functions
  included) never reads.
- No public name and no dataclass field of src/catcavity that only tests
  read: each needs a reader in a module of src/catcavity other than
  `__init__`, or a mention in the benchmark harness (benchmarks/*.py or
  BENCHMARK.json).
- No dead helper in tests/references.py: each of its top-level functions
  is read by a test module, or by another top-level statement of
  references.py.
- No `np.r_` or `np.c_` in src: each costs several times the
  `np.concatenate` or `np.column_stack` it stands for.

Each failure names its `file:line`, relative to the repository root.
"""

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


@functools.cache
def _parsed():
    """{path relative to the root: (source lines, tree)} of every .py file
    of src, tests and benchmarks, in path order."""
    parsed = {}
    for path in sorted(p for d in ("src", "tests", "benchmarks")
                       for p in (ROOT / d).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        parsed[path.relative_to(ROOT)] = (text.splitlines(),
                                          ast.parse(text, filename=str(path)))
    return parsed


def _package(init=True):
    """(path, tree) of the modules of src/catcavity, `__init__` only if
    `init`."""
    return [(path, tree) for path, (_, tree) in _parsed().items()
            if path.parts[:2] == ("src", "catcavity")
            and (init or path.name != "__init__.py")]


@functools.cache
def _read_by_src():
    """The names that a module of src/catcavity other than `__init__` reads
    as a public name (a name, an attribute of that name or an import of
    it) and as a dataclass field (an attribute load of that name, or that
    string in a tuple, a list or a getattr call, as run_figure reads
    gt_max), and the text of the benchmark harness."""
    names, fields = set(), set()
    for _, tree in _package(init=False):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                names.add(node.attr)
                fields.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.Tuple, ast.List)):
                fields.update(e.value for e in node.elts
                              if isinstance(e, ast.Constant))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr"):
                fields.update(a.value for a in node.args
                              if isinstance(a, ast.Constant))
    harness = " ".join(p.read_text(encoding="utf-8") for p in
                       [*sorted((ROOT / "benchmarks").glob("*.py")),
                        ROOT / "BENCHMARK.json"])
    return names, fields, harness


def test_no_unused_imports():
    failures = []
    for path, (lines, tree) in _parsed().items():
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported |= {e.value for e in node.value.elts}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                if any("# noqa" in lines[i - 1]
                       for i in (node.lineno, alias.lineno)):
                    continue
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and name not in exported:
                    failures.append(
                        f"{path}:{node.lineno}: unused import {name}")
    assert not failures, "\n".join(failures)


def test_no_unused_parameters_in_src():
    failures = []
    for path, tree in _package():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg and arg.arg not in read | {"self", "cls"}:
                    failures.append(f"{path}:{node.lineno}: "
                                    f"{getattr(node, 'name', 'lambda')} never "
                                    f"reads its argument {arg.arg}")
    assert not failures, "\n".join(failures)


def test_no_public_name_in_src_that_only_tests_read():
    names, _, harness = _read_by_src()
    failures = [f"{path}:{node.lineno}: {node.name} is read by no module of "
                "src but __init__ and named by no benchmark file"
                for path, tree in _package(init=False) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                and not node.name.startswith("_") and node.name not in names
                and not re.search(rf"\b{node.name}\b", harness)]
    assert not failures, "\n".join(failures)


def test_no_dataclass_field_in_src_that_only_tests_read():
    _, fields, harness = _read_by_src()
    failures = []
    for path, tree in _package(init=False):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id",
                            None) == "dataclass" for d in node.decorator_list):
                failures += [f"{path}:{item.lineno}: {node.name}."
                             f"{item.target.id} is read by no module of src "
                             "but __init__ and named by no benchmark file"
                             for item in node.body
                             if isinstance(item, ast.AnnAssign)
                             and item.target.id not in fields
                             and not re.search(rf"\.{item.target.id}\b",
                                               harness)]
    assert not failures, "\n".join(failures)


def test_every_reference_helper_is_read_by_a_test():
    reference = pathlib.Path("tests", "references.py")
    helpers = [node for node in _parsed()[reference][1].body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    # the names each top-level statement of tests reads, by statement
    reads = []
    for path, (_, tree) in _parsed().items():
        if path.parts[0] == "tests":
            for top in tree.body:
                names = set()
                for node in ast.walk(top):
                    if (isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Load)):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.ImportFrom):
                        names.update(alias.name for alias in node.names)
                reads.append((top, names))
    failures = [f"{reference}:{node.lineno}: {node.name} is read by no test"
                for node in helpers
                if not any(node.name in names for top, names in reads
                           if top is not node)]
    assert not failures, "\n".join(failures)


def test_no_index_trick_concatenation_in_src():
    failures = [f"{path}:{node.lineno}: np.{node.attr}"
                for path, (_, tree) in _parsed().items()
                if path.parts[0] == "src" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in ("r_", "c_")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")]
    assert not failures, "\n".join(failures)
