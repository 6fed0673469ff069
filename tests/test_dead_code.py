"""Every function, method, class and module-level constant in
src/tenfold has a caller or a reader, and every parameter with a
default has a caller that sets it.

A definition counts as used when its name appears as an ``ast.Name``,
an ``ast.Attribute`` or an imported name somewhere in src/tenfold
(outside its own definition and the package ``__init__.py``), in
perfbench/*.py or in tests/test_acceptance.py.  Names are matched
without regard to the module or class that defines them, so the scan
can miss dead code whose name is also used elsewhere, but it never
flags a live definition.  A parameter counts as set when a call of a
function of that name in the same files passes it by keyword or by
position.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tenfold"

# Public names kept without a caller in the scanned files, with why.
ALLOWED = {
    "ensembles.spacing_ratios": "documented single-spectrum form of "
                                "pooled_spacing_ratios",
}

# Parameters with a default that no call in the scanned files sets, with
# why they stay.
UNSET_ALLOWED = {}


def _used_names(tree):
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def _definitions(tree):
    """(qualified name, node) of every function, method and class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _constants(tree):
    """(name, node) of every name a module-level assignment binds."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found.append((name.id, node))
    return found


def test_no_definition_without_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    scanned = sources + sorted((ROOT / "perfbench").glob("*.py")) + \
        [ROOT / "tests" / "test_acceptance.py"]
    used = Counter()
    for path in scanned:
        used.update(_used_names(ast.parse(path.read_text())))

    unused = []
    for path in sources:
        for qualname, node in _definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - _used_names(node)[name] > 0:
                continue
            unused.append(f"{path.stem}.{qualname}")
    assert sorted(unused) == sorted(ALLOWED)


def test_no_constant_without_a_reader():
    sources = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    scanned = sources + sorted((ROOT / "perfbench").glob("*.py")) + \
        [ROOT / "tests" / "test_acceptance.py"]
    used = Counter()
    for path in scanned:
        used.update(_used_names(ast.parse(path.read_text())))
    # the assignment's own target cancels against its count in ``used``
    unused = [f"{path.stem}.{name}" for path in sources
              for name, node in _constants(ast.parse(path.read_text()))
              if used[name] - _used_names(node)[name] <= 0]
    assert unused == []


def _optional_parameters(tree):
    """(qualified name, function name, parameter, position or None for
    keyword-only) of every parameter with a default; the position
    leaves out the ``self`` of a method."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = (args.posonlyargs + args.args)[in_class:]
                first = len(positional) - len(args.defaults)
                found.extend((prefix + child.name, child.name, arg.arg, i)
                             for i, arg in enumerate(positional)
                             if i >= first)
                found.extend((prefix + child.name, child.name, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                             if default is not None)
                visit(child, prefix + child.name + ".", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def _sets(call, param, position):
    """Whether ``call`` passes ``param`` (a ``*`` or ``**`` may)."""
    return any(k.arg in (param, None) for k in call.keywords) or \
        any(isinstance(a, ast.Starred) for a in call.args) or \
        (position is not None and len(call.args) > position)


def test_no_optional_parameter_without_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    scanned = sources + sorted((ROOT / "perfbench").glob("*.py")) + \
        [ROOT / "tests" / "test_acceptance.py"]
    calls = {}
    for path in scanned:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)

    unset = [f"{path.stem}.{qualname}({param})" for path in sources
             for qualname, name, param, position in
             _optional_parameters(ast.parse(path.read_text()))
             if not any(_sets(call, param, position)
                        for call in calls.get(name, ()))]
    assert sorted(unset) == sorted(UNSET_ALLOWED)
