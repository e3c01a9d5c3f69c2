"""Rules the package's source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import logstair

SOURCES = sorted(Path(logstair.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
USERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]

# Parameters a caller's contract requires though the body has no use for them.
UNREAD_BY_CONTRACT = {
    ("confmap.py", "FRefresh.__call__", "prev"),  # the engine's hook signature
}

# Public names that neither the package nor the acceptance test nor the
# benchmark reads.
EXPORTED_FOR_TESTS = {
    "lift_at",  # the reference tests/test_engine.py checks engine._step's lift against
}


def _unread_parameters(source: Path):
    """(file, qualified function name, parameter) for every parameter of a
    def that its body never reads.  A method's receiver is not counted, and
    lambdas are not checked."""
    tree = ast.parse(source.read_text())
    owners = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            owners[child] = node
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        owner = owners.get(node)
        in_class = isinstance(owner, ast.ClassDef)
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        if in_class:
            params = params[1:]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = f"{owner.name}.{node.name}" if in_class else node.name
        for p in params:
            if p not in read:
                yield (source.name, name, p)


def test_every_parameter_is_read():
    unread = {u for s in SOURCES for u in _unread_parameters(s)}
    assert unread == UNREAD_BY_CONTRACT


def _reads(tree, skip=None):
    """Names loaded and attributes taken in tree; with skip, reads inside the
    top-level def or class of that name do not count."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == skip:
            continue
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr


def test_every_public_name_has_a_reader():
    outside = set()
    for path in USERS:
        outside.update(_reads(ast.parse(path.read_text())))
    trees = [ast.parse(s.read_text()) for s in SOURCES if s.name != "__init__.py"]
    unread = {
        name
        for name in logstair.__all__
        if name not in outside
        and not any(name in set(_reads(tree, skip=name)) for tree in trees)
    }
    assert unread == EXPORTED_FOR_TESTS


def _module_constants(tree):
    """Upper-case names assigned at the top level of a module."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name) and n.id.lstrip("_").isupper():
                    yield n.id


def test_every_module_constant_is_read():
    trees = {s.name: ast.parse(s.read_text()) for s in SOURCES}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = {
        (file, name)
        for file, tree in trees.items()
        for name in _module_constants(tree)
        if name not in read
    }
    assert unread == set()
