"""Every name of the package is reached by a pipeline, a criterion or the
benchmark.

A top-level function, class or constant of ``src/lsepkit``, and a method
or property of one of its classes, public or private (dunder names
aside), must be used, outside its own definition, by the package itself,
by ``perfbench/``, by ``scripts/`` or by the acceptance criteria
(``tests/test_acceptance.py``).  A name that only its own unit tests
call is dead weight: delete it, or move it into the tests that need it
as an oracle.

A use is a name or attribute load anywhere in those files, or a string
that is exactly the name (``getattr(module, "name")``, the benchmark's
patch targets).  A ``self.<name>`` load inside a class uses only that
class's own member: a dataclass field that a method reads through
``self`` does not reach a same-named property of another class.
Imports, ``__all__`` lists and the ``__init__`` re-exports are not uses:
they pass a name on without calling it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lsepkit"
USERS = [ROOT / "src", ROOT / "perfbench", ROOT / "scripts", ROOT / "tests" / "test_acceptance.py"]


def _files(path):
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


def _definitions(tree):
    """(name, node) of the module's top-level defs, classes and assigned
    names, and ("Class.member", node) of the methods and properties of
    its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{member.name}", member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _uses(node, skip=frozenset(), cls=None):
    """Counter of the identifiers that ``node`` loads, not descending
    into imports or into ``skip`` (a set of node ids: ``__all__``).  A
    ``self.<name>`` load inside class C, or inside ``node`` when it is a
    member of ``cls`` = C, counts as "C.<name>"."""
    uses = Counter()
    stack = [(node, cls)]
    while stack:
        current, owner = stack.pop()
        if id(current) in skip or isinstance(current, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(current, ast.Name) and isinstance(current.ctx, ast.Load):
            uses[current.id] += 1
        elif isinstance(current, ast.Attribute) and isinstance(current.ctx, ast.Load):
            on_self = owner and isinstance(current.value, ast.Name) and current.value.id == "self"
            uses[f"{owner}.{current.attr}" if on_self else current.attr] += 1
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            if current.value.isidentifier():
                uses[current.value] += 1
        if isinstance(current, ast.ClassDef):
            owner = current.name
        stack.extend((child, owner) for child in ast.iter_child_nodes(current))
    return uses


def _reached(uses, name, node):
    """Whether ``uses`` hold a use of the definition ``name`` outside its
    own ``node``: a load of its name, or for a member "C.m" a load of m or
    a ``self.m`` load inside C."""
    cls, _, member = name.rpartition(".")
    own = _uses(node, cls=cls or None)
    return any(uses[key] > own[key] for key in {member, name})


def _dunder_all(tree):
    return {id(node) for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)}


def _unreached(tree, uses):
    """The top-level names and class members that ``tree`` defines and
    ``uses`` do not reach (_reached), dunder names aside."""
    for name, node in _definitions(tree):
        member = name.rpartition(".")[2]
        dunder = member.startswith("__") and member.endswith("__")
        if not dunder and not _reached(uses, name, node):
            yield name


def unreached_names():
    """Sorted ``module:name`` of every top-level name and class member of
    the package, public or private, that no user file reaches."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for user in USERS for path in _files(user)}
    uses = sum((_uses(tree, _dunder_all(tree)) for tree in trees.values()), Counter())
    unreached = []
    for path in _files(PACKAGE):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        unreached += [f"{module}:{name}" for name in _unreached(trees[path], uses)]
    return sorted(unreached)


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_the_scan_sees_a_dead_name():
    # the rule itself: a name only defined, imported, exported in
    # __all__ and called by itself is unreached; one use outside its
    # definition, or its name as a string, reaches it
    source = (
        "from .other import helper\n"
        "__all__ = ['dead', 'live', 'named']\n"
        "def dead():\n    return dead()\n"
        "def live():\n    return 1\n"
        "def named():\n    return 2\n"
        "VALUE = live() + getattr(None, 'named')\n"
    )
    tree = ast.parse(source)
    defined = dict(_definitions(tree))
    assert set(defined) == {"__all__", "dead", "live", "named", "VALUE"}
    uses = _uses(tree, _dunder_all(tree))
    assert uses["dead"] == _uses(defined["dead"])["dead"] == 1
    assert uses["live"] == 1 and _uses(defined["live"])["live"] == 0
    assert uses["named"] == 1 and uses["helper"] == 0 and uses["VALUE"] == 0


def test_the_scan_lists_a_dead_private_name():
    # a private function that only calls itself is listed like a public
    # one; a private one that another name calls is reached, and a dunder
    # name is never listed
    source = (
        "__all__ = ['live']\n"
        "def _dead():\n    return _dead()\n"
        "def _used():\n    return 1\n"
        "def live():\n    return _used()\n"
        "VALUE = live()\n"
    )
    tree = ast.parse(source)
    assert list(_unreached(tree, _uses(tree, _dunder_all(tree)))) == ["_dead", "VALUE"]


def test_the_scan_sees_a_dead_member():
    # a class's methods and properties count by their own name: one read
    # as an attribute outside its definition reaches it, a private one
    # that nothing reads is listed, and a dunder one never is
    source = (
        "class Box:\n"
        "    @property\n    def size(self):\n        return self.size\n"
        "    def check(self):\n        return 1\n"
        "    def _helper(self):\n        return 2\n"
        "    def __repr__(self):\n        return 'Box'\n"
        "VALUE = Box().check()\n"
    )
    tree = ast.parse(source)
    defined = dict(_definitions(tree))
    assert set(defined) == {"Box", "Box.size", "Box.check", "Box._helper", "Box.__repr__", "VALUE"}
    uses = _uses(tree)
    assert uses["Box.size"] == _uses(defined["Box.size"], cls="Box")["Box.size"] == 1
    assert not _reached(uses, "Box.size", defined["Box.size"])
    assert uses["check"] == 1 and _reached(uses, "Box.check", defined["Box.check"])
    assert list(_unreached(tree, uses)) == ["Box.size", "Box._helper", "VALUE"]


def test_a_self_load_reaches_only_its_own_class():
    # Crate reads its own field through self; that does not reach Box's
    # same-named property, which is dead, while Box.volume, read through
    # self inside Box and called from outside, is live
    source = (
        "class Box:\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def volume(self):\n        return self.depth * 2\n"
        "class Crate:\n"
        "    size: int\n"
        "    depth: int\n"
        "    def total(self):\n        return self.size + self.depth\n"
        "VALUE = Crate(1, 2).total() + Box().volume()\n"
    )
    tree = ast.parse(source)
    defined = dict(_definitions(tree))
    uses = _uses(tree)
    assert uses["size"] == 0 and uses["Crate.size"] == 1
    assert uses["Box.depth"] == uses["Crate.depth"] == 1
    assert not _reached(uses, "Box.size", defined["Box.size"])
    assert _reached(uses, "Box.volume", defined["Box.volume"])
    assert _reached(uses, "Crate.total", defined["Crate.total"])
