"""Every defaulted parameter of the package is supplied somewhere.

A parameter with a default that no call in ``src/``, ``tests/`` or
``perfbench/`` passes, by keyword or by position, always takes its default:
it is a setting that changes nothing.  Calls are matched to definitions by
name (``f(...)`` and ``x.f(...)`` both call every ``f``), and a class's
``__init__`` by the class name.  A call that unpacks ``*args`` or
``**kwargs`` counts as passing every positional or keyword parameter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpwave"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def defaulted_parameters(source: str) -> dict:
    """{(callable name, parameter): first positional slot or None} for every
    defaulted parameter of a function or method in ``source``.  A method's
    slots skip ``self`` or ``cls`` (the package has no static methods); an
    ``__init__`` is named by its class."""
    found = {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                skip = 0 if cls is None else 1
                name = cls if child.name == "__init__" else child.name
                for slot, arg in enumerate(positional):
                    if slot >= len(positional) - len(args.defaults):
                        found[(name, arg.arg)] = slot - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[(name, arg.arg)] = None
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def supplied(sources) -> tuple:
    """({name: most positional arguments any call passes}, {(name,
    keyword)}) over the calls in ``sources``; unpacking counts as
    unbounded."""
    positional, keywords = {}, set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            count = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                count = float("inf")
            positional[name] = max(positional.get(name, 0), count)
            for kw in node.keywords:
                keywords.add((name, kw.arg))    # kw.arg is None for **kwargs
    return positional, keywords


def unsupplied(definitions, callers) -> list:
    """"name(parameter)" for every defaulted parameter in the sources
    ``definitions`` that no call in the sources ``callers`` passes."""
    positional, keywords = supplied(callers)
    return sorted(
        f"{name}({param})" for source in definitions
        for (name, param), slot in defaulted_parameters(source).items()
        if not ((slot is not None and positional.get(name, 0) > slot)
                or (name, param) in keywords or (name, None) in keywords))


def test_every_defaulted_parameter_is_supplied():
    callers = [p.read_text() for root in CALLERS
               for p in sorted(root.rglob("*.py"))]
    definitions = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unsupplied(definitions, callers) == []


def test_checker_flags_an_unsupplied_default():
    definitions = ("def f(a, b=1, c=2, *, d=3, e=4):\n"
                   "    pass\n"
                   "\n"
                   "class C:\n"
                   "    def __init__(self, x, y=0, z=0):\n"
                   "        pass\n"
                   "\n"
                   "    def g(self, u=0, v=0):\n"
                   "        pass\n")
    callers = ["f(0, 1, d=5)\n",
               "C(1, z=2)\n",
               "obj.g(*args)\n"]
    assert unsupplied([definitions], callers) == ["C(y)", "f(c)", "f(e)"]
