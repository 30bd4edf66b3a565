"""Every config field is read somewhere in the package.

A field of a config block's dataclass (``cli.SCHEMA``) or of ``ModelParams``
that no module in ``src/qpwave/`` reads as an attribute, apart from the
class's own ``__post_init__`` (its range check), is a setting that changes
nothing.  Reads are matched by attribute name, so a field shares its reads
with any other attribute of the same name.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from qpwave import cli
from qpwave.spectrum import ModelParams

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qpwave"
CLASSES = sorted({*cli.SCHEMA, ModelParams}, key=lambda c: c.__name__)


def attribute_reads(source: str) -> dict:
    """{name: owners} of every attribute read ``x.name`` in ``source``; the
    owner is the class whose ``__post_init__`` holds the read, or None."""
    reads = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(node, ast.ClassDef) and \
                    isinstance(child, ast.FunctionDef) and \
                    child.name == "__post_init__":
                inner = node.name
            if isinstance(child, ast.Attribute) and \
                    isinstance(child.ctx, ast.Load):
                reads.setdefault(child.attr, set()).add(inner)
            visit(child, inner)

    visit(ast.parse(source), None)
    return reads


def unread_fields(classes: dict, sources) -> list:
    """"Class.field" for every field of ``classes`` ({class name: field
    names}) that no source reads outside the class's own ``__post_init__``."""
    reads = {}
    for source in sources:
        for name, owners in attribute_reads(source).items():
            reads.setdefault(name, set()).update(owners)
    return [f"{cls}.{name}" for cls, names in classes.items() for name in names
            if not reads.get(name, set()) - {cls}]


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_every_field_is_read(cls):
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    fields = [f.name for f in dataclasses.fields(cls)]
    assert unread_fields({cls.__name__: fields}, sources) == []


def test_checker_flags_an_unread_field():
    source = ("class C:\n"
              "    def __post_init__(self):\n"
              "        check(self.used, self.unread)\n"
              "\n"
              "def use(c):\n"
              "    return c.used\n")
    assert unread_fields({"C": ["used", "unread"]}, [source]) == ["C.unread"]
