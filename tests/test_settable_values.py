"""A ceiling on the package's settable values.

A settable value is a parameter with a default (of any function, method or
lambda) or a dataclass field with a default, in ``src/wavetrain``. Each one is
an input a caller can leave unstated, so each is a second place a run's
inputs can come from. The count may only fall: lower ``CEILING`` when a
change removes some, and raise it only with a change that needs a new
default and says why.
"""

import ast
from pathlib import Path

CEILING = 70

SRC = Path(__file__).resolve().parent.parent / "src" / "wavetrain"


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(root=SRC):
    """(parameters with a default, dataclass fields with a default)."""
    params = fields = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                params += len(args.defaults) + sum(
                    d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(stmt, ast.AnnAssign)
                              and stmt.value is not None
                              for stmt in node.body)
    return params, fields


def test_settable_values_stay_under_the_ceiling():
    params, fields = settable_values()
    assert params + fields <= CEILING, (
        f"{params} parameters and {fields} dataclass fields with a default "
        f"({params + fields}) exceed the ceiling {CEILING}")


def test_the_count_sees_every_kind_of_default(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "import dataclasses\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "g = lambda x=0: x\n"
        "class K:\n"
        "    def m(self, y=None): pass\n"
        "@dataclass\n"
        "class D:\n"
        "    u: int\n"
        "    v: int = 0\n"
        "    w: list = field(default_factory=list)\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class E:\n"
        "    z: float = 1.0\n"
        "class Plain:\n"
        "    q: int = 3\n")
    assert settable_values(tmp_path) == (4, 3)
