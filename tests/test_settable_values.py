"""Ceilings on the package's settable values and on its command-line knobs.

A settable value is a parameter with a default (of any function, method or
lambda) or a dataclass field with a default, in ``src/wavetrain``. Each one is
an input a caller can leave unstated, so each is a second place a run's
inputs can come from. The same holds at the command line for each option of
a subcommand and each key a ``simulate`` config may hold. Each count may only
fall: lower its ceiling when a change removes some, and raise it only with a
change that needs a new knob and says why.
"""

import argparse
import ast
from pathlib import Path

from wavetrain import cli

CEILING = 51
OPTION_CEILING = 27
CONFIG_KEY_CEILING = 15

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


def cli_options():
    """The options of every subcommand, --help aside."""
    (commands,) = [action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return sum(not isinstance(action, argparse._HelpAction)
               for parser in commands.choices.values()
               for action in parser._actions)


def config_keys():
    """The leaf keys a ``simulate`` config may hold."""
    return sum(1 if keys is None else len(keys)
               for keys in cli._CONFIG_KEYS.values())


def test_cli_options_stay_under_the_ceiling():
    assert cli_options() <= OPTION_CEILING


def test_config_keys_stay_under_the_ceiling():
    assert config_keys() <= CONFIG_KEY_CEILING


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
