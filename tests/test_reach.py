"""The reach audit's two pure parts: the def inventory and the allowlist check.

``scripts/reach.py`` keys every ``def`` under ``src/repro`` by (file, first
line, name) from the ``ast`` and matches it against the code objects a profile
hook saw entered.  These tests pin that the ``ast`` key is the key CPython
reports, and how the allowlist is parsed and judged.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = sys.modules.setdefault("reach", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(reach)  # registered first: its dataclass looks itself up

SOURCE = '''\
import functools


def plain():
    return 1


@functools.lru_cache(maxsize=None)
@staticmethod
def decorated():
    def nested():
        return 2

    return nested


class Holder:
    def method(self):
        return 3

    @property
    def value(self):
        return 4

    @value.setter
    def value(self, new):
        pass
'''


def _code_keys(code: types.CodeType, filename: str) -> set:
    """(file, co_firstlineno, co_name) of every function code object in ``code``."""

    keys = set()
    for constant in code.co_consts:
        if isinstance(constant, types.CodeType):
            if constant.co_name != "Holder":  # a class body is not a def
                keys.add((filename, constant.co_firstlineno, constant.co_name))
            keys |= _code_keys(constant, filename)
    return keys


def test_inventory_keys_are_the_code_object_keys_cpython_reports():
    filename = "/src/repro/example.py"
    functions = reach.inventory_source(SOURCE, "repro.example", filename)
    assert [function.qualname for function in functions] == [
        "plain",
        "decorated",
        "decorated.<locals>.nested",
        "Holder.method",
        "Holder.value",
        "Holder.value",
    ]
    assert {function.key for function in functions} == _code_keys(
        compile(SOURCE, filename, "exec"), filename
    )
    decorated = functions[1]
    assert decorated.key == (filename, 8, "decorated")  # the first decorator's line
    assert decorated.name == "repro.example:decorated"


def test_allowlist_refuses_a_line_without_a_reason():
    assert reach.parse_allowlist("# header\n\nrepro.a:f  # kept for a reason\n") == {
        "repro.a:f": "kept for a reason"
    }
    with pytest.raises(ValueError, match="no '# reason'"):
        reach.parse_allowlist("repro.a:f\n")
    with pytest.raises(ValueError, match="no '# reason'"):
        reach.parse_allowlist("repro.a:f  #   \n")
    with pytest.raises(ValueError, match="not module:qualname"):
        reach.parse_allowlist("f  # no module\n")
    with pytest.raises(ValueError, match="listed twice"):
        reach.parse_allowlist("repro.a:f  # one\nrepro.a:f  # two\n")


def test_check_reports_unlisted_unreached_functions_and_stale_entries():
    functions = reach.inventory_source(SOURCE, "repro.example", "/src/repro/example.py")
    entered = {function.key for function in functions if function.qualname != "plain"}
    # The property's getter is entered and its setter is not: one name, still unreached.
    entered.discard(functions[-1].key)
    allowlist = {
        "repro.example:Holder.value": "setter unreached",
        "repro.example:Holder.method": "entered, so stale",
        "repro.example:gone": "no such function, so stale",
    }
    missing, stale = reach.check(functions, entered, allowlist)
    assert [function.name for function in missing] == ["repro.example:plain"]
    assert stale == ["repro.example:Holder.method", "repro.example:gone"]
