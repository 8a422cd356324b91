"""Must-flag / must-not-flag fixtures for POOL001, POOL002 and API001."""

from __future__ import annotations

from repro.analysis import get_rule
from tests.analysis.snippets import analyze_source

ORCH = "src/repro/orchestration/module.py"


def rules_of(findings):
    return [f.rule for f in findings]


class TestPool001UnpicklableCallables:
    def run(self, source, filename=ORCH):
        return analyze_source(source, filename=filename, rules=[get_rule("POOL001")])

    def test_flags_lambda_to_pool_method(self):
        source = (
            "def run(pool, tasks):\n"
            "    return list(pool.imap(lambda t: t, tasks))\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["POOL001"]
        assert findings[0].line == 2

    def test_flags_lambda_keyword_argument(self):
        source = (
            "def run(pool, tasks):\n"
            "    return pool.apply_async(func=lambda: 1)\n"
        )
        assert rules_of(self.run(source)) == ["POOL001"]

    def test_flags_nested_function_to_pool(self):
        source = (
            "def run(pool, tasks):\n"
            "    def worker(t):\n"
            "        return t\n"
            "    return list(pool.imap(worker, tasks))\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["POOL001"]
        assert "worker" in findings[0].message

    def test_allows_module_level_function(self):
        source = (
            "def _task(t):\n"
            "    return t\n"
            "def run(pool, tasks):\n"
            "    return list(pool.imap(_task, tasks))\n"
        )
        assert self.run(source) == []

    def test_allows_lambda_outside_pool_methods(self):
        source = (
            "def run(tasks):\n"
            "    return sorted(tasks, key=lambda t: t.name)\n"
        )
        assert self.run(source) == []

    def test_out_of_scope_module_exempt(self):
        source = (
            "def run(pool, tasks):\n"
            "    return list(pool.imap(lambda t: t, tasks))\n"
        )
        assert self.run(source, filename="src/repro/compression/x.py") == []


class TestPool002LambdaOnSerializableState:
    def run(self, source, filename=ORCH):
        return analyze_source(source, filename=filename, rules=[get_rule("POOL002")])

    def test_flags_lambda_attribute_on_serializable_class(self):
        source = (
            "class Spec:\n"
            "    def __init__(self):\n"
            "        self.factory = lambda: 1\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["POOL002"]
        assert findings[0].line == 3

    def test_allows_lambda_on_plain_class(self):
        source = (
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self.default = lambda: 1\n"
        )
        assert self.run(source) == []

    def test_allows_local_lambda_variable(self):
        source = (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        key = lambda t: t.name\n"
            "        return {}\n"
        )
        assert self.run(source) == []


class TestApi001Docstrings:
    def run(self, source, filename=ORCH):
        return analyze_source(source, filename=filename, rules=[get_rule("API001")])

    def test_flags_public_function_without_docstring(self):
        findings = self.run("def run(x):\n    return x\n")
        assert rules_of(findings) == ["API001"]
        assert (findings[0].line, findings[0].column) == (1, 0)

    def test_flags_public_method_without_docstring(self):
        source = (
            "class Manager:\n"
            '    """A manager."""\n'
            "    def restore(self):\n"
            "        pass\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["API001"]
        assert "Manager.restore" in findings[0].message

    def test_allows_documented_function(self):
        source = 'def run(x):\n    """Run it."""\n    return x\n'
        assert self.run(source) == []

    def test_allows_private_function_and_dunder(self):
        source = (
            "def _helper(x):\n"
            "    return x\n"
            "class Manager:\n"
            '    """A manager."""\n'
            "    def _internal(self):\n"
            "        pass\n"
        )
        assert self.run(source) == []

    def test_allows_methods_of_private_class(self):
        source = (
            "class _Worker:\n"
            "    def step(self):\n"
            "        pass\n"
        )
        assert self.run(source) == []

    def test_allows_nested_functions(self):
        source = (
            'def run(x):\n'
            '    """Run it."""\n'
            "    def inner(y):\n"
            "        return y\n"
            "    return inner(x)\n"
        )
        assert self.run(source) == []

    def test_allows_property_setter_sharing_getter_docstring(self):
        source = (
            "class C:\n"
            '    """A C."""\n'
            "    @property\n"
            "    def value(self):\n"
            '        """The value."""\n'
            "        return 1\n"
            "    @value.setter\n"
            "    def value(self, v):\n"
            "        pass\n"
        )
        assert self.run(source) == []

    def test_out_of_scope_module_exempt(self):
        source = "def run(x):\n    return x\n"
        assert self.run(source, filename="src/repro/compression/x.py") == []
