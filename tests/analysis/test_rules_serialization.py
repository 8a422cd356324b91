"""Must-flag / must-not-flag fixtures for SER001 and SER002."""

from __future__ import annotations

from repro.analysis import get_rule
from tests.analysis.snippets import analyze_source

SIM = "src/repro/simulation/module.py"


def rules_of(findings):
    return [f.rule for f in findings]


class TestSer001ToDictCompleteness:
    def run(self, source, filename=SIM):
        return analyze_source(source, filename=filename, rules=[get_rule("SER001")])

    def test_flags_missing_attribute(self):
        source = (
            "class C:\n"
            "    def __init__(self, a, b):\n"
            "        self.a = a\n"
            "        self.b = b\n"
            "    def to_dict(self):\n"
            "        return {'a': self.a}\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["SER001"]
        assert findings[0].line == 4  # anchored at `self.b = b`
        assert "C.b" in findings[0].message

    def test_allows_complete_to_dict(self):
        source = (
            "class C:\n"
            "    def __init__(self, a, b):\n"
            "        self.a = a\n"
            "        self.b = b\n"
            "    def to_dict(self):\n"
            "        return {'a': self.a, 'b': self.b}\n"
        )
        assert self.run(source) == []

    def test_string_key_reference_counts(self):
        source = (
            "class C:\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n"
            "    def to_dict(self):\n"
            "        return {key: getattr_free(self) for key in ['a']}\n"
        )
        assert self.run(source) == []

    def test_fields_loop_is_wildcard_complete(self):
        source = (
            "from dataclasses import dataclass, fields\n"
            "@dataclass\n"
            "class C:\n"
            "    a: int\n"
            "    b: int\n"
            "    def to_dict(self):\n"
            "        return {f.name: getattr(self, f.name) for f in fields(self)}\n"
        )
        assert self.run(source) == []

    def test_dataclass_annotations_are_attrs(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class C:\n"
            "    a: int\n"
            "    b: int\n"
            "    def to_dict(self):\n"
            "        return {'a': self.a}\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["SER001"]
        assert "C.b" in findings[0].message

    def test_derived_fields_allowlist(self):
        source = (
            "class C:\n"
            "    _DERIVED_FIELDS = ('cache',)\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n"
            "        self.cache = {}\n"
            "    def to_dict(self):\n"
            "        return {'a': self.a}\n"
        )
        assert self.run(source) == []

    def test_private_attributes_exempt(self):
        source = (
            "class C:\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n"
            "        self._scratch = None\n"
            "    def to_dict(self):\n"
            "        return {'a': self.a}\n"
        )
        assert self.run(source) == []

    def test_class_without_to_dict_ignored(self):
        source = (
            "class C:\n"
            "    def __init__(self, a):\n"
            "        self.a = a\n"
        )
        assert self.run(source) == []


class TestSer002StateDictPairing:
    def run(self, source, filename=SIM):
        return analyze_source(source, filename=filename, rules=[get_rule("SER002")])

    def test_flags_state_dict_without_load(self):
        source = (
            "class C:\n"
            "    def state_dict(self):\n"
            "        return {}\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["SER002"]
        assert "without load_state_dict" in findings[0].message

    def test_flags_load_without_state_dict(self):
        source = (
            "class C:\n"
            "    def load_state_dict(self, state):\n"
            "        pass\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["SER002"]
        assert "without state_dict" in findings[0].message

    def test_allows_complete_pair(self):
        source = (
            "class C:\n"
            "    def state_dict(self):\n"
            "        return {}\n"
            "    def load_state_dict(self, state):\n"
            "        pass\n"
        )
        assert self.run(source) == []

    def test_flags_rng_holder_without_protocol(self):
        source = (
            "import numpy as np\n"
            "class C:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = np.random.default_rng(seed)\n"
        )
        findings = self.run(source)
        assert rules_of(findings) == ["SER002"]
        assert findings[0].line == 4

    def test_flags_injected_generator_param_stored(self):
        source = (
            "import numpy as np\n"
            "class C:\n"
            "    def __init__(self, rng: np.random.Generator | None = None):\n"
            "        self._rng = rng if rng is not None else np.random.default_rng(0)\n"
        )
        assert rules_of(self.run(source)) == ["SER002"]

    def test_rng_holder_with_protocol_is_clean(self):
        source = (
            "import numpy as np\n"
            "class C:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = np.random.default_rng(seed)\n"
            "    def state_dict(self):\n"
            "        return {'rng': self.rng.bit_generator.state}\n"
            "    def load_state_dict(self, state):\n"
            "        self.rng.bit_generator.state = state['rng']\n"
        )
        assert self.run(source) == []

    def test_rng_heuristic_scoped_to_stateful_modules(self):
        source = (
            "import numpy as np\n"
            "class C:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = np.random.default_rng(seed)\n"
        )
        # Dataset builders construct short-lived generators; out of scope.
        assert self.run(source, filename="src/repro/datasets/helper.py") == []

    def test_dataclasses_exempt_from_rng_heuristic(self):
        source = (
            "from dataclasses import dataclass\n"
            "import numpy as np\n"
            "@dataclass\n"
            "class C:\n"
            "    seed: int\n"
            "    def __post_init__(self):\n"
            "        pass\n"
        )
        assert self.run(source) == []
