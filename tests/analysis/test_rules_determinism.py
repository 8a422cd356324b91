"""Must-flag / must-not-flag fixtures for DET001, DET002 and DET003."""

from __future__ import annotations

from repro.analysis import get_rule
from tests.analysis.snippets import analyze_source

ENGINE = "src/repro/simulation/engine.py"


def rules_of(findings):
    return [f.rule for f in findings]


class TestDet001GlobalRng:
    def run(self, source, filename=ENGINE):
        return analyze_source(source, filename=filename, rules=[get_rule("DET001")])

    def test_flags_numpy_global_functions(self):
        findings = self.run("import numpy as np\nx = np.random.rand(3)\n")
        assert rules_of(findings) == ["DET001"]
        assert findings[0].line == 2

    def test_flags_stdlib_random(self):
        assert rules_of(self.run("import random\nx = random.random()\n")) == ["DET001"]

    def test_flags_from_import(self):
        source = "from random import shuffle\nshuffle([1, 2])\n"
        assert rules_of(self.run(source)) == ["DET001"]

    def test_flags_os_urandom(self):
        assert rules_of(self.run("import os\nx = os.urandom(8)\n")) == ["DET001"]

    def test_flags_unseeded_default_rng(self):
        source = "import numpy as np\ng = np.random.default_rng()\n"
        assert rules_of(self.run(source)) == ["DET001"]

    def test_allows_seeded_default_rng(self):
        source = "import numpy as np\ng = np.random.default_rng(1234)\n"
        assert self.run(source) == []

    def test_allows_injected_generator_methods(self):
        source = "def f(rng):\n    return rng.random(3)\n"
        assert self.run(source) == []

    def test_allows_local_variable_shadowing_random(self):
        source = "def f(random):\n    return random.choice([1])\n"
        # `random` here is a parameter, not the stdlib module: no import binds it.
        assert self.run(source) == []

    def test_sanctioned_seeding_module_exempt(self):
        source = "import numpy as np\ng = np.random.default_rng()\n"
        assert self.run(source, filename="src/repro/utils/rng.py") == []

    def test_outside_repro_tree_exempt(self):
        source = "import random\nx = random.random()\n"
        assert self.run(source, filename="examples/demo.py") == []


class TestDet002WallClock:
    def run(self, source, filename=ENGINE):
        return analyze_source(source, filename=filename, rules=[get_rule("DET002")])

    def test_flags_time_time_call(self):
        findings = self.run("import time\nt = time.time()\n")
        assert rules_of(findings) == ["DET002"]

    def test_flags_perf_counter_reference_without_call(self):
        # A default argument smuggles the clock without ever calling it here.
        source = "import time\ndef f(clock=time.perf_counter):\n    return clock()\n"
        assert rules_of(self.run(source)) == ["DET002"]

    def test_flags_from_import_reference(self):
        source = "from time import monotonic\nt = monotonic()\n"
        findings = self.run(source)
        assert rules_of(findings) == ["DET002"]
        assert findings[0].line == 2

    def test_flags_datetime_now(self):
        source = "import datetime\nt = datetime.datetime.now()\n"
        assert rules_of(self.run(source)) == ["DET002"]

    def test_allows_time_sleep(self):
        assert self.run("import time\ntime.sleep(0)\n") == []

    def test_utils_package_flagged(self):
        # Only repro.observability may read the wall clock: no module under
        # repro.utils is exempt, the former phase-timer module included.
        source = "import time\nt = time.perf_counter()\n"
        findings = self.run(source, filename="src/repro/utils/profiling.py")
        assert rules_of(findings) == ["DET002"]
        assert "repro.observability" in findings[0].message

    def test_observability_package_exempt(self):
        # The trace emitter's wall-clock timestamps are the sanctioned reason
        # the observability layer reads real time.
        source = "import time\nstamp = time.time()\n"
        assert self.run(source, filename="src/repro/observability/trace.py") == []
        assert self.run(source, filename="src/repro/observability/metrics.py") == []

    def test_observability_lookalike_module_still_flagged(self):
        # Only the real package is sanctioned; a sibling named to resemble it
        # (repro.observability_extras) must not inherit the exemption.
        source = "import time\nstamp = time.time()\n"
        findings = self.run(source, filename="src/repro/observability_extras.py")
        assert rules_of(findings) == ["DET002"]


class TestDet003UnorderedIteration:
    def run(self, source, filename=ENGINE):
        return analyze_source(source, filename=filename, rules=[get_rule("DET003")])

    def test_flags_for_over_set_literal(self):
        assert rules_of(self.run("for x in {1, 2, 3}:\n    pass\n")) == ["DET003"]

    def test_flags_for_over_set_call(self):
        assert rules_of(self.run("for x in set(items):\n    pass\n")) == ["DET003"]

    def test_flags_comprehension_over_set(self):
        assert rules_of(self.run("y = [x for x in {1, 2}]\n")) == ["DET003"]

    def test_flags_set_union(self):
        source = "for x in set(a) | set(b):\n    pass\n"
        assert rules_of(self.run(source)) == ["DET003"]

    def test_flags_through_enumerate(self):
        source = "for i, x in enumerate({1, 2}):\n    pass\n"
        assert rules_of(self.run(source)) == ["DET003"]

    def test_allows_sorted_wrapper(self):
        assert self.run("for x in sorted(set(items)):\n    pass\n") == []

    def test_allows_list_iteration(self):
        assert self.run("for x in [1, 2, 3]:\n    pass\n") == []

    def test_allows_dict_iteration(self):
        # Python dicts are insertion-ordered; only sets are arbitrary.
        assert self.run("for k in {'a': 1}:\n    pass\n") == []

    def test_only_replay_critical_modules_in_scope(self):
        source = "for x in {1, 2, 3}:\n    pass\n"
        assert self.run(source, filename="src/repro/compression/wire.py") == []
        assert rules_of(self.run(source, filename="src/repro/checkpoint/manager.py")) == ["DET003"]
        assert rules_of(self.run(source, filename="src/repro/orchestration/pool.py")) == ["DET003"]
