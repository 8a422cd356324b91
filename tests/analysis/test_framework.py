"""Framework-level tests: context, suppressions, baseline, reporters, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, Severity, all_rules, analyze_paths, get_rule
from repro.analysis.context import module_name_for
from repro.analysis.engine import AnalysisReport, collect_files
from repro.analysis.reporters import JSON_REPORT_VERSION, render, render_json, render_text
from tests.analysis.snippets import analyze_source
from repro.analysis.suppressions import extract_suppressions
from repro.exceptions import ConfigurationError


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for(Path("src/repro/simulation/engine.py")) == "repro.simulation.engine"

    def test_absolute_path_with_src(self):
        path = Path("/work/repo/src/repro/utils/rng.py")
        assert module_name_for(path) == "repro.utils.rng"

    def test_package_init_names_the_package(self):
        assert module_name_for(Path("src/repro/analysis/__init__.py")) == "repro.analysis"

    def test_repro_anchor_without_src(self):
        assert module_name_for(Path("repro/checkpoint/manager.py")) == "repro.checkpoint.manager"

    def test_outside_tree_is_none(self):
        assert module_name_for(Path("scripts/somewhere.py")) is None
        assert module_name_for(Path("docs/README.md")) is None


class TestSuppressions:
    def test_same_line(self):
        source = "import time\nx = time.time()  # repro: allow[DET002] profiling\n"
        assert extract_suppressions(source) == {2: frozenset({"DET002"})}

    def test_own_line_covers_next_line(self):
        source = "# repro: allow[SER001] cache\nx = 1\n"
        suppressions = extract_suppressions(source)
        assert suppressions[1] == frozenset({"SER001"})
        assert suppressions[2] == frozenset({"SER001"})

    def test_multiple_ids_and_reason_text(self):
        source = "y = f()  # repro: allow[DET001, DET002] legacy path, see #42\n"
        assert extract_suppressions(source) == {1: frozenset({"DET001", "DET002"})}

    def test_marker_inside_string_is_ignored(self):
        source = 's = "# repro: allow[DET001]"\n'
        assert extract_suppressions(source) == {}

    def test_suppression_silences_finding(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro: allow[DET001] test fixture\n"
        )
        findings = analyze_source(source, filename="src/repro/simulation/f.py")
        assert findings == []

    def test_wrong_id_does_not_silence(self):
        source = (
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro: allow[DET002] wrong rule\n"
        )
        findings = analyze_source(source, filename="src/repro/simulation/f.py")
        assert [f.rule for f in findings] == ["DET001"]


class TestBaseline:
    def _finding(self, rule="DET001", path="src/a.py", code="x = 1"):
        return Finding(
            rule=rule, severity=Severity.ERROR, path=path, line=3, column=0,
            message="m", code=code,
        )

    def test_round_trip(self, tmp_path):
        findings = [self._finding(), self._finding(rule="SER001", code="y = 2")]
        saved = Baseline.from_findings(findings).save(tmp_path / "base.json")
        fresh, grandfathered = Baseline.load(saved).split(findings)
        assert fresh == []
        assert grandfathered == findings

    def test_matching_ignores_line_numbers(self, tmp_path):
        saved = Baseline.from_findings([self._finding()]).save(tmp_path / "base.json")
        moved = Finding(
            rule="DET001", severity=Severity.ERROR, path="src/a.py",
            line=99, column=4, message="m", code="x = 1",
        )
        fresh, grandfathered = Baseline.load(saved).split([moved])
        assert fresh == []
        assert grandfathered == [moved]

    def test_each_entry_absorbs_exactly_one_finding(self, tmp_path):
        saved = Baseline.from_findings([self._finding()]).save(tmp_path / "base.json")
        duplicated = [self._finding(), self._finding()]
        fresh, grandfathered = Baseline.load(saved).split(duplicated)
        assert len(grandfathered) == 1
        assert len(fresh) == 1

    def test_malformed_documents_fail_loudly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ConfigurationError):
            Baseline.load(bad)
        bad.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ConfigurationError):
            Baseline.load(bad)
        bad.write_text("not json")
        with pytest.raises(ConfigurationError):
            Baseline.load(bad)


class TestReporters:
    def _report(self):
        finding = Finding(
            rule="DET001", severity=Severity.ERROR, path="src/a.py",
            line=3, column=4, message="bad rng", code="x = rand()",
        )
        warning = Finding(
            rule="API001", severity=Severity.WARNING, path="src/b.py",
            line=1, column=0, message="no docstring", code="def f():",
        )
        return AnalysisReport(
            findings=[finding, warning], files_scanned=2, suppressed=1, baselined=2,
        )

    def test_text_format(self):
        text = render_text(self._report())
        assert "src/a.py:3:4: DET001 error: bad rng" in text
        assert "analysis FAILED: 2 finding(s) (1 error(s), 1 warning(s))" in text
        assert "1 suppressed, 2 baselined" in text

    def test_text_ok_summary(self):
        text = render_text(AnalysisReport(files_scanned=5))
        assert text.startswith("analysis OK: 0 findings")

    def test_json_schema(self):
        document = json.loads(render_json(self._report()))
        assert document["version"] == JSON_REPORT_VERSION
        assert document["files_scanned"] == 2
        assert document["summary"] == {
            "errors": 1, "warnings": 1, "suppressed": 1, "baselined": 2,
        }
        row = document["findings"][0]
        assert set(row) == {"rule", "severity", "path", "line", "column", "message", "code"}
        assert row["rule"] == "DET001"
        assert row["severity"] == "error"
        assert row["line"] == 3

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            render(self._report(), "yaml")


class TestEngine:
    def test_collect_files_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.md").write_text("hello\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("x = 1\n")
        files = collect_files([tmp_path, tmp_path / "b.py"])
        assert [f.name for f in files] == ["a.md", "b.py"]

    def test_missing_target_raises(self):
        with pytest.raises(ConfigurationError):
            collect_files(["/nonexistent/very/unlikely"])

    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = analyze_paths([bad])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "SYNTAX"
        assert not report.ok

    def test_baseline_filters_report(self, tmp_path):
        source = "import numpy as np\nx = np.random.rand()\n"
        target = tmp_path / "src" / "repro" / "simulation" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        report = analyze_paths([target])
        assert [f.rule for f in report.findings] == ["DET001"]
        baseline = Baseline.from_findings(report.findings)
        rerun = analyze_paths([target], baseline=baseline)
        assert rerun.ok
        assert rerun.baselined == 1

    def test_rule_filter(self, tmp_path):
        source = "import numpy as np\nimport time\nx = np.random.rand()\nt = time.time()\n"
        findings = analyze_source(
            source, filename="src/repro/simulation/mod.py", rules=[get_rule("DET002")]
        )
        assert [f.rule for f in findings] == ["DET002"]


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        for expected in (
            "DET001", "DET002", "DET003", "SER001", "SER002",
            "POOL001", "POOL002", "API001", "DOC001",
        ):
            assert expected in ids

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            get_rule("NOPE999")

    def test_rules_have_summaries_and_severities(self):
        for rule in all_rules():
            assert rule.summary
            assert rule.severity in (Severity.ERROR, Severity.WARNING)
