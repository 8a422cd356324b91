"""Framework-level tests: context, text report, engine, registry."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Finding, all_rules, analyze_paths, get_rule
from repro.analysis.__main__ import render_text
from repro.analysis.context import module_name_for
from repro.analysis.engine import AnalysisReport, collect_files
from tests.analysis.snippets import analyze_source
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


#: The inline allow comment the gate once honoured, spelled in two parts so the
#: retired marker appears verbatim nowhere in the tree.
_ALLOW = "# repro: " + "allow"


class TestAllowCommentsAreInert:
    """Every shape the retired allow comment took still leaves the finding."""

    @pytest.mark.parametrize(
        "source",
        [
            f"import numpy as np\nx = np.random.rand(3)  {_ALLOW}[DET001] fixture\n",
            f"import numpy as np\n{_ALLOW}[DET001] fixture\nx = np.random.rand(3)\n",
            f"import numpy as np\nx = np.random.rand(3)  {_ALLOW}[DET001, DET002] legacy, see #42\n",
            f's = "{_ALLOW}[DET001]"\nimport numpy as np\nx = np.random.rand(3)\n',
        ],
        ids=["same-line", "line-above", "several-ids-with-reason", "inside-a-string"],
    )
    def test_finding_survives_the_comment(self, source):
        findings = analyze_source(source, filename="src/repro/simulation/f.py")
        rand_line = next(
            number
            for number, line in enumerate(source.splitlines(), start=1)
            if "np.random.rand" in line
        )
        assert [(f.rule, f.line) for f in findings] == [("DET001", rand_line)]


class TestReporters:
    def _report(self):
        findings = [
            Finding(rule="DET001", path="src/a.py", line=3, column=4, message="bad rng"),
            Finding(rule="API001", path="src/b.py", line=1, column=0, message="no docstring"),
        ]
        return AnalysisReport(findings=findings, files_scanned=2)

    def test_text_format(self):
        text = render_text(self._report())
        assert "src/a.py:3:4: DET001: bad rng" in text
        assert "src/b.py:1:0: API001: no docstring" in text
        assert text.endswith("analysis FAILED: 2 finding(s) in 2 file(s)")

    def test_text_ok_summary(self):
        text = render_text(AnalysisReport(files_scanned=5))
        assert text == "analysis OK: 0 findings in 5 file(s)"


class TestEngine:
    def test_collect_files_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.md").write_text("hello\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("x = 1\n")
        files = collect_files([tmp_path, tmp_path / "b.py"])
        assert [f.name for f in files] == ["a.md", "b.py"]

    def test_tooling_directories_are_not_descended(self, tmp_path):
        (tmp_path / "kept.py").write_text("x = 1\n")
        for skipped in (".git", ".pytest_cache", "node_modules"):
            (tmp_path / skipped).mkdir()
            (tmp_path / skipped / "hidden.py").write_text("x = 1\n")
        assert [f.name for f in collect_files([tmp_path])] == ["kept.py"]

    def test_explicit_file_is_taken_whatever_its_suffix(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("plain text\n")
        (tmp_path / "other.txt").write_text("not collected from a directory\n")
        assert collect_files([notes]) == [notes]
        assert collect_files([tmp_path]) == []

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

    def test_every_finding_is_reported_in_location_order(self, tmp_path):
        package = tmp_path / "src" / "repro" / "simulation"
        package.mkdir(parents=True)
        (package / "b.py").write_text("import numpy as np\nx = np.random.rand()\n")
        (package / "a.py").write_text(
            "import numpy as np\nimport time\nt = time.time()\nx = np.random.rand()\n"
        )
        report = analyze_paths([tmp_path / "src"])
        located = [(Path(f.path).name, f.line, f.rule) for f in report.findings]
        assert located == [("a.py", 3, "DET002"), ("a.py", 4, "DET001"), ("b.py", 2, "DET001")]
        assert report.files_scanned == 2
        assert not report.ok

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

    def test_rules_have_summaries(self):
        for rule in all_rules():
            assert rule.summary
