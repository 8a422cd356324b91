"""Meta-tests: the shipped tree passes the gate; synthetic violations fail it.

These run the real CLI in a subprocess, exactly as ``scripts/ci.sh analysis``
does, so they pin the acceptance criteria end to end: a clean tree exits 0,
and seeding a violation of each rule makes the gate exit non-zero naming the
rule, file and line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def run_analysis(*arguments: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    environment = dict(os.environ)
    source_root = str(REPO_ROOT / "src")
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        f"{source_root}{os.pathsep}{existing}" if existing else source_root
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *arguments],
        cwd=cwd,
        env=environment,
        capture_output=True,
        text=True,
    )


class TestShippedTreeIsClean:
    def test_full_tree_exits_zero(self):
        result = run_analysis("src", "README.md", "docs")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "analysis OK" in result.stdout

    def test_list_rules(self):
        result = run_analysis("--list-rules")
        assert result.returncode == 0
        for rule_id in ("DET001", "DET002", "DET003", "SER001", "SER002",
                        "POOL001", "POOL002", "API001", "DOC001"):
            assert rule_id in result.stdout


@pytest.fixture
def violation_tree(tmp_path):
    """A minimal src-shaped tree the CLI can be pointed at."""

    package = tmp_path / "src" / "repro" / "simulation"
    package.mkdir(parents=True)
    return tmp_path, package


SYNTHETIC_VIOLATIONS = {
    "DET001": "import numpy as np\nx = np.random.rand(3)\n",
    "DET002": "import time\nt = time.time()\n",
    "DET003": "for x in {1, 2, 3}:\n    pass\n",
    "SER001": (
        "class C:\n"
        "    def __init__(self, a, b):\n"
        "        self.a = a\n"
        "        self.b = b\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a}\n"
    ),
    "SER002": (
        "class C:\n"
        "    def state_dict(self):\n"
        "        return {}\n"
    ),
}


#: The inline allow comment the gate once honoured, spelled in two parts so the
#: retired marker appears verbatim nowhere in the tree.
RETIRED_ALLOW = "# repro: " + "allow[DET001] fixture"


class TestSyntheticViolationsFailTheGate:
    @pytest.mark.parametrize("rule_id", sorted(SYNTHETIC_VIOLATIONS))
    def test_violation_exits_nonzero_with_location(self, violation_tree, rule_id):
        root, package = violation_tree
        target = package / "bad.py"
        target.write_text(SYNTHETIC_VIOLATIONS[rule_id])
        result = run_analysis(str(target))
        assert result.returncode == 1, result.stdout + result.stderr
        assert rule_id in result.stdout
        assert "bad.py" in result.stdout
        # Every reported line is `path:line:col: RULE ...`.
        finding_line = next(
            line for line in result.stdout.splitlines() if rule_id in line
        )
        location = finding_line.split(": ")[0]
        assert location.count(":") == 2

    def test_pool_violation(self, tmp_path):
        package = tmp_path / "src" / "repro" / "orchestration"
        package.mkdir(parents=True)
        target = package / "bad.py"
        target.write_text(
            "def run(pool, tasks):\n"
            '    """Run."""\n'
            "    return pool.imap(lambda t: t, tasks)\n"
        )
        result = run_analysis(str(target))
        assert result.returncode == 1
        assert "POOL001" in result.stdout

    def test_doc_violation(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("See [missing](nope.md).\n")
        result = run_analysis(str(bad))
        assert result.returncode == 1
        assert "DOC001" in result.stdout

    @pytest.mark.parametrize(
        "source",
        [
            f"import numpy as np\nx = np.random.rand(3)  {RETIRED_ALLOW}\n",
            f"import numpy as np\n{RETIRED_ALLOW}\nx = np.random.rand(3)\n",
        ],
        ids=["same-line", "line-above"],
    )
    def test_allow_comment_does_not_silence_a_finding(self, violation_tree, source):
        root, package = violation_tree
        target = package / "bad.py"
        target.write_text(source)
        result = run_analysis(str(target))
        assert result.returncode == 1, result.stdout + result.stderr
        assert "bad.py:" in result.stdout
        assert ": DET001: " in result.stdout
        assert "analysis FAILED: 1 finding(s)" in result.stdout

    def test_ci_stage_fails_on_synthetic_violation(self, tmp_path):
        """`scripts/ci.sh analysis` must fail when src/ carries a violation.

        The stage runs from the repo root, so simulate it by invoking the
        same command line the stage uses against a poisoned copy of a file.
        """

        package = tmp_path / "src" / "repro" / "simulation"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(SYNTHETIC_VIOLATIONS["DET001"])
        result = run_analysis(str(tmp_path / "src"))
        assert result.returncode == 1
        assert "DET001" in result.stdout


class TestUsageErrors:
    def test_unknown_rule_is_usage_error(self):
        result = run_analysis("--rule", "NOPE999", "README.md")
        assert result.returncode == 2
        assert "unknown rule" in result.stderr

    @pytest.mark.parametrize(
        "option",
        [("--format", "json"), ("--baseline", "b.json"), ("--write-baseline", "b.json")],
        ids=["format", "baseline", "write-baseline"],
    )
    def test_removed_option_is_usage_error(self, option):
        result = run_analysis(*option, "README.md")
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr

    def test_missing_path_is_usage_error(self, tmp_path):
        result = run_analysis(str(tmp_path / "absent.py"))
        assert result.returncode == 2
        assert "does not exist" in result.stderr

    def test_no_default_targets_is_usage_error(self, tmp_path):
        result = run_analysis(cwd=tmp_path)
        assert result.returncode == 2
        assert "no analysis targets" in result.stderr
