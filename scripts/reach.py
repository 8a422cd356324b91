"""Reach audit: every function under ``src/repro`` is entered by a non-test entry point.

    PYTHONPATH=src python scripts/reach.py

Runs the repository's non-test entry points -- the figure benchmarks, the
examples, a plain and a traced repeat of each perf workload and the ``scripts/ci.sh`` stages
listed in ``CI_STAGES``, in two lanes side by side -- with a profile hook in
every Python process they start (pool children included), then compares the functions entered with an
``ast`` inventory of ``src/repro``.  It exits non-zero when

* a function was never entered and ``scripts/reach_allowlist.txt`` does not
  list it, or
* an allowlist entry is stale: its function was entered, or no longer exists.

So the allowlist can only shrink.  Each allowlist line is
``module:qualname  # reason``; a line without a reason is refused.

The hook is a ``sitecustomize`` module written to a temporary directory that
is prepended to ``PYTHONPATH``.  It installs ``sys.setprofile`` (and
``threading.setprofile``), re-installs both in forked children, and appends
each ``src/repro`` code object to a per-process log the first time that
process enters it, with an unbuffered write: pool children leave through
``os._exit``, so nothing may wait for ``atexit``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "scripts" / "reach_allowlist.txt"

#: ``scripts/ci.sh`` stages whose commands count as entry points.  ``test``,
#: ``lint`` and ``bench`` are left out: the first two enter code only through
#: tests or not at all, and ``bench`` is a test file.
CI_STAGES = ("gradcheck", "smoke", "determinism", "checkpoint", "fuzz", "analysis", "docs")

#: Examples that take a tiny ``--smoke`` setting; the others run as they are.
SMOKE_EXAMPLES = ("async_gossip.py", "churn_partition.py", "parallel_sweep.py")

#: One plain and one traced repeat of every perf workload, in one process
#: (a traced repeat's span counters read what the workload returns).
#: Straight to ``execute``: ``benchmarks/perf/run.py`` resets its worker's
#: ``PYTHONPATH`` (which would drop the hook) and times repeats this audit
#: does not need.
PERF_WORKLOADS = """
import tempfile
from pathlib import Path

from benchmarks.perf import spans
from benchmarks.perf.workloads import WORKLOADS

for name, workload in WORKLOADS.items():
    with tempfile.TemporaryDirectory() as scratch:
        workload.execute(7, Path(scratch))
        tracer = spans.Tracer()
        installed = spans.install(tracer)
        try:
            workload.execute(7, Path(scratch), tracer=tracer)
        finally:
            installed.restore()
    print(f"perf workload {name}: executed", flush=True)
"""

HOOK = '''\
import os
import sys
import threading

_SOURCE = {source!r}
_LOGS = {logs!r}
_seen = set()
_log = [None, None]


def _record(code):
    filename = os.path.abspath(code.co_filename)
    if not filename.startswith(_SOURCE):
        return
    pid = os.getpid()
    if _log[0] != pid:
        _log[0] = pid
        _log[1] = os.open(
            os.path.join(_LOGS, f"{{pid}}.log"), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
    line = f"{{filename}}\\t{{code.co_firstlineno}}\\t{{code.co_name}}\\n"
    os.write(_log[1], line.encode("utf-8"))


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            _record(code)


def _install():
    sys.setprofile(_profile)
    threading.setprofile(_profile)


_install()
os.register_at_fork(after_in_child=_install)
'''

Key = tuple[str, int, str]


@dataclass(frozen=True)
class Function:
    """One ``def`` in the inventory."""

    module: str
    qualname: str
    path: str
    first_line: int
    last_line: int

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def key(self) -> Key:
        return (self.path, self.first_line, self.qualname.rsplit(".", 1)[-1])

    @property
    def lines(self) -> int:
        return self.last_line - self.first_line + 1


def _functions_in(tree: ast.AST, module: str, path: str) -> list[Function]:
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                # ``co_firstlineno`` of a decorated function is its first
                # decorator's line.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(Function(module, qualname, path, first, child.end_lineno or first))
                visit(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def inventory_source(source: str, module: str, path: str) -> list[Function]:
    """Every function and method defined in one module's source text."""

    return _functions_in(ast.parse(source), module, path)


def inventory(root: Path = SOURCE) -> list[Function]:
    """Every ``def`` (methods and nested defs included) under ``root``."""

    functions: list[Function] = []
    for file in sorted(root.rglob("*.py")):
        parts = file.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        source = file.read_text(encoding="utf-8")
        functions.extend(inventory_source(source, module, str(file)))
    return functions


def parse_allowlist(text: str) -> dict[str, str]:
    """``{module:qualname: reason}``; a line without a ``# reason`` is refused."""

    entries: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        name, reason = name.strip(), reason.strip()
        if not reason:
            raise ValueError(f"allowlist line {number}: {name!r} has no '# reason'")
        if ":" not in name or " " in name:
            raise ValueError(f"allowlist line {number}: {name!r} is not module:qualname")
        if name in entries:
            raise ValueError(f"allowlist line {number}: {name!r} is listed twice")
        entries[name] = reason
    return entries


def check(
    functions: list[Function], reached: set[Key], allowlist: dict[str, str]
) -> tuple[list[Function], list[str]]:
    """``(unreached functions the allowlist does not list, stale entries)``.

    An entry is stale when no function of that name is left unreached:
    either every one was entered or none exists any more.
    """

    unreached = [function for function in functions if function.key not in reached]
    missing = [function for function in unreached if function.name not in allowlist]
    still_unreached = {function.name for function in unreached}
    stale = [name for name in allowlist if name not in still_unreached]
    return missing, stale


def read_logs(directory: Path) -> set[Key]:
    reached: set[Key] = set()
    for log in directory.glob("*.log"):
        for line in log.read_text(encoding="utf-8").splitlines():
            path, first_line, name = line.split("\t")
            reached.add((path, int(first_line), name))
    return reached


Command = tuple[str, list[str]]


def entry_points() -> list[list[Command]]:
    """The entry points in two lanes of about equal length, run side by side."""

    python = sys.executable
    figures: list[Command] = [
        (
            "figure benchmarks",
            [python, "-m", "pytest", "benchmarks", "--ignore=benchmarks/perf",
             "--benchmark-disable", "-p", "no:cacheprovider", "-q"],
        )
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        smoke = ["--smoke"] if example.name in SMOKE_EXAMPLES else []
        figures.append((f"example {example.name}", [python, str(example), *smoke]))
    stages: list[Command] = [
        ("perf workloads", [python, "-c", PERF_WORKLOADS]),
        (f"ci.sh {' '.join(CI_STAGES)}", ["bash", "scripts/ci.sh", *CI_STAGES]),
    ]
    return [figures, stages]


def _run_lane(lane: list[Command], env: dict[str, str], failures: list[str]) -> None:
    for label, command in lane:
        started = time.monotonic()
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, check=False,
        )
        if completed.returncode != 0:
            failures.append(
                f"{completed.stdout[-4000:]}\n"
                f"reach: entry point {label!r} failed ({completed.returncode})"
            )
            return
        print(f"reach: {label} ({time.monotonic() - started:.0f}s)", flush=True)


def run_entry_points(logs: Path, hook_dir: Path) -> None:
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(source=str(SOURCE) + os.sep, logs=str(logs)), encoding="utf-8"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    failures: list[str] = []
    lanes = [
        threading.Thread(target=_run_lane, args=(lane, env, failures))
        for lane in entry_points()
    ]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join()
    if failures:
        raise SystemExit("\n".join(failures))


def main() -> int:
    allowlist = parse_allowlist(ALLOWLIST.read_text(encoding="utf-8"))
    functions = inventory()
    with tempfile.TemporaryDirectory() as logs, tempfile.TemporaryDirectory() as hook_dir:
        run_entry_points(Path(logs), Path(hook_dir))
        reached = read_logs(Path(logs))
    missing, stale = check(functions, reached, allowlist)
    entered = sum(function.key in reached for function in functions)
    print(
        f"reach: {len(functions)} functions under src/repro, {entered} entered, "
        f"{len(allowlist)} allowlisted"
    )
    for function in missing:
        relative = Path(function.path).relative_to(ROOT)
        print(
            f"  unreached: {function.name} ({relative}:{function.first_line}, "
            f"{function.lines} lines) -- reach it, delete it or allowlist it with a reason"
        )
    for name in stale:
        print(f"  stale allowlist entry: {name} -- it is entered or gone; delete the line")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
