"""Per-file analysis context: source, AST, imports and name resolution.

The context is built once per file and shared by every rule, so expensive
work (parsing, the parent map, the import table) happens a single time
regardless of how many rules run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FileContext", "module_name_for"]


def module_name_for(path: Path) -> str | None:
    """Dotted module name for ``path``, or ``None`` outside the package tree.

    The name is derived purely from the path: the part after the last ``src``
    component (the repo layout), or from the first ``repro`` component when no
    ``src`` anchor is present (installed trees, test fixtures).
    """

    parts = list(path.parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    start = None
    if "src" in parts[:-1]:
        last_src = len(parts) - 2 - parts[:-1][::-1].index("src")
        start = last_src + 1
    elif "repro" in parts[:-1]:
        start = parts.index("repro")
    if start is None or start >= len(parts):
        return None
    module_parts = parts[start:]
    module_parts[-1] = module_parts[-1][: -len(".py")]
    if module_parts[-1] == "__init__":
        module_parts.pop()
    if not module_parts:
        return None
    return ".".join(module_parts)


@dataclass
class FileContext:
    """Everything rules can know about one file."""

    path: Path
    #: Path as reported in findings (relative to the invocation cwd).
    display_path: str
    #: Dotted module name (``repro.simulation.engine``) or ``None``.
    module: str | None
    source: str
    lines: list[str]
    tree: ast.Module | None = None
    #: Imported module bindings: local name -> dotted module
    #: (``import numpy as np`` -> ``{"np": "numpy"}``).
    imports: dict[str, str] = field(default_factory=dict)
    #: From-imported members: local name -> dotted origin
    #: (``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``).
    import_members: dict[str, str] = field(default_factory=dict)
    #: Child node -> parent node, for ancestry queries.
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def build(cls, path: Path, display_path: str, source: str) -> "FileContext":
        """Create a context; python files are parsed and indexed here.

        Raises :class:`SyntaxError` when a ``.py`` file does not parse — the
        engine converts that into a reportable finding.
        """

        ctx = cls(
            path=path,
            display_path=display_path,
            module=module_name_for(path),
            source=source,
            lines=source.splitlines(),
        )
        if path.suffix == ".py":
            ctx.tree = ast.parse(source, filename=str(path))
            ctx._index_tree()
        return ctx

    def _index_tree(self) -> None:
        assert self.tree is not None
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
            if isinstance(parent, ast.Import):
                for alias in parent.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b.c` binds `a`; `import a.b as m` binds `a.b`.
                    self.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(parent, ast.ImportFrom):
                origin = self._import_from_origin(parent)
                if origin is None:
                    continue
                for alias in parent.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.import_members[local] = f"{origin}.{alias.name}"

    def _import_from_origin(self, node: ast.ImportFrom) -> str | None:
        """Absolute dotted origin of a ``from X import ...`` statement."""

        if node.level == 0:
            return node.module
        if self.module is None:
            return None
        package_parts = self.module.split(".")
        # level 1 = the containing package of this module, each extra level
        # climbs one package higher.  A package's own module name (__init__)
        # already names its package, so one fewer part is dropped there.
        drop = node.level - 1 if self.path.name == "__init__.py" else node.level
        base = package_parts[: len(package_parts) - drop] if drop else package_parts
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    # -- helpers for rules ---------------------------------------------------------
    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of a name/attribute chain, via the import table.

        ``np.random.rand`` resolves to ``"numpy.random.rand"`` under
        ``import numpy as np``; names rooted in local variables (e.g. an
        injected ``rng``) resolve to ``None`` and are never flagged.
        """

        if isinstance(node, ast.Name):
            if node.id in self.import_members:
                return self.import_members[node.id]
            if node.id in self.imports:
                return self.imports[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def module_in(self, *prefixes: str) -> bool:
        """Whether this file's module is inside any of the dotted ``prefixes``."""

        if self.module is None:
            return False
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )
