"""API001: public orchestration/checkpoint surface must be documented.

These two packages are the repo's operator-facing API (sweep specs, pool
execution, snapshot/restore); every public function and method there needs a
docstring so ``--list-rules``-style introspection and the architecture docs
stay truthful.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.core import Finding, Rule, register_rule


def _is_public(name: str) -> bool:
    return not name.startswith("_")


@register_rule
class PublicApiDocstrings(Rule):
    """API001: public functions/methods in the operator-facing packages
    must carry docstrings."""

    id = "API001"
    summary = (
        "public functions and methods in repro.orchestration/repro.checkpoint "
        "must have docstrings"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_in("repro.orchestration", "repro.checkpoint")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not _is_public(node.name) or ast.get_docstring(node) is not None:
            return
        parent = ctx.parents.get(node)
        if isinstance(parent, ast.ClassDef):
            # Public method of a public class (private classes are internal).
            if not _is_public(parent.name):
                return
            if not self._at_top_level(parent, ctx):
                return
            kind = f"method {parent.name}.{node.name}"
        elif isinstance(parent, ast.Module):
            kind = f"function {node.name}"
        else:
            # Nested functions are implementation detail, not API surface.
            return
        # Property setters/deleters share the getter's docstring.
        for decorator in node.decorator_list:
            if (
                isinstance(decorator, ast.Attribute)
                and decorator.attr in {"setter", "deleter"}
            ):
                return
        yield self.finding(
            ctx,
            node.lineno,
            node.col_offset,
            f"public {kind} has no docstring",
        )

    @staticmethod
    def _at_top_level(cls: ast.ClassDef, ctx: FileContext) -> bool:
        return isinstance(ctx.parents.get(cls), ast.Module)
