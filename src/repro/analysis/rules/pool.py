"""POOL001: nothing unpicklable may cross the multiprocessing boundary.

The sweep pool ships tasks to workers with pickle; lambdas and functions
defined inside other functions cannot be pickled, so handing one to a pool
method (or storing one on a serializable object) fails only at runtime — and
only on the pool path, which the fast serial tests never exercise.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.core import Finding, Rule, register_rule

#: ``Pool`` / executor methods whose callable argument is pickled.
_POOL_METHODS = {
    "map",
    "imap",
    "imap_unordered",
    "apply",
    "apply_async",
    "map_async",
    "starmap",
    "starmap_async",
    "submit",
}

#: Methods marking the enclosing class as crossing serialization boundaries.
_SERIALIZABLE_MARKERS = {"to_dict", "state_dict", "__getstate__"}


def _enclosing_functions(node: ast.AST, ctx: FileContext) -> list[ast.AST]:
    chain = []
    current = ctx.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            chain.append(current)
        current = ctx.parents.get(current)
    return chain


@register_rule
class NoUnpicklableAcrossPool(Rule):
    """POOL001: no lambdas or nested functions handed to pool methods."""

    id = "POOL001"
    summary = (
        "no lambdas or locally-defined functions across the multiprocessing "
        "pool; use module-level functions"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_in("repro.orchestration", "repro.checkpoint")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS):
            return
        # Resolvable origins are module-level APIs (e.g. itertools.starmap
        # would still be suspicious, but no pool is involved); only flag
        # method calls on local objects, which is how pools appear here.
        if ctx.resolve(func) is not None:
            return
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        for argument in arguments:
            if isinstance(argument, ast.Lambda):
                yield self.finding(
                    ctx,
                    argument.lineno,
                    argument.col_offset,
                    f"lambda passed to pool method '{func.attr}' cannot be "
                    "pickled; use a module-level function",
                )
            elif isinstance(argument, ast.Name):
                # A name defined by a nested `def` in any enclosing function
                # is equally unpicklable.
                if self._names_local_function(argument, node, ctx):
                    yield self.finding(
                        ctx,
                        argument.lineno,
                        argument.col_offset,
                        f"locally-defined function '{argument.id}' passed to pool "
                        f"method '{func.attr}' cannot be pickled; move it to "
                        "module level",
                    )

    @staticmethod
    def _names_local_function(name: ast.Name, call: ast.Call, ctx: FileContext) -> bool:
        for scope in _enclosing_functions(call, ctx):
            if isinstance(scope, ast.Lambda):
                continue
            for stmt in ast.walk(scope):
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not scope
                    and stmt.name == name.id
                ):
                    return True
        return False


@register_rule
class NoLambdaOnSerializableState(Rule):
    """POOL002: no lambdas stored on objects that cross pickle boundaries.

    A lambda assigned to ``self.x`` inside a class that implements
    ``to_dict``/``state_dict``/``__getstate__`` will break the first time the
    instance is pickled to a worker or snapshotted.
    """

    id = "POOL002"
    summary = (
        "no lambdas stored as attributes of serializable classes "
        "(to_dict/state_dict/__getstate__)"
    )
    node_types = (ast.Assign,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_in("repro.orchestration", "repro.checkpoint")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Assign)
        if not isinstance(node.value, ast.Lambda):
            return
        stores_on_self = any(
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            for target in node.targets
        )
        if not stores_on_self:
            return
        # Find the enclosing class and check it crosses a pickle boundary.
        current = ctx.parents.get(node)
        while current is not None and not isinstance(current, ast.ClassDef):
            current = ctx.parents.get(current)
        if current is None:
            return
        marker_methods = {
            stmt.name
            for stmt in current.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if marker_methods.intersection(_SERIALIZABLE_MARKERS):
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"lambda stored on serializable class {current.name} cannot be "
                "pickled or snapshotted; use a module-level function",
            )
