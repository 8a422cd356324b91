"""Serialization-completeness rules.

Checkpoint fidelity depends on two protocols staying complete as classes
grow fields: the ``to_dict``/``from_dict`` config codec and the
``state_dict``/``load_state_dict`` mutable-state protocol.  A field added to
``__init__`` but forgotten in ``to_dict`` silently truncates snapshots —
exactly the drift these rules make impossible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.core import Finding, Rule, register_rule

#: ``to_dict`` bodies calling any of these are treated as wildcard-complete —
#: they enumerate fields dynamically rather than naming them one by one.
_WILDCARD_CALLS = {"fields", "asdict", "getattr", "vars"}

#: Class attribute naming attrs that are deliberately not serialized
#: (caches, derived values): ``_DERIVED_FIELDS = ("x", ...)``.
_DERIVED_ATTR = "_DERIVED_FIELDS"


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
            return stmt
    return None


def _is_dataclass(cls: ast.ClassDef, ctx: FileContext) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        origin = ctx.resolve(target)
        if origin in {"dataclasses.dataclass", "dataclasses"}:
            return True
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _self_name(func: ast.FunctionDef) -> str | None:
    if func.args.args:
        return func.args.args[0].arg
    return None


def _init_attrs(cls: ast.ClassDef) -> dict[str, int]:
    """Attr name -> line of its first assignment (dataclass fields + __init__)."""

    attrs: dict[str, int] = {}
    # Dataclass-style annotated class attributes (skip ClassVar).
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            attrs.setdefault(stmt.target.id, stmt.lineno)
    init = _method(cls, "__init__")
    if init is not None:
        self_name = _self_name(init)
        if self_name is not None:
            for node in ast.walk(init):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        attrs.setdefault(target.attr, target.lineno)
    return attrs


def _derived_fields(cls: ast.ClassDef) -> set[str]:
    for stmt in cls.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == _DERIVED_ATTR:
                value = stmt.value
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    return {
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    }
    return set()


def _names_read_by_to_dict(func: ast.FunctionDef) -> tuple[set[str], bool]:
    """(names referenced in ``to_dict``, is it wildcard-complete?)."""

    self_name = _self_name(func)
    referenced: set[str] = set()
    wildcard = False
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
        ):
            referenced.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            referenced.add(node.value)
        elif isinstance(node, ast.Call):
            target = node.func
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name in _WILDCARD_CALLS:
                wildcard = True
    return referenced, wildcard


@register_rule
class ToDictCompleteness(Rule):
    """SER001: every ``__init__`` attribute must appear in ``to_dict``.

    Attributes are collected from dataclass field annotations and ``self.X``
    assignments in ``__init__``; ``to_dict`` satisfies a field by referencing
    ``self.X``, naming ``"X"`` as a string key, or enumerating dynamically
    (``fields(self)``/``getattr``/``vars``/``asdict``).  Deliberately derived
    attributes are declared in a ``_DERIVED_FIELDS`` class tuple.
    """

    id = "SER001"
    summary = (
        "every attribute assigned in __init__ must be referenced in to_dict "
        "(or listed in _DERIVED_FIELDS)"
    )
    node_types = (ast.ClassDef,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_in("repro")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        to_dict = _method(node, "to_dict")
        if to_dict is None:
            return
        referenced, wildcard = _names_read_by_to_dict(to_dict)
        if wildcard:
            return
        derived = _derived_fields(node)
        for attr, line in sorted(_init_attrs(node).items(), key=lambda kv: kv[1]):
            if attr.startswith("_") or attr in derived or attr in referenced:
                continue
            yield self.finding(
                ctx,
                line,
                0,
                f"{node.name}.{attr} is set in __init__ but never referenced in "
                f"to_dict; serialize it or list it in {_DERIVED_ATTR}",
            )


#: Calls whose result stored on ``self`` marks a class as RNG-stateful.
_RNG_FACTORIES = {"numpy.random.default_rng", "repro.utils.rng.derive_rng"}
#: Annotations marking an injected generator parameter.
_GENERATOR_ANNOTATIONS = {"Generator", "np.random.Generator", "numpy.random.Generator"}


def _stores_rng_state(cls: ast.ClassDef, ctx: FileContext) -> int | None:
    """Line of the first ``self.x = <rng>`` assignment in ``__init__``, if any."""

    init = _method(cls, "__init__")
    if init is None:
        return None
    self_name = _self_name(init)
    if self_name is None:
        return None
    generator_params = set()
    for arg in init.args.args + init.args.kwonlyargs:
        if arg.annotation is not None:
            annotation = ast.unparse(arg.annotation).replace('"', "").replace("'", "")
            if any(marker in annotation for marker in _GENERATOR_ANNOTATIONS):
                generator_params.add(arg.arg)

    def is_rng_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call) and ctx.resolve(expr.func) in _RNG_FACTORIES:
            return True
        if isinstance(expr, ast.Name) and expr.id in generator_params:
            return True
        if isinstance(expr, ast.IfExp):
            return is_rng_expr(expr.body) or is_rng_expr(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            return any(is_rng_expr(value) for value in expr.values)
        return False

    for node in ast.walk(init):
        if isinstance(node, ast.Assign) and is_rng_expr(node.value):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    return target.lineno
    return None


@register_rule
class StateDictPairing(Rule):
    """SER002: ``state_dict``/``load_state_dict`` come in pairs, and
    RNG-holding classes must implement them.

    A class with only one half of the protocol can be checkpointed but not
    restored (or vice versa).  Separately, in the stateful-model modules any
    non-dataclass class whose ``__init__`` stores a ``numpy`` Generator on
    ``self`` must expose the pair — otherwise its RNG stream silently resets
    across interrupt-resume.
    """

    id = "SER002"
    summary = (
        "state_dict/load_state_dict must be implemented together; classes "
        "holding RNG state must implement both"
    )
    node_types = (ast.ClassDef,)

    #: Modules where the RNG-stateful heuristic applies (snapshot-reachable).
    _STATEFUL_MODULES = (
        "repro.simulation",
        "repro.core",
        "repro.baselines",
        "repro.sparsification",
        "repro.compression",
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_in("repro")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ClassDef)
        has_save = _method(node, "state_dict") is not None
        has_load = _method(node, "load_state_dict") is not None
        if has_save != has_load:
            present, missing = (
                ("state_dict", "load_state_dict") if has_save else ("load_state_dict", "state_dict")
            )
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"{node.name} defines {present} without {missing}; the snapshot "
                "protocol requires both",
            )
            return
        if has_save or _is_dataclass(node, ctx):
            return
        if not ctx.module_in(*self._STATEFUL_MODULES):
            return
        rng_line = _stores_rng_state(node, ctx)
        if rng_line is not None:
            yield self.finding(
                ctx,
                rng_line,
                0,
                f"{node.name} stores a numpy Generator on self but implements "
                "neither state_dict nor load_state_dict; its RNG stream cannot "
                "survive interrupt-resume",
            )
