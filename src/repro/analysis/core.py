"""Rule protocol, findings and the rule registry.

A rule is a small, stateless object: it declares which AST node types it wants
to visit (:attr:`Rule.node_types`) and/or implements a whole-file check
(:meth:`Rule.check_file`), and yields :class:`Finding` objects.  Registration
is by decorator::

    @register_rule
    class NoFrobnication(Rule):
        id = "DET999"
        summary = "no frobnication in engine code"
        node_types = (ast.Call,)

        def visit(self, node, ctx):
            ...

The engine (:mod:`repro.analysis.engine`) instantiates every registered rule
once, walks each file's AST a single time and dispatches each node to the
rules interested in its type.  Every finding fails the gate; a rule that must
not fire in some module scopes that module out in :meth:`Rule.applies_to`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.analysis.context import FileContext

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location; every finding fails the gate."""

    rule: str
    path: str
    line: int
    column: int
    message: str

    def sort_key(self) -> tuple:
        """Stable report order: by location, then rule id."""

        return (self.path, self.line, self.column, self.rule)


class Rule:
    """Base class for analysis rules; subclass and :func:`register_rule`."""

    #: Unique identifier, e.g. ``"DET001"`` — what the ``--rule`` flag refers to.
    id = "RULE000"
    #: One-line description shown by ``--list-rules``.
    summary = ""
    #: AST node types routed to :meth:`visit` (python files only).
    node_types: tuple[type, ...] = ()
    #: File suffixes this rule applies to.
    file_suffixes: tuple[str, ...] = (".py",)

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether the rule runs on this file at all (module scoping)."""

        return True

    def visit(self, node: ast.AST, ctx: "FileContext") -> Iterable[Finding]:
        """Inspect one AST node; yield findings."""

        return ()

    def check_file(self, ctx: "FileContext") -> Iterable[Finding]:
        """Whole-file check, called once per applicable file."""

        return ()

    def finding(
        self, ctx: "FileContext", line: int, column: int, message: str
    ) -> Finding:
        """Build a :class:`Finding` for this rule at ``line``/``column``."""

        return Finding(
            rule=self.id,
            path=ctx.display_path,
            line=line,
            column=column,
            message=message,
        )


#: Rule id -> instance, in registration order.
_REGISTRY: dict[str, Rule] = {}


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``rule_class`` to the registry."""

    instance = rule_class()
    if not instance.id or instance.id in _REGISTRY:
        raise ConfigurationError(f"duplicate or empty rule id {instance.id!r}")
    _REGISTRY[instance.id] = instance
    return rule_class


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id (imports the shipped rule set)."""

    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id; raises ``ConfigurationError`` on unknown ids."""

    import repro.analysis.rules  # noqa: F401  (registration side effect)

    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown rule {rule_id!r}; known rules: {known}") from None
