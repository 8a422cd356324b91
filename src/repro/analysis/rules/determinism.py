"""Determinism rules: no global RNG, no wall-clock, no unordered iteration.

These are the static counterparts of the repo's dynamic determinism gates
(the seed-pinning / serial-vs-pool / interrupt-resume byte-equality tests):
they catch the three bug classes that historically break bit-identical
replays *before* the expensive gates run.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.core import Finding, Rule, register_rule

#: ``numpy.random`` attributes that construct or seed generators rather than
#: drawing from the hidden global state.  Everything else under
#: ``numpy.random`` is the legacy global-state API and is banned.
_NUMPY_RANDOM_SANCTIONED = {
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Wall-clock callables banned outside ``repro.observability``.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}


@register_rule
class NoGlobalRng(Rule):
    """DET001: draws from process-global RNG state are not replayable.

    All randomness must flow through an injected ``numpy.random.Generator``
    (see ``repro.utils.rng.derive_rng``).  ``np.random.default_rng(seed)``
    with an explicit seed is fine; the zero-argument form seeds from OS
    entropy and is flagged.
    """

    id = "DET001"
    summary = (
        "no process-global or OS-entropy randomness; inject a seeded "
        "numpy Generator instead"
    )
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        # `repro.utils.rng` is the sanctioned seeding site.
        return ctx.module_in("repro") and not ctx.module_in("repro.utils.rng")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        origin = ctx.resolve(node.func)
        if origin is None:
            return
        if origin == "os.urandom":
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                "os.urandom draws OS entropy; derive seeds via repro.utils.rng",
            )
        elif origin == "random" or origin.startswith("random."):
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"stdlib '{origin}' uses hidden global RNG state; "
                "use an injected numpy Generator",
            )
        elif origin.startswith("numpy.random."):
            tail = origin[len("numpy.random.") :]
            if tail == "default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "numpy.random.default_rng() without a seed draws OS entropy; "
                    "pass an explicit seed or SeedSequence",
                )
            elif tail.split(".")[0] not in _NUMPY_RANDOM_SANCTIONED:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"numpy.random.{tail} uses the global numpy RNG; "
                    "use an injected Generator",
                )


@register_rule
class NoWallClock(Rule):
    """DET002: wall-clock reads leak real time into simulated time.

    The simulation has its own virtual clock (``repro.simulation.timing``);
    the one sanctioned wall-clock consumer is the telemetry package
    ``repro.observability`` (trace timestamps, status heartbeats), which sits
    explicitly outside the determinism contract.  References are flagged, not just calls —
    ``clock=time.perf_counter`` smuggles the clock just as effectively.
    """

    id = "DET002"
    summary = (
        "no wall-clock reads outside the telemetry package "
        "(repro.observability); simulated time comes from the virtual clock"
    )
    node_types = (ast.Attribute, ast.Name)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_in("repro") and not ctx.module_in("repro.observability")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        # Only flag the outermost attribute chain: for `time.perf_counter`
        # the Attribute node resolves, and its inner Name (`time`) resolves
        # merely to the module — skip nodes whose parent also resolves.
        parent = ctx.parents.get(node)
        if isinstance(parent, ast.Attribute) and parent.value is node:
            return
        origin = ctx.resolve(node)
        if origin in _WALL_CLOCK:
            yield self.finding(
                ctx,
                node.lineno,
                node.col_offset,
                f"wall-clock '{origin}' referenced; use the virtual clock, or "
                "repro.observability for telemetry",
            )


#: Wrappers that preserve the (non-)ordering of what they wrap.
_ORDER_PRESERVING_WRAPPERS = {"enumerate", "list", "tuple", "reversed", "iter"}
#: Set-typed binary operators (union/intersection/difference/symmetric diff).
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_valued(node: ast.AST, ctx: FileContext) -> bool:
    """Conservatively: does ``node`` evaluate to a set (syntactically)?"""

    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"} and ctx.resolve(node.func) is None:
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return _is_set_valued(node.left, ctx) or _is_set_valued(node.right, ctx)
    return False


@register_rule
class NoUnorderedIteration(Rule):
    """DET003: iteration order of sets is arbitrary; replay paths must sort.

    Applies to the engine/checkpoint/orchestration/scenario paths where
    iteration order feeds event order, serialized output, or hashing.
    ``dict`` iteration is insertion-ordered and allowed; ``.keys()`` is
    flagged only as the direct target of a loop over a set expression.
    """

    id = "DET003"
    summary = (
        "no iteration over sets (or set-typed expressions) in replay-critical "
        "paths; wrap in sorted(...)"
    )
    node_types = (ast.For, ast.comprehension)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module_in(
            "repro.simulation",
            "repro.checkpoint",
            "repro.orchestration",
            "repro.scenarios",
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        iterable = node.iter
        # Unwrap order-preserving wrappers: `for i, x in enumerate({...})`.
        while (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in _ORDER_PRESERVING_WRAPPERS
            and ctx.resolve(iterable.func) is None
            and iterable.args
        ):
            iterable = iterable.args[0]
        if _is_set_valued(iterable, ctx):
            anchor = iterable
            yield self.finding(
                ctx,
                anchor.lineno,
                anchor.col_offset,
                "iterating a set yields arbitrary order; wrap in sorted(...)",
            )
