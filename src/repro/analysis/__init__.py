"""Static-analysis suite guarding the determinism and serialization contracts.

The reproduction's value rests on CI-gated determinism pillars (seed pinning,
sync-vs-seed identity, serial-vs-pool identity, interrupt-resume identity).
Those pillars are enforced *dynamically* by byte-comparing run outputs; this
package proves the underlying hygiene invariants *statically*, at lint time,
so a stray ``np.random.rand()`` or a ``to_dict`` that silently drops a new
field is caught before any sweep diverges.

The framework is a single-pass AST visitor core with a rule registry:

* every :class:`~repro.analysis.core.Rule` declares the node types it wants to
  see; the engine parses each file once and dispatches nodes to interested
  rules (markdown rules see the raw text instead);
* every finding fails the gate: nothing in the analysed source can silence a
  rule, and a rule's exemptions are the modules its
  :meth:`~repro.analysis.core.Rule.applies_to` scoping leaves out.

Run it as ``python -m repro.analysis [--rule ID] [paths]``;
``scripts/ci.sh analysis`` wires it between the ``lint`` and ``docs`` stages.
The shipped rules are documented in ``docs/ARCHITECTURE.md`` and listed by
``python -m repro.analysis --list-rules``.
"""

from repro.analysis.core import Finding, Rule, all_rules, get_rule, register_rule
from repro.analysis.engine import AnalysisReport, analyze_paths

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "get_rule",
    "register_rule",
]
