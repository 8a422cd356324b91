"""DOC001: internal markdown links must resolve.

The markdown counterpart of the AST rules: every ``[text](target)`` /
``![alt](target)`` link with a relative target must point at an existing
file, and ``#fragment`` anchors must match a GitHub-style heading slug in
the target (or current) document.  This rule replaced the former
``scripts/check_docs_links.py`` one-off; ``scripts/ci.sh docs`` now runs
``python -m repro.analysis --rule DOC001``.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.core import Finding, Rule, register_rule

#: ``[text](target)`` and ``![alt](target)`` — the only link syntax we use.
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
SCHEME_PATTERN = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Fenced code block delimiters; links inside fences are not real links.
FENCE_PATTERN = re.compile(r"^(```|~~~)")


def heading_slugs(markdown: str) -> set[str]:
    """GitHub-style anchor slugs for every heading in ``markdown``."""

    slugs: set[str] = set()
    for heading in HEADING_PATTERN.findall(markdown):
        text = re.sub(r"[`*_]", "", heading.strip()).lower()
        slug = re.sub(r"[^\w\- ]", "", text).replace(" ", "-")
        slugs.add(slug)
    return slugs


@register_rule
class MarkdownLinksResolve(Rule):
    """DOC001: relative markdown links point at real files and anchors."""

    id = "DOC001"
    summary = "relative markdown links and #anchors must resolve"
    file_suffixes = (".md",)

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Validate every non-external link in the document."""

        in_fence = False
        for number, line in enumerate(ctx.lines, start=1):
            if FENCE_PATTERN.match(line.lstrip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in LINK_PATTERN.finditer(line):
                target = match.group(1)
                if SCHEME_PATTERN.match(target):
                    continue  # external URL (https:, mailto:, ...)
                file_part, _, fragment = target.partition("#")
                resolved = (
                    (ctx.path.parent / file_part).resolve() if file_part else ctx.path
                )
                if not resolved.exists():
                    yield self.finding(
                        ctx,
                        number,
                        match.start(),
                        f"broken link -> {target}",
                    )
                    continue
                if fragment and resolved.suffix.lower() == ".md":
                    document = resolved.read_text(encoding="utf-8")
                    if fragment.lower() not in heading_slugs(document):
                        yield self.finding(
                            ctx,
                            number,
                            match.start(),
                            f"missing anchor -> {target}",
                        )
