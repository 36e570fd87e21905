#!/usr/bin/env python3
"""Check that every relative Markdown link in the repo's docs resolves.

Scans ``README.md`` and ``docs/*.md`` for ``[text](target)`` links, skips
absolute URLs, and verifies that each remaining target exists relative to
the file that references it.  A ``#fragment`` into a Markdown file (a pure
``#fragment`` targets the referencing file) must name one of that file's
headings, slugged the way GitHub slugs them.  Exits non-zero listing the
broken links.  Used by the CI ``docs`` job and ``tests/test_docs_links.py``.

Run with:  python tools/check_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Set

#: Inline Markdown link: [text](target).  Code spans are stripped first.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`[^`]*`")
_CODE_BLOCK = re.compile(r"```.*?```", re.DOTALL)
_EXTERNAL = ("http://", "https://", "mailto:")
#: ATX heading (``## Title``, optional closing hashes).
_HEADING = re.compile(r"^#{1,6}\s+(.+?)(?:\s+#+)?\s*$", re.MULTILINE)
_LINK_TEXT = re.compile(r"\[([^\]]*)\]\([^)]*\)")


def markdown_files(root: Path) -> List[Path]:
    """The Markdown files whose links the repo guarantees to keep valid."""
    files = []
    readme = root / "README.md"
    if readme.is_file():
        files.append(readme)
    files.extend(sorted((root / "docs").glob("*.md")))
    return files


def github_slug(heading: str) -> str:
    """The anchor GitHub gives a heading: lowercased, punctuation dropped,
    spaces turned into hyphens (``REP1xx — determinism`` -> ``rep1xx--determinism``)."""
    text = _LINK_TEXT.sub(r"\1", heading).lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def heading_anchors(md: Path) -> Set[str]:
    """Every heading anchor of ``md``; repeats get GitHub's ``-1``, ``-2``, ..."""
    anchors = set()
    seen: Dict[str, int] = {}
    for match in _HEADING.finditer(_CODE_BLOCK.sub("", md.read_text())):
        slug = github_slug(match.group(1))
        repeat = seen.get(slug, 0)
        seen[slug] = repeat + 1
        anchors.add(f"{slug}-{repeat}" if repeat else slug)
    return anchors


def broken_links(root: Path) -> List[str]:
    """Every relative link (or heading anchor) in the checked files that does not resolve."""
    failures = []
    anchors: Dict[Path, Set[str]] = {}
    for md in markdown_files(root):
        text = _CODE_SPAN.sub("", _CODE_BLOCK.sub("", md.read_text()))
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL):
                continue
            path, _, fragment = target.partition("#")
            resolved = md.parent / path if path else md
            if not resolved.exists():
                failures.append(f"{md.relative_to(root)}: broken link -> {target}")
            elif fragment and resolved.suffix == ".md":
                if resolved not in anchors:
                    anchors[resolved] = heading_anchors(resolved)
                if fragment not in anchors[resolved]:
                    failures.append(f"{md.relative_to(root)}: broken anchor -> {target}")
    return failures


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    files = markdown_files(root)
    if not files:
        print("error: no Markdown files found to check", file=sys.stderr)
        return 1
    failures = broken_links(root)
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        print(f"{len(failures)} broken link(s) in {len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"all relative links resolve in {len(files)} Markdown file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
