#!/usr/bin/env python
"""Fail on dead intra-repo links in the markdown docs.

Scans README.md, ROADMAP.md, CHANGES.md and everything under docs/ for
markdown links, and checks that every *relative* target resolves to a
real file or directory in the repo — including ``#fragment`` anchors,
which are slugified the way GitHub renders headings.  External links
(``http(s)://``) are not fetched: CI must not depend on the network,
and the intra-repo links are the ones refactors silently break.

README.md and docs/ are additionally checked for backticked repo paths
(``tests/...``, ``src/...``, ``benchmarks/...``, ``tools/...``,
``examples/...``): an "Enforced by" line must name a file that exists.
CHANGES.md and ROADMAP.md are history — they legitimately name files
since deleted — so they are exempt from that check.

The default run also reads every docstring under ``src/`` and flags a
``*.md`` name that is not in the tree: "see DESIGN.md" must point at a
document a reader can open.

Usage::

    python tools/check_links.py            # check the default doc set
    python tools/check_links.py FILE...    # check specific files

Exit status is the number of dead links (0 = all good).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DEFAULT_DOCS = ("README.md", "ROADMAP.md", "CHANGES.md")

#: ``[text](target)`` — target captured up to the closing paren.
#: Images (``![alt](src)``) match too; they resolve the same way.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A backticked path under one of the repo's source roots; a
#: ``::TestClass`` / ``:line`` suffix is allowed and ignored.
CODE_PATH = re.compile(
    r"`((?:tests|src|benchmarks|tools|examples)/[^`\s:]*)[^`\s]*`")

#: Files whose backticked paths describe history, not the tree.
HISTORY_DOCS = ("ROADMAP.md", "CHANGES.md")

#: A markdown file named in prose: ``DESIGN.md``, ``docs/invariants.md``.
MD_NAME = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")

#: Markdown headings, for anchor resolution.
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def slugify(heading: str) -> str:
    """GitHub's heading-to-anchor rule: lowercase, drop punctuation,
    spaces to hyphens (hyphens survive, backticks and parens do not)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_~]", "", text)          # inline markup
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    """Every anchor a markdown file exposes (deduplicated GitHub-style:
    repeated headings get ``-1``, ``-2``, ... suffixes)."""
    seen: dict[str, int] = {}
    out: set[str] = set()
    for match in HEADING.finditer(path.read_text(encoding="utf-8")):
        slug = slugify(match.group(1))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        out.add(slug if count == 0 else f"{slug}-{count}")
    return out


def check_file(path: Path) -> list[str]:
    """Dead-link messages for one markdown file."""
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        line = text[: match.start()].count("\n") + 1
        base, _, fragment = target.partition("#")
        if base:
            resolved = (path.parent / base).resolve()
            if not resolved.is_relative_to(REPO):
                # GitHub-relative idioms (the ../../actions/... CI
                # badge) resolve on github.com, not on disk.
                continue
            if not resolved.exists():
                problems.append(f"{path.relative_to(REPO)}:{line}: "
                                f"dead link target {target!r}")
                continue
        else:
            resolved = path.resolve()
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                problems.append(f"{path.relative_to(REPO)}:{line}: "
                                f"dead anchor {target!r}")
    if path.name not in HISTORY_DOCS:
        for match in CODE_PATH.finditer(text):
            named = match.group(1)
            if any(ch in named for ch in "*<>{}…"):
                continue  # a pattern or placeholder, not one file
            if not (REPO / named).exists():
                line = text[: match.start()].count("\n") + 1
                problems.append(f"{path.relative_to(REPO)}:{line}: "
                                f"names missing path {named!r}")
    return problems


def known_markdown() -> set[str]:
    """Repo-relative paths and bare names of the tree's markdown files."""
    known: set[str] = set()
    for path in [*REPO.glob("*.md"), *REPO.glob("docs/**/*.md"),
                 *REPO.glob("benchmarks/**/*.md")]:
        known.update((path.name, path.relative_to(REPO).as_posix()))
    return known


def check_docstrings(path: Path, known: set[str]) -> list[str]:
    """Messages for ``*.md`` names in ``path``'s docstrings not in the tree."""
    problems: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        doc = ast.get_docstring(node, clean=False)
        for named in MD_NAME.findall(doc or ""):
            if named not in known:
                line = getattr(node, "lineno", 1)
                problems.append(f"{path.relative_to(REPO)}:{line}: docstring "
                                f"names missing document {named!r}")
    return problems


def main(argv: list[str]) -> int:
    problems: list[str] = []
    if argv:
        files = [Path(a).resolve() for a in argv]
    else:
        files = [REPO / name for name in DEFAULT_DOCS]
        files += sorted((REPO / "docs").glob("**/*.md"))
        known = known_markdown()
        for source in sorted((REPO / "src").glob("**/*.py")):
            problems.extend(check_docstrings(source, known))
    files = [f for f in files if f.exists()]
    for path in files:
        problems.extend(check_file(path))
    for message in problems:
        print(message, file=sys.stderr)
    print(f"checked {len(files)} files: "
          f"{len(problems)} dead link(s) or path(s)")
    return min(len(problems), 125)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
