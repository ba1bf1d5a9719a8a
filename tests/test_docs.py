"""Doc-executability net: documentation examples and links cannot rot.

Two nets over ``README.md`` and every ``docs/*.md`` page:

* **executable examples** — every fenced ``` ```python ``` block runs in a
  fresh subprocess (isolation matters: examples may register scenarios or
  fork process pools, and must not leak into this test process).  A block
  that is intentionally illustrative opts out with an explicit
  ``` ```python no-run ``` info string — silence is never an opt-out.
* **link integrity** — every relative markdown link resolves to an
  existing file, and every in-page anchor to an existing heading.

A third net covers the code side: every ``.md`` file a string constant
under ``src/`` names must exist at the repo root or under ``docs/``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)
FENCE = re.compile(r"^```(.*)$")
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@dataclass(frozen=True)
class DocBlock:
    """One fenced code block of a documentation page."""

    path: Path
    line: int
    info: str
    code: str

    @property
    def label(self) -> str:
        return f"{self.path.relative_to(REPO_ROOT)}:{self.line}"


def fenced_blocks(path: Path) -> List[DocBlock]:
    """Every fenced block of a markdown file, with its info string."""
    blocks: List[DocBlock] = []
    info: str = ""
    start = 0
    body: List[str] = []
    in_fence = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        match = FENCE.match(line.strip())
        if match and not in_fence:
            in_fence, info, start, body = True, match.group(1).strip(), number, []
        elif match and in_fence:
            blocks.append(
                DocBlock(path=path, line=start, info=info, code="\n".join(body))
            )
            in_fence = False
        elif in_fence:
            body.append(line)
    assert not in_fence, f"{path}: unclosed code fence opened at line {start}"
    return blocks


def python_blocks() -> List[DocBlock]:
    """All runnable python blocks across the documentation set."""
    return [
        block
        for path in DOC_FILES
        for block in fenced_blocks(path)
        if block.info.split() and block.info.split()[0] == "python"
        and "no-run" not in block.info.split()
    ]


_BLOCKS = python_blocks()


def test_the_net_actually_covers_examples():
    """A refactor that breaks block extraction must fail loudly, not no-op."""
    assert len(_BLOCKS) >= 6
    assert {block.path.name for block in _BLOCKS} >= {
        "README.md",
        "capacity_planning.md",
    }


@pytest.mark.parametrize("block", _BLOCKS, ids=lambda block: block.label)
def test_documentation_python_block_executes(block):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", block.code],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"documentation example at {block.label} no longer runs:\n"
        f"{result.stdout}\n{result.stderr}"
    )


def _headings(path: Path) -> set:
    """GitHub-style anchor slugs of a markdown file's headings.

    Fenced code blocks are skipped: a ``#`` comment inside a code fence is
    not a heading and produces no anchor on GitHub.
    """
    slugs = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence and line.startswith("#"):
            text = line.lstrip("#").strip().lower()
            slug = re.sub(r"[^\w\- ]", "", text).replace(" ", "-")
            slugs.add(slug)
    return slugs


def _links_outside_fences(path: Path) -> List[Tuple[int, str]]:
    """(line number, target) of every markdown link outside code fences."""
    links: List[Tuple[int, str]] = []
    in_fence = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK.finditer(line):
            links.append((number, match.group(1)))
    return links


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda path: path.name)
def test_relative_links_resolve(path):
    broken: List[str] = []
    for number, target in _links_outside_fences(path):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                broken.append(f"line {number}: {target} (missing file)")
                continue
        else:
            resolved = path
        if anchor and resolved.suffix == ".md":
            if anchor not in _headings(resolved):
                broken.append(f"line {number}: {target} (missing anchor)")
    assert not broken, f"{path.name} has broken links:\n" + "\n".join(broken)


#: A markdown file name, optionally under ``docs/``, inside a string.
DOC_POINTER = re.compile(r"(?<![\w./-])(?:docs/)?[\w-]+\.md\b")


def _source_doc_pointers() -> List[Tuple[str, str]]:
    """(``file:line``, pointer) of every ``.md`` name in ``src`` strings.

    Only string constants (docstrings, messages, report text) are read, so
    attribute code such as ``instruction.md`` never matches.
    """
    pointers: List[Tuple[str, str]] = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for match in DOC_POINTER.finditer(node.value):
                    label = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                    pointers.append((label, match.group(0)))
    return pointers


def test_source_doc_pointers_resolve():
    """Every doc a source string points to exists at the root or in docs/."""
    pointers = _source_doc_pointers()
    assert any(pointer.startswith("docs/") for _, pointer in pointers)
    dangling = [
        f"{label}: {pointer}"
        for label, pointer in pointers
        if not (REPO_ROOT / pointer).is_file()
        and not (REPO_ROOT / "docs" / pointer).is_file()
    ]
    assert not dangling, "source strings point to missing docs:\n" + "\n".join(dangling)
