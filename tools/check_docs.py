#!/usr/bin/env python3
"""Documentation gate: run the doctests and check intra-repo markdown links.

Run from the repository root (the CI docs job does)::

    PYTHONPATH=src python tools/check_docs.py

Two checks, both hard failures:

1. **Doctests** -- ``examples/quickstart.py`` plus the doctest-bearing
   library modules are executed with :mod:`doctest`; every example in the
   documentation must keep producing its published output.
2. **Links** -- every relative link or image target in the repository's
   markdown files must exist on disk (``http(s)``/``mailto`` targets and
   pure ``#fragment`` anchors are skipped).  Broken cross-references
   between README, docs/ and benchmarks/ fail the build.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: modules whose docstrings carry executable examples
DOCTEST_MODULES = (
    "repro.core.tree",
    "repro.core.kernel",
    "repro.solvers.facade",
    "repro.sparse.ordering",
)

#: standalone files whose docstrings carry executable examples
DOCTEST_FILES = (ROOT / "examples" / "quickstart.py",)

#: markdown files checked for dead intra-repo links.  The retrieval-provided
#: metadata files (PAPER.md, PAPERS.md, SNIPPETS.md, ISSUE.md) are excluded:
#: they are scraped documents with image references we do not own.
MARKDOWN_GLOBS = (
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/*.md",
    "benchmarks/*.md",
)

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")


def run_doctests() -> int:
    failures = 0
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        print(f"doctest {name}: {result.attempted} examples, {result.failed} failed")
        failures += result.failed
    for path in DOCTEST_FILES:
        # import-free execution so the example file needs no package install
        result = doctest.testfile(
            str(path), module_relative=False, verbose=False
        )
        print(
            f"doctest {path.relative_to(ROOT)}: "
            f"{result.attempted} examples, {result.failed} failed"
        )
        failures += result.failed
    return failures


def check_links() -> int:
    broken = 0
    seen = set()
    for pattern in MARKDOWN_GLOBS:
        for md in sorted(ROOT.glob(pattern)):
            if md in seen:
                continue
            seen.add(md)
            text = md.read_text(encoding="utf-8")
            for match in _LINK.finditer(text):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (md.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    print(f"BROKEN LINK in {md.relative_to(ROOT)}: {target}")
                    broken += 1
            print(f"links   {md.relative_to(ROOT)}: ok")
    return broken


def main() -> int:
    failures = run_doctests()
    broken = check_links()
    if failures or broken:
        print(f"\nFAILED: {failures} doctest failure(s), {broken} broken link(s)")
        return 1
    print("\ndocs ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
