"""Modules that importing singcat adds to a fresh interpreter.

Compares ``sys.modules`` after ``import singcat.cli`` and ``import singcat``
with a bare ``-c pass`` start, each in a new interpreter, and fails if the
difference holds a module in ``FORBIDDEN``: ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``) and ``fractions`` (with
``decimal``) cost milliseconds on every start, and no command needs them up
front.  Runs without pytest, against whichever singcat the interpreter
finds::

    python tests/check_imports.py
"""

from __future__ import annotations

import subprocess
import sys

FORBIDDEN = ("dataclasses", "inspect", "fractions")
TARGETS = ("singcat.cli", "singcat")


def loaded(statement: str) -> set[str]:
    """Module names in ``sys.modules`` after ``statement``, in a new interpreter."""
    code = f"import sys\n{statement}\nprint(*sys.modules, sep='\\n')"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def added_by(target: str) -> set[str]:
    return loaded(f"import {target}") - loaded("pass")


def main() -> int:
    status = 0
    for target in TARGETS:
        added = added_by(target)
        found = sorted(set(FORBIDDEN) & added)
        print(f"import {target}: {len(added)} modules beyond a bare start; "
              f"forbidden: {found or 'none'}")
        status |= bool(found)
    return status


if __name__ == "__main__":
    sys.exit(main())
