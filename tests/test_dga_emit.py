"""Every ``dga emit`` table, pinned by one SHA-256 of what the CLI answers.

A table is an ADE type (A1-A120, D4-D120, E6-E8) in one parity; its digest
covers the exit code and stdout of ``dga emit`` in both ``--format json``
and ``--format text``.  ``data/dga_emit.json`` holds the recorded digests.
After an intended change of the tables, re-record them with::

    PYTHONPATH=src python tests/test_dga_emit.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from singcat.cli import run

RECORDED = Path(__file__).resolve().parent / "data" / "dga_emit.json"

TYPES = (
    [f"A{n}" for n in range(1, 121)]
    + [f"D{n}" for n in range(4, 121)]
    + ["E6", "E7", "E8"]
)
TABLES = [(ade, parity) for ade in TYPES for parity in ("even", "odd")]


def digest(ade: str, parity: str) -> str:
    """SHA-256 over the exit code and stdout of the table in both formats."""
    h = hashlib.sha256()
    for fmt in ("json", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["dga", "emit", ade, parity, "--format", fmt])
        h.update(f"{fmt} {code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def digests() -> dict[str, str]:
    return {f"{ade} {parity}": digest(ade, parity) for ade, parity in TABLES}


def test_every_table_matches_its_recorded_digest():
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert len(recorded) == len(TABLES) == 480
    now = digests()
    assert [t for t in recorded if recorded[t] != now.get(t)] == []
    assert now.keys() == recorded.keys()


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
