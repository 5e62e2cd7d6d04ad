#!/usr/bin/env python3
"""Rewrite tests/golden_digests.json, the table of golden output digests
that tests/test_golden.py checks, from the code as it is now.

Run it after a deliberate output change, and list each entry it reports
changed in CHANGES.md.

Usage:
    PYTHONPATH=src python3 scripts/golden_digests.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # the fixture beside the tests

import golden  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden.compute(Path(tmp))
    old = json.loads(golden.TABLE.read_text("utf-8"))["digests"] if golden.TABLE.exists() else {}
    for name in sorted(old.keys() | digests.keys()):
        if old.get(name) != digests.get(name):
            print(f"changed: {name}")
    golden.TABLE.write_text(golden.table(digests), encoding="utf-8")
    print(f"wrote {len(digests)} digests to {golden.TABLE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
