#!/usr/bin/env python3
"""Rewrite tests/golden.json from this checkout's build and print which
digests moved.

    python3 scripts/golden.py

Each golden input (tests/digests.py) is built in a temp directory, with
the evgraph source of this checkout.  One line is printed per output
file whose sha256 moved, added or gone, as "input file old -> new"
(twelve hex digits each, "-" for none), then a count.  A declared change
to the outputs is this command plus those lines in its change note.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from digests import GOLDEN, all_digests  # noqa: E402


def main() -> int:
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = all_digests(Path(tmp))
    moved = 0
    for name in sorted(old.keys() | new.keys()):
        before, after = old.get(name, {}), new.get(name, {})
        for file in sorted(before.keys() | after.keys()):
            was = before.get(file, {}).get("sha256", "-")[:12]
            now = after.get(file, {}).get("sha256", "-")[:12]
            if was != now:
                moved += 1
                print(f"{name} {file} {was} -> {now}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{moved} digests moved; wrote {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
