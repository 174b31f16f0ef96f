"""Compare one CSV output of two run directories, outside one column.

    python tests/compare_outputs.py DIR1 DIR2 FILE SKIP_COLUMN

Exits 0 when DIR1/FILE and DIR2/FILE hold the same rows once SKIP_COLUMN
(a wall-time column) is dropped, and 1 when they differ or DIR1/FILE has no
rows, so an empty output cannot pass as a match.
"""

import csv
import sys
from pathlib import Path


def rows(directory: str, name: str, skip: str) -> list[dict]:
    with (Path(directory) / name).open(newline="") as handle:
        return [{k: v for k, v in row.items() if k != skip} for row in csv.DictReader(handle)]


def main(argv: list[str]) -> int:
    first, second, name, skip = argv
    want, got = rows(first, name, skip), rows(second, name, skip)
    if not want or want != got:
        print(f"{name} differs between {first} and {second} outside {skip}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
