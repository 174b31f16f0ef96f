"""Compare every output file of two run directories.

    python tests/compare_outputs.py DIR1 DIR2

Exits 0 when DIR1 and DIR2 hold the same file names and every file matches:
runs.csv outside its wall_time_s column, summary.csv and sweep.csv outside
their mean_time_s column, and every other file byte for byte. Exits 1 when
they differ, or when a CSV in DIR1 has no rows, so an empty output cannot
pass as a match.
"""

import csv
import sys
from pathlib import Path

# The wall-time column of each output CSV that has one.
TIME_COLUMNS = {"runs.csv": "wall_time_s", "summary.csv": "mean_time_s", "sweep.csv": "mean_time_s"}


def table(path: Path, skip: str | None) -> list[list[str]]:
    """The header and rows of a CSV with the column `skip`, if any, dropped."""
    with path.open(newline="") as handle:
        lines = list(csv.reader(handle))
    keep = [i for i, column in enumerate(lines[0] if lines else []) if column != skip]
    return [[line[i] for i in keep] for line in lines]


def differences(first: Path, second: Path) -> list[str]:
    names = sorted(p.name for p in first.iterdir())
    other = sorted(p.name for p in second.iterdir())
    if names != other:
        return [f"file names differ: {names} against {other}"]
    found = []
    for name in names:
        a, b = first / name, second / name
        skip = TIME_COLUMNS.get(name)
        if name.endswith(".csv") and len(table(a, skip)) < 2:
            found.append(f"{name} has no rows")
        elif skip and table(a, skip) != table(b, skip):
            found.append(f"{name} differs outside {skip}")
        elif not skip and a.read_bytes() != b.read_bytes():
            found.append(f"{name} differs")
    return found


def main(argv: list[str]) -> int:
    first, second = map(Path, argv)
    found = differences(first, second)
    for line in found:
        print(f"{first} vs {second}: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
