#!/usr/bin/env python3
"""Compare regenerated paper artefacts with the committed ones.

    python3 scripts/compare_artifacts.py results NEW_DIR

Compares every `fig1.*` (top level and `permuted/`), `claims.json` and
`sweep_*.json` of the two directories field by field: JSON values by
their parsed value and type at each path, CSV files cell by cell. The
only fields left out are the wall-clock `seconds` fields of
`sweep_rounding.json`, `sweep_states.json` and `sweep_hull.json`, which
time the run instead of describing its result. A file present in only
one directory is a mismatch too.

Prints one line per mismatch, naming the file and the field path, and
exits 1 if there is any; exits 0 when every field matches. Standard
library only.
"""

import csv
import json
import sys
from pathlib import Path

PATTERNS = ("fig1.*", "permuted/fig1.*", "claims.json", "sweep_*.json")

IGNORED = {
    name: {"seconds"}
    for name in ("sweep_rounding.json", "sweep_states.json", "sweep_hull.json")
}


def artefacts(root):
    """Relative paths of the compared files under `root`."""
    return {
        p.relative_to(root).as_posix()
        for pattern in PATTERNS
        for p in root.glob(pattern)
        if p.is_file()
    }


def diff_json(want, got, path, ignored, out):
    """Appends a line to `out` for every path where `got` differs."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            if key in ignored:
                continue
            sub = f"{path}.{key}"
            if key not in got:
                out.append(f"{sub}: missing")
            elif key not in want:
                out.append(f"{sub}: not expected")
            else:
                diff_json(want[key], got[key], sub, ignored, out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append(f"{path}: expected {len(want)} entries, got {len(got)}")
        for i, (w, g) in enumerate(zip(want, got)):
            diff_json(w, g, f"{path}[{i}]", ignored, out)
    elif type(want) is not type(got) or want != got:
        out.append(f"{path}: expected {json.dumps(want)}, got {json.dumps(got)}")


def diff_csv(want, got, out):
    """Appends a line to `out` for every cell where `got` differs."""
    want_rows = list(csv.reader(want.splitlines()))
    got_rows = list(csv.reader(got.splitlines()))
    header = want_rows[0] if want_rows else []
    if len(want_rows) != len(got_rows):
        out.append(f"expected {len(want_rows)} rows, got {len(got_rows)}")
    for r, (w, g) in enumerate(zip(want_rows, got_rows)):
        for c in range(max(len(w), len(g))):
            wc = w[c] if c < len(w) else None
            gc = g[c] if c < len(g) else None
            if wc != gc:
                column = header[c] if c < len(header) else str(c)
                out.append(f"row {r}.{column}: expected {wc!r}, got {gc!r}")


def compare(expected_dir, actual_dir):
    """Mismatch lines between the two directories, each naming its file."""
    want_files = artefacts(expected_dir)
    got_files = artefacts(actual_dir)
    if not want_files:
        return [f"{expected_dir}: no artefacts to compare"]
    lines = [f"{name}: missing" for name in sorted(want_files - got_files)]
    lines += [f"{name}: not expected" for name in sorted(got_files - want_files)]
    for name in sorted(want_files & got_files):
        want = (expected_dir / name).read_text()
        got = (actual_dir / name).read_text()
        out = []
        if name.endswith(".json"):
            diff_json(
                json.loads(want),
                json.loads(got),
                "$",
                IGNORED.get(Path(name).name, set()),
                out,
            )
        elif name.endswith(".csv"):
            diff_csv(want, got, out)
        elif want != got:
            out.append("contents differ")
        lines += [f"{name}: {line}" for line in out]
    return lines


def main(argv):
    if len(argv) != 3:
        print("usage: compare_artifacts.py EXPECTED_DIR ACTUAL_DIR", file=sys.stderr)
        return 2
    lines = compare(Path(argv[1]), Path(argv[2]))
    for line in lines:
        print(line)
    if lines:
        print(
            f"{len(lines)} mismatch(es) between {argv[1]} and {argv[2]}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
