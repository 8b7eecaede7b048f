"""Compare two artifact directories: which files moved, and by how much.

    python3 tools/artifact_diff.py PARENT_DIR CHANGE_DIR

Both directories hold the same kind of tree, for example the output
directories of ``transport-langevin run`` for every preset and of a sweep,
plus saved stdout text.  The report lists:

* the files present on one side only;
* the files whose bytes moved;
* for each moved CSV (``#`` comment lines skipped, first line the header),
  the largest absolute and relative change of each numeric column, matching
  rows by position; a cell that is not a number on both sides and differs
  counts as a text change of its column;
* for any other moved text file, the same over the numbers of its lines, when
  the lines agree in everything but their numbers;
* each ``report.txt`` line whose ``[PASS]``/``[FAIL]`` verdict changed,
  matched by criterion name.

The exit status is 0 when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")
_VERDICT = re.compile(r"^\[(PASS|FAIL)\] ([^:]+):")


def _files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


class _Drift:
    """Largest absolute and relative change per column, and the count of text changes."""

    def __init__(self):
        self.columns: dict[str, dict] = {}

    def add(self, column: str, a: str, b: str):
        col = self.columns.setdefault(column, {"max_abs": 0.0, "max_rel": 0.0, "text": 0})
        if a == b:
            return
        x, y = _float(a), _float(b)
        if x is None or y is None:
            col["text"] += 1
            return
        if x == y or (math.isnan(x) and math.isnan(y)):
            return
        diff = abs(y - x)
        if not math.isfinite(diff):
            col["max_abs"] = col["max_rel"] = math.inf
            return
        col["max_abs"] = max(col["max_abs"], diff)
        col["max_rel"] = max(col["max_rel"], diff / abs(x) if x != 0.0 else math.inf)

    def moved(self) -> dict:
        return {name: col for name, col in self.columns.items()
                if col["max_abs"] or col["text"]}


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


def csv_drift(a: str, b: str) -> dict:
    """Per numeric column of two CSV texts: largest absolute and relative change."""
    ra, rb = _csv_rows(a), _csv_rows(b)
    if not ra or not rb or ra[0] != rb[0] or len(ra) != len(rb):
        return {"shape": "header or row count changed"}
    drift = _Drift()
    header = ra[0]
    for row_a, row_b in zip(ra[1:], rb[1:]):
        if len(row_a) != len(row_b):
            return {"shape": "a row changed its length"}
        for i, (x, y) in enumerate(zip(row_a, row_b)):
            drift.add(header[i] if i < len(header) else f"#{i}", x, y)
    return drift.moved()


def text_drift(a: str, b: str) -> dict:
    """Largest change over the numbers of two texts whose lines differ only in numbers."""
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        return {"shape": "line count changed"}
    drift = _Drift()
    for x, y in zip(la, lb):
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
            return {"shape": "a line changed beyond its numbers"}
        for u, v in zip(_NUMBER.findall(x), _NUMBER.findall(y)):
            drift.add("(numbers)", u, v)
    return drift.moved()


def verdict_changes(a: str, b: str) -> list[dict]:
    """Criterion lines of two report texts whose verdict changed, by criterion name."""
    def verdicts(text):
        return {m.group(2): (m.group(1), line) for line in text.splitlines()
                if (m := _VERDICT.match(line))}

    va, vb = verdicts(a), verdicts(b)
    return [{"criterion": name, "parent": va.get(name, (None, ""))[1],
             "change": vb.get(name, (None, ""))[1]}
            for name in sorted(set(va) | set(vb))
            if va.get(name, (None,))[0] != vb.get(name, (None,))[0]]


def compare(parent: Path, change: Path) -> dict:
    fa, fb = _files(parent), _files(change)
    out = {"only_parent": sorted(set(fa) - set(fb)), "only_change": sorted(set(fb) - set(fa)),
           "moved": [], "drift": {}, "verdicts": {}}
    for name in sorted(set(fa) & set(fb)):
        a, b = fa[name].read_bytes(), fb[name].read_bytes()
        if a == b:
            continue
        out["moved"].append(name)
        try:
            ta, tb = a.decode("utf-8"), b.decode("utf-8")
        except UnicodeDecodeError:
            continue
        drift = csv_drift(ta, tb) if name.endswith(".csv") else text_drift(ta, tb)
        if drift:
            out["drift"][name] = drift
        if Path(name).name == "report.txt":
            changed = verdict_changes(ta, tb)
            if changed:
                out["verdicts"][name] = changed
    return out


def _format(result: dict) -> str:
    lines = []
    for key, title in (("only_parent", "only in the parent"), ("only_change", "only in the change")):
        lines += [f"{title}: {name}" for name in result[key]]
    lines.append(f"moved: {len(result['moved'])} file(s)")
    for name in result["moved"]:
        lines.append(f"  {name}")
        for column, col in result["drift"].get(name, {}).items():
            if column == "shape":
                lines.append(f"    {col}")
                continue
            text = f", {col['text']} text change(s)" if col["text"] else ""
            lines.append(f"    {column}: max abs {col['max_abs']:.3g}, "
                         f"max rel {col['max_rel']:.3g}{text}")
        for v in result["verdicts"].get(name, []):
            lines.append(f"    verdict of {v['criterion']}: {v['parent']!r} -> {v['change']!r}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    result = compare(args.parent, args.change)
    print(_format(result))
    return int(bool(result["moved"] or result["only_parent"] or result["only_change"]))


if __name__ == "__main__":
    sys.exit(main())
