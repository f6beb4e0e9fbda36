"""Compare two report bundles file by file, with a tolerance on floats.

Usage, from the root of a checkout:

    python tests/bundle_compare.py OLD_DIR NEW_DIR [--rel-tol 1e-9]

Both directories must hold the same file names.  A JSON file is compared
as a document: the same keys in the same places, equal strings, integers,
booleans and nulls, and floats whose relative difference
|a - b| / max(|a|, |b|) is at most the tolerance; the values under the
keys both documents have are compared even where the keys differ.  Any other file (CSV,
SVG) is compared as text cut into numbers and the text between them; the
text must be equal, a number written without a point or an exponent is an
integer, and the other numbers are floats.  SVG coordinates are printed
with two decimals, which a relative tolerance misreads, so in an SVG file
two floats that are both printed with at most two decimals match when
they differ by at most one unit in the last place, 0.01, whatever the
tolerance; the others are held to it.

The report prints one line per key whose floats differ, with the largest
difference there and the two values it was found between, and one line
per mismatch; a text file whose numbers do not line up is one, with both
files' counts of numbers.  A key is the file name and the path into the document,
with list indices left out, so the vertices of every polyline share one
key.  The exit status is 1 if any mismatch was found, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_REL_TOL = 1e-9
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
TWO_PLACES = re.compile(r"-?\d+\.\d{0,2}")


@dataclass
class Comparison:
    """Mismatches, and per key the largest float difference (rel, old, new)."""

    rel_tol: float
    mismatches: list[str] = field(default_factory=list)
    largest: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def floats(self, key: str, old: float, new: float, places: bool = False) -> None:
        """Record the difference; with places, both were printed with at
        most two decimals and match within 0.01, counted in hundredths."""
        scale = max(abs(old), abs(new))
        rel = 0.0 if old == new else (
            abs(old - new) / scale if math.isfinite(scale) else math.inf)
        if rel > self.largest.get(key, (-1.0,))[0]:
            self.largest[key] = (rel, old, new)
        if (abs(round(old * 100) - round(new * 100)) > 1 if places
                else rel > self.rel_tol):
            self.mismatches.append(f"{key}: {old!r} vs {new!r} (relative {rel:.3g})")

    def values(self, key: str, old, new) -> None:
        if isinstance(old, float) and isinstance(new, float):
            self.floats(key, old, new)
        elif isinstance(old, dict) and isinstance(new, dict):
            if list(old) != list(new):
                gone = [name for name in old if name not in new]
                added = [name for name in new if name not in old]
                self.mismatches.append(
                    f"{key}: keys only in the old {gone}, only in the new {added}"
                    if gone or added else f"{key}: keys {list(old)} vs {list(new)}")
            for name in old:
                if name in new:
                    self.values(f"{key}.{name}", old[name], new[name])
        elif isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                self.mismatches.append(f"{key}[]: length {len(old)} vs {len(new)}")
                return
            for a, b in zip(old, new):
                self.values(f"{key}[]", a, b)
        elif type(old) is not type(new) or old != new:
            self.mismatches.append(f"{key}: {old!r} vs {new!r}")

    def text(self, key: str, old: str, new: str) -> None:
        old_nums, new_nums = NUMBER.findall(old), NUMBER.findall(new)
        if NUMBER.split(old) != NUMBER.split(new) or len(old_nums) != len(new_nums):
            self.mismatches.append(f"{key}: text differs outside its numbers "
                                   f"({len(old_nums)} numbers vs {len(new_nums)})")
            return
        svg = key.endswith(".svg")
        for a, b in zip(old_nums, new_nums):
            if svg and TWO_PLACES.fullmatch(a) and TWO_PLACES.fullmatch(b):
                self.floats(key, float(a), float(b), places=True)
            else:
                self.values(key, *(int(x) if x.lstrip("-").isdigit() else float(x)
                                   for x in (a, b)))

    def report(self) -> str:
        lines = [f"relative tolerance {self.rel_tol:g}"]
        changed = {k: v for k, v in self.largest.items() if v[0] > 0.0}
        lines += [f"{key}: {rel:.3g} ({old!r} -> {new!r})"
                  for key, (rel, old, new) in sorted(changed.items())]
        same = len(self.largest) - len(changed)
        lines.append(f"{len(changed)} float keys differ, {same} are equal")
        lines += [f"MISMATCH {m}" for m in self.mismatches]
        return "\n".join(lines)


def compare_bundles(old_dir: Path, new_dir: Path,
                    rel_tol: float = DEFAULT_REL_TOL) -> Comparison:
    result = Comparison(rel_tol)
    old_names = {p.name for p in Path(old_dir).iterdir()}
    new_names = {p.name for p in Path(new_dir).iterdir()}
    for name in sorted(old_names ^ new_names):
        result.mismatches.append(f"{name}: only in one bundle")
    for name in sorted(old_names & new_names):
        old, new = ((Path(d) / name).read_text() for d in (old_dir, new_dir))
        if name.endswith(".json"):
            result.values(name, json.loads(old), json.loads(new))
        else:
            result.text(name, old, new)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    args = parser.parse_args(argv)
    result = compare_bundles(args.old, args.new, args.rel_tol)
    print(result.report())
    return 1 if result.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
