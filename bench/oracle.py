"""Checks of CLI outputs that do not go through bctlab.

Stored reference hashes lock every output byte, but only for inputs they
were taken on: the paper families, the registry, and the seeded inputs
of the seeds in refs.json. For any seed the benchmark also recomputes,
from the S-box file with its own numpy code, what a small answer must
say:

- `uniformity`: the differential uniformity and its first witness from a
  full DDT, and the BCT entry at the reported witness, which must equal
  the reported boomerang uniformity;
- `moment --j 1` on a permutation: both sides equal
  sum over (c, b) of DDT(c, b)^2 - 2*4^n + 2^n, because each ordered pair
  in the bucket X(c, b) is one BCT solution and row a=0 and column b=0
  hold 2^n each;
- `certify --delta`: a non-negative value, zero exactly when reported so;

and, for table exports, the header, the line count, and every row or
value wholly inside the kept start and end of the output.
"""

from __future__ import annotations

import json

import numpy as np


def read_sbox(path: str) -> tuple[int, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        n = int(header[2:])
        values = np.array([int(v) for v in fh.read().split()], dtype=np.int64)
    if not header.startswith("n=") or values.size != 1 << n:
        raise ValueError(f"malformed S-box file {path}")
    return n, values


def ddt_stats(t: np.ndarray) -> tuple[int, tuple[int, int], int]:
    """(max over a != 0, its first row-major witness, sum of squared counts)."""
    size = t.size
    idx = np.arange(size)
    best, arg, squares = -1, (0, 0), 0
    for a in range(size):
        row = np.bincount(t ^ t[idx ^ a], minlength=size)
        squares += int((row * row).sum())
        if a and row.max() > best:
            best, arg = int(row.max()), (a, int(row.argmax()))
    return best, arg, squares


def bct_entry(t: np.ndarray, a: int, b: int) -> int:
    """#{(x, y) : t[x]+t[y] = b and t[x+a]+t[y+a] = b}, in O(4^n) memory-light rows."""
    size = t.size
    idx = np.arange(size)
    ta = t[idx ^ a]
    total = 0
    for x in range(size):
        total += int(np.count_nonzero(((t[x] ^ t) == b) & ((ta[x] ^ ta) == b)))
    return total


def _problem(ok: bool, what: str) -> list[str]:
    return [] if ok else [what]


def check_answer(argv: list[str], text: str, sbox_path: str, kind: str) -> list[str]:
    """Problems found in one small answer on a seeded S-box; [] when none."""
    try:
        out = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    n, t = read_sbox(sbox_path)
    size = t.size
    verb = argv[0]
    if verb == "uniformity":
        du, arg, _ = ddt_stats(t)
        a, b = out["bct_argmax"]
        return (
            _problem(out["n"] == n, "wrong n")
            + _problem(out["differential_uniformity"] == du, "differential uniformity")
            + _problem(tuple(out["ddt_argmax"]) == arg, "DDT witness")
            + _problem(bct_entry(t, a, b) == out["boomerang_uniformity"],
                       "BCT value at the reported witness")
        )
    if verb == "moment":
        if kind != "perm":
            return []
        _, _, squares = ddt_stats(t)
        expected = squares - 2 * size * size + size
        return (
            _problem(out["direct"] == expected, "table-side moment")
            + _problem(out["walsh"] == expected, "spectrum-side moment")
            + _problem(out["equal"] is True, "moment sides reported unequal")
        )
    if verb == "certify":
        num, den = out["value_numerator"], out["value_denominator"]
        return (
            _problem(num >= 0 and den > 0, "negative certificate value")
            + _problem(out["is_zero"] == (num == 0), "is_zero disagrees with value")
        )
    return [f"no check for verb {verb!r}"]


def _parity(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    for shift in (8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def _fwht(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64).copy()
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2, h)
        v = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1).reshape(-1)
        h *= 2
    return v


def table_row(verb: str, t: np.ndarray, a: int) -> np.ndarray:
    """Row a of the DDT, the BCT or the Walsh spectrum (row u = a) of t."""
    size = t.size
    idx = np.arange(size)
    if verb == "ddt":
        return np.bincount(t ^ t[idx ^ a], minlength=size)
    if verb == "bct":
        row = np.zeros(size, dtype=np.int64)
        for c in range(size):
            d = t ^ t[idx ^ c]
            row += np.bincount(d[d == d[idx ^ a]], minlength=size)
        return row
    if verb == "walsh":
        # W(a, v) = sum over y of g(y) (-1)^(v.y), g(y) = sum over f(x)=y of (-1)^(a.x)
        g = np.bincount(t, weights=1 - 2 * _parity(idx & a), minlength=size)
        return _fwht(np.rint(g).astype(np.int64))
    raise ValueError(f"no table for verb {verb!r}")


def _csv_rows(lines: list[str]):
    for line in lines:
        head, _, rest = line.partition(",")
        if head.isdigit():  # not the header
            yield int(head), [int(v) for v in rest.split(",")]


def _json_values(lines: list[str]) -> list[int]:
    values = []
    for line in lines:
        item = line.strip().rstrip(",")
        if not item.lstrip("-").isdigit():
            break
        values.append(int(item))
    return values


def check_export(argv: list[str], sbox_path: str, head: str, tail: str,
                 newlines: int) -> list[str]:
    """Check a table export's format and the rows at its start and end.

    Every row (CSV) or value (JSON) that lies wholly inside the kept head
    or tail is compared with the table recomputed here.
    """
    n, t = read_sbox(sbox_path)
    size = t.size
    verb = argv[0]
    head_lines = head.split("\n")[:-1]  # the last piece may be cut short
    tail_lines = tail.split("\n")[1:-1]  # so may the first; the last is ""
    rows = {}

    def expected(a):
        if a not in rows:
            rows[a] = table_row(verb, t, a)
        return rows[a]

    problems = []
    if "--json" not in argv:
        corner = "u\\v" if verb == "walsh" else "a\\b"
        header = f"{corner}," + ",".join(str(b) for b in range(size))
        problems += _problem(bool(head_lines) and head_lines[0] == header, "CSV header")
        problems += _problem(newlines == size + 1, "CSV line count")
        checked = list(_csv_rows(head_lines[1:])) + list(_csv_rows(tail_lines))
        problems += _problem(len(checked) >= 2, "too few whole rows kept")
        for a, values in checked:
            if not np.array_equal(np.array(values), expected(a)):
                problems.append(f"row {a} differs from the recomputed table")
                break
        return problems
    key = '"values": [' if verb == "walsh" else '"counts": ['
    problems += _problem(head.startswith('{\n  "schema": 1,'), "JSON header")
    problems += _problem(f'\n  "n": {n},' in head, "JSON n")
    if verb != "walsh":
        problems += _problem(f'\n  "kind": "{verb.upper()}",' in head, "JSON kind")
    opened = [i for i, line in enumerate(head_lines) if line.endswith(key)]
    if not opened or not tail_lines or tail_lines[-1] != "}":
        return problems + ["JSON table not found"]
    first = _json_values(head_lines[opened[0] + 1:])
    closing = tail_lines.index("  ]") if "  ]" in tail_lines else len(tail_lines)
    last = _json_values(tail_lines[:closing][::-1])[::-1]
    problems += _problem(len(first) >= size and len(last) >= 1, "too few values kept")
    cells = list(enumerate(first)) + [
        (size * size - len(last) + i, v) for i, v in enumerate(last)]
    for k, v in cells:
        if expected(k // size)[k % size] != v:
            problems.append(f"cell {k} differs from the recomputed table")
            break
    return problems
