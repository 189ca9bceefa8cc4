"""Command-line front end.

Verbs: ddt, bct, uniformity, walsh, moment, certify, family, reproduce.
Input is either an S-box file (--file) or a family specification
(--family "name key=value ..."); --field n:reduction-hex overrides the
default reduction polynomial. Output goes to stdout or --out: ddt, bct and
walsh print CSV, or JSON with --json; family prints the S-box file format;
every other verb prints JSON ("schema": 1) and takes no --json. Exit codes:
0 success, 1 failed reproduction claims, 2 usage or input errors and
tables too large for physical memory. CSV is byte-identical across BCT
algorithms, and JSON differs only in its "algorithm" field. Table values
are written from a lookup of decimal strings over their span, row by row
in chunks of about 1 MiB, so no export is held whole, and a JSON table is
never built as a list of Python ints; the text equals json.dumps(indent=2)
of the plain lists. --out is opened only once the first chunk exists, so
a request refused with exit 2 leaves no file.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np

from .gf2n import parse_field
from .sbox import SBox, read_sbox, write_sbox
from .tables import (
    _chunks,
    _csv_chunks,
    _decimal_rows,
    _ktable_fields,
    bct,
    boomerang_uniformity,
    ddt,
)
from .walsh import (
    bct_moment_direct,
    bct_moment_walsh,
    delta_uniform_certificate,
    two_uniform_certificate,
    walsh_spectrum,
)
from .families import FamilySpec
from .verify import appendix_case_audit, reproduce, reproduce_all

__all__ = ["main"]


# -- verb handlers: (S-box, args) -> text, text chunks or a JSON payload ---------


def _table_out(t, args):
    if not args.json:
        return _csv_chunks("a\\b", t.counts)
    return {"schema": 1, "field": t.spec.label(), **_ktable_fields(t)}


def _ddt(f: SBox, args):
    return _table_out(ddt(f), args)


def _bct(f: SBox, args):
    return _table_out(bct(f, algorithm=args.algo), args)


def _uniformity(f: SBox, args):
    rep = boomerang_uniformity(f, algorithm=args.algo)
    return {"schema": 1, "n": f.spec.n, "field": f.spec.label(), **asdict(rep)}


def _walsh(f: SBox, args):
    values = walsh_spectrum(f).values
    if not args.json:
        return _csv_chunks("u\\v", values)
    return {
        "schema": 1,
        "n": f.spec.n,
        "field": f.spec.label(),
        "values": values,
    }


def _moment(f: SBox, args):
    # the spectrum side first: it refuses a map past its caps before any BCT row is counted
    spectrum_side = bct_moment_walsh(f, args.j)
    direct = bct_moment_direct(f, args.j)
    return {
        "schema": 1,
        "n": f.spec.n,
        "j": args.j,
        "direct": direct,
        "walsh": spectrum_side,
        "equal": direct == spectrum_side,
    }


def _certify(f: SBox, args):
    if args.two_uniform:
        lhs, rhs, gap = two_uniform_certificate(f)
        return {
            "schema": 1,
            "n": f.spec.n,
            "lhs": lhs,
            "rhs": rhs,
            "gap": gap,
            "is_two_uniform": gap == 0,
        }
    value, is_zero = delta_uniform_certificate(f, args.delta)
    return {
        "schema": 1,
        "delta": args.delta,
        "value_numerator": value.numerator,
        "value_denominator": value.denominator,
        "is_zero": is_zero,
    }


def _family(f: SBox, args):
    buf = io.StringIO()
    write_sbox(f, buf)
    return buf.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bctlab",
        description="DDT/BCT/Walsh analysis of S-boxes over GF(2^n)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name, help_, run, with_algo=False, with_json=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--file", help="S-box file (n=<int> header + 2^n values)")
        src.add_argument("--family", help='family spec, e.g. "kasami n=6 i=2"')
        p.add_argument("--field", help="override reduction: n:hex, e.g. 3:b")
        if with_algo:
            p.add_argument(
                "--algo",
                choices=("naive", "system", "fast"),
                default="fast",
                help="BCT construction algorithm",
            )
        p.add_argument("--out", help="output path (default: stdout)")
        if with_json:
            p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        return p

    add_verb("ddt", "difference distribution table", _ddt, with_json=True)
    add_verb("bct", "boomerang connectivity table", _bct, with_algo=True, with_json=True)
    add_verb(
        "uniformity", "differential and boomerang uniformities", _uniformity, with_algo=True
    )
    add_verb("walsh", "full Walsh spectrum", _walsh, with_json=True)

    p = add_verb("moment", "BCT moment, table-side vs spectrum-side", _moment)
    p.add_argument("--j", type=int, default=1, choices=(1, 2), help="moment order")

    p = add_verb("certify", "uniformity certificates from moments", _certify)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--delta", type=int, help="certify boomerang uniformity <= delta")
    mode.add_argument(
        "--two-uniform",
        action="store_true",
        help="spectrum-only test for boomerang uniformity 2",
    )

    add_verb("family", "emit a family S-box in file format", _family)

    p = sub.add_parser("reproduce", help="run the reference-value registry")
    p.add_argument("--tier", choices=("fast", "full"), default="fast")
    p.add_argument("--claim", action="append", help="run only this claim id (repeatable)")
    p.add_argument("--audit", type=int, help="append the per-case audit for this n")
    p.add_argument("--budget", type=float, default=600.0, help="per-claim budget (s)")
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _load_sbox(args) -> SBox:
    field = parse_field(args.field) if args.field else None
    if args.file:
        return read_sbox(args.file, field)
    return FamilySpec.parse(args.family).build(field)


def _json_pieces(payload: dict):
    """The text of json.dumps(payload, indent=2) + "\\n", one field at a time.

    Each field value is written as json.dumps writes it inside a dict, and
    an integer ndarray as its row-major list, one row of decimal strings
    (see _decimal_rows) at a time, never built as a list of Python ints.
    """
    sep = "{\n"
    for key, v in payload.items():
        yield f"{sep}  {json.dumps(key)}: "
        if not isinstance(v, np.ndarray):
            yield json.dumps(v, indent=2).replace("\n", "\n  ")
        elif v.size == 0:
            yield "[]"
        else:
            lead = "[\n    "
            for row in _decimal_rows(v):
                yield lead
                yield ",\n    ".join(row)
                lead = ",\n    "
            yield "\n  ]"
        sep = ",\n"
    yield "\n}\n"


def _write(result, out_path) -> None:
    """Write text, text chunks or a JSON payload to out_path or stdout, chunk by chunk.

    A payload is written as json.dumps(indent=2) of it with each integer
    ndarray as its row-major list: a non-empty dict field by field (see
    _json_pieces), in chunks of about tables._CHUNK characters, anything
    else whole. out_path is opened only once the first chunk exists, so a
    request that fails before it leaves no file.
    """
    if isinstance(result, str):
        chunks = iter([result])
    elif isinstance(result, dict) and result:
        chunks = _chunks(_json_pieces(result))
    elif isinstance(result, Iterator):
        chunks = result
    else:
        chunks = iter([json.dumps(result, indent=2) + "\n"])
    first = next(chunks, "")
    with open(out_path, "w", encoding="ascii") if out_path else nullcontext(sys.stdout) as fh:
        fh.write(first)
        del first
        for chunk in chunks:
            fh.write(chunk)
            del chunk  # so no written chunk is held while the next is built


def _reproduce(args) -> int:
    """The one verb without an S-box: exits 1 when any claim fails.

    The audit runs first, so a refused n exits 2 before any claim runs; its
    reports still follow the claims'.
    """
    audit = [] if args.audit is None else appendix_case_audit(args.audit)
    if args.claim:
        reports = [reproduce(cid, args.budget) for cid in args.claim]
    else:
        reports = reproduce_all(args.tier, args.budget)
    reports += audit
    _write([r.to_json() for r in reports], args.out)
    return 1 if any(r.status == "fail" for r in reports) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        if args.verb == "reproduce":
            return _reproduce(args)
        _write(args.run(_load_sbox(args), args), args.out)
        return 0
    except (ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
