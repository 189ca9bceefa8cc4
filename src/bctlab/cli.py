"""Command-line front end.

Verbs: ddt, bct, uniformity, walsh, moment, certify, family, reproduce.
Input is either an S-box file (--file) or a family specification
(--family "name key=value ..."); --field n:reduction-hex overrides the
default reduction polynomial. Output goes to stdout or --out: ddt, bct
and walsh print CSV, or JSON with --json; family prints the S-box file
format; every other verb prints JSON ("schema": 1) and takes no --json.
Exit codes: 0 success, 1 failed reproduction claims or a reader that
closed stdout early (| head: the rest of the output is dropped, with
nothing on stderr), 2 usage or input errors and requests refused by the
one refusal rule: a table refuses by memory; a stream or a row sum never
does; the O(2^3n) oracles and S_2 refuse by cost. So walsh CSV and JSON
and moment --j 1 serve every n to 16. CSV is byte-identical across BCT
algorithms, and JSON differs only in its "algorithm" field. The writers
take a table's values only as a row source: the text of a table, CSV or
JSON list, comes a block of rows at a time straight from it (a built
table's counts as tables._blocks_of of them), and moment and certify sum
the spectrum's rows, one per orbit of the map's symmetry, with no table
either. Only ddt and bct --json build a table, since max_nonzero comes
before the counts (and --algo naive and system build theirs); walsh
writes its CSV and JSON with none. --out is opened only once the first
chunk exists, so a request refused with exit 2 leaves no file.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import asdict

from .gf2n import parse_field
from .sbox import SBox, read_sbox, write_sbox
from .tables import (
    _bct_fast_blocks,
    _blocks_of,
    _csv_chunks,
    _ddt_blocks,
    _json_list_chunks,
    _ktable_fields,
    bct,
    boomerang_uniformity,
    ddt,
)
from .walsh import (
    _walsh_blocks,
    bct_moment_direct,
    bct_moment_walsh,
    delta_uniform_certificate,
    two_uniform_certificate,
)
from .families import FamilySpec
from .verify import appendix_case_audit, reproduce, reproduce_all

__all__ = ["main"]


# -- verb handlers: (S-box, args) -> text chunks or a JSON value -----------------


def _table_out(t, args):
    if not args.json:
        return _csv_chunks("a\\b", t.counts.shape, _blocks_of(t.counts))
    return {"schema": 1, "field": t.spec.label(), **_ktable_fields(t)}


def _ddt(f: SBox, args):
    if args.json:
        return _table_out(ddt(f), args)
    return _csv_chunks("a\\b", (f.spec.size,) * 2, _ddt_blocks(f))


def _bct(f: SBox, args):
    if args.json or args.algo != "fast":
        return _table_out(bct(f, algorithm=args.algo), args)
    return _csv_chunks("a\\b", (f.spec.size,) * 2, _bct_fast_blocks(f))


def _uniformity(f: SBox, args):
    rep = boomerang_uniformity(f, algorithm=args.algo)
    return {"schema": 1, "n": f.spec.n, "field": f.spec.label(), **asdict(rep)}


def _walsh(f: SBox, args):
    if not args.json:
        return _csv_chunks("u\\v", (f.spec.size,) * 2, _walsh_blocks(f))
    return {
        "schema": 1,
        "n": f.spec.n,
        "field": f.spec.label(),
        "values": _walsh_blocks(f),
    }


def _moment(f: SBox, args):
    # the spectrum side first: it refuses a non-permutation, or j = 2 past its
    # cost cap, before any BCT row is counted
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
    yield buf.getvalue()


@functools.cache  # parse_args keeps no state on the parser, so one per process serves every call
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


def _json_pieces(value):
    """The text of json.dumps(value, indent=2) + "\\n", in pieces.

    A non-empty dict goes field by field, each field as json.dumps writes
    it inside the dict, and a row source field (an iterator of (first row,
    block), see tables._text_blocks) as its row-major list, a block of rows
    at a time (see tables._json_list_chunks), never built as a list of
    Python ints. A list, {} or any other value goes whole.
    """
    if not (isinstance(value, dict) and value):
        yield json.dumps(value, indent=2) + "\n"
        return
    sep = "{\n"
    for key, v in value.items():
        yield f"{sep}  {json.dumps(key)}: "
        if isinstance(v, Iterator):
            yield from _json_list_chunks(v)
        else:
            yield json.dumps(v, indent=2).replace("\n", "\n  ")
        sep = ",\n"
    yield "\n}\n"


def _write(result, out_path) -> None:
    """Write text chunks or a JSON value to out_path or stdout, chunk by chunk.

    result is either an iterator of text chunks or a JSON value, which is
    written as json.dumps(indent=2) of it with each row-source field as its
    row-major list (see _json_pieces). out_path is opened only once the
    first chunk exists, so a request that fails before it leaves no file.
    """
    chunks = result if isinstance(result, Iterator) else _json_pieces(result)
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
            status = _reproduce(args)
        else:
            _write(args.run(_load_sbox(args), args), args.out)
            status = 0
        sys.stdout.flush()  # so a reader gone away shows here, not at exit
        return status
    except BrokenPipeError:
        # the text left in the buffer goes to /dev/null at exit, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
