"""Command-line front end.

Verbs: ddt, bct, uniformity, walsh, moment, certify, family, reproduce.
Input is either an S-box file (--file) or a family specification
(--family "name key=value ..."); --field n:reduction-hex overrides the
default reduction polynomial. Output goes to stdout or --out, CSV for
tables by default, JSON elsewhere ("schema": 1). Exit codes: 0 success,
1 failed reproduction claims, 2 usage or input errors. Output is
byte-identical across BCT algorithms. There is no thread option: the
library picks its own parallelism, and none of it changes a byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gf2n import parse_field
from .sbox import SBox, read_sbox, write_sbox
from .tables import (
    bct,
    boomerang_uniformity,
    ddt,
    ktable_to_csv,
    ktable_to_json,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bctlab",
        description="DDT/BCT/Walsh analysis of S-boxes over GF(2^n)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, with_input=True, with_algo=False):
        if with_input:
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
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    add_common(sub.add_parser("ddt", help="difference distribution table"))
    add_common(sub.add_parser("bct", help="boomerang connectivity table"), with_algo=True)
    add_common(
        sub.add_parser("uniformity", help="differential and boomerang uniformities"),
        with_algo=True,
    )
    add_common(sub.add_parser("walsh", help="full Walsh spectrum"))

    p = sub.add_parser("moment", help="BCT moment, table-side vs spectrum-side")
    add_common(p)
    p.add_argument("--j", type=int, default=1, choices=(1, 2), help="moment order")

    p = sub.add_parser("certify", help="uniformity certificates from moments")
    add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--delta", type=int, help="certify boomerang uniformity <= delta")
    mode.add_argument(
        "--two-uniform",
        action="store_true",
        help="spectrum-only test for boomerang uniformity 2",
    )

    p = sub.add_parser("family", help="emit a family S-box in file format")
    add_common(p)

    p = sub.add_parser("reproduce", help="run the reference-value registry")
    p.add_argument("--tier", choices=("fast", "full"), default="fast")
    p.add_argument("--claim", action="append", help="run only this claim id (repeatable)")
    p.add_argument("--audit", type=int, help="append the per-case audit for this n")
    p.add_argument("--budget", type=float, default=600.0, help="per-claim budget (s)")
    p.add_argument("--out", help="output path (default: stdout)")
    return parser


def _load_sbox(args) -> SBox:
    field = parse_field(args.field) if getattr(args, "field", None) else None
    if args.file:
        return read_sbox(args.file, field)
    return FamilySpec.parse(args.family).build(field)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out_path) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out_path)


def _spectrum_csv(sp) -> str:
    lines = ["u\\v," + ",".join(str(v) for v in range(sp.spec.size))]
    for u in range(sp.spec.size):
        lines.append(f"{u}," + ",".join(str(int(x)) for x in sp.values[u]))
    return "\n".join(lines) + "\n"


def _dispatch(args) -> int:
    verb = args.verb
    if verb == "reproduce":
        if args.claim:
            reports = [reproduce(cid, args.budget) for cid in args.claim]
        else:
            reports = reproduce_all(args.tier, args.budget)
        if args.audit is not None:
            reports.extend(appendix_case_audit(args.audit))
        _emit_json([r.to_json() for r in reports], args.out)
        return 1 if any(r.status == "fail" for r in reports) else 0

    f = _load_sbox(args)

    if verb == "family":
        import io

        buf = io.StringIO()
        write_sbox(f, buf)
        _emit(buf.getvalue(), args.out)
        return 0

    if verb in ("ddt", "bct"):
        table = ddt(f) if verb == "ddt" else bct(f, algorithm=args.algo)
        if args.json:
            payload = {"schema": 1, "field": f.spec.label()}
            payload.update(ktable_to_json(table))
            _emit_json(payload, args.out)
        else:
            _emit(ktable_to_csv(table), args.out)
        return 0

    if verb == "uniformity":
        rep = boomerang_uniformity(f, algorithm=args.algo)
        _emit_json(
            {
                "schema": 1,
                "n": f.spec.n,
                "field": f.spec.label(),
                "differential_uniformity": rep.differential_uniformity,
                "boomerang_uniformity": rep.boomerang_uniformity,
                "ddt_argmax": list(rep.ddt_argmax),
                "bct_argmax": list(rep.bct_argmax),
                "algorithm": rep.algorithm,
            },
            args.out,
        )
        return 0

    if verb == "walsh":
        sp = walsh_spectrum(f)
        if args.json:
            _emit_json(
                {
                    "schema": 1,
                    "n": f.spec.n,
                    "field": f.spec.label(),
                    "values": [int(v) for v in sp.values.ravel()],
                },
                args.out,
            )
        else:
            _emit(_spectrum_csv(sp), args.out)
        return 0

    if verb == "moment":
        direct = bct_moment_direct(f, args.j)
        spectrum_side = bct_moment_walsh(f, args.j)
        _emit_json(
            {
                "schema": 1,
                "n": f.spec.n,
                "j": args.j,
                "direct": direct,
                "walsh": spectrum_side,
                "equal": direct == spectrum_side,
            },
            args.out,
        )
        return 0

    if verb == "certify":
        if args.two_uniform:
            lhs, rhs, gap = two_uniform_certificate(f)
            _emit_json(
                {
                    "schema": 1,
                    "n": f.spec.n,
                    "lhs": lhs,
                    "rhs": rhs,
                    "gap": gap,
                    "is_two_uniform": gap == 0,
                },
                args.out,
            )
        else:
            value, is_zero = delta_uniform_certificate(f, args.delta)
            _emit_json(
                {
                    "schema": 1,
                    "delta": args.delta,
                    "value_numerator": value.numerator,
                    "value_denominator": value.denominator,
                    "is_zero": is_zero,
                },
                args.out,
            )
        return 0

    raise ValueError(f"unknown verb {verb!r}")  # pragma: no cover


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
