"""Command line interface.

Exit codes: 0 success, 1 self-test mismatch, 2 usage error,
3 domain error (bad partition or degree), 4 internal failure (a broken
invariant or any other unexpected exception, reported in one line).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import docs, golden
from .errors import DegreeTooSmall, InvalidPartition, OutOfRange
from .partitions import Partition

DOMAIN_ERRORS = (InvalidPartition, DegreeTooSmall, OutOfRange)


def _at_value(text):
    m = re.fullmatch(r"d=(-?\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected d=<integer>, got {text!r}")
    return int(m.group(1))


def _add_common(sub, at=True):
    if at:
        sub.add_argument("--at", type=_at_value, default=None,
                         metavar="d=K", help="evaluate at a concrete degree")
    sub.add_argument("--json", action="store_true",
                     help="emit a JSON document instead of text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rootstrata",
        description="Classes and enumerative invariants of coincident "
                    "root strata of binary forms.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("class", help="stratum class in the Schur basis")
    p.add_argument("partition", help="parts >= 2, e.g. 3,2,2 or 2^3")
    p.add_argument("--basis", choices=("schur", "chern", "roots"),
                   default="schur")
    _add_common(p)

    p = subs.add_parser("plucker", help="generalized tangent-line counts")
    p.add_argument("partition")
    _add_common(p)

    p = subs.add_parser("asymptotic",
                        help="leading coefficients of the tangent counts")
    p.add_argument("partition")
    _add_common(p, at=False)

    p = subs.add_parser("flex", help="closed-form counts for one m-fold root")
    p.add_argument("m", type=int)
    _add_common(p)

    p = subs.add_parser("hyperflex",
                        help="hypertangent lines of a generic hypersurface")
    p.add_argument("--n", type=int, required=True,
                   help="number of homogeneous coordinates")
    _add_common(p, at=False)

    p = subs.add_parser("lines",
                        help="lines on a generic degree-(2n-3) hypersurface")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, at=False)

    p = subs.add_parser("incidence",
                        help="class of the root-incidence variety")
    p.add_argument("partition")
    p.add_argument("--m", type=int, required=True,
                   help="part whose root is marked")
    p.add_argument("--basis", choices=("zeta-eta", "zeta-sigma"),
                   default="zeta-eta")
    _add_common(p)

    p = subs.add_parser("flexlocus",
                        help="locus of m-fold tangency points on a "
                             "generic hypersurface")
    p.add_argument("partition")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("universal",
                        help="stratum class twisted by a hyperplane class")
    p.add_argument("partition")
    _add_common(p)

    p = subs.add_parser("pencil",
                        help="tangency points along a generic pencil")
    p.add_argument("partition")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("selftest", help="recompute the frozen golden corpus")
    p.add_argument("--json", action="store_true")

    return parser


def _check_at(at, minimum, what):
    if at is not None and at < minimum:
        raise DegreeTooSmall(f"d={at} is below {what} {minimum}")


def _check_n(n):
    if n < 3:
        raise OutOfRange(f"need n >= 3, got {n}")


def _build_document(args):
    if args.command in ("class", "plucker", "asymptotic", "incidence",
                        "flexlocus", "universal", "pencil"):
        lam = Partition.parse(args.partition)
        if getattr(args, "at", None) is not None:
            _check_at(args.at, lam.weight, "the weight")
    if args.command == "class":
        return docs.class_document(lam, basis=args.basis, at=args.at)
    if args.command == "plucker":
        return docs.plucker_document(lam, at=args.at)
    if args.command == "asymptotic":
        return docs.asymptotic_document(lam)
    if args.command == "flex":
        _check_at(args.at, args.m, "the root order")
        return docs.flex_document(args.m, at=args.at)
    if args.command == "hyperflex":
        _check_n(args.n)
        return docs.hyperflex_document(args.n)
    if args.command == "lines":
        _check_n(args.n)
        return docs.lines_document(args.n)
    if args.command == "incidence":
        return docs.incidence_document(lam, args.m, basis=args.basis,
                                       at=args.at)
    if args.command == "flexlocus":
        _check_n(args.n)
        return docs.flexlocus_document(lam, args.m, args.n, at=args.at)
    if args.command == "universal":
        return docs.universal_document(lam, at=args.at)
    if args.command == "pencil":
        _check_n(args.n)
        return docs.pencil_document(lam, args.m, args.n, at=args.at)
    raise AssertionError(f"unhandled command {args.command}")


def _run_selftest(as_json, out):
    results = golden.run_all()
    failures = [r for r in results if not r[1]]
    if as_json:
        doc = {
            "command": "selftest",
            "ok": not failures,
            "checks": [{"name": name, "ok": ok,
                        "detail": detail or ""}
                       for name, ok, detail in results],
        }
        print(docs.emit_json(doc), file=out)
    else:
        for name, ok, detail in results:
            if ok:
                print(f"ok      {name}", file=out)
            else:
                print(f"FAIL    {name}: {detail}", file=out)
        print(f"{len(results) - len(failures)}/{len(results)} checks pass",
              file=out)
    return 1 if failures else 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    if args.command == "selftest":
        return _run_selftest(args.json, sys.stdout)
    try:
        doc = _build_document(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a failed invariant or any other fault: one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4
    if args.json:
        print(docs.emit_json(doc))
    else:
        print(docs.emit_text(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
