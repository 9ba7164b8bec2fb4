"""Command line interface.

Every subcommand comes from one table and is built by
docs.<command>_document from its parsed options.

Exit codes: 0 success, 1 self-test mismatch, 2 usage error,
3 domain error (bad partition or degree), 4 internal failure (a broken
invariant or any other unexpected exception, reported in one line).
A reader that closes stdout early changes neither the code nor stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import docs
from .errors import DegreeTooSmall, InvalidPartition, OutOfRange
from .partitions import INTEGER, Partition, _quoted, read_int

DOMAIN_ERRORS = (InvalidPartition, DegreeTooSmall, OutOfRange)


def _int(text):
    """read_int, refused in argparse's words with a short quote of the text."""
    try:
        return read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


def _at_value(text):
    if not (text.startswith("d=") and INTEGER.fullmatch(text, 2)):
        raise argparse.ArgumentTypeError(f"expected d=<integer>, got {_quoted(text)}")
    try:
        return int(text[2:])
    except ValueError:
        # above Python's int-from-text digit limit; echo none of the digits
        raise argparse.ArgumentTypeError(
            f"d has more than {sys.get_int_max_str_digits()} digits") from None


class _Parser(argparse.ArgumentParser):
    """argparse whose choice and leftover-argument refusals quote the text through _quoted.

    argparse echoes a refused choice whole from _check_value, the one check
    it runs for --basis and for the command alike (subparsers are built from
    the parser's own class); this one keeps 3.10-3.12's words on every Python.
    Arguments no parser takes reach parse_args as the top parser's leftovers.
    """

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {_quoted(' '.join(extras))}")
        return parsed

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_quoted(value)} (choose from {choices})")


def build_parser():
    shared = {
        "--m": {"type": _int, "required": True},
        "--n": {"type": _int, "required": True},
        "--at": {"type": _at_value, "default": None, "metavar": "d=K",
                 "help": "evaluate at a concrete degree"},
        "--json": {"action": "store_true", "help": "emit a JSON document instead of text"},
    }
    # command: (help, {argument: spec that adds to or overrides the shared one})
    commands = {
        "class": ("stratum class in the Schur basis", {
            "partition": {"help": "parts >= 2, e.g. 3,2,2 or 2^3"},
            "--basis": {"choices": ("schur", "chern", "roots"), "default": "schur"},
            "--at": {}, "--json": {}}),
        "plucker": ("generalized tangent-line counts",
                    {"partition": {}, "--at": {}, "--json": {}}),
        "asymptotic": ("leading coefficients of the tangent counts",
                       {"partition": {}, "--json": {}}),
        "flex": ("closed-form counts for one m-fold root",
                 {"m": {"type": _int}, "--at": {}, "--json": {}}),
        "hyperflex": ("hypertangent lines of a generic hypersurface", {
            "--n": {"help": "number of homogeneous coordinates"}, "--json": {}}),
        "lines": ("lines on a generic degree-(2n-3) hypersurface",
                  {"--n": {}, "--json": {}}),
        "incidence": ("class of the root-incidence variety", {
            "partition": {}, "--m": {"help": "part whose root is marked"},
            "--basis": {"choices": ("zeta-eta", "zeta-sigma"), "default": "zeta-eta"},
            "--at": {}, "--json": {}}),
        "flexlocus": ("locus of m-fold tangency points on a generic hypersurface",
                      {"partition": {}, "--m": {}, "--n": {}, "--at": {}, "--json": {}}),
        "universal": ("stratum class twisted by a hyperplane class",
                      {"partition": {}, "--at": {}, "--json": {}}),
        "pencil": ("tangency points along a generic pencil",
                   {"partition": {}, "--m": {}, "--n": {}, "--at": {}, "--json": {}}),
        "selftest": ("recompute the frozen golden corpus", {"--json": {"help": None}}),
    }
    parser = _Parser(
        prog="rootstrata",
        description="Classes and enumerative invariants of coincident "
                    "root strata of binary forms.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, arguments) in commands.items():
        sub = subs.add_parser(command, help=text)
        for name, spec in arguments.items():
            sub.add_argument(name, **{**shared.get(name, {}), **spec})
    return parser


def _check_at(at, minimum, what):
    if at is not None and at < minimum:
        raise DegreeTooSmall(f"d={at} is below {what} {minimum}")


def _build_document(command, **fields):
    """docs.<command>_document of the parsed fields, after the domain checks."""
    if "partition" in fields:
        fields["lam"] = lam = Partition.parse(fields.pop("partition"))
        _check_at(fields.get("at"), lam.weight, "the weight")
    elif "at" in fields:
        # without a partition, --at comes with the order m of one root (flex)
        _check_at(fields["at"], fields["m"], "the root order")
    if "n" in fields and fields["n"] < 3:
        raise OutOfRange(f"need n >= 3, got {fields['n']}")
    return getattr(docs, f"{command}_document")(**fields)


def main(argv=None):
    try:
        fields = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code
    as_json = fields.pop("json")
    try:
        doc = _build_document(**fields)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a failed invariant or any other fault: one line, never a traceback
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4
    try:
        print(docs.emit_json(doc) if as_json else docs.emit_text(doc), flush=True)
    except BrokenPipeError:
        # the reader is gone; point fd 1 at devnull so the exit flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
    return 0 if doc.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
