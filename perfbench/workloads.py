"""The benchmark's workloads: inputs drawn from a seed, one pass of ops, the gate.

A pass is the unit the benchmark repeats: every stratum of the sweep, the
three-route check on every small stratum, the twisted classes and loci,
or one deck of CLI invocations.  Each library pass starts from a cold
class cache, since every user process pays for filling it.  Library
functions are called through their modules (``plucker.plucker_table``),
so that a tracer installed on those modules sees the calls.

The gate runs after the timed pass and never raises: an op whose output
is wrong counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rootstrata import crs, dpoly, flagcalc, plucker, universal
from rootstrata.dpoly import D, DPoly
from rootstrata.partitions import Partition, stratum_partitions
from rootstrata.schur import SchurExpansion

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def strata(max_weight, min_weight=0):
    return [lam for w in range(min_weight, max_weight + 1)
            for lam in stratum_partitions(w)]


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _coeffs(p):
    return ",".join(str(c) for c in p.coeffs)


def cold_cache():
    crs._crs_cached.cache_clear()


class LibraryWorkload:
    """The same ops in every pass, each pass from a cold class cache."""

    def passes(self):
        while True:
            yield self.ops

    begin_pass = staticmethod(cold_cache)


class Sweep(LibraryWorkload):
    """Pluecker table of every stratum of weight <= 14, in weight order.

    The job a user of the paper runs; all of it is the symbolic peel.  The
    seed only draws the degree at which each table is also evaluated, so the
    peel work, and the digest of the tables, do not depend on it.
    """

    name = "sweep"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.size = "small" if small else "full"
        self.ops = [(lam, rng.randint(lam.weight, 2 * lam.weight + 10))
                    for lam in strata(6 if small else 14)]

    @staticmethod
    def run(op):
        lam, d = op
        table = plucker.plucker_table(lam)
        return table, table.evaluate(d)

    def check(self, ops, outputs):
        lines = [f"{lam}|" + ";".join(f"{i}:{_coeffs(p)}" for i, p in table)
                 for (lam, _), (table, _) in zip(ops, outputs)]
        tables_ok = digest(lines) == EXPECTED["sweep"][self.size]
        double_root = crs.crs_class((2,)).expansion == SchurExpansion({(1, 0): D * (D - 1)})
        return [not (tables_ok and double_root
                     and all(v.denominator == 1 for _, v in values))
                for _, values in outputs]


class Routes(LibraryWorkload):
    """The three independent routes on every stratum of weight <= 9.

    Symbolic class; crs_class_at over weight+2 integer degrees, interpolated;
    the flag-bundle resolution.  The seed draws where each window of degrees
    starts and which part the resolution peels.  Most arithmetic here has
    Fraction scalars, not d-polynomials.
    """

    name = "routes"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.ops = []
        for lam in strata(5 if small else 9):
            start = rng.randint(lam.weight, lam.weight + 4)
            peel = rng.choice(sorted(set(lam.parts))) if lam else None
            self.ops.append((lam, range(start, start + lam.weight + 2), peel))

    @staticmethod
    def run(op):
        lam, window, peel = op
        symbolic = crs.crs_class(lam).expansion
        per_d = {d0: crs.crs_class_at(lam, d0) for d0 in window}
        indices = set(symbolic.coeffs).union(*(e.coeffs for e in per_d.values()))
        interpolated = {
            kl: dpoly.interpolate([(d0, per_d[d0].coefficient(*kl)) for d0 in window],
                                  lam.weight)
            for kl in indices}
        resolved = flagcalc.tangency_class_resolution(lam, lam.codim + 2, peel)
        return symbolic, interpolated, resolved.expansion

    @staticmethod
    def check(ops, outputs):
        failed = []
        for symbolic, interpolated, resolved in outputs:
            per_d_ok = all(
                poly == _as_dpoly(symbolic.coefficient(*kl))
                for kl, poly in interpolated.items())
            failed.append(not (per_d_ok and resolved == symbolic))
        return failed


def _as_dpoly(c):
    return c if isinstance(c, DPoly) else DPoly((c,))


TWISTED_CLASSES = [(6, 5, 4, 3, 2), (7, 6, 3), (4, 4, 3, 3, 2), (5, 4, 3, 2, 2)]
TWISTED_HILBERT = [(2,), (3,), (4,), (2, 2), (3, 2), (5,), (3, 3), (2, 2, 2)]
TWISTED_PENCIL = [((2, 2), 2), ((3, 2), 3), ((3, 2), 2), ((4,), 4),
                  ((4, 2), 2), ((2, 2, 2), 2), ((3, 3), 3)]
TWISTED_FLEX = [((3, 2), 3), ((3, 2), 2), ((4, 2, 2), 2), ((4, 2), 4),
                ((5,), 5), ((3, 3), 3)]
TWISTED_SMALL = ([(3, 2), (2, 2)], [(2,), (3,)], [((2, 2), 2)], [((3, 2), 3)])


class Twisted(LibraryWorkload):
    """Classes twisted by the moduli hyperplane, and tangency-point loci.

    universal_class on four strata of weight 16-20 dominates: a few large
    three-variable substitute_homogeneous calls with denominator d, unlike
    the sweep's many small two-variable ones.  Small hilbert degrees and
    loci fill the pass to 25 ops, so that the median and the 90th percentile
    of a pass fall inside a group of equal ops, not between two.  The seed
    draws the ambient n of the loci.
    """

    name = "twisted"

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.size = "small" if small else "full"
        self.n = rng.randint(3, 6)
        classes, hilbert, pencil, flex = (
            TWISTED_SMALL if small else
            (TWISTED_CLASSES, TWISTED_HILBERT, TWISTED_PENCIL, TWISTED_FLEX))
        self.ops = ([("hilbert", lam) for lam in hilbert]
                    + [("pencil", lam, m, self.n) for lam, m in pencil]
                    + [("flex", lam, m, self.n) for lam, m in flex]
                    + [("universal", lam) for lam in classes])

    @staticmethod
    def run(op):
        kind, *args = op
        if kind == "universal":
            return universal.universal_class(*args).poly
        if kind == "hilbert":
            return universal.hilbert_degree(*args)
        if kind == "pencil":
            return universal.pencil_locus_class(*args).poly
        return flagcalc.flex_point_locus_class(*args).poly

    def check(self, ops, outputs):
        wanted = EXPECTED["twisted"][self.size]
        classes = [(op, out) for op, out in zip(ops, outputs)
                   if op[0] in ("universal", "hilbert")]
        loci = [(op, out) for op, out in zip(ops, outputs)
                if op[0] in ("pencil", "flex")]
        classes_ok = digest(f"{op}|{out}" for op, out in classes) == wanted["classes"]
        loci_ok = digest(f"{op}|{out}" for op, out in loci) == wanted["loci"][str(self.n)]
        hilbert_two = dict(classes).get(("hilbert", (2,)))
        classes_ok = classes_ok and hilbert_two == DPoly((-2, 2))
        return [not (classes_ok if op[0] in ("universal", "hilbert") else loci_ok)
                for op in ops]


class Command:
    """One CLI invocation and how to check it.

    ref is ("doc", docs function name, args, kwargs) for a document the
    docs module builds in-process, ("selftest",), or ("refuse", exit code).
    value, when set, is the "value" field the document must carry.
    """

    __slots__ = ("argv", "ref", "value")

    def __init__(self, argv, ref, value=None):
        self.argv = tuple(argv) + ("--json",)
        self.ref = ref
        self.value = value

    def __repr__(self):
        return " ".join(self.argv)


# Documented refusals that stay as they are: parts below 2, d below the
# weight, n below 3 (exit 3); an unknown choice, a missing or malformed
# option (exit 2).
REFUSALS = [
    (("class", "3,1"), 3),
    (("plucker", "2,2", "--at", "d=3"), 3),
    (("hyperflex", "--n", "2"), 3),
    (("class", "2", "--basis", "foo"), 2),
    (("lines",), 2),
    (("class", "2,2", "--at", "4"), 2),
]


def _text(lam):
    return ",".join(str(p) for p in lam.parts)


def _deck(rng, small):
    """One shuffled deck: every command of the mix, its parameters drawn."""
    big, mid = strata(8, 2), strata(6, 2)

    def doc(fn, argv, *args, value=None, **kwargs):
        return Command(argv, ("doc", fn, args, kwargs), value)

    def part(lam):
        return rng.choice(sorted(set(lam.parts)))

    def at(lam):
        return rng.randint(lam.weight, lam.weight + 10)

    if small:
        deck = [doc("class_document", ["class", "2"], Partition((2,))),
                doc("hyperflex_document", ["hyperflex", "--n", "4"], 4, value="575"),
                doc("lines_document", ["lines", "--n", "4"], 4, value="2875"),
                doc("flex_document", ["flex", "3"], 3)]
        argv, code = rng.choice(REFUSALS)
        deck.append(Command(argv, ("refuse", code)))
        rng.shuffle(deck)
        return deck
    deck = []
    lam = rng.choice(big)
    deck.append(doc("class_document", ["class", _text(lam)], lam))
    lam = rng.choice(big)
    d = at(lam)
    deck.append(doc("class_document", ["class", _text(lam), "--at", f"d={d}"],
                    lam, at=d))
    lam = rng.choice(big)
    deck.append(doc("class_document", ["class", _text(lam), "--basis", "chern"],
                    lam, basis="chern"))
    lam = rng.choice(big)
    d = at(lam)
    deck.append(doc("class_document",
                    ["class", _text(lam), "--basis", "roots", "--at", f"d={d}"],
                    lam, basis="roots", at=d))
    lam = rng.choice(big)
    deck.append(doc("plucker_document", ["plucker", _text(lam)], lam))
    lam = rng.choice(big)
    d = at(lam)
    deck.append(doc("plucker_document", ["plucker", _text(lam), "--at", f"d={d}"],
                    lam, at=d))
    lam = rng.choice(big)
    deck.append(doc("asymptotic_document", ["asymptotic", _text(lam)], lam))
    m = rng.randint(2, 9)
    deck.append(doc("flex_document", ["flex", str(m)], m))
    deck.append(doc("hyperflex_document", ["hyperflex", "--n", "4"], 4, value="575"))
    n = rng.randint(3, 9)
    deck.append(doc("hyperflex_document", ["hyperflex", "--n", str(n)], n))
    deck.append(doc("lines_document", ["lines", "--n", "4"], 4, value="2875"))
    n = rng.randint(3, 7)
    deck.append(doc("lines_document", ["lines", "--n", str(n)], n))
    lam = rng.choice(mid)
    m, basis = part(lam), rng.choice(["zeta-eta", "zeta-sigma"])
    deck.append(doc("incidence_document",
                    ["incidence", _text(lam), "--m", str(m), "--basis", basis],
                    lam, m, basis=basis))
    lam = rng.choice(mid)
    m, n = part(lam), rng.randint(3, 6)
    deck.append(doc("flexlocus_document",
                    ["flexlocus", _text(lam), "--m", str(m), "--n", str(n)],
                    lam, m, n))
    lam = rng.choice(mid)
    deck.append(doc("universal_document", ["universal", _text(lam)], lam))
    lam = rng.choice(mid)
    m, n = part(lam), rng.randint(3, 6)
    deck.append(doc("pencil_document",
                    ["pencil", _text(lam), "--m", str(m), "--n", str(n)], lam, m, n))
    # The self-test is the one command with real kernel work, and the slowest.
    # Five copies in a deck of 25 put the 90th percentile in the middle of
    # their block, and the median on one command of an odd deck, so neither
    # falls on the edge between two commands, where its value would jump.
    deck.extend(Command(["selftest"], ("selftest",)) for _ in range(5))
    for argv, code in rng.sample(REFUSALS, 4):
        deck.append(Command(argv, ("refuse", code)))
    rng.shuffle(deck)
    return deck


class Cli:
    """Cold ``python -m rootstrata.cli <cmd> --json`` processes, one client.

    A closed loop: the next invocation starts when the previous one has
    exited.  Each pass is one deck holding every command of a fixed mix,
    shuffled and with parameters drawn by the seed, so every pass has the
    same composition.  Interpreter start, imports, argparse, document
    building and JSON emission dominate; no kernel does much work.
    """

    name = "cli"
    decks_drawn = 40

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.decks = [_deck(rng, small) for _ in range(self.decks_drawn)]

    def passes(self):
        while True:
            yield from self.decks

    @staticmethod
    def begin_pass():
        pass

    @staticmethod
    def run(cmd):
        try:
            proc = subprocess.run([sys.executable, "-m", "rootstrata.cli", *cmd.argv],
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return None, "", "timed out"
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def run_in_process(cmd):
        """The same invocation through rootstrata.cli.main, cold class cache."""
        from rootstrata import cli

        cold_cache()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check(ops, outputs):
        references = {}
        return [not _command_ok(cmd, out, references) for cmd, out in zip(ops, outputs)]


def _reference(cmd):
    from rootstrata import docs, golden

    if cmd.ref[0] == "selftest":
        results = golden.run_all()
        return {"command": "selftest", "ok": all(ok for _, ok, _ in results),
                "checks": [{"name": name, "ok": ok, "detail": detail or ""}
                           for name, ok, detail in results]}
    _, fn, args, kwargs = cmd.ref
    return json.loads(docs.emit_json(getattr(docs, fn)(*args, **kwargs)))


def _command_ok(cmd, output, references):
    code, stdout, _ = output
    if cmd.ref[0] == "refuse":
        return code == cmd.ref[1] and stdout == ""
    if code != 0:
        return False
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    if cmd.argv not in references:
        references[cmd.argv] = _reference(cmd)
    wanted = references[cmd.argv]
    if cmd.ref[0] == "selftest" and not wanted["ok"]:
        return False
    return got == wanted and (cmd.value is None or got.get("value") == cmd.value)


WORKLOADS = {w.name: w for w in (Sweep, Routes, Twisted, Cli)}
