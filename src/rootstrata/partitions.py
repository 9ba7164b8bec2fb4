"""Integer partitions indexing root coincidence patterns."""

from __future__ import annotations

import re
from collections import Counter
from functools import total_ordering
from math import factorial, prod
from operator import index

from .errors import InvalidPartition

# Largest weight Partition.parse accepts.  The class of 2^10 takes a
# fraction of a second, that of 2^50 (weight 100) about 0.6 s cold on a
# 2-core box (median of 3 `class 2^50 --json` runs); the bound also keeps a
# count like 2^400000000 from being allocated.
MAX_WEIGHT = 100


def _quoted(text):
    """repr of text for a message, cut to its first 10 characters and ... if longer."""
    return repr(text) if len(text) <= 10 else f"{text[:10]!r}..."


# Integer text is an optional minus sign and ASCII digits; int() alone would
# also read '_' separators, a '+', blanks and the digits of other scripts.
INTEGER = re.compile(r"-?[0-9]+")


def read_int(text):
    """int(text) when INTEGER matches all of text; ValueError otherwise."""
    if not INTEGER.fullmatch(text):
        raise ValueError(f"not integer text: {_quoted(text)}")
    return int(text)


@total_ordering
class Partition:
    """Weakly decreasing tuple of positive parts, ordered by (weight, parts).

    weight is the sum of the parts; codim, the weight of the reduction, is
    the codimension of the stratum.
    """

    __slots__ = ("parts", "weight", "codim")

    def __init__(self, parts=()):
        ps = sorted(map(index, parts), reverse=True)
        if ps and ps[-1] < 1:
            raise InvalidPartition(f"parts must be positive, got {ps}")
        self.parts = tuple(ps)
        self.weight = sum(ps)
        self.codim = self.weight - len(ps)

    @classmethod
    def parse(cls, text):
        """Read '3,2,2' or '2^3' or '4,2^2'; '' and '-' mean the empty partition.

        A weight above MAX_WEIGHT raises InvalidPartition before any repeat
        count is expanded.
        """
        text = text.strip()
        if text in ("", "-"):
            return cls()
        parts = []
        weight = 0
        try:
            for token in text.split(","):
                token = token.strip()
                if not token:
                    continue
                base, caret, count = token.partition("^")
                base, count = read_int(base), read_int(count) if caret else 1
                if count < 1:
                    raise InvalidPartition(f"repeat count in {_quoted(token)} must be at least 1")
                # parts below 1 are refused by the constructor; count them as 1
                weight += max(base, 1) * count
                if weight > MAX_WEIGHT:
                    raise InvalidPartition(
                        f"partition {_quoted(text)} exceeds the maximum weight {MAX_WEIGHT}")
                parts.extend([base] * count)
        except ValueError:
            raise InvalidPartition(f"cannot read partition {_quoted(text)}") from None
        return cls(parts)

    @property
    def largest(self):
        return self.parts[0] if self.parts else 0

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.weight, self.parts) < (other.weight, other.parts)

    def multiplicities(self):
        """Map part value -> how often it occurs, largest part first."""
        return Counter(self.parts)

    def multiplicity(self, v):
        return self.parts.count(v)

    def multiplicity_factorial(self):
        """Product of e! over the multiplicities e of the part values."""
        return prod(map(factorial, self.multiplicities().values()))

    def reduction(self):
        """Partition of the parts each lowered by one, zeros dropped."""
        return Partition(p - 1 for p in self.parts if p > 1)

    def remove_one(self, v):
        """Drop a single copy of the part v; a missing part raises InvalidPartition."""
        if v not in self.parts:
            raise InvalidPartition(f"{v} is not a part of {self}")
        ps = list(self.parts)
        ps.remove(v)
        return Partition(ps)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def __repr__(self):
        return f"Partition({self.parts})"


def validate_stratum(lam):
    """The Partition of lam (a Partition, text like '3,2,2' or parts), every part >= 2.

    Coincidence patterns need every part to be at least 2.
    """
    if not isinstance(lam, Partition):
        lam = Partition.parse(lam) if isinstance(lam, str) else Partition(lam)
    if lam.parts and lam.parts[-1] < 2:
        raise InvalidPartition(f"stratum partition needs parts >= 2, got {lam}")
    return lam


def stratum_partitions(weight):
    """All partitions of the given weight with parts >= 2."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 1, -1):
            if remaining - first == 1:
                continue
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for parts in rec(weight, weight):
        yield Partition(parts)
