"""Rotation words: reduced sequences of (axis, signed exponent) segments.

A word is applied left to right: the first segment acts first.  Reduced means
adjacent segments use different axes and no exponent is zero; `from_steps`
normalizes any raw sequence into that shape (merging runs, cascading).

Serialized form: segments "r<axis>^<exp>" joined by dots, e.g. "r1^2.r3^-4".
The empty word serializes as "e".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Tuple

from .core import Triple, rotation_power

Step = Tuple[int, int]

_SEG = re.compile(r"^r([123])\^(-?\d+)$")


@dataclass(frozen=True)
class PathWord:
    steps: Tuple[Step, ...]

    @classmethod
    def from_steps(cls, raw: Iterable[Step]) -> "PathWord":
        stack: list[list[int]] = []
        for axis, n in raw:
            if axis not in (1, 2, 3):
                raise ValueError(f"bad rotation axis {axis}")
            if n == 0:
                continue
            if stack and stack[-1][0] == axis:
                stack[-1][1] += n
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([axis, n])
        return cls(tuple((a, n) for a, n in stack))

    @property
    def length(self) -> int:
        """Total rotation count, sum of |exponent|."""
        return sum(abs(n) for _, n in self.steps)

    @property
    def switches(self) -> int:
        """Number of segments (axis changes plus one, zero for the empty word)."""
        return len(self.steps)

    def __str__(self) -> str:
        if not self.steps:
            return "e"
        return ".".join(f"r{a}^{n}" for a, n in self.steps)

    @classmethod
    def parse(cls, text: str) -> "PathWord":
        text = text.strip()
        if text == "e" or text == "":
            return cls(())
        steps = []
        for part in text.split("."):
            m = _SEG.match(part.strip())
            if not m:
                raise ValueError(f"bad word segment {part!r}")
            steps.append((int(m.group(1)), int(m.group(2))))
        return cls.from_steps(steps)

    def apply_mod(self, x: Triple, p: int) -> Triple:
        for axis, n in self.steps:
            x = rotation_power(x, axis, n, p)
        return x

    def inverse(self) -> "PathWord":
        return PathWord(tuple((a, -n) for a, n in reversed(self.steps)))

    def concat(self, other: "PathWord") -> "PathWord":
        return PathWord.from_steps(self.steps + other.steps)
