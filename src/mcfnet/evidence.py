"""Frames, focal sets, simple support functions, and Dempster's rule.

Focal sets are bitmasks over the frame elements, so intersection is a
bitwise AND and the frame size is capped at 63 (one machine word).
All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MASS_TOL = 1e-9
ONE_MINUS_K_FLOOR = 1e-12
# A commonality table enumerates all 2^|frame| subsets once.
MAX_TABLE_FRAME = 16


class FrameMismatchError(ValueError):
    """Operands are defined over different frames of discernment."""


class TotalConflictError(ArithmeticError):
    """Dempster combination is undefined because 1 - k vanished."""


@dataclass(frozen=True)
class Frame:
    """A finite frame of discernment with string labels for reporting."""

    size: int
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.size <= 63:
            raise ValueError(f"frame size must be in [1, 63], got {self.size}")
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(str(i) for i in range(1, self.size + 1))
            )
        elif len(self.labels) != self.size:
            raise ValueError("number of labels must equal frame size")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True)
class FocalSet:
    """A subset of the frame, one bit per element (bit i = element i+1)."""

    bits: int
    frame: Frame

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.frame.full_mask:
            raise ValueError(f"bits {self.bits:#x} not a subset of the frame")

    @classmethod
    def from_elements(cls, frame: Frame, elements: Iterable[int]) -> "FocalSet":
        """Build a focal set from 1-based element indices."""
        bits = 0
        for e in elements:
            if not 1 <= e <= frame.size:
                raise ValueError(f"element {e} outside frame of size {frame.size}")
            bits |= 1 << (e - 1)
        return cls(bits, frame)

    def intersect(self, other: "FocalSet") -> "FocalSet":
        if self.frame != other.frame:
            raise FrameMismatchError("focal sets over different frames")
        return FocalSet(self.bits & other.bits, self.frame)

    def is_empty(self) -> bool:
        return self.bits == 0

    def elements(self) -> tuple[int, ...]:
        """1-based indices of the members, ascending."""
        return tuple(i + 1 for i in range(self.frame.size) if self.bits >> i & 1)

    def label_list(self) -> tuple[str, ...]:
        return tuple(self.frame.labels[e - 1] for e in self.elements())


@dataclass(frozen=True)
class SimpleSupport:
    """One piece of evidence: mass on a single nonempty focal set, rest on the frame."""

    focal: FocalSet
    mass: float
    id: int = 0

    def __post_init__(self) -> None:
        if self.focal.is_empty():
            raise ValueError("simple support focal set must be nonempty")
        if not 0.0 < self.mass <= 1.0:
            raise ValueError(f"mass must be in (0, 1], got {self.mass}")

    @property
    def frame(self) -> Frame:
        return self.focal.frame

    def to_mass(self) -> "MassFunction":
        return _mass_from_pair(self.frame, self.focal.bits, self.mass)


class MassFunction:
    """A basic probability assignment: a map focal set -> positive mass, summing to 1.

    Keys are stored as bitmasks.  The empty set is never a key; zero-mass
    entries are dropped.
    """

    __slots__ = ("frame", "_masses")

    def __init__(self, frame: Frame, masses: Mapping[int, float]):
        clean: dict[int, float] = {}
        total = 0.0
        for bits, m in masses.items():
            if m <= 0.0:
                if m < 0.0:
                    raise ValueError(f"negative mass {m} on {bits:#x}")
                continue
            if bits == 0:
                raise ValueError("mass function may not assign mass to the empty set")
            if not 0 < bits <= frame.full_mask:
                raise ValueError(f"focal {bits:#x} not a subset of the frame")
            clean[bits] = m
            total += m
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total}, expected 1")
        self.frame = frame
        self._masses = clean

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        return cls(frame, {frame.full_mask: 1.0})

    def mass(self, focal: FocalSet | int) -> float:
        bits = focal.bits if isinstance(focal, FocalSet) else focal
        return self._masses.get(bits, 0.0)

    @property
    def theta_mass(self) -> float:
        """Mass on the whole frame."""
        return self._masses.get(self.frame.full_mask, 0.0)

    def items(self) -> Iterator[tuple[FocalSet, float]]:
        for bits, m in self._masses.items():
            yield FocalSet(bits, self.frame), m

    def bit_items(self) -> Iterator[tuple[int, float]]:
        return iter(self._masses.items())

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self._masses == other._masses

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(FocalSet(b, self.frame).label_list())}}}: {m:.6g}"
            for b, m in sorted(self._masses.items())
        )
        return f"MassFunction({parts})"


def _mass_from_pair(frame: Frame, bits: int, mass: float) -> MassFunction:
    """Mass function m(bits) = mass, m(frame) = 1 - mass, merging if bits is the frame."""
    masses: dict[int, float] = defaultdict(float)
    masses[bits] += mass
    masses[frame.full_mask] += 1.0 - mass
    return MassFunction(frame, masses)


def pairwise_conflict(a: SimpleSupport, b: SimpleSupport) -> float:
    """Conflict between two simple support functions.

    Equals the product of the two masses when the focal sets are disjoint,
    zero otherwise.
    """
    if a.frame != b.frame:
        raise FrameMismatchError("evidence over different frames")
    if a.focal.bits & b.focal.bits == 0:
        return a.mass * b.mass
    return 0.0


def combine(
    bodies: Iterable[MassFunction], frame: Frame | None = None
) -> tuple[MassFunction, float]:
    """Iterated Dempster's rule over a list of mass functions.

    Returns the normalized combination and the total conflict k, composed
    across the fold as 1 - k = prod(1 - k_step), which equals the conflict
    of the single n-ary combination.  An empty list yields the vacuous mass
    function with k = 0 (the frame must then be given explicitly).

    Raises TotalConflictError when 1 - k falls below 1e-12.
    """
    bodies = list(bodies)
    if frame is None:
        if not bodies:
            raise ValueError("combining an empty list requires an explicit frame")
        frame = bodies[0].frame
    acc: dict[int, float] = {frame.full_mask: 1.0}
    one_minus_k = 1.0
    for body in bodies:
        if body.frame != frame:
            raise FrameMismatchError("mass functions over different frames")
        nxt: dict[int, float] = defaultdict(float)
        empty = 0.0
        for b1, m1 in acc.items():
            for b2, m2 in body.bit_items():
                inter = b1 & b2
                p = m1 * m2
                if inter:
                    nxt[inter] += p
                else:
                    empty += p
        step_norm = 1.0 - empty
        one_minus_k *= step_norm
        if one_minus_k < ONE_MINUS_K_FLOOR:
            raise TotalConflictError(
                f"total conflict: 1 - k = {one_minus_k:.3e} below {ONE_MINUS_K_FLOOR}"
            )
        acc = {b: m / step_norm for b, m in nxt.items() if m > 0.0}
    # The step norms are rounded apart from the masses they divide, so the
    # total drifts off 1, the more so after strongly conflicting steps; the
    # fold is linear in acc, so one final rescale restores it.
    total = sum(acc.values())
    return MassFunction(frame, {b: m / total for b, m in acc.items()}), 1.0 - one_minus_k


def discount_by_voltage(e: SimpleSupport, v: float) -> MassFunction:
    """Discount a piece of evidence by its output voltage for a cluster.

    m(focal) = v * mass, m(frame) = 1 - v * mass; at v = 0 the result is
    vacuous, at v = 1 the evidence is unchanged.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"voltage must be in [0, 1], got {v}")
    return _mass_from_pair(e.frame, e.focal.bits, v * e.mass)


@dataclass(frozen=True)
class CommonalityTable:
    """Simple support functions in array form, for combining them discounted.

    Discounting evidence i to mass s_i leaves its commonality at
    q_i(A) = 1 - s_i * [A not a subset of F_i], so the combination of all
    of them has Q(A) = prod_i q_i(A), and the conflict k is the Moebius
    value at the empty set: 1 - k = sum over nonempty A of (-1)^(|A|+1) Q(A)
    (Shafer 1976, ch. 2).  Q(A) depends on A only through its pattern
    {i : A subset of F_i}, so the sum runs over patterns, each weighted by
    the signed count of its subsets; patterns whose count is zero are
    dropped.

    outside[p, i] is 1.0 where the subsets of pattern p are not inside F_i,
    coef[p] is the signed count, and theta_row[i] is 1.0 where F_i is not
    the whole frame (the frame's own row).
    """

    masses: np.ndarray
    outside: np.ndarray
    coef: np.ndarray
    theta_row: np.ndarray

    def combine_discounted(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(1 - k, Q(frame)) of the combined evidence, one entry per column of v.

        v holds one voltage per piece of evidence (rows) and cluster
        (columns); column c discounts evidence i to mass v[i, c] * m_i.
        The normalized frame mass is Q(frame) / (1 - k).
        """
        s = v * self.masses[:, None]
        q = np.prod(1.0 - self.outside[:, :, None] * s[None, :, :], axis=1)
        q_theta = np.prod(1.0 - self.theta_row[:, None] * s, axis=0)
        return self.coef @ q, q_theta


def commonality_table(evidence: Sequence[SimpleSupport]) -> CommonalityTable:
    """Group the 2^|frame| subsets of the frame by which focal sets contain them.

    Costs time and memory in 2^|frame| * len(evidence); frames larger than
    MAX_TABLE_FRAME elements are rejected with ValueError.
    """
    if not evidence:
        raise ValueError("need at least one piece of evidence")
    frame = evidence[0].frame
    if any(e.frame != frame for e in evidence):
        raise FrameMismatchError("evidence over different frames")
    if frame.size > MAX_TABLE_FRAME:
        raise ValueError(
            f"commonality table needs a frame of at most {MAX_TABLE_FRAME} "
            f"elements, got {frame.size}"
        )
    focals = np.array([e.focal.bits for e in evidence], dtype=np.int64)
    subsets = np.arange(1, frame.full_mask + 1, dtype=np.int64)
    inside = (subsets[:, None] & ~focals[None, :]) == 0
    size = sum((subsets >> b) & 1 for b in range(frame.size))
    sign = np.where(size % 2 == 1, 1, -1)
    _, first, pattern = np.unique(
        np.packbits(inside, axis=1), axis=0, return_index=True, return_inverse=True
    )
    coef = np.bincount(pattern.ravel(), weights=sign)
    keep = coef != 0
    return CommonalityTable(
        masses=np.array([e.mass for e in evidence]),
        outside=(~inside[first[keep]]).astype(float),
        coef=coef[keep],
        theta_row=(focals != frame.full_mask).astype(float),
    )
