"""Seeded benchmark problems and the analytic zero-conflict partition.

The canonical benchmark puts one simple support function on every nonempty
subset of a 5-element frame (31 pieces of evidence).  Routing each piece
to the cluster of the smallest element in its focal set gives zero
conflict in every cluster, so the metaconflict minimum is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from mcfnet.conflict import Partition
from mcfnet.evidence import FocalSet, Frame, SimpleSupport

MASS_MODES = ("uniform", "ones")


@dataclass(frozen=True)
class ProblemSpec:
    """One SSF per nonempty frame subset; masses random in (0,1) or all 1.0."""

    frame_size: int = 5
    mass_mode: str = "uniform"

    def __post_init__(self) -> None:
        if self.frame_size < 1:
            raise ValueError("frame_size must be >= 1")
        if self.mass_mode not in MASS_MODES:
            raise ValueError(f"mass_mode must be one of {MASS_MODES}")

    @property
    def n_evidence(self) -> int:
        return 2**self.frame_size - 1

    def frame(self) -> Frame:
        return Frame(self.frame_size)


def seed_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Split one run seed into independent mass and init-noise streams.

    Every entry point that turns a seed into a problem draws its masses from
    the first stream, so one seed names one problem.
    """
    mass_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(mass_ss), np.random.default_rng(noise_ss)


def generate(spec: ProblemSpec, rng: np.random.Generator) -> list[SimpleSupport]:
    """Generate the evidence list in ascending-bitmask subset order."""
    frame = spec.frame()
    evidence = []
    for j, bits in enumerate(range(1, frame.full_mask + 1)):
        if spec.mass_mode == "ones":
            mass = 1.0
        else:
            mass = float(rng.uniform(0.0, 1.0))
            while mass <= 0.0 or mass >= 1.0:
                mass = float(rng.uniform(0.0, 1.0))
        evidence.append(SimpleSupport(FocalSet(bits, frame), mass, id=j))
    return evidence


def canonical_partition(
    evidence: Sequence[SimpleSupport], frame: Frame
) -> Partition:
    """Zero-conflict partition: each focal goes to the cluster of its smallest element.

    Every pair in a cluster then shares that element, so no cluster has any
    internal conflict.
    """
    assignment = []
    for e in evidence:
        if e.focal.is_empty():
            raise ValueError("evidence with an empty focal set")
        smallest = (e.focal.bits & -e.focal.bits).bit_length() - 1
        assignment.append(smallest)
    return Partition(assignment=tuple(assignment), n_clusters=frame.size)


def save_evidence(path: str | Path, evidence: Sequence[SimpleSupport]) -> None:
    """Write evidence as lines of `id, sorted-element-list, mass`."""
    if not evidence:
        raise ValueError("nothing to write")
    frame = evidence[0].frame
    lines = [f"# frame_size={frame.size}"]
    for e in evidence:
        elems = " ".join(str(x) for x in e.focal.elements())
        lines.append(f"{e.id}, {elems}, {e.mass!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_evidence(
    path: str | Path, frame: Frame | None = None
) -> list[SimpleSupport]:
    """Read evidence written by save_evidence.

    The frame is taken from the header comment when present, inferred from
    the largest element otherwise, unless one is given explicitly.
    """
    raw_lines = Path(path).read_text().splitlines()
    records = []
    header_size = None
    for line in raw_lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "frame_size=" in line:
                header_size = int(line.split("frame_size=")[1])
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ValueError(f"malformed evidence line: {line!r}")
        eid = int(parts[0])
        elems = tuple(int(x) for x in parts[1].split())
        mass = float(parts[2])
        records.append((eid, elems, mass))
    if frame is None:
        size = header_size or max(max(elems) for _, elems, _ in records)
        frame = Frame(size)
    return [
        SimpleSupport(FocalSet.from_elements(frame, elems), mass, id=eid)
        for eid, elems, mass in records
    ]
