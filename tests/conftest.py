"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own combination and
convolution code paths: Dempster's rule is evaluated by exhaustive
focal-product enumeration over all bodies at once, and the at-least
distribution by full 2^R subset enumeration.  The direct forms that the
library's fast kernels replaced are kept here as their oracles too.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import strategies as st

from mcfnet.evidence import FocalSet, Frame, MassFunction, SimpleSupport


def brute_force_combine(bodies):
    """N-ary Dempster combination by exhaustive focal-product enumeration.

    Returns (masses: dict bits -> mass, k).  Independent of the library's
    pairwise fold: every cross-product of focal elements is intersected in
    one pass.
    """
    frame = bodies[0].frame
    item_lists = [list(b.bit_items()) for b in bodies]
    masses: dict[int, float] = {}
    empty = 0.0
    for combo in product(*item_lists):
        bits = frame.full_mask
        weight = 1.0
        for b, m in combo:
            bits &= b
            weight *= m
        if bits == 0:
            empty += weight
        else:
            masses[bits] = masses.get(bits, 0.0) + weight
    norm = 1.0 - empty
    return {b: m / norm for b, m in masses.items()}, empty


def brute_force_at_least(supports):
    """at_least[r-1] and theta_mass by full 2^R subset enumeration."""
    supports = list(supports)
    r_max = len(supports)
    at_least = np.zeros(r_max)
    theta = 0.0
    for mask in range(2**r_max):
        weight = 1.0
        size = 0
        for i, a in enumerate(supports):
            if mask >> i & 1:
                weight *= a
                size += 1
            else:
                weight *= 1.0 - a
        if size == 0:
            theta += weight
        else:
            at_least[size - 1] += weight
    return at_least, theta


def product_combine_discounted(table, v):
    """CommonalityTable.combine_discounted with each Q multiplied out factor by factor."""
    s = v * table.masses[:, None]
    q = np.prod(1.0 - table.outside[:, :, None] * s[None, :, :], axis=1)
    q_theta = np.prod(1.0 - table.theta_row[:, None] * s, axis=0)
    return table.coef @ q, q_theta


def array_at_least(supports):
    """at_least_distribution convolved on numpy arrays, one column at a time."""
    pmf = np.array([1.0])
    for a in supports:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - a)
        nxt[1:] += pmf * a
        pmf = nxt
    return pmf[1:], float(pmf[0])


MASSES = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
VOLTAGES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def voltage_grids(draw, max_frame=8, max_evidence=8):
    """Evidence with repeated and whole-frame focal sets, and a voltage grid.

    Masses and voltages may be exactly 1, voltages exactly 0.
    """
    frame = Frame(draw(st.integers(1, max_frame)))
    focal = st.one_of(st.just(frame.full_mask), st.integers(1, frame.full_mask))
    pool = draw(st.lists(focal, min_size=1, max_size=4))
    bits = draw(st.lists(st.one_of(focal, st.sampled_from(pool)),
                         min_size=1, max_size=max_evidence))
    evidence = [SimpleSupport(FocalSet(b, frame), draw(MASSES), id=j)
                for j, b in enumerate(bits)]
    cols = draw(st.integers(1, 3))
    v = np.array([[draw(VOLTAGES) for _ in range(cols)] for _ in evidence])
    return evidence, v


def random_mass_function(frame: Frame, rng: np.random.Generator, max_focals: int = 4):
    """A random mass function with <= max_focals focal sets plus guaranteed
    frame mass, keeping combinations away from total conflict."""
    n_focals = int(rng.integers(1, max_focals + 1))
    subsets = rng.choice(
        np.arange(1, frame.full_mask + 1),
        size=min(n_focals, frame.full_mask),
        replace=False,
    )
    weights = rng.uniform(0.05, 1.0, size=len(subsets) + 1)
    weights /= weights.sum()
    masses = {int(b): float(w) for b, w in zip(subsets, weights[:-1])}
    masses[frame.full_mask] = masses.get(frame.full_mask, 0.0) + float(weights[-1])
    return MassFunction(frame, masses)


def random_ssf(frame: Frame, rng: np.random.Generator, idx: int = 0) -> SimpleSupport:
    bits = int(rng.integers(1, frame.full_mask + 1))
    mass = float(rng.uniform(0.05, 0.95))
    return SimpleSupport(FocalSet(bits, frame), mass, id=idx)


@pytest.fixture(scope="session")
def frame5() -> Frame:
    return Frame(5)
