"""From the voltage grid to a posterior over the number of clusters.

Pipeline per iteration: discount every piece of evidence by its column
voltage and combine (cluster-existence support, every column at once from
a commonality table built once per run), regroup the per-cluster
supports by how many clusters exist at once (a Poisson-binomial style
convolution), combine the result with a geometric prior over the count,
and anneal the posterior toward a one-hot at its argmax as the network's
entropy falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from mcfnet.evidence import (
    ONE_MINUS_K_FLOOR,
    CommonalityTable,
    SimpleSupport,
    TotalConflictError,
    combine,
    discount_by_voltage,
)
from mcfnet.network import NetworkState


@dataclass(frozen=True)
class PriorSpec:
    """Geometric prior over the cluster count: m(r) proportional to p^(2(r-1)).

    The default p = 0.9 penalizes extra clusters gently; smaller values push
    the determination toward fewer clusters.
    """

    p: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")

    def masses(self, r_max: int) -> np.ndarray:
        """Prior masses for r = 1..r_max, normalized to sum to 1."""
        raw = self.p ** (2.0 * np.arange(r_max))
        return raw / raw.sum()


class ExistenceResult(NamedTuple):
    support: float
    theta: float
    meaningless: bool


@dataclass(frozen=True)
class CountState:
    """All per-iteration count quantities, kept for traces.

    Vectors indexed by cluster column (supports, thetas, meaningless) or by
    count r with index r-1 (at_least, posterior, gd).
    """

    supports: np.ndarray
    thetas: np.ndarray
    meaningless: tuple[bool, ...]
    at_least: np.ndarray
    theta_mass: float
    posterior: np.ndarray
    c0: float
    alpha: float
    gd: np.ndarray


def cluster_existence(
    evidence: Sequence[SimpleSupport], v_column: Sequence[float]
) -> ExistenceResult:
    """Support for the existence of one cluster from its voltage-discounted evidence.

    theta is the frame mass of the combination of all evidence discounted
    by its column voltage; support = 1 - theta.  A totally conflicting
    combination means the cluster's evidence supports nothing coherent: it
    is flagged meaningless with support 1.

    This is the single-column reference for existence_supports.
    """
    if len(v_column) != len(evidence):
        raise ValueError("one voltage per piece of evidence required")
    frame = evidence[0].frame
    bodies = [discount_by_voltage(e, float(v)) for e, v in zip(evidence, v_column)]
    try:
        combined, _ = combine(bodies, frame=frame)
    except TotalConflictError:
        return ExistenceResult(support=1.0, theta=0.0, meaningless=True)
    theta = combined.theta_mass
    return ExistenceResult(support=1.0 - theta, theta=theta, meaningless=False)


def existence_supports(
    table: CommonalityTable, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cluster_existence for every column of the voltage grid v at once.

    Returns (supports, thetas, meaningless) per column.  A column whose
    1 - k falls below the floor combine uses is meaningless: support 1,
    theta 0.
    """
    one_minus_k, q_theta = table.combine_discounted(v)
    meaningless = one_minus_k < ONE_MINUS_K_FLOOR
    ratio = q_theta / np.where(meaningless, 1.0, one_minus_k)
    thetas = np.where(meaningless, 0.0, np.minimum(ratio, 1.0))
    supports = np.where(meaningless, 1.0, 1.0 - thetas)
    return supports, thetas, meaningless


def at_least_distribution(
    supports: Sequence[float],
) -> tuple[np.ndarray, float]:
    """Regroup per-cluster existence supports by the number of co-existing clusters.

    at_least[r-1] is the total product mass of all subsets of exactly r
    clusters existing (each cluster i contributing support a_i or its
    complement); theta_mass is the all-complements term.  Computed by
    convolution over clusters, identical to full subset enumeration.
    """
    pmf = np.array([1.0])
    for a in supports:
        a = float(a)
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"support must be in [0, 1], got {a}")
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - a)
        nxt[1:] += pmf * a
        pmf = nxt
    return pmf[1:], float(pmf[0])


def posterior_counts(
    at_least: Sequence[float], theta_mass: float, prior: PriorSpec
) -> tuple[np.ndarray, float]:
    """Dempster combination of the count prior with the at-least evidence.

    {count = r} intersects {count >= j} iff j <= r, so the unnormalized
    posterior at r is m(r) * (theta_mass + sum_{j<=r} at_least[j]) and the
    conflict c0 collects the j > r cross terms.  The prior covers counts
    1..len(at_least).
    """
    at_least = np.asarray(at_least, dtype=float)
    m = prior.masses(len(at_least))
    cum = theta_mass + np.cumsum(at_least)
    unnorm = m * cum
    tails = at_least.sum() - np.cumsum(at_least)  # sum over j > r for each r
    c0 = float(np.dot(m, tails))
    if c0 >= 1.0 - ONE_MINUS_K_FLOOR:
        raise TotalConflictError(
            f"count combination totally conflicting (c0 = {c0:.3e})"
        )
    return unnorm / (1.0 - c0), c0


def gradual_determination(posterior: Sequence[float], alpha: float) -> np.ndarray:
    """Anneal the count posterior toward a one-hot at its argmax.

    gd = (1 - alpha) * one_hot(argmax) + alpha * posterior; at alpha = 1
    it is the posterior itself, at alpha = 0 a final determination.
    Ties break toward the smaller count.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    posterior = np.asarray(posterior, dtype=float)
    gd = alpha * posterior
    best = int(np.argmax(posterior))
    gd[best] += 1.0 - alpha
    return gd


def compute_count_state(
    evidence: Sequence[SimpleSupport],
    state: NetworkState,
    prior: PriorSpec,
    alpha: float,
    table: CommonalityTable,
) -> CountState:
    """Chain existence -> at-least -> posterior -> gradual determination.

    table is commonality_table(evidence); a run builds it once and passes it
    to every call.
    """
    if len(evidence) != state.rows:
        raise ValueError("evidence count must equal the row count")
    supports, thetas, meaningless = existence_supports(table, state.v)
    at_least, theta_mass = at_least_distribution(supports)
    posterior, c0 = posterior_counts(at_least, theta_mass, prior)
    gd = gradual_determination(posterior, alpha)
    return CountState(
        supports=supports,
        thetas=thetas,
        meaningless=tuple(meaningless.tolist()),
        at_least=at_least,
        theta_mass=theta_mass,
        posterior=posterior,
        c0=c0,
        alpha=alpha,
        gd=gd,
    )
