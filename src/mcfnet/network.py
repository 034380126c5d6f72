"""The Hopfield-style voltage grid and its synchronous update rule.

Rows are pieces of evidence, columns are cluster slots.  Each neuron's
output voltage V = (1 + tanh(u/u0)) / 2 is the degree to which evidence m
belongs to cluster n.  One step adds eta times the sum of a conflict term,
a row term, a domain-drive term, an excitation bias, and minus the current
input voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from mcfnet.conflict import ConflictMatrix, Partition


# Stall detector: a step in which no input voltage moves more than this many
# u0 counts as stalled.
STALL_THRESHOLD = 0.2
# Earliest iteration at which a stalled row may be reseated.
RESEAT_DELAY = 50


class DegenerateStartError(ValueError):
    """Initial entropy is zero; the normalized entropy is undefined."""


@dataclass(frozen=True)
class HyperParams:
    """Network gains and run controls.

    The numeric defaults are the published parameter settings for the
    31-evidence benchmark.
    """

    eta: float = 1e-5
    dti: float = -2000.0          # data-term (conflict) inhibition
    ri: float = -500.0            # row inhibition
    dom_ti: float = -2000.0       # domain-term inhibition
    gi: float = -200.0            # global inhibition
    eb: float = 1800.0            # excitation bias
    u0: float = 0.02
    noise_amplitude: float = 0.1  # init noise bound as a fraction of u0
    max_iterations: int = 1000
    v_high: float = 0.99          # winner threshold for crisp convergence
    v_low: float = 0.01           # loser threshold for crisp convergence
    u_clamp: float = 5.0          # |u| bound, in units of u0 (0 disables)
    eb_anneal: float = 300.0      # entropy-annealed reduction of eb (0 disables)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")
        if self.u0 <= 0.0:
            raise ValueError("u0 must be > 0")
        if self.noise_amplitude < 0.0:
            raise ValueError("noise_amplitude must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.u_clamp < 0.0:
            raise ValueError("u_clamp must be >= 0")
        if self.eb_anneal < 0.0:
            raise ValueError("eb_anneal must be >= 0")
        if self.v_low >= self.v_high:
            raise ValueError("v_low must be < v_high")


@dataclass(frozen=True)
class NetworkState:
    """Input/output voltage grids, the iteration counter, and the initial entropy."""

    u: np.ndarray
    v: np.ndarray
    t: int
    entropy0: float

    @property
    def rows(self) -> int:
        return self.u.shape[0]

    @property
    def cols(self) -> int:
        return self.u.shape[1]


def output_voltage(u, u0: float):
    """Sigmoid output (1 + tanh(u/u0)) / 2; works on scalars and arrays."""
    if u0 <= 0.0:
        raise ValueError("u0 must be > 0")
    return 0.5 * (1.0 + np.tanh(np.asarray(u, dtype=float) / u0))


def raw_entropy(v: np.ndarray) -> float:
    """-sum V ln V over all neurons, with 0 ln 0 = 0."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0.0, -v * np.log(v), 0.0)
    return float(terms.sum())


def init_state(
    n_evidence: int,
    n_clusters: int,
    params: HyperParams,
    rng: np.random.Generator,
) -> NetworkState:
    """Initialize every neuron at u00 + uniform noise.

    u00 = u0 * atanh(2/R - 1) puts every output voltage at 1/R, where R is
    the column count; the noise is uniform in +-noise_amplitude * u0.
    """
    if n_evidence < 1:
        raise ValueError("need at least one piece of evidence")
    if n_clusters < 2:
        raise ValueError("need at least two cluster slots (atanh domain)")
    u00 = params.u0 * math.atanh(2.0 / n_clusters - 1.0)
    bound = params.noise_amplitude * params.u0
    noise = rng.uniform(-bound, bound, size=(n_evidence, n_clusters))
    u = u00 + noise
    v = output_voltage(u, params.u0)
    ent0 = raw_entropy(v)
    if ent0 <= 0.0:
        raise DegenerateStartError("initial entropy is zero; cannot normalize")
    return NetworkState(u=u, v=v, t=0, entropy0=ent0)


def coupling_matrix(weights: ConflictMatrix, params: HyperParams) -> np.ndarray:
    """Column-coupling coefficients: dti * (-ln(1 - c_im)) + gi for every pair."""
    return params.dti * weights.log_weights + params.gi


def domain_drive(gd: np.ndarray) -> np.ndarray:
    """Per-column drive derived from the count distribution gd (index r-1 <-> count r).

    Column n (0-based) is driven by the total belief that fewer than n+1
    clusters exist, suppressing high-index columns.  Driving column n by gd
    at count n+1 alone, the equation read verbatim, left unknown-k runs on
    the 31-evidence benchmark crisp in 6 of 10 seeds instead of 10 of 10.
    """
    gd = np.asarray(gd, dtype=float)
    return np.concatenate(([0.0], np.cumsum(gd)[:-1]))


def step(
    state: NetworkState,
    weights: ConflictMatrix,
    gd: np.ndarray | None,
    params: HyperParams,
) -> NetworkState:
    """One synchronous update of every neuron from the previous iteration's voltages.

    gd = None drops the domain term entirely (the fixed-cluster-count
    baseline network).

    Two stabilizers keep the analog search responsive: the excitation bias
    is annealed downward by eb_anneal * (1 - alpha), which shrinks the
    stability window of half-committed assignments as the grid sharpens,
    and |u| is clamped to u_clamp * u0 so saturated neurons can still react
    within a few iterations.
    """
    if weights.n != state.rows:
        raise ValueError("conflict matrix size does not match evidence count")
    v = state.v
    coupling = coupling_matrix(weights, params)
    t1 = coupling.T @ v
    t2 = (params.ri + params.gi) * (v.sum(axis=1, keepdims=True) - v)
    eb = params.eb
    if params.eb_anneal > 0.0:
        _, alpha = entropy(state)
        eb = eb - (1.0 - alpha) * params.eb_anneal
    total = t1 + t2 + eb
    if gd is not None:
        gd = np.asarray(gd, dtype=float)
        if gd.shape != (state.cols,):
            raise ValueError("gd must have one value per column")
        total = total + (params.dom_ti + params.gi) * domain_drive(gd)
    u_new = state.u + params.eta * (total - state.u)
    if params.u_clamp > 0.0:
        bound = params.u_clamp * params.u0
        np.clip(u_new, -bound, bound, out=u_new)
    return replace(
        state,
        u=u_new,
        v=output_voltage(u_new, params.u0),
        t=state.t + 1,
    )


def entropy(state: NetworkState) -> tuple[float, float]:
    """Raw Shannon entropy of the grid and its value normalized by the initial entropy.

    The normalized value alpha is clamped to [0, 1]; it measures how far
    the network is from a crisp state (1 at the start, 0 when converged).
    """
    raw = raw_entropy(state.v)
    if state.entropy0 <= 0.0:
        raise DegenerateStartError("initial entropy is zero; cannot normalize")
    alpha = min(max(raw / state.entropy0, 0.0), 1.0)
    return raw, alpha


def crisp_rows(state: NetworkState, params: HyperParams) -> np.ndarray:
    """Rows with exactly one winner >= v_high and every other voltage <= v_low."""
    v = state.v
    winners = v >= params.v_high
    losers = v <= params.v_low
    return (winners.sum(axis=1) == 1) & np.all(winners | losers, axis=1)


def is_crisp(state: NetworkState, params: HyperParams) -> bool:
    """True when every row is crisp."""
    return bool(crisp_rows(state, params).all())


def has_converged(state: NetworkState, params: HyperParams) -> bool:
    """Crisp rows, or the iteration cap reached."""
    return state.t >= params.max_iterations or is_crisp(state, params)


def is_stalled(
    previous_u: np.ndarray, state: NetworkState, params: HyperParams
) -> bool:
    """True when no input voltage moved more than STALL_THRESHOLD * u0 this step."""
    du = float(np.abs(state.u - previous_u).max())
    return du < STALL_THRESHOLD * params.u0


def reseat_stalled_row(
    state: NetworkState,
    weights: ConflictMatrix,
    masses: np.ndarray,
    gd: np.ndarray | None,
    params: HyperParams,
) -> NetworkState | None:
    """Move one stuck row to its best column when the grid has stalled short of crisp.

    The analog dynamics can freeze with a few rows either fully suppressed
    (no column offers positive drive) or split between columns with no net
    force.  This picks the heaviest-mass non-crisp row and pins it to the
    column with the least total inhibition (conflict load, occupancy, and
    domain drive); the synchronous updates then evict whichever neighbors
    genuinely conflict with it.  Returns None when every row is crisp.
    """
    ok = crisp_rows(state, params)
    candidates = np.flatnonzero(~ok)
    if candidates.size == 0:
        return None
    masses = np.asarray(masses, dtype=float)
    m = int(candidates[np.argmax(masses[candidates])])
    v = state.v
    score = (
        params.dti * (weights.log_weights[m] @ v)
        + params.gi * (v.sum(axis=0) - v[m])
    )
    if gd is not None:
        score = score + (params.dom_ti + params.gi) * domain_drive(gd)
    best = int(np.argmax(score))
    bound = (params.u_clamp if params.u_clamp > 0.0 else 5.0) * params.u0
    u_new = state.u.copy()
    u_new[m] = -bound
    u_new[m, best] = bound
    return replace(state, u=u_new, v=output_voltage(u_new, params.u0))


def extract_partition(state: NetworkState) -> Partition:
    """Assign each row to its highest-voltage column (ties: lowest column index)."""
    assignment = tuple(int(i) for i in np.argmax(state.v, axis=1))
    return Partition(assignment=assignment, n_clusters=state.cols)
