"""Random-walk oracles: walk distributions, brute-force tour enumeration, and the walk series.

walk_distribution and enumerate_tours compute the same object two independent
ways (matrix application vs. explicit tour recursion); their agreement is the
backbone of the verification suite. walk_distribution returns row u of P^l as
a plain probability vector: mass that reaches an isolated node before the last
step is absorbed, so its total can fall below 1. meeting_probability is the
inner product of two walk distributions of equal length, summed over
unconstrained landing nodes (walks that already coincided keep contributing at
later lengths).

simrank_series is SimRank read as a walk series, s(u, v) = E[c^tau] with tau
the step at which two simultaneous walks from u and v first meet (Jeh & Widom,
KDD 2002). G_l(u, v), the probability that they first meet at step l, obeys
G_1 = P P^T and G_l = P offdiag(G_{l-1}) P^T; the series sums c^l G_l. The
first-meeting events are disjoint, so the tail beyond `terms` is at most
c^(terms+1) <= c^(terms+1) / (1-c). Summing the unconstrained meeting
probabilities instead gives simrank_power_series / (1-c) off the diagonal:
the linearised object, which local push approximates (simrank_localpush
returns the power series itself), not SimRank.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import GuardError, ParameterError
from .graph import Graph, transition, transition_t
from .simrank import _check_decay, _dense_guard

__all__ = [
    "walk_distribution",
    "enumerate_tours",
    "meeting_probability",
    "simrank_series",
]

ENUM_MAX_NODES = 12
ENUM_MAX_LENGTH = 6


def walk_distribution(p: sp.csr_matrix, u: int, length: int) -> np.ndarray:
    """e_u P^length via repeated sparse application; p is transition(g)."""
    if length < 0:
        raise ParameterError("length must be >= 0")
    n = p.shape[0]
    if not (0 <= u < n):
        raise ParameterError(f"source node {u} out of range")
    x = np.zeros(n)
    x[u] = 1.0
    for _ in range(length):
        x = x @ p
    return x


def enumerate_tours(g: Graph, u: int, length: int) -> dict[int, float]:
    """Explicitly walk every length-l tour from u, multiplying 1/degree along the way.

    Returns endpoint -> total probability. Deliberately naive (this is the
    oracle), so it is guarded to n <= 12 and l <= 6.
    """
    if g.n > ENUM_MAX_NODES or length > ENUM_MAX_LENGTH:
        raise GuardError(
            f"tour enumeration limited to n <= {ENUM_MAX_NODES}, l <= {ENUM_MAX_LENGTH}"
        )
    if length < 0:
        raise ParameterError("length must be >= 0")
    if not (0 <= u < g.n):
        raise ParameterError(f"source node {u} out of range")
    out: dict[int, float] = {}

    def recurse(node: int, steps_left: int, prob: float) -> None:
        if steps_left == 0:
            out[node] = out.get(node, 0.0) + prob
            return
        nbrs = g.neighbor_slice(node)
        if nbrs.size == 0:
            return  # walk dies at an isolated node
        step = prob / nbrs.size
        for nxt in nbrs.tolist():
            recurse(nxt, steps_left - 1, step)

    recurse(u, length, 1.0)
    return out


def meeting_probability(p: sp.csr_matrix, u: int, v: int, length: int) -> float:
    """Probability two independent length-l walks from u and v land on a common node."""
    if length < 1:
        raise ParameterError("length must be >= 1")
    return float(walk_distribution(p, u, length) @ walk_distribution(p, v, length))


def simrank_series(g: Graph, c: float, terms: int) -> np.ndarray:
    """Truncated first-meeting series sum_{l=1}^{terms} c^l G_l, diagonal pinned to 1.

    G_l(u, v) is the probability that l-step walks from u and v first meet at
    step l: G_1 = P P^T and G_l = P offdiag(G_{l-1}) P^T, so walks that have
    met stop contributing. Unrolling the fixed point S = c P S P^T
    (off-diagonal, S(a, a) = 1) gives the same sum, computed here without it.
    The G_l of one pair sum to at most 1, so the off-diagonal truncation error
    is at most c^(terms+1) <= c^(terms+1) / (1-c).
    """
    _check_decay(c)
    if terms < 1:
        raise ParameterError("terms must be >= 1")
    _dense_guard(g.n, "walk-series similarity")
    p, pt = transition(g), transition_t(g)
    meet = np.eye(g.n)  # both walks start together; the first step gives G_1 = P P^T
    acc = np.zeros((g.n, g.n))
    weight = 1.0
    for _ in range(terms):
        meet = (p @ meet) @ pt
        weight *= c
        acc += weight * meet
        np.fill_diagonal(meet, 0.0)  # pairs that met now are done
    np.fill_diagonal(acc, 1.0)
    return acc
