"""Synthetic graph families: bridge graphs, their disconnected variant,
random bridge collections, and heavy-tailed i.i.d. degree sequences.

All generators are pure functions of (parameters, seed).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import MAX_EDGES, DirectedGraph, _count


@dataclass(frozen=True)
class BridgeParams:
    """Fan-in size k and fan-out size m of a bridge graph."""

    k: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "k", _count(self.k, "k", 1, MAX_EDGES, "edge budget"))
        object.__setattr__(self, "m", _count(self.m, "m", 1, MAX_EDGES, "edge budget"))


@dataclass(frozen=True)
class PowerLawSpec:
    """Pareto tail: P(X > t) ~ (x_min / t)**gamma. Moments of order >= gamma diverge.

    gamma = inf is allowed: every draw then equals x_min. NaN is rejected.
    x_min is a Python or numpy integer from 1 to 2**62, the draws' clamp; a
    float, even 2.0, is refused: balancing counts each draw below the floor
    cut as exactly x_min, and draws are integers.
    """

    gamma: float
    x_min: int = 1

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        object.__setattr__(self, "x_min", _count(self.x_min, "x_min", 1, 2**62))


def bridge_graph(p: BridgeParams) -> DirectedGraph:
    """k sources feeding hub v, bridge edge v->w, hub w feeding m sinks.

    Node ids: v=0, w=1, sources 2..k+1, sinks k+2..k+m+1. Edge order: the k
    fan-in edges, the m fan-out edges, then the bridge edge last. Degrees:
    D-(v)=k, D+(v)=1, D+(w)=m, D-(w)=1, every leaf at most 1.
    """
    return _bridge_union([p.k], [p.m])


def disconnected_bridge_graph(p: BridgeParams) -> DirectedGraph:
    """Bridge graph with the bridge edge split through a fresh middle node u.

    u takes id k+m+2; the edge (v, w) becomes (v, u), (u, w), appended after
    the fan edges. u has in- and out-degree 1, so no node carries both a
    large in- and a large out-degree.
    """
    g = bridge_graph(p)
    u = g.node_count
    src = np.append(g.src[:-1], [0, u])
    tgt = np.append(g.tgt[:-1], [u, 1])
    return DirectedGraph(u + 1, src, tgt)


def _bridge_union(ks, ms) -> DirectedGraph:
    """Disjoint union of bridge graphs G(ks[i], ms[i]) in component order.

    Component i takes the contiguous node-id block starting at the sum of the
    earlier components' sizes k+m+2, laid out and ordered like bridge_graph.
    The sizes may come in any numeric dtype that holds their values.
    """
    ks, ms = np.asarray(ks), np.asarray(ms)
    # one component over the budget puts the union over it; with none, the
    # sizes fit int64 and their total cannot wrap
    if max(ks.max(), ms.max()) > MAX_EDGES:
        raise ValueError(f"a bridge component exceeds the budget of {MAX_EDGES} edges")
    ks = ks.astype(np.int64)
    counts = ks + ms.astype(np.int64) + 1
    edges = int(counts.sum())
    if edges > MAX_EDGES:
        raise ValueError(f"bridge graphs with {edges} edges exceed the budget of {MAX_EDGES}")
    first_edge = np.cumsum(counts) - counts
    first_node = first_edge + np.arange(ks.size)  # one more node than edges per component
    v = np.repeat(first_node, counts)
    j = np.arange(edges) - np.repeat(first_edge, counts)
    # edge j of a component: fan-in (v+2+j, v) for j < k, fan-out
    # (v+1, v+2+j) for k <= j < k+m, and the bridge (v, v+1) for j = k+m
    fan_in = j < np.repeat(ks, counts)
    bridge = j == np.repeat(counts - 1, counts)
    leaf = v + 2 + j
    src = np.where(fan_in, leaf, np.where(bridge, v, v + 1))
    tgt = np.where(fan_in, v, np.where(bridge, v + 1, leaf))
    del v, j, fan_in, bridge, leaf  # before the graph copies src and tgt
    return DirectedGraph(edges + ks.size, src, tgt)


def sample_integer_power_law(
    spec: PowerLawSpec, seed_or_rng, count: int
) -> np.ndarray:
    """i.i.d. draws of floor(X), X ~ Pareto(x_min, gamma).

    Inverse transform: X = x_min * (1-U)**(-1/gamma) with U uniform on [0, 1),
    so 1-U is in (0, 1] and X >= x_min always. The floor keeps the exact tail
    index: P(floor(X) > t) = (x_min / (t+1))**gamma for integer t >= x_min.
    """
    count = _count(count, "count", 1, MAX_EDGES, "edge budget")
    return _pareto_transform(spec, np.random.default_rng(seed_or_rng).random(count)).astype(np.int64)


def _pareto_transform(spec: PowerLawSpec, buf: np.ndarray) -> np.ndarray:
    """Map the uniforms in a float64 buf, in place and each on its own, to the
    draws of sample_integer_power_law as integral floats, and return buf."""
    np.subtract(1.0, buf, out=buf)
    # a small gamma overflows to inf here, which the clamp below cuts to 2^62
    with np.errstate(over="ignore"):
        np.power(buf, -1.0 / spec.gamma, out=buf)
        np.multiply(buf, spec.x_min, out=buf)
    # values beyond int64 have probability ~ 2^-62 per draw for gamma >= 1
    np.minimum(buf, 2.0**62, out=buf)
    return np.floor(buf, out=buf)


def _floor_cut(spec: PowerLawSpec) -> float:
    """1 - (x_min / ((x_min + 1)(1 - 1e-9)))**gamma, or 0 if negative: each uniform below it has
    X < (x_min + 1)(1 - 1e-9), a margin far wider than _pareto_transform's rounding, so maps to x_min."""
    log_ratio = np.log1p(1 / spec.x_min) + np.log1p(-1e-9)  # log1p, expm1: accurate for tiny gamma
    return float(-np.expm1(-spec.gamma * log_ratio)) if log_ratio > 0 else 0.0


def iid_degree_sequence(
    n: int, spec_out: PowerLawSpec, spec_in: PowerLawSpec, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """n independent (out, in) degree pairs from two independent streams.

    The streams are the two children spawned from the seed's SeedSequence
    (or from the SeedSequence passed in). Not balanced: sum(out) != sum(in)
    in general. Balancing for the configuration model is a separate step.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    out_ss, in_ss = ss.spawn(2)
    out = sample_integer_power_law(spec_out, np.random.default_rng(out_ss), n)
    inn = sample_integer_power_law(spec_in, np.random.default_rng(in_ss), n)
    return np.column_stack([out, inn])


def random_bridge_collection(
    n: int, a: float, spec: PowerLawSpec, seed: int
) -> DirectedGraph:
    """Disjoint union of n bridge graphs G(W_i, Z_i) with random sizes.

    W_i = X_i + Y_i and Z_i = floor(X_i + a*Y_i), where X, Y are independent
    integer power-law samples on separate streams. Component node-id blocks
    are contiguous, each laid out like bridge_graph.
    """
    if not a > 0:
        raise ValueError("a must be positive")
    if not (1.0 < spec.gamma < 2.0):
        warnings.warn(
            f"gamma={spec.gamma} outside (1, 2); the limit of the In/Out "
            "Pearson value is only non-degenerate for heavy tails",
            stacklevel=2,
        )
    x_ss, y_ss = np.random.SeedSequence(seed).spawn(2)
    xs = sample_integer_power_law(spec, np.random.default_rng(x_ss), n)
    ys = sample_integer_power_law(spec, np.random.default_rng(y_ss), n)
    # float64 sizes: X + Y and X + a*Y can pass 2**63, and the union checks
    # them against the budget before they become int64
    ys = ys.astype(np.float64)
    return _bridge_union(xs + ys, np.floor(xs + a * ys))
