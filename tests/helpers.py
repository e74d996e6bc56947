"""Brute-force oracles shared across test modules.

These stay deliberately naive (double loops, definition-level sums) so the
fast implementations are checked against independent arithmetic.
"""
import math

import degcorr as dc
from degcorr.measures import variance_gap


def brute_pearson(pairs):
    m = len(pairs)
    sx = sum(x for x, _ in pairs)
    sy = sum(y for _, y in pairs)
    sxy = sum(x * y for x, y in pairs)
    sxx = sum(x * x for x, _ in pairs)
    syy = sum(y * y for _, y in pairs)
    vx = m * sxx - sx * sx
    vy = m * syy - sy * sy
    return (m * sxy - sx * sy) / math.sqrt(vx * vy)


def vertex_pearson(g, t):
    """Pearson from the vertex identities, or None where it is undefined.

    With D+ weighting the source side and D- the target side, every term but
    the cross term is a vertex-moment sum: Σx = Σ_v D+·D^α, the variance gap
    m·Σx² − (Σx)² is variance_gap(d, "out", α), and likewise for y. The cross
    term is a Python-int sum over the edges.
    """
    d = dc.degrees(g)
    gap_src = variance_gap(d, "out", t.source_kind)
    gap_tgt = variance_gap(d, "in", t.target_kind)
    if g.edge_count == 0 or gap_src == 0 or gap_tgt == 0:
        return None
    moment = {("out", "out"): (2, 0), ("out", "in"): (1, 1), ("in", "out"): (1, 1), ("in", "in"): (0, 2)}
    s_src = dc.vertex_moment_sum(d, *moment[("out", t.source_kind)])
    s_tgt = dc.vertex_moment_sum(d, *moment[("in", t.target_kind)])
    dx = d.kind(t.source_kind).tolist()
    dy = d.kind(t.target_kind).tolist()
    sxy = sum(dx[u] * dy[v] for u, v in zip(g.src.tolist(), g.tgt.tolist()))
    return (g.edge_count * sxy - s_src * s_tgt) / math.sqrt(gap_src * gap_tgt)


def brute_concordance(pairs):
    nc = nd = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            s = (pairs[i][0] - pairs[j][0]) * (pairs[i][1] - pairs[j][1])
            if s > 0:
                nc += 1
            elif s < 0:
                nd += 1
    return nc, nd


def random_multigraph(rng, max_nodes=8, max_edges=24):
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(2, max_edges + 1))
    src = rng.integers(0, n, m)
    tgt = rng.integers(0, n, m)
    return dc.DirectedGraph(n, src, tgt)
