"""Output checks, written without importing degcorr.

Reports are parsed strictly (no NaN or Infinity), validated against the
report schema, and every defined cell is compared with a reference computed
here by other means: Pearson and Kendall's counts from the joint degree
table, average ranks from scipy.stats.rankdata, and spearman_uniform by
replaying the documented tie-break streams. Generated edge lists are checked
for simplicity and against the recorded size of the workload.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TYPES = (("out_in", "out", "in"), ("out_out", "out", "out"),
         ("in_in", "in", "in"), ("in_out", "in", "out"))
MEASURES = ("pearson", "spearman_uniform", "spearman_average", "kendall")
# The references redo the exact integer sums, so they agree to the last bit
# on these workloads; the tolerance only allows for reordered float steps and
# is far below one pair's weight in Kendall's tau at these sizes (2/m^2).
TOLERANCE = 1e-12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity instead of parsing them."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def read_edge_list(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(src, tgt) external ids of a comment-free "src dst" edge list."""
    ids = np.array(path.read_bytes().split(), dtype=np.int64)
    if ids.size % 2:
        raise ValueError(f"{path.name}: odd number of fields")
    return ids[0::2], ids[1::2]


class Graph:
    """Degrees and per-edge degree series of an edge list, ids remapped."""

    def __init__(self, src: np.ndarray, tgt: np.ndarray):
        ids, dense = np.unique(np.concatenate([src, tgt]), return_inverse=True)
        m = src.size
        self.nodes = int(ids.size)
        self.edges = int(m)
        self.src, self.tgt = dense[:m], dense[m:]
        self.degree = {
            "out": np.bincount(self.src, minlength=self.nodes),
            "in": np.bincount(self.tgt, minlength=self.nodes),
        }

    def facts(self) -> dict:
        keys = self.src * self.nodes + self.tgt
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "self_loops": int(np.count_nonzero(self.src == self.tgt)),
            "duplicate_edges": int(self.edges - np.unique(keys).size),
        }

    def series(self, source_kind: str, target_kind: str) -> tuple[np.ndarray, np.ndarray]:
        return self.degree[source_kind][self.src], self.degree[target_kind][self.tgt]


def _joint_table(x, y):
    ux, ix = np.unique(x, return_inverse=True)
    uy, iy = np.unique(y, return_inverse=True)
    table = np.bincount(ix * uy.size + iy, minlength=ux.size * uy.size)
    return ux, uy, table.reshape(ux.size, uy.size)


def _pearson(ux, uy, table) -> float | None:
    m = int(table.sum())
    rows, cols = table.sum(axis=1).tolist(), table.sum(axis=0).tolist()
    vx, vy = ux.tolist(), uy.tolist()
    sx = sum(a * c for a, c in zip(vx, rows))
    sy = sum(b * c for b, c in zip(vy, cols))
    sxx = sum(a * a * c for a, c in zip(vx, rows))
    syy = sum(b * b * c for b, c in zip(vy, cols))
    ai, bi = np.nonzero(table)
    sxy = sum(vx[a] * vy[b] * c for a, b, c in zip(ai.tolist(), bi.tolist(), table[ai, bi].tolist()))
    gx, gy = m * sxx - sx * sx, m * syy - sy * sy
    if gx == 0 or gy == 0:
        return None
    return (m * sxy - sx * sy) / math.sqrt(gx * gy)


def kendall_counts(table: np.ndarray) -> tuple[int, int]:
    """(concordant, discordant) pairs from a joint table whose rows and
    columns are in ascending value order; tied pairs count as neither."""
    table = table.astype(np.int64)
    above = np.cumsum(table, axis=0) - table  # same column, smaller row value
    left = np.cumsum(above, axis=1) - above  # smaller row and smaller column value
    right = above.sum(axis=1, keepdims=True) - np.cumsum(above, axis=1)
    return int((table * left).sum()), int((table * right).sum())


def _spearman_average(x, y) -> float | None:
    from scipy.stats import rankdata

    if np.unique(x).size == 1 or np.unique(y).size == 1:
        return None
    dx = rankdata(x) - (x.size + 1) / 2
    dy = rankdata(y) - (y.size + 1) / 2
    return float(dx @ dy / math.sqrt((dx @ dx) * (dy @ dy)))


def _tiebreak_ranks(values, keys) -> np.ndarray:
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[np.lexsort((keys, values))] = np.arange(1, values.size + 1)
    return ranks


def _spearman_uniform(x, y, type_ss: np.random.SeedSequence, reps: int) -> float:
    """Mean over reps of rho with ties broken by uniform draws: for each
    repetition, child 0 of its seed orders source-side ties and child 1
    target-side ties, as the degcorr documentation specifies."""
    m = x.size
    vals = []
    for ss in type_ss.spawn(reps):
        src_ss, tgt_ss = ss.spawn(2)
        rx = _tiebreak_ranks(x, np.random.default_rng(src_ss).random(m))
        ry = _tiebreak_ranks(y, np.random.default_rng(tgt_ss).random(m))
        s = int(rx @ ry) if m < 2**20 else sum(a * b for a, b in zip(rx.tolist(), ry.tolist()))
        vals.append((12 * s - 3 * m * (m + 1) ** 2) / (m**3 - m))
    return float(np.mean(vals))


def reference_cells(g: Graph, seed: int, rho_reps: int) -> dict:
    """(type, measure) -> (value, reason); value None when undefined."""
    type_seeds = np.random.SeedSequence(seed).spawn(len(TYPES))
    m = g.edges
    out = {}
    for (tname, sk, tk), type_ss in zip(TYPES, type_seeds):
        x, y = g.series(sk, tk)
        if m == 0:
            for mname in MEASURES:
                out[(tname, mname)] = (None, "degenerate_size")
            continue
        ux, uy, table = _joint_table(x, y)
        p = _pearson(ux, uy, table)
        out[(tname, "pearson")] = (p, None if p is not None else "zero_variance")
        if m < 2:
            for mname in MEASURES[1:]:
                out[(tname, mname)] = (None, "degenerate_size")
            continue
        out[(tname, "spearman_uniform")] = (_spearman_uniform(x, y, type_ss, rho_reps), None)
        sa = _spearman_average(x, y)
        out[(tname, "spearman_average")] = (sa, None if sa is not None else "zero_variance")
        nc, nd = kendall_counts(table)
        out[(tname, "kendall")] = (2 * (nc - nd) / (m * (m - 1)), None)
    return out


def check_report(text: str, schema: dict, facts: dict, reference: dict,
                 baseline_reps: int | None = None) -> list[str]:
    """Problems found in a compute/randomize JSON report; empty when valid."""
    import jsonschema

    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    errors = [f"schema: {e.message}" for e in jsonschema.Draft202012Validator(schema).iter_errors(doc)]
    if errors:
        return errors
    for key, want in facts.items():
        if doc["graph"][key] != want:
            errors.append(f"graph.{key} = {doc['graph'][key]}, expected {want}")
    for (tname, mname), (value, reason) in reference.items():
        cell = doc["measures"].get(tname, {}).get(mname)
        if cell is None:
            errors.append(f"{tname}/{mname}: missing")
        elif value is None:
            if cell["value"] is not None or cell.get("reason") != reason:
                errors.append(f"{tname}/{mname}: {cell}, expected null with reason {reason}")
        elif cell["value"] is None or abs(cell["value"] - value) > TOLERANCE:
            errors.append(f"{tname}/{mname}: {cell['value']}, reference {value!r}")
    if baseline_reps is not None:
        errors += _check_baseline(doc.get("baseline"), baseline_reps)
    return errors


def _check_baseline(baseline, reps: int) -> list[str]:
    if baseline is None:
        return ["baseline missing"]
    errors = []
    if baseline["repetitions"] != reps:
        errors.append(f"baseline.repetitions = {baseline['repetitions']}, expected {reps}")
    for tname, _, _ in TYPES:
        for mname in MEASURES:
            cell = baseline["cells"].get(tname, {}).get(mname)
            if cell is None:
                errors.append(f"baseline {tname}/{mname}: missing")
                continue
            d = cell["defined"]
            ok = (cell["repetitions"] == reps and d <= reps
                  and (cell["mean"] is None) == (d == 0)
                  and (cell["sigma"] is None) == (d < 2))
            if not ok:
                errors.append(f"baseline {tname}/{mname}: inconsistent {cell}")
    return errors


def check_generated(src: np.ndarray, tgt: np.ndarray, nodes: int, edges: int) -> list[str]:
    """A generated ECM graph: ids in range, simple, recorded edge count."""
    errors = []
    if src.size != edges:
        errors.append(f"{src.size} edges written, workload records {edges}")
    if src.size == 0:
        return errors
    if min(src.min(), tgt.min()) < 0 or max(src.max(), tgt.max()) >= nodes:
        errors.append(f"node id outside [0, {nodes})")
        return errors
    if np.any(src == tgt):
        errors.append("self-loop in generated graph")
    if np.unique(src * nodes + tgt).size != src.size:
        errors.append("parallel edges in generated graph")
    out_deg, in_deg = np.bincount(src, minlength=nodes), np.bincount(tgt, minlength=nodes)
    if out_deg.sum() != in_deg.sum():
        errors.append("out- and in-degree sums differ")
    return errors


def check_balanced(pairs: np.ndarray, src: np.ndarray, tgt: np.ndarray, erased: int) -> list[str]:
    """The balanced degree sequence behind a generated graph: equal stub
    sums, no node above its prescription, shortfall equal to the erasures."""
    errors = []
    n = pairs.shape[0]
    if int(pairs[:, 0].sum()) != int(pairs[:, 1].sum()):
        errors.append("balanced sequence has unequal stub sums")
    out_deg, in_deg = np.bincount(src, minlength=n), np.bincount(tgt, minlength=n)
    if out_deg.size != n or np.any(out_deg > pairs[:, 0]) or np.any(in_deg > pairs[:, 1]):
        errors.append("generated degrees exceed the balanced sequence")
    if int(pairs[:, 0].sum()) - src.size != erased:
        errors.append("edge shortfall differs from the erasures the ECM reported")
    return errors
