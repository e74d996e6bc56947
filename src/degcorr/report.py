"""Correlation report assembly and serialization (JSON / CSV).

The report is the Table-1-shaped output of the CLI: one cell per
(dependency type, measure), nulls carrying a machine-readable reason, plus
optional randomized-baseline columns. Serialization is hand-rolled so that
float formatting (17 significant digits), key order and layout are fixed,
making repeated runs byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .config_model import RandomizationSummary
from .graph import ALL_TYPES, DependencyType, DirectedGraph, _count

SCHEMA_VERSION = 1
TYPE_ORDER = tuple(t.wire_name for t in ALL_TYPES)
MEASURE_ORDER = measures.MEASURES
CSV_HEADER = "type,measure,value,reason"
CSV_BASELINE_HEADER = CSV_HEADER + ",baseline_mean,baseline_sigma,baseline_defined,baseline_repetitions"


@dataclass(frozen=True)
class Cell:
    value: float | None
    reason: str | None = None  # zero_variance | degenerate_size


@dataclass(frozen=True)
class CorrelationReport:
    path: str
    nodes: int
    edges: int
    self_loops: int
    duplicate_edges: int
    seed: int
    rho_repetitions: int
    types: tuple[str, ...]
    measures: tuple[str, ...]
    cells: dict[tuple[str, str], Cell] = field(repr=False)
    baseline: RandomizationSummary | None = None


def compute_report(
    g: DirectedGraph,
    path: str,
    seed: int = 0,
    rho_repetitions: int = 3,
    types: tuple[str, ...] = TYPE_ORDER,
    which: tuple[str, ...] = MEASURE_ORDER,
) -> CorrelationReport:
    """Evaluate the requested measures for the requested dependency types.

    The spearman_uniform cell reports the mean over rho_repetitions
    tie-break instances, each on a seed derived from (seed, type index).
    """
    rho_repetitions = _count(rho_repetitions, "rho_repetitions", 1, measures.MAX_REPETITIONS, "repetition budget")
    for what, chosen in (("types", types), ("measures", which)):
        if not chosen or len(set(chosen)) < len(chosen):
            raise ValueError(f"{what} must be a non-empty list without repeats, got {','.join(chosen)!r}")
    if not set(types) <= set(TYPE_ORDER):
        raise ValueError(f"unknown dependency type {next(t for t in types if t not in TYPE_ORDER)!r}")
    cells: dict[tuple[str, str], Cell] = {}
    root = np.random.SeedSequence(seed)
    type_seeds = dict(zip(TYPE_ORDER, root.spawn(len(TYPE_ORDER))))
    chosen = [DependencyType.from_wire(tname) for tname in types]
    rows = measures.row_values(g, chosen, which, [type_seeds[tname] for tname in types], rho_repetitions)
    for tname, row in zip(types, rows):
        for mname, (value, reason) in zip(which, row):
            cells[(tname, mname)] = Cell(value, reason)
    return CorrelationReport(
        path=path,
        nodes=g.node_count,
        edges=g.edge_count,
        self_loops=g.self_loop_count(),
        duplicate_edges=g.duplicate_edge_count(),
        seed=seed,
        rho_repetitions=rho_repetitions,
        types=tuple(types),
        measures=tuple(which),
        cells=cells,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_json(report: CorrelationReport) -> str:
    """Fixed-order JSON with 17-significant-digit floats."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "graph": {k: getattr(report, k) for k in ("path", "nodes", "edges", "self_loops", "duplicate_edges")},
        "seed": report.seed,
        "rho_repetitions": report.rho_repetitions,
        "measures": _by_cell(report, report.cells, _value_cell),
    }
    if report.baseline is not None:
        doc["baseline"] = {
            "repetitions": report.baseline.repetitions,
            "cells": _by_cell(report, report.baseline.cells, _baseline_cell),
        }
    return _json(doc) + "\n"


class _Line(dict):
    """A JSON object that _json writes on one line: one report cell."""


def _by_cell(report: CorrelationReport, cells: dict, body) -> dict:
    return {t: {m: _Line(body(cells[(t, m)])) for m in report.measures} for t in report.types}


def _value_cell(cell: Cell) -> dict:
    return {"value": cell.value} if cell.value is not None else {"value": None, "reason": cell.reason}


def _baseline_cell(st) -> dict:
    return {"mean": st.mean, "sigma": st.sigma, "defined": st.defined, "repetitions": st.repetitions}


def _json(v, indent: str = "") -> str:
    """Objects one member per line with two-space indent, cells on one line."""
    if isinstance(v, _Line):
        return "{" + ", ".join(f"{_json(k)}: {_json(x)}" for k, x in v.items()) + "}"
    if isinstance(v, dict):
        inner = indent + "  "
        members = ",\n".join(f"{inner}{_json(k)}: {_json(x, inner)}" for k, x in v.items())
        return f"{{\n{members}\n{indent}}}"
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v, ensure_ascii=False)
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def to_csv(report: CorrelationReport) -> str:
    """Fixed column order; one row per (type, measure) in report order."""
    with_baseline = report.baseline is not None
    lines = [CSV_BASELINE_HEADER if with_baseline else CSV_HEADER]
    for tname in report.types:
        for mname in report.measures:
            cell = report.cells[(tname, mname)]
            value = _fmt(cell.value) if cell.value is not None else ""
            reason = cell.reason or ""
            row = f"{tname},{mname},{value},{reason}"
            if with_baseline:
                st = report.baseline.cells[(tname, mname)]
                mean = _fmt(st.mean) if st.mean is not None else ""
                sigma = _fmt(st.sigma) if st.sigma is not None else ""
                row += f",{mean},{sigma},{st.defined},{st.repetitions}"
            lines.append(row)
    return "\n".join(lines) + "\n"
