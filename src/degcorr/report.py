"""Correlation report assembly and serialization (JSON / CSV).

The report is the Table-1-shaped output of the CLI: one cell per
(dependency type, measure), nulls carrying a machine-readable reason, plus
optional randomized-baseline columns. Serialization is hand-rolled so that
float formatting (17 significant digits) and key order are fixed, making
repeated runs byte-identical.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .config_model import RandomizationSummary
from .graph import ALL_TYPES, DependencyType, DirectedGraph

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
    if rho_repetitions < 1:
        raise ValueError(f"rho_repetitions must be >= 1, got {rho_repetitions}")
    cells: dict[tuple[str, str], Cell] = {}
    root = np.random.SeedSequence(seed)
    type_seeds = dict(zip(TYPE_ORDER, root.spawn(len(TYPE_ORDER))))
    for tname in types:
        t = DependencyType.from_wire(tname)
        for mname in which:
            value, reason = measures.cell_value(g, t, mname, type_seeds[tname], rho_repetitions)
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
    out = io.StringIO()
    out.write("{\n")
    out.write(f'  "schema_version": {SCHEMA_VERSION},\n')
    out.write('  "graph": {\n')
    out.write(f'    "path": {_json_str(report.path)},\n')
    out.write(f'    "nodes": {report.nodes},\n')
    out.write(f'    "edges": {report.edges},\n')
    out.write(f'    "self_loops": {report.self_loops},\n')
    out.write(f'    "duplicate_edges": {report.duplicate_edges}\n')
    out.write("  },\n")
    out.write(f'  "seed": {report.seed},\n')
    out.write(f'  "rho_repetitions": {report.rho_repetitions},\n')
    out.write('  "measures": {\n')
    out.write(_json_cells(report, "    ", _json_cell))
    out.write("\n  }")
    if report.baseline is not None:
        out.write(',\n  "baseline": {\n')
        out.write(f'    "repetitions": {report.baseline.repetitions},\n')
        out.write('    "cells": {\n')
        out.write(_json_cells(report, "      ", _json_baseline_cell))
        out.write("\n    }\n  }")
    out.write("\n}\n")
    return out.getvalue()


def _json_cells(report: CorrelationReport, indent: str, body) -> str:
    """The members {type: {measure: body(report, type, measure)}}, one per line."""
    blocks = []
    for tname in report.types:
        rows = ",\n".join(f"{indent}  {_json_str(m)}: {body(report, tname, m)}" for m in report.measures)
        blocks.append(f"{indent}{_json_str(tname)}: {{\n{rows}\n{indent}}}")
    return ",\n".join(blocks)


def _json_cell(report: CorrelationReport, tname: str, mname: str) -> str:
    cell = report.cells[(tname, mname)]
    if cell.value is None:
        return f'{{"value": null, "reason": {_json_str(cell.reason)}}}'
    return f'{{"value": {_fmt(cell.value)}}}'


def _json_baseline_cell(report: CorrelationReport, tname: str, mname: str) -> str:
    st = report.baseline.cells[(tname, mname)]
    mean = _fmt(st.mean) if st.mean is not None else "null"
    sigma = _fmt(st.sigma) if st.sigma is not None else "null"
    return f'{{"mean": {mean}, "sigma": {sigma}, "defined": {st.defined}, "repetitions": {st.repetitions}}}'


def _json_str(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


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
