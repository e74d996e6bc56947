"""Directed multigraph container, edge-list I/O, degrees and moment sums.

The graph is an immutable multiset of directed edges over dense node ids.
Self-loops and parallel edges are representable and counted by every
downstream formula; only the configuration model enforces simplicity.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np

from ._exact import exact_product_moment
from .errors import EdgeListFormatError

_MAX_EXTERNAL_ID = 2**63 - 1

# Largest edge or stub count a generator or the configuration model builds.
# A graph holds 16 bytes per edge (int64 src and tgt), 4 GiB at this budget,
# and building one takes several such arrays; the budget turns requests that
# cannot fit (a heavy tail can ask for 2**62 stubs) into an input error
# before anything is allocated.
MAX_EDGES = 2**28


class DependencyType(Enum):
    """Choice of degree kind at the source and target of an edge.

    Wire names put the source-side kind first: OUT_IN correlates the
    out-degree of each edge's source with the in-degree of its target.
    """

    OUT_IN = ("out", "in")
    OUT_OUT = ("out", "out")
    IN_IN = ("in", "in")
    IN_OUT = ("in", "out")

    @property
    def source_kind(self) -> str:
        return self.value[0]

    @property
    def target_kind(self) -> str:
        return self.value[1]

    @property
    def wire_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_wire(cls, name: str) -> "DependencyType":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown dependency type {name!r}") from None


ALL_TYPES = (
    DependencyType.OUT_IN,
    DependencyType.OUT_OUT,
    DependencyType.IN_IN,
    DependencyType.IN_OUT,
)


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _sorted_edge_keys(n: int, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """int64 keys src * n + tgt, sorted: (src, tgt) order, equal edges adjacent.

    Needs every id below n and n * n < 2**63. Built and sorted in place, not
    by np.unique: numpy 2.4's np.unique hashes 1-d input, ~60x slower at 1.3M.
    """
    key = src * n
    key += tgt
    key.sort()
    return key


class DirectedGraph:
    """Immutable sequence of directed edges over node ids 0..node_count-1."""

    __slots__ = ("node_count", "src", "tgt")

    def __init__(self, node_count: int, src: np.ndarray, tgt: np.ndarray):
        src = _as_readonly(src)
        tgt = _as_readonly(tgt)
        if src.shape != tgt.shape or src.ndim != 1:
            raise ValueError("src and tgt must be 1-d arrays of equal length")
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        if src.size:
            lo = min(int(src.min()), int(tgt.min()))
            hi = max(int(src.max()), int(tgt.max()))
            if lo < 0 or hi >= node_count:
                raise ValueError("edge endpoint outside [0, node_count)")
        self.node_count = int(node_count)
        self.src = src
        self.tgt = tgt

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        pairs = list(edges)
        src = np.fromiter((s for s, _ in pairs), dtype=np.int64, count=len(pairs))
        tgt = np.fromiter((t for _, t in pairs), dtype=np.int64, count=len(pairs))
        return cls(node_count, src, tgt)

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Edge sequence as a list of (source, target) tuples. O(m); for tests
        and small graphs, not for hot paths."""
        return list(zip(self.src.tolist(), self.tgt.tolist()))

    def self_loop_count(self) -> int:
        return int(np.count_nonzero(self.src == self.tgt))

    def duplicate_edge_count(self) -> int:
        """Number of edges beyond the first occurrence of each (src, tgt)."""
        if self.node_count**2 < 2**63:
            key = _sorted_edge_keys(self.node_count, self.src, self.tgt)
            return int(np.count_nonzero(key[1:] == key[:-1]))
        # ids this large come only from a hand-built graph; keys would wrap
        order = np.lexsort((self.tgt, self.src))
        s, t = self.src[order], self.tgt[order]
        return int(np.count_nonzero((s[1:] == s[:-1]) & (t[1:] == t[:-1])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.tgt, other.tgt)
        )

    def __hash__(self):
        return hash((self.node_count, self.src.tobytes(), self.tgt.tobytes()))

    def __repr__(self):
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class DegreeTable:
    """Per-node out/in degree arrays; sum of each side equals the edge count."""

    out_degree: np.ndarray
    in_degree: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "out_degree", _as_readonly(self.out_degree))
        object.__setattr__(self, "in_degree", _as_readonly(self.in_degree))
        if self.out_degree.shape != self.in_degree.shape:
            raise ValueError("degree arrays must have equal length")

    def kind(self, which: str) -> np.ndarray:
        if which == "out":
            return self.out_degree
        if which == "in":
            return self.in_degree
        raise ValueError(f"degree kind must be 'out' or 'in', got {which!r}")


@dataclass(frozen=True)
class PairSeries:
    """Per-edge joint observations (source-side degree, target-side degree)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_readonly(self.x))
        object.__setattr__(self, "y", _as_readonly(self.y))
        if self.x.shape != self.y.shape:
            raise ValueError("pair coordinate arrays must have equal length")

    def __len__(self) -> int:
        return int(self.x.size)

    def tuples(self) -> list[tuple[int, int]]:
        return list(zip(self.x.tolist(), self.y.tolist()))


@dataclass(frozen=True)
class LoadResult:
    """A parsed graph plus the external-id remap retained for reporting."""

    graph: DirectedGraph
    external_ids: np.ndarray = field(repr=False)

    def external_id(self, internal: int) -> int:
        return int(self.external_ids[internal])


Source = Union[str, Path, bytes, IO[bytes], IO[str]]


def load_edge_list(source: Source) -> LoadResult:
    """Parse whitespace-separated "src dst" lines into a graph.

    Lines end at \\n, \\r\\n or \\r. Lines starting with '#' and blank lines
    are ignored; edge lines are ASCII. External ids (decimal integers from 0
    to 2**63-1, no '+' or '_') are remapped to dense internal ids in
    first-appearance order. The edge multiset is preserved in file order;
    empty input yields a zero-edge graph.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    loaded = _parse_fast(data)
    return loaded if loaded is not None else _parse_lines(data)


# Longest id the fast path reads: every 18-digit number is below 2**63, and
# np.fromstring clamps larger ones to 2**63-1 without a word.
_FAST_MAX_DIGITS = 18


def _parse_fast(data: bytes) -> LoadResult | None:
    """_parse_lines(data) in a few numpy passes, or None if it cannot prove
    that data is well-formed.

    It proves it when every byte is a digit, space, tab, CR or LF, every
    line holds zero or two ids and no id has more than 18 digits. Anything
    else, '#' comments included, is left to _parse_lines, which keeps every
    error message and line number. Its temporaries hold a bool per input
    byte, or an int64 per id or per line break.
    """
    if data.translate(None, b"0123456789 \t\r\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(buf.size + 2, dtype=bool)
    np.greater_equal(buf, ord("0"), out=digit[1:-1])
    # even entries start a maximal run of digits (an id), odd entries end one
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    del digit
    ids_count = bounds.size // 2
    if ids_count == 0:
        empty = np.empty(0, dtype=np.int64)
        return LoadResult(DirectedGraph(0, empty, empty), empty)
    id_starts = bounds[0::2]
    if int(np.max(bounds[1::2] - id_starts)) > _FAST_MAX_DIGITS:
        return None
    line_break = buf == ord("\n")
    line_break |= buf == ord("\r")
    # ids that start before each CR or LF; every line holds 0 or 2 of them
    per_line = np.diff(
        np.searchsorted(id_starts, np.flatnonzero(line_break)), prepend=0, append=ids_count
    )
    if not ((per_line == 0) | (per_line == 2)).all():
        return None
    del bounds, id_starts, line_break, per_line

    ids = np.fromstring(data, dtype=np.int64, count=ids_count, sep=" ")
    # first-appearance remap: sort, mark where the value changes, and take
    # each value's smallest position (the sort is not stable)
    order = np.argsort(ids)
    ids = ids[order]
    new_value = np.empty(ids_count, dtype=bool)
    new_value[0] = True
    np.not_equal(ids[1:], ids[:-1], out=new_value[1:])
    runs = np.flatnonzero(new_value)
    first = np.minimum.reduceat(order, runs)
    # a value's dense id counts the values that appear before it
    is_first = np.zeros(ids_count, dtype=bool)
    is_first[first] = True
    dense_of_value = np.cumsum(is_first)[first]
    dense_of_value -= 1
    external = np.empty(runs.size, dtype=np.int64)
    external[dense_of_value] = ids[runs]
    del ids, runs, first, is_first
    value = np.cumsum(new_value)
    value -= 1
    dense = np.empty(ids_count, dtype=np.int64)
    dense[order] = dense_of_value[value]
    return LoadResult(DirectedGraph(external.size, dense[0::2], dense[1::2]), external)


def _split_lines(text: str) -> list[str]:
    """text broken at \\n, \\r\\n and \\r only (str.splitlines also breaks
    at \\x0b, \\x0c, \\x1c-\\x1e, U+0085, U+2028 and U+2029)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_lines(data: bytes) -> LoadResult:
    """load_edge_list one line at a time: the reference for every input and
    the only path that reports an error."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(_split_lines(data[: exc.start].decode("utf-8")))
        raise EdgeListFormatError(line_no, f"not UTF-8: {exc.reason} (byte {data[exc.start]:#04x})") from None

    id_map: dict[int, int] = {}
    srcs: list[int] = []
    tgts: list[int] = []
    for line_no, raw in enumerate(_split_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(line_no, f"expected two fields, got {len(parts)}")
        try:
            # int() would also take '+', '_' separators and non-ASCII digits
            if not line.isascii() or "_" in line or "+" in line:
                raise ValueError(line)
            s_ext, t_ext = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(line_no, f"non-integer node id in {line!r}") from None
        if s_ext < 0 or t_ext < 0:
            raise EdgeListFormatError(line_no, "node ids must be non-negative")
        if s_ext > _MAX_EXTERNAL_ID or t_ext > _MAX_EXTERNAL_ID:
            raise EdgeListFormatError(line_no, "node id exceeds 2**63-1")
        s = id_map.setdefault(s_ext, len(id_map))
        t = id_map.setdefault(t_ext, len(id_map))
        srcs.append(s)
        tgts.append(t)

    graph = DirectedGraph(
        len(id_map),
        np.asarray(srcs, dtype=np.int64),
        np.asarray(tgts, dtype=np.int64),
    )
    external = np.fromiter(id_map.keys(), dtype=np.int64, count=len(id_map))
    return LoadResult(graph, external)


# Edges per formatting call in write_edge_list. Each chunk holds about
# 0.3 MB of Python ints, so writing takes constant memory.
_WRITE_CHUNK = 2**12
_WRITE_FORMAT = "%d %d\n" * _WRITE_CHUNK


def write_edge_list(g: DirectedGraph, destination: Union[str, Path, IO[str]]) -> None:
    """Serialize as one "src dst" line per edge, in edge order.

    The format cannot represent isolated nodes; graphs produced by the
    generators never have any.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            _write_lines(g, fh)
    else:
        _write_lines(g, destination)


def _write_lines(g: DirectedGraph, out: IO[str]) -> None:
    for lo in range(0, g.edge_count, _WRITE_CHUNK):
        hi = min(lo + _WRITE_CHUNK, g.edge_count)
        fmt = _WRITE_FORMAT if hi - lo == _WRITE_CHUNK else "%d %d\n" * (hi - lo)
        out.write(fmt % tuple(np.column_stack((g.src[lo:hi], g.tgt[lo:hi])).ravel().tolist()))


def degrees(g: DirectedGraph) -> DegreeTable:
    """Count out/in degrees of every node."""
    out = np.bincount(g.src, minlength=g.node_count).astype(np.int64, copy=False)
    inn = np.bincount(g.tgt, minlength=g.node_count).astype(np.int64, copy=False)
    return DegreeTable(out, inn)


def edge_degree_pairs(g: DirectedGraph, t: DependencyType, d: DegreeTable | None = None) -> PairSeries:
    """Per-edge (source-side degree, target-side degree) series for a type.

    d is g's DegreeTable; a caller that builds several series of one graph
    passes it, and without it the table is built here.
    """
    if d is None:
        d = degrees(g)
    x = d.kind(t.source_kind)[g.src]
    y = d.kind(t.target_kind)[g.tgt]
    return PairSeries(x, y)


def _moment_exponents(weight: str, value: str, k: int) -> tuple[int, int]:
    """(p, q) with D^weight * (D^value)^k = out_degree^p * in_degree^q.

    An edge series weights its source side by D+ ("out") and its target
    side by D- ("in"); value is that side's degree kind. So the sum of the
    k-th powers of one side of the series is vertex_moment_sum(d, p, q).
    """
    if weight not in ("out", "in") or value not in ("out", "in"):
        raise ValueError(f"degree kinds must be 'out' or 'in', got {weight!r} and {value!r}")
    return (weight == "out") + k * (value == "out"), (weight == "in") + k * (value == "in")


def vertex_moment_sum(d: DegreeTable, p: float, q: float) -> float | int:
    """Sum over nodes of out_degree**p * in_degree**q, with 0**0 == 1.

    Integer p, q up to 3 are accumulated exactly in integer arithmetic (the
    Pearson identities are tested exactly); other exponents use float64.
    """
    p_int = float(p).is_integer() and 0 <= p <= 3
    q_int = float(q).is_integer() and 0 <= q <= 3
    if p_int and q_int:
        return exact_product_moment(d.out_degree, d.in_degree, int(p), int(q))
    out = d.out_degree.astype(np.float64)
    inn = d.in_degree.astype(np.float64)
    return float(np.sum(out**p * inn**q))
