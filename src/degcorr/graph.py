"""Directed multigraph container, edge-list I/O, degrees and moment sums.

The graph is an immutable multiset of directed edges over dense node ids.
Self-loops and parallel edges are representable and counted by every
downstream formula; only the configuration model enforces simplicity.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, Union

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


ALL_TYPES = tuple(DependencyType)


def _shaped(values, columns: int = 0) -> np.ndarray:
    """np.asarray(values), refused unless its shape is (n,), or (n, columns)
    when columns is set: the one place that decides an array argument's shape."""
    arr = np.asarray(values)
    if arr.ndim == 0 or arr.shape[1:] != ((columns,) if columns else ()):
        expected = f"a table of shape (n, {columns})" if columns else "a 1-d sequence of shape (n,)"
        raise ValueError(f"expected {expected}, got shape {arr.shape}")
    return arr


def _count(value, what: str, least: int, most: int = 2**63, budget: str = "") -> int:
    """int(value) for a Python or numpy integer, not a bool, from least to most:
    the one place that decides a size or count argument. most defaults to the
    number of int64 ids; budget names it when it is a budget."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and least <= int(value) <= most:
        return int(value)
    bound = f"the {budget} {most}" if budget else most
    raise ValueError(f"{what} must be an integer from {least} to {bound}, got {value!r}")


def _as_int64(values, columns: int = 0) -> np.ndarray:
    """values, shaped as _shaped checks, as a C-contiguous int64 array: the
    caller's own array when it is one. Any dtype but a signed or unsigned
    integer is refused rather than truncated, unless values is empty
    (np.asarray([]) is float64), and so is an unsigned value past 2^63 - 1
    rather than wrapped."""
    arr = _shaped(values, columns)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"expected integers, got an array of {arr.dtype}")
    if arr.size and arr.dtype.kind == "u" and arr.max() > 2**63 - 1:
        raise ValueError(f"integer {arr.max()} does not fit in int64")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _as_readonly(values) -> np.ndarray:
    """_as_int64(values), read-only: copied whenever it may share memory with
    values, so the caller's array is never frozen or written through; a
    builder frees its temporaries before it hands its endpoints over."""
    arr = _as_int64(values)
    if np.may_share_memory(arr, values):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _sorted_edge_keys(n: int, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """int64 keys src * n + tgt, sorted: (src, tgt) order, equal edges adjacent.

    Needs 0 <= tgt < n, src >= 0 and every src * n + tgt < 2**63; src may
    reach past n (the loader packs raw ids with their positions). Built and
    sorted in place, not by np.unique: numpy 2.4's np.unique hashes 1-d
    input, ~60x slower at 1.3M.
    """
    key = src * n
    key += tgt
    key.sort()
    return key


class DirectedGraph:
    """Immutable sequence of directed edges over node ids 0..node_count-1."""

    __slots__ = ("node_count", "src", "tgt")

    def __init__(self, node_count: int, src: np.ndarray, tgt: np.ndarray):
        node_count = _count(node_count, "node_count", 0)
        src = _as_readonly(src)
        tgt = _as_readonly(tgt)
        if src.shape != tgt.shape:
            raise ValueError("src and tgt must be 1-d arrays of equal length")
        if src.size:
            lo = min(int(src.min()), int(tgt.min()))
            hi = max(int(src.max()), int(tgt.max()))
            if lo < 0 or hi >= node_count:
                raise ValueError("edge endpoint outside [0, node_count)")
        self.node_count = node_count
        self.src = src
        self.tgt = tgt

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        ends = _as_int64(list(edges) or np.empty((0, 2), np.int64), columns=2)
        return cls(node_count, ends[:, 0], ends[:, 1])

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
    empty input yields a zero-edge graph. Files of digits, spaces, tabs and
    line ends go through np.loadtxt, any other one line at a time.
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
    ids = _parse_fast(data)
    if ids is None:
        return _parse_lines(data)
    del data  # the remap needs only the ids
    return _first_appearance(ids)


def _parse_fast(data: bytes) -> np.ndarray | None:
    """The ids of data, an int64 array of file order, read by numpy's C
    reader, or None if it cannot prove that data is well-formed.

    It proves it when every byte is a digit, space, tab, CR or LF, every
    line holds zero or two ids and every id is at most 2**63-1: np.loadtxt
    raises on uneven lines and on larger ids. Anything else, '#' comments
    included, is left to _parse_lines, which keeps every error message and
    line number.
    """
    if data.translate(None, b"0123456789 \t\r\n"):
        return None
    if not data or data.isspace():
        # np.loadtxt would warn that the input contained no data
        return np.empty(0, dtype=np.int64)
    try:
        # numpy 1.23 to at least 1.26 read an id past 2**63-1 through a float,
        # cast it and only warn; as an error, that read defers like any other
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            # str.splitlines breaks at LF, CRLF and CR, the only line breaks
            # that pass the byte check; the reader skips blank lines
            lines = itertools.chain.from_iterable(map(str.splitlines, _ascii_pieces(data)))
            ids = np.loadtxt(lines, dtype=np.int64, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    # a file whose lines all hold one id, or all three, reads as that many columns
    return ids.reshape(-1) if ids.shape[1] == 2 else None


def _first_appearance(ids: np.ndarray) -> LoadResult:
    """The LoadResult of _parse_fast's ids, remapped in place; other temporaries hold an int64, int32 or bool per id."""
    count = ids.size
    if not count:
        return LoadResult(DirectedGraph(0, ids, ids), ids)
    # sort by (value, position), mark where the value changes, and take the
    # first position of each run
    if int(ids.max()) < 2**63 // count:
        order = _sorted_edge_keys(count, ids, np.arange(count))
        np.divmod(order, count, out=(ids, order))
    else:
        # packed keys would wrap; a stable argsort keeps equal ids in order
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
    mark = np.empty(count, dtype=bool)
    mark[0] = True
    np.not_equal(ids[1:], ids[:-1], out=mark[1:])
    runs = np.flatnonzero(mark)
    first = order[runs]
    # a value's dense id counts the values that appear before it, in int32 while that fits
    mark[:] = False
    mark[first] = True
    dense_of_value = np.cumsum(mark, dtype=np.int32 if count < 2**31 else np.int64)[first]
    dense_of_value -= 1
    del mark, first
    external = np.empty(runs.size, dtype=np.int64)
    external[dense_of_value] = ids[runs]
    # every member of a run takes its value's dense id, back at its position
    ids[order] = np.repeat(dense_of_value, np.diff(runs, append=count))
    return LoadResult(DirectedGraph(external.size, ids[0::2], ids[1::2]), external)


def _ascii_pieces(data: bytes) -> Iterator[str]:
    """data as str, in pieces of about 64 KiB that end at an LF: np.loadtxt
    reads anything but a path one line at a time, and its decode of each
    bytes line costs more than the line's parse."""
    start = 0
    while start < len(data):
        # past the last LF (from the start in a file of bare CRs), the piece
        # is the rest of data
        end = data.find(b"\n", start + 65536) + 1 or len(data)
        yield data[start:end].decode("ascii")
        start = end


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


def edge_degree_pairs(g: DirectedGraph, t: DependencyType) -> PairSeries:
    """Per-edge (source-side degree, target-side degree) series for a type."""
    d = degrees(g)
    return PairSeries(d.kind(t.source_kind)[g.src], d.kind(t.target_kind)[g.tgt])


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
    Pearson identities are tested exactly); other finite exponents use float64.
    """
    if not (math.isfinite(p) and math.isfinite(q)):
        raise ValueError(f"p and q must be finite, got p={p}, q={q}")
    p_int = float(p).is_integer() and 0 <= p <= 3
    q_int = float(q).is_integer() and 0 <= q <= 3
    if p_int and q_int:
        return exact_product_moment(d.out_degree, d.in_degree, int(p), int(q))
    out = d.out_degree.astype(np.float64)
    inn = d.in_degree.astype(np.float64)
    return float(np.sum(out**p * inn**q))
