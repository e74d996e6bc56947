"""One input contract for every public entry point that takes an array.

An integer entry point given integers that fit int64 acts exactly as on an
int64 copy of them; given anything else (floats, even integral ones, bools,
objects, strings, a uint64 past 2^63 - 1) it raises ValueError or TypeError.
A ranking entry point ranks any 1-d values as it ranks a fresh copy of them.
Each refuses every shape but its own: a 1-d series, or an (n, 2) table of
(out, in) degrees or edges. No call changes the bytes or flags of the
caller's array, and no container freezes or shares it.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import degcorr as dc

SPEC = dc.PowerLawSpec(2.5)
NODES = 2**62  # every non-negative id is a node

# name in degcorr.__all__: (call on one array, its columns: 0 for a 1-d
# series, 2 for an (n, 2) table, whether it ranks)
ENTRIES = {
    "DirectedGraph": (lambda a: dc.DirectedGraph(NODES, a, a), 0, False),
    "DirectedGraph.from_edges": (lambda a: dc.DirectedGraph.from_edges(NODES, a), 2, False),
    "DegreeTable": (lambda a: dc.DegreeTable(a, a), 0, False),
    "PairSeries": (lambda a: dc.PairSeries(a, np.flip(a)), 0, False),
    "concordance_counts": (lambda a: dc.concordance_counts(dc.PairSeries(a, np.flip(a))), 0, False),
    "erased_configuration_model": (lambda a: dc.erased_configuration_model(a, 0), 2, False),
    "balance_iid_sequence": (lambda a: dc.balance_iid_sequence(a, SPEC, SPEC, 0, 1), 2, False),
    "vertex_moment_sum": (lambda a: dc.vertex_moment_sum(dc.DegreeTable(a, a), 1, 2), 0, False),
    "variance_gap": (lambda a: dc.variance_gap(dc.DegreeTable(a, np.flip(a)), "out", "in"), 0, False),
    "average_ranks": (dc.average_ranks, 0, True),
    "permutation_ranks": (lambda a: dc.permutation_ranks(a, "uniform_random", np.random.default_rng(0)), 0, True),
    "rank_with_ties": (lambda a: dc.rank_with_ties(a, "by_reverse_index"), 0, True),
}
INTEGER_KINDS = ("int64", "int32", "uint8", "uint64")
OTHER_KINDS = ("float-integral", "float-fractional", "bool", "object", "str", "uint64-past-int64")


def _typed(values: list[int], kind: str) -> np.ndarray:
    if kind == "float-integral":
        return np.array(values, np.float64)
    if kind == "float-fractional":
        return np.array(values, np.float64) + 0.5
    if kind == "bool":
        return np.array(values, np.int64) % 2 == 1
    if kind == "object":
        return np.array(values, object)
    if kind == "str":
        return np.array([str(v) for v in values], str)
    if kind == "uint64-past-int64":
        return np.array(values + [2**63], np.uint64)
    return np.array(values, kind)


@st.composite
def inputs(draw, columns: int):
    """(array, whether its shape is the entry's own, its kind)."""
    kind = draw(st.sampled_from(INTEGER_KINDS + OTHER_KINDS))
    series = _typed(draw(st.lists(st.integers(0, 6), max_size=8)), kind)
    shapes = {
        "series": series,
        "table": np.stack([series, series], axis=1),
        "wide": np.stack([series] * 3, axis=1),
        "scalar": _typed([3], kind)[:1].reshape(()),
    }
    shape = draw(st.sampled_from(sorted(shapes)))
    arr = shapes[shape]
    layout = draw(st.sampled_from(["contiguous", "strided", "read-only"]))
    if layout == "strided" and arr.ndim:
        arr = np.repeat(arr, 2, axis=0)[::2]
    elif layout == "read-only":
        arr = arr.copy()
        arr.setflags(write=False)
    return arr, shape == ("table" if columns else "series"), kind


def _canon(x):
    """A comparable form of a result: arrays by dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, tuple):
        return tuple(_canon(v) for v in x)
    if isinstance(x, dc.DirectedGraph):
        return x.node_count, _canon(x.src), _canon(x.tgt)
    if dataclasses.is_dataclass(x):
        return tuple(_canon(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def _outcome(call, arr):
    try:
        return _canon(call(arr))
    except Exception as exc:
        return type(exc)


def _state(arr: np.ndarray) -> list:
    """Bytes and flags of arr and of the array it views."""
    arrays = [arr] + ([arr.base] if isinstance(arr.base, np.ndarray) else [])
    return [(a.tobytes(), a.strides, a.flags.writeable, a.flags.c_contiguous, a.flags.owndata) for a in arrays]


@pytest.mark.parametrize("name", sorted(ENTRIES))
@given(data=st.data())
def test_one_input_contract(name, data):
    call, columns, ranks = ENTRIES[name]
    arr, own_shape, kind = data.draw(inputs(columns))
    before = _state(arr)
    got = _outcome(call, arr)
    assert _state(arr) == before
    if name == "DirectedGraph.from_edges" and arr.ndim and not len(arr):
        # an empty iterable is no edges, whatever shape held it
        assert got == _canon(dc.DirectedGraph(NODES, [], []))
    elif not own_shape:
        assert got is ValueError or (got is TypeError and not ranks)
    elif ranks:
        assert got == _outcome(call, np.array(arr, copy=True))
    elif kind in INTEGER_KINDS or arr.size == 0:
        assert got == _outcome(call, arr.astype(np.int64))
    else:
        assert got in (ValueError, TypeError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dc.balance_iid_sequence(np.array([1, 2, 3]), SPEC, SPEC, 0),
        lambda: dc.balance_iid_sequence(np.ones((3, 3), np.int64), SPEC, SPEC, 0),  # came back as balanced
        lambda: dc.DegreeTable(np.ones((2, 2), np.int64), np.ones((2, 2), np.int64)),
        lambda: dc.PairSeries(np.ones((2, 2), np.int64), np.ones((2, 2), np.int64)),
        lambda: dc.average_ranks(np.array([[1, 2], [3, 4]])),  # came back as 2-d ranks
        lambda: dc.average_ranks(np.array(5)),  # came back as 1.0
        lambda: dc.erased_configuration_model(np.array(3), 0),
        lambda: dc.DirectedGraph(2, np.array(0), np.array(0)),
    ],
    ids=["balance-1-d", "balance-3x3", "degree-table-2-d", "pair-series-2-d", "average-ranks-2-d",
         "average-ranks-0-d", "ecm-0-d", "graph-0-d"],
)
def test_wrong_shapes_refused(call):
    with pytest.raises(ValueError, match=r"expected a (1-d sequence|table) of shape \(n, ?2?\), got shape"):
        call()


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda s: dc.DirectedGraph(2, s, s), ("src", "tgt")),
        (lambda s: dc.DegreeTable(s, s), ("out_degree", "in_degree")),
        (lambda s: dc.PairSeries(s, s), ("x", "y")),
    ],
    ids=["graph", "degree-table", "pair-series"],
)
@pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
def test_constructors_copy_what_the_caller_holds(build, names, view):
    held = np.array([0, 1])
    s = held[:] if view else held
    built = build(s)
    assert held.flags.writeable and s.flags.writeable
    assert held.tolist() == [0, 1]
    arrays = [getattr(built, name) for name in names]
    assert not any(a.flags.writeable for a in arrays)
    s[:] = [1, 0]
    assert all(a.tolist() == [0, 1] for a in arrays)
