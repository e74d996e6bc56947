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
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import degcorr as dc
from degcorr import config_model, generators, graph, measures, report, theory

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


# Every size or count argument takes a Python or numpy integer, not a bool,
# from its least to its most value, and refuses anything else with a
# ValueError that names it. The budgets are lowered so that the upper bounds
# run in a moment.
EDGE_BUDGET, REPETITION_BUDGET = 64, 4
GRAPH = dc.bridge_graph(dc.BridgeParams(2, 3))
IN_OUT = dc.DependencyType.IN_OUT

# (public name, argument): (call on one value, the name the refusal gives,
# least, most); most is 2**63 where no budget bounds the argument
SIZES = {
    ("DirectedGraph", "node_count"): (lambda v: dc.DirectedGraph(v, [], []), "node_count", 0, 2**63),
    ("DirectedGraph.from_edges", "node_count"): (lambda v: dc.DirectedGraph.from_edges(v, []), "node_count", 0, 2**63),
    ("BridgeParams", "k"): (lambda v: dc.BridgeParams(v, 1), "k", 1, EDGE_BUDGET),
    ("BridgeParams", "m"): (lambda v: dc.BridgeParams(1, v), "m", 1, EDGE_BUDGET),
    ("PowerLawSpec", "x_min"): (lambda v: dc.PowerLawSpec(2.5, v), "x_min", 1, 2**62),
    ("sample_integer_power_law", "count"): (lambda v: dc.sample_integer_power_law(SPEC, 0, v), "count", 1, EDGE_BUDGET),
    ("iid_degree_sequence", "n"): (lambda v: dc.iid_degree_sequence(v, SPEC, SPEC, 0), "count", 1, EDGE_BUDGET),
    ("random_bridge_collection", "n"): (
        lambda v: dc.random_bridge_collection(v, 1.0, dc.PowerLawSpec(1.5), 0), "count", 1, EDGE_BUDGET),
    ("balance_iid_sequence", "max_attempts"): (
        lambda v: dc.balance_iid_sequence([[1, 1]], SPEC, SPEC, 0, v), "max_attempts", 1, 2**63),
    ("spearman_uniform_mean", "repetitions"): (
        lambda v: dc.spearman_uniform_mean(GRAPH, IN_OUT, v, 0), "repetitions", 2, REPETITION_BUDGET),
    ("randomization_study", "repetitions"): (
        lambda v: dc.randomization_study(GRAPH, v, 0, 1), "repetitions", 2, REPETITION_BUDGET),
    ("randomization_study", "rho_inner"): (
        lambda v: dc.randomization_study(GRAPH, 2, 0, v), "rho_inner", 1, REPETITION_BUDGET),
    ("report.compute_report", "rho_repetitions"): (
        lambda v: report.compute_report(GRAPH, "g", 0, v), "rho_repetitions", 1, REPETITION_BUDGET),
    ("theory.scaling_study", "sizes"): (
        lambda v: theory.scaling_study(SPEC, SPEC, [v, 10, 20], [(1, 0)], 1, 0), "grid size", 1, EDGE_BUDGET),
    ("theory.scaling_study", "repetitions"): (
        lambda v: theory.scaling_study(SPEC, SPEC, [1, 2, 3], [(1, 0)], v, 0), "repetitions", 1, REPETITION_BUDGET),
    ("theory.bridge_distribution_study", "n"): (
        lambda v: theory.bridge_distribution_study(v, 1.0, dc.PowerLawSpec(1.5), 1, 0), "count", 1, EDGE_BUDGET),
    ("theory.bridge_distribution_study", "realizations"): (
        lambda v: theory.bridge_distribution_study(2, 1.0, dc.PowerLawSpec(1.5), v, 0),
        "realizations", 1, REPETITION_BUDGET),
    **{
        (f"theory.{name}", arg): (
            (lambda v, f=getattr(theory, name): f(v, 1)) if arg == "n" else (lambda v, f=getattr(theory, name): f(1, v)),
            arg, 1, 2**63,
        )
        for name in ("closed_form_pearson_bridge", "closed_form_pearson_bridge_disconnected",
                     "closed_form_spearman_bridge", "sigma_products_bridge", "closed_form_spearman_ranked",
                     "tau_counts_bridge", "closed_form_tau_bridge")
        for arg in ("n", "a")
    },
}


@pytest.fixture
def small_budgets(monkeypatch):
    """EDGE_BUDGET and REPETITION_BUDGET in every module that reads a budget."""
    for module in (graph, generators, config_model, measures, theory):
        for name, value in (("MAX_EDGES", EDGE_BUDGET), ("MAX_REPETITIONS", REPETITION_BUDGET)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, value)


def _size_outcome(call, value):
    """call(value)'s canonical result, or its exception's type and message."""
    try:
        return _canon(call(value))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("key", sorted(SIZES), ids=[".".join(k) for k in sorted(SIZES)])
def test_sizes_accepted_at_both_bounds(small_budgets, key):
    call, what, least, most = SIZES[key]
    for bound in (least, most):
        got = _size_outcome(call, bound)
        # a later check may refuse the call (a union over its edge budget),
        # but not the intake
        assert not (isinstance(got, tuple) and got[:1] == (ValueError,) and got[1].startswith(f"{what} must be"))
        for kind in (np.int64, np.uint8, np.uint64):
            if np.iinfo(kind).min <= bound <= np.iinfo(kind).max:
                assert _size_outcome(call, kind(bound)) == got


@pytest.mark.parametrize("key", sorted(SIZES), ids=[".".join(k) for k in sorted(SIZES)])
def test_sizes_refused(small_budgets, key):
    call, what, least, most = SIZES[key]
    budget = "the edge budget " if most == EDGE_BUDGET else "the repetition budget " if most == REPETITION_BUDGET else ""
    for value in (True, np.bool_(True), float(least), least + 0.5, str(least), None, least - 1, most + 1):
        message = f"{what} must be an integer from {least} to {budget}{most}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)
