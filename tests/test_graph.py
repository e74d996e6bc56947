import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import degcorr as dc
from degcorr import EdgeListFormatError
from degcorr.graph import _WRITE_CHUNK, _moment_exponents, _parse_fast, _parse_lines, vertex_moment_sum

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestLoadEdgeList:
    def test_basic_parse(self):
        lr = dc.load_edge_list(b"0 1\n1 2\n")
        assert lr.graph.node_count == 3
        assert lr.graph.edges == [(0, 1), (1, 2)]

    def test_comment_and_self_loop(self):
        lr = dc.load_edge_list(b"# c\n7 7\n")
        assert lr.graph.node_count == 1
        assert lr.graph.edges == [(0, 0)]
        assert lr.graph.self_loop_count() == 1
        assert lr.external_id(0) == 7

    def test_duplicate_edges_kept(self):
        lr = dc.load_edge_list(b"5 9\n5 9\n")
        assert lr.graph.node_count == 2
        assert lr.graph.edges == [(0, 1), (0, 1)]
        assert lr.graph.duplicate_edge_count() == 1

    def test_empty_input_is_zero_edge_graph(self):
        lr = dc.load_edge_list(b"")
        assert lr.graph.node_count == 0
        assert lr.graph.edge_count == 0

    def test_blank_lines_ignored(self):
        lr = dc.load_edge_list(b"\n0 1\n\n  \n2 3\n")
        assert lr.graph.edge_count == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListFormatError) as exc:
            dc.load_edge_list(b"0 1\nnope\n")
        assert exc.value.line_number == 2

    def test_three_fields_rejected(self):
        with pytest.raises(EdgeListFormatError):
            dc.load_edge_list(b"0 1 2\n")

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListFormatError):
            dc.load_edge_list(b"-1 2\n")

    def test_negative_id_message_kept(self):
        with pytest.raises(EdgeListFormatError, match="non-negative"):
            dc.load_edge_list(b"0 1\n-1 2\n")

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"0 1\n1_0 2\n", 2),  # int() takes '_' separators
            ("0 1\n# c\n\u0663 4\n".encode(), 3),  # ARABIC-INDIC DIGIT THREE
            (b"+1 2\n", 1),
            (b"1 \xef\xbc\x92\n", 1),  # FULLWIDTH DIGIT TWO
        ],
    )
    def test_only_ascii_decimal_ids(self, data, line):
        with pytest.raises(EdgeListFormatError, match="non-integer") as exc:
            dc.load_edge_list(data)
        assert exc.value.line_number == line

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"0 1\n2 3\n4 \xff5\n", 3),
            (b"\xff", 1),
            (b"0 1\r\n\r\n# \xfe\n", 3),
        ],
    )
    def test_decode_error_reports_line(self, data, line):
        with pytest.raises(EdgeListFormatError, match="not UTF-8") as exc:
            dc.load_edge_list(data)
        assert exc.value.line_number == line

    def test_large_external_ids(self):
        big = 2**63 - 1
        lr = dc.load_edge_list(f"{big} 0\n".encode())
        assert lr.graph.edges == [(0, 1)]
        assert lr.external_id(0) == big

    def test_first_appearance_order(self):
        lr = dc.load_edge_list(b"10 20\n20 30\n10 30\n")
        assert lr.external_ids.tolist() == [10, 20, 30]

    def test_roundtrip_through_serializer(self):
        # serialize -> load is an isomorphism: identical after the remap
        g = dc.bridge_graph(dc.BridgeParams(3, 4))
        buf = io.StringIO()
        dc.write_edge_list(g, buf)
        lr = dc.load_edge_list(buf.getvalue().encode())
        assert lr.graph.node_count == g.node_count
        mapped = [
            (lr.external_id(s), lr.external_id(t)) for s, t in lr.graph.edges
        ]
        assert mapped == g.edges

    @pytest.mark.parametrize(
        "data, edges",
        [
            (b"# caf\xc3\xa9 \xe2\x80\xa8 note\n0 1\n", [(0, 1)]),  # U+2028 in a comment
            (b"# page\x0cbreak\n0 1\n", [(0, 1)]),  # form feed in a comment
            (b"0 1\r2 3\r\n4 5\n", [(0, 1), (2, 3), (4, 5)]),
        ],
    )
    def test_lines_break_only_at_cr_and_lf(self, data, edges):
        assert dc.load_edge_list(data).graph.edges == edges

    @pytest.mark.parametrize(
        "data, line, message",
        [
            (b"0 1\x0c2 3\n", 1, "expected two fields, got 4"),
            (b"# a\x0bb\x1cc\n0 1\nnope\n", 3, "expected two fields, got 1"),
            (b"# \xc2\x85 \xe2\x80\xa9\n0 1\n4 \xff\n", 3, "not UTF-8"),
        ],
    )
    def test_other_breaks_leave_line_numbers_alone(self, data, line, message):
        with pytest.raises(EdgeListFormatError, match=message) as exc:
            dc.load_edge_list(data)
        assert exc.value.line_number == line


def _load_outcome(load, data):
    """(graph, external-id dtype, external ids) or (message, line number)
    of one parse."""
    try:
        lr = load(data)
    except EdgeListFormatError as exc:
        return str(exc), exc.line_number
    return lr.graph, lr.external_ids.dtype, lr.external_ids.tolist()


_blank = st.text(" \t", max_size=2)
_space = st.text(" \t", min_size=1, max_size=2)
_id = st.builds(lambda v, zeros: "0" * zeros + str(v), st.integers(0, 10**18 - 1), st.integers(0, 2))
_edge_line = st.builds(lambda a, s, d, b, c: a + s + b + d + c, _blank, _id, _id, _space, _blank)


@given(
    lines=st.lists(st.tuples(st.one_of(_blank, _edge_line), st.sampled_from(["\n", "\r\n", "\r"]))),
    final_break=st.booleans(),
)
def test_fast_path_matches_line_loop(lines, final_break):
    text = "".join(line + end for line, end in lines)
    if lines and not final_break:
        text = text[: -len(lines[-1][1])]
    data = text.encode()
    assert _load_outcome(dc.load_edge_list, data) == _load_outcome(_parse_lines, data)
    # the fast path takes every such file whose ids have at most 18 digits
    if all(len(token) <= 18 for token in data.split()):
        assert _parse_fast(data) is not None


@pytest.mark.parametrize(
    "data",
    [
        b"0 1\n9223372036854775808 2\n",  # np.fromstring would clamp it to 2**63-1
        b"0 1\n1 2 3\n",
        b"0 1 2\n3\n",  # an even number of ids, but not two per line
        b"0\n1\n",
        b"0 1\n2",
        b"0 1\n-1 2\n",
        b"+1 2\n",
        b"1_0 2\n",
        b"0 1\n0000000000000000012 3\n",  # 19 digits, value 12
        b"# c\n0 1\n",
    ],
)
def test_fast_path_leaves_what_it_cannot_prove_to_the_loop(data):
    assert _parse_fast(data) is None
    assert _load_outcome(dc.load_edge_list, data) == _load_outcome(_parse_lines, data)


class TestWriteEdgeList:
    @pytest.mark.parametrize("m", [0, 1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1])
    def test_bytes_match_one_line_per_edge(self, m, tmp_path):
        big = 2**63 - 1
        src = np.arange(m, dtype=np.int64) * 7919 % (m + 1)
        tgt = np.full(m, big, dtype=np.int64)
        g = dc.DirectedGraph(big + 1, src, tgt)
        expected = "".join(f"{s} {t}\n" for s, t in zip(src.tolist(), tgt.tolist()))
        buf = io.StringIO()
        dc.write_edge_list(g, buf)
        assert buf.getvalue() == expected
        path = tmp_path / "g.txt"
        dc.write_edge_list(g, path)
        assert path.read_bytes() == expected.encode()


def _traced_peak(fn, *args):
    """(fn(*args), peak bytes that tracemalloc saw during the call)"""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edge_list_io_memory(tmp_path):
    rng = np.random.default_rng(5)
    m = 100_000
    g = dc.DirectedGraph(10**6, rng.integers(0, 10**6, m), rng.integers(0, 10**6, m))
    path = tmp_path / "g.txt"
    # no temporary the size of the output, let alone one per edge
    assert _traced_peak(dc.write_edge_list, g, path)[1] < 2 * 2**20
    data = path.read_bytes()
    fast, fast_peak = _traced_peak(_parse_fast, data)
    loop, loop_peak = _traced_peak(_parse_lines, data)
    # no int64 temporary per input byte: the fast path needs no more than the loop
    assert fast_peak <= loop_peak
    # and at this size the unstable sort mixes the positions of repeated ids
    assert fast.graph == loop.graph
    assert fast.external_ids.tolist() == loop.external_ids.tolist()


class TestDegrees:
    def test_path(self):
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        d = dc.degrees(g)
        assert d.out_degree.tolist() == [1, 1, 0]
        assert d.in_degree.tolist() == [0, 1, 1]

    def test_self_loop(self):
        g = dc.DirectedGraph.from_edges(1, [(0, 0)])
        d = dc.degrees(g)
        assert d.out_degree.tolist() == [1]
        assert d.in_degree.tolist() == [1]

    def test_bridge_2_3(self):
        d = dc.degrees(dc.bridge_graph(dc.BridgeParams(2, 3)))
        assert d.in_degree[0] == 2  # hub v collects the fan-in
        assert d.out_degree[1] == 3  # hub w feeds the fan-out
        assert d.out_degree[0] == 1 and d.in_degree[1] == 1
        leaves = list(range(2, 7))
        assert all(d.out_degree[v] + d.in_degree[v] == 1 for v in leaves)

    def test_degree_sums_equal_edge_count(self, corpus):
        for g in corpus:
            d = dc.degrees(g)
            assert int(d.out_degree.sum()) == g.edge_count
            assert int(d.in_degree.sum()) == g.edge_count


class TestEdgeDegreePairs:
    def test_path_out_in(self):
        g = dc.DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        p = dc.edge_degree_pairs(g, dc.DependencyType.OUT_IN)
        assert p.tuples() == [(1, 1), (1, 1)]

    def test_bridge_in_out(self):
        g = dc.bridge_graph(dc.BridgeParams(2, 2))
        got = sorted(dc.edge_degree_pairs(g, dc.DependencyType.IN_OUT).tuples())
        assert got == [(0, 1), (0, 1), (1, 0), (1, 0), (2, 2)]

    def test_disconnected_bridge_never_pairs_hubs(self):
        g = dc.disconnected_bridge_graph(dc.BridgeParams(2, 2))
        got = dc.edge_degree_pairs(g, dc.DependencyType.IN_OUT).tuples()
        assert (2, 1) in got and (1, 2) in got
        assert (2, 2) not in got


class TestVertexMomentSum:
    def test_ones(self):
        d = dc.DegreeTable(np.array([1, 1]), np.array([1, 1]))
        assert vertex_moment_sum(d, 1, 1) == 2

    def test_bridge_identities(self):
        d = dc.degrees(dc.bridge_graph(dc.BridgeParams(2, 2)))
        assert vertex_moment_sum(d, 1, 1) == 4  # (1+a)n at n=2, a=1
        assert vertex_moment_sum(d, 1, 2) == 6  # n^2 + an
        assert vertex_moment_sum(d, 2, 1) == 6  # n + a^2 n^2

    def test_zero_power_counts_nodes(self):
        d = dc.DegreeTable(np.array([0, 3]), np.array([2, 0]))
        assert vertex_moment_sum(d, 0, 0) == 2  # 0**0 == 1

    def test_float_path_matches_int_path(self):
        d = dc.degrees(dc.bridge_graph(dc.BridgeParams(4, 7)))
        assert vertex_moment_sum(d, 2.0, 1.0) == pytest.approx(
            vertex_moment_sum(d, 2, 1)
        )
        assert vertex_moment_sum(d, 1.5, 0.5) > 0

    def test_huge_degrees_stay_exact(self):
        big = 2**31 - 1
        d = dc.DegreeTable(np.array([big, 1]), np.array([1, big]))
        assert vertex_moment_sum(d, 3, 0) == big**3 + 1
        assert vertex_moment_sum(d, 2, 1) == big**2 + big


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40
    )
)
def test_edge_vertex_sum_identity(edges):
    """sum_e D^a(e_*)^k == sum_v D+ (D^a)^k and the target-side mirror."""
    g = dc.DirectedGraph.from_edges(8, edges)
    d = dc.degrees(g)
    for k in (1, 2, 3):
        for kind in ("out", "in"):
            per_edge = d.kind(kind)[g.src]
            lhs = int(np.sum(per_edge.astype(object) ** k))
            p, q = (k + 1, 0) if kind == "out" else (1, k)
            assert lhs == vertex_moment_sum(d, p, q)
            assert _moment_exponents("out", kind, k) == (p, q)
            per_edge_t = d.kind(kind)[g.tgt]
            lhs_t = int(np.sum(per_edge_t.astype(object) ** k))
            p, q = (k, 1) if kind == "out" else (0, k + 1)
            assert lhs_t == vertex_moment_sum(d, p, q)
            assert _moment_exponents("in", kind, k) == (p, q)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=30
    )
)
def test_moment_sum_1_0_is_edge_count(edges):
    g = dc.DirectedGraph.from_edges(6, edges)
    d = dc.degrees(g)
    assert vertex_moment_sum(d, 1, 0) == g.edge_count
    assert vertex_moment_sum(d, 0, 1) == g.edge_count


def set_duplicates(g):
    return g.edge_count - len(set(g.edges))


def test_duplicate_edge_count_matches_a_set(corpus):
    golden = [dc.load_edge_list(str(f)).graph for f in sorted(GOLDEN.glob("*.txt"))]
    for g in corpus + golden:
        assert g.duplicate_edge_count() == set_duplicates(g)


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    )
)
def test_duplicate_edge_count_on_multigraphs(graph):
    g = dc.DirectedGraph.from_edges(*graph)
    assert g.duplicate_edge_count() == set_duplicates(g)


def test_duplicate_edge_count_beyond_packed_keys():
    # node_count**2 >= 2**63: a key src * n + tgt would wrap, and sources
    # 2**24 apart would share one, so these ids take the lexsort
    top = 2**40 - 1
    edges = [(top, 5), (top - 2**24, 5), (top, 5), (0, top), (top, top), (0, top), (5, top)]
    g = dc.DirectedGraph.from_edges(2**40, edges)
    assert g.duplicate_edge_count() == set_duplicates(g) == 2


def test_graph_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError):
        dc.DirectedGraph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        dc.DirectedGraph.from_edges(2, [(-1, 0)])


def test_graph_arrays_immutable():
    g = dc.bridge_graph(dc.BridgeParams(2, 2))
    with pytest.raises(ValueError):
        g.src[0] = 5
