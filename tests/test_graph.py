import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import degcorr as dc
from degcorr import EdgeListFormatError
from degcorr.graph import vertex_moment_sum


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
            per_edge_t = d.kind(kind)[g.tgt]
            lhs_t = int(np.sum(per_edge_t.astype(object) ** k))
            p, q = (k, 1) if kind == "out" else (0, k + 1)
            assert lhs_t == vertex_moment_sum(d, p, q)


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


def test_graph_rejects_out_of_range_endpoints():
    with pytest.raises(ValueError):
        dc.DirectedGraph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        dc.DirectedGraph.from_edges(2, [(-1, 0)])


def test_graph_arrays_immutable():
    g = dc.bridge_graph(dc.BridgeParams(2, 2))
    with pytest.raises(ValueError):
        g.src[0] = 5
