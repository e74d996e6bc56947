"""Self-time arithmetic and function instrumentation of the span tracer."""
import pytest

import tracer as tr


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,4] > leaf [2,3];  root > b [5,9]
    t = tr.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open("root")
    a = t.open("a")
    leaf = t.open("leaf")
    t.close(leaf)
    t.close(a)
    b = t.open("b")
    t.close(b)
    t.close(root)
    assert [s.parent for s in t.spans] == [None, root, a, root]
    assert tr.self_times(t.spans) == [3, 2, 1, 4]
    totals = tr.aggregate(t.spans)
    assert totals["root"].self_s + totals["a"].self_s + totals["leaf"].self_s + totals["b"].self_s == 10


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        tr.Span("p", 0, 10, None),
        tr.Span("c", 2, 6, 0),
        tr.Span("c", 4, 8, 0),
        tr.Span("c", 9, 12, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert tr.self_times(spans)[0] == 10 - (8 - 2) - (10 - 9)


def test_aggregate_counts_recursion_once_in_total():
    spans = [tr.Span("f", 0, 8, None), tr.Span("f", 1, 5, 0), tr.Span("g", 6, 7, 0, {"n": 3})]
    totals = tr.aggregate(spans)
    assert totals["f"].calls == 2
    assert totals["f"].total_s == 8
    assert totals["f"].self_s == (8 - 4 - 1) + 4
    assert totals["g"].counts == {"n": 3}


def test_span_closes_when_the_call_raises():
    t = tr.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("boom", boom)()
    assert t.spans[0].end >= t.spans[0].start
    t.close(t.open("next"))  # the stack is empty again
    assert t.spans[1].parent is None


def test_instrument_rebinds_every_copy_and_restores():
    import degcorr as dc
    from degcorr import _exact, measures

    original = _exact.exact_dot
    t = tr.Tracer()
    inst = tr.instrument(t, "degcorr", ["_exact", "measures", "ranking", "graph"],
                         aliases={"measures._spearman_uniform_seeded": "measures.spearman_uniform"},
                         counters={"exact.exact_dot": lambda a, k, r: {"elements": len(a[0])}})
    try:
        # measures holds its own `from ._exact import exact_dot` binding
        assert measures.exact_dot is not original and _exact.exact_dot is not original
        g = dc.bridge_graph(dc.BridgeParams(3, 4))
        value = measures.spearman_average(g, dc.DependencyType.IN_OUT)
        measures.spearman_uniform(g, dc.DependencyType.IN_OUT, 1)
    finally:
        inst.restore()
    assert _exact.exact_dot is original and measures.exact_dot is original
    assert value == dc.spearman_average(g, dc.DependencyType.IN_OUT)
    names = [s.name for s in t.spans]
    assert names[0] == "measures.spearman_average"
    assert "ranking.average_ranks_doubled" in names and "exact.exact_dot" in names
    dot = next(s for s in t.spans if s.name == "exact.exact_dot")
    assert t.spans[dot.parent].name == "measures.spearman_average"
    assert dot.counts == {"elements": g.edge_count}
    # the public spearman_uniform and the private seeded form share one layer
    assert names.count("measures.spearman_uniform") == 2
