"""Unit tests for the feeding graph (paper Figure 4)."""

from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.feeding_graph import FeedingGraph, enumerate_phantoms
from repro.core.queries import QuerySet

from tests.references import reference_phantoms


def labels(attr_sets):
    return sorted(a.label() for a in attr_sets)


def feedable(graph, attrs):
    """The nodes ``attrs`` can feed, read off the graph's bitmasks."""
    mine = graph.masks[graph.nodes.index(attrs)]
    return [node for node, mask in zip(graph.nodes, graph.masks)
            if mask != mine and mask & mine == mask]


def feeders(graph, attrs):
    """The nodes that can feed ``attrs``, read off the graph's bitmasks."""
    mine = graph.masks[graph.nodes.index(attrs)]
    return [node for node, mask in zip(graph.nodes, graph.masks)
            if mask != mine and mask & mine == mine]


def fed_queries(graph, attrs):
    return [node for node in feedable(graph, attrs) if graph.is_query(node)]


class TestEnumeratePhantoms:
    def test_paper_figure4(self):
        """Queries {AB, BC, BD, CD} yield phantoms {ABC, ABD, BCD, ABCD}."""
        queries = [AttributeSet.parse(t) for t in ("AB", "BC", "BD", "CD")]
        assert labels(enumerate_phantoms(queries)) == [
            "ABC", "ABCD", "ABD", "BCD"]

    def test_single_attribute_queries(self):
        """Queries {A,B,C,D}: all 11 multi-attribute subsets are phantoms."""
        queries = [AttributeSet.parse(t) for t in "ABCD"]
        got = enumerate_phantoms(queries)
        assert len(got) == 11
        assert AttributeSet.parse("ABCD") in got
        assert AttributeSet.parse("AC") in got

    def test_nested_queries_skip_existing(self):
        """A union equal to an existing query is not a phantom."""
        queries = [AttributeSet.parse(t) for t in ("A", "AB")]
        assert enumerate_phantoms(queries) == []

    def test_union_closure(self):
        """Unions of three queries appear even if no pair produces them."""
        queries = [AttributeSet.parse(t) for t in ("AB", "CD", "EF")]
        got = labels(enumerate_phantoms(queries))
        assert "ABCDEF" in got

    def test_deterministic_order(self):
        queries = [AttributeSet.parse(t) for t in "ABC"]
        a = enumerate_phantoms(queries)
        b = enumerate_phantoms(reversed(queries))
        assert a == b


class TestFeedingGraph:
    def test_nodes_and_membership(self):
        graph = FeedingGraph(QuerySet.counts(["AB", "BC", "BD", "CD"]))
        assert len(graph) == 8  # 4 queries + 4 phantoms
        assert graph.is_query(AttributeSet.parse("AB"))
        assert AttributeSet.parse("ABCD") in graph
        assert not graph.is_query(AttributeSet.parse("ABCD"))
        assert AttributeSet.parse("AD") not in graph

    def test_feedable_is_strict_subsets(self):
        graph = FeedingGraph(QuerySet.counts(["AB", "BC", "BD", "CD"]))
        assert labels(feedable(graph, AttributeSet.parse("BCD"))) == [
            "BC", "BD", "CD"]
        assert labels(feedable(graph, AttributeSet.parse("ABCD"))) == [
            "AB", "ABC", "ABD", "BC", "BCD", "BD", "CD"]

    def test_feeders(self):
        graph = FeedingGraph(QuerySet.counts(["AB", "BC", "BD", "CD"]))
        assert labels(feeders(graph, AttributeSet.parse("BC"))) == [
            "ABC", "ABCD", "BCD"]

    def test_fed_queries(self):
        graph = FeedingGraph(QuerySet.counts(["AB", "BC", "BD", "CD"]))
        assert labels(fed_queries(graph, AttributeSet.parse("ABD"))) == [
            "AB", "BD"]

    def test_every_phantom_feeds_two_queries(self):
        """Candidates are unions of >= 2 queries, so each can feed >= 2."""
        graph = FeedingGraph(QuerySet.counts(["A", "BC", "CD", "AD"]))
        for phantom in graph.phantoms:
            assert len(fed_queries(graph, phantom)) >= 2


@given(st.sets(
    st.builds(AttributeSet,
              st.sets(st.sampled_from("ABCDE"), min_size=1, max_size=4)),
    min_size=1, max_size=5))
def test_phantoms_are_strict_supersets_of_two_queries(query_sets):
    phantoms = enumerate_phantoms(query_sets)
    for phantom in phantoms:
        supported = [q for q in query_sets if q < phantom]
        assert len(supported) >= 2
        # and each phantom is exactly the union of the queries below it
        union = supported[0]
        for q in supported[1:]:
            union = union | q
        assert union == phantom


SINGLE = "ABCDEFGH"
MULTI = ("src_ip", "dst_ip", "sport", "dport", "proto", "len", "ttl", "tos")


@st.composite
def query_lists(draw):
    """1-6 queries over 1-8 attribute names; nesting and repeats allowed."""
    pool = draw(st.sampled_from([SINGLE, MULTI]))[:draw(st.integers(1, 8))]
    subsets = st.sets(st.sampled_from(pool), min_size=1).map(AttributeSet)
    return draw(st.lists(subsets, min_size=1, max_size=6))


def check_against_reference(queries):
    """``enumerate_phantoms`` and every ``FeedingGraph`` view against the
    pairwise-``AttributeSet`` closure and plain subset tests."""
    phantoms = reference_phantoms(queries)
    assert enumerate_phantoms(queries) == phantoms
    distinct = list(dict.fromkeys(queries))
    graph = FeedingGraph(QuerySet.counts(distinct))
    nodes = sorted(set(distinct) | set(phantoms), key=AttributeSet.sort_key)
    assert graph.queries == distinct
    assert graph.phantoms == phantoms
    assert graph.nodes == nodes
    assert len(graph) == len(nodes)
    for node in nodes:
        assert node in graph
        assert graph.is_query(node) == (node in distinct)
        assert feedable(graph, node) == [o for o in nodes if o < node]
        assert feeders(graph, node) == [o for o in nodes if node < o]


@given(query_lists())
def test_bitmask_closure_matches_attribute_set_reference(queries):
    check_against_reference(queries)


def test_closure_reference_on_named_shapes():
    parse = AttributeSet.parse
    for labels_ in (["ABC", "AB"],                       # nested
                    ["AB", "AB", "BC", "AB"],            # duplicates
                    ["ABCDEFGH"],                        # a single query
                    ["src_ip+dst_ip", "dst_ip+dport", "src_ip"],
                    ["A", "B", "C", "D", "E", "F", "G", "H"]):
        check_against_reference([parse(label) for label in labels_])
    outsider = parse("AD")
    graph = FeedingGraph(QuerySet.counts(["AB", "BC"]))
    assert outsider not in graph
    assert not graph.is_query(outsider)
