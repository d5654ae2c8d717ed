"""Unit and property tests for Configuration forests."""

import pytest
from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.configuration import Configuration
from repro.core.feeding_graph import enumerate_phantoms
from repro.errors import ConfigurationError, NotationError


def A(label: str) -> AttributeSet:
    return AttributeSet.parse(label)


class TestNotation:
    def test_parse_paper_example(self):
        cfg = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
        assert cfg.parent(A("AB")) == A("ABCD")
        assert cfg.parent(A("BC")) == A("BCD")
        assert cfg.parent(A("ABCD")) is None
        assert sorted(q.label() for q in cfg.queries) == [
            "AB", "BC", "BD", "CD"]

    def test_parse_forest(self):
        cfg = Configuration.from_notation("AB(A B) CD(C D)")
        assert [r.label() for r in cfg.raw_relations] == ["AB", "CD"]
        assert len(cfg) == 6

    def test_roundtrip_canonical(self):
        """to_notation() orders children canonically (size, then name)."""
        for text in ("ABCD(AB BCD(BC BD CD))",
                     "AB(A B) CD(C D)",
                     "ABC(B AC(A C))",
                     "A B C D"):
            cfg = Configuration.from_notation(text)
            assert cfg.to_notation() == text
            assert Configuration.from_notation(cfg.to_notation()) == cfg

    def test_roundtrip_paper_order(self):
        """The paper's own orderings parse to the same configuration."""
        cfg = Configuration.from_notation("(ABC(AC(A C) B))")
        assert Configuration.from_notation(cfg.to_notation()) == cfg

    def test_unbalanced_parens(self):
        with pytest.raises(NotationError):
            Configuration.from_notation("AB(A B")

    def test_empty_child_list(self):
        with pytest.raises(NotationError):
            Configuration.from_notation("AB()")

    def test_duplicate_relation(self):
        with pytest.raises(ConfigurationError):
            Configuration.from_notation("AB(A B) AB(A B)")

    def test_empty(self):
        with pytest.raises(NotationError):
            Configuration.from_notation("   ")


class TestValidation:
    def test_child_must_be_strict_subset(self):
        with pytest.raises(ConfigurationError):
            Configuration({A("AB"): A("BC"), A("BC"): None},
                           [A("AB"), A("BC")])

    def test_leaf_must_be_query(self):
        with pytest.raises(ConfigurationError):
            # ABC is a childless phantom
            Configuration({A("ABC"): None, A("AB"): None}, [A("AB")])

    def test_queries_must_be_instantiated(self):
        with pytest.raises(ConfigurationError):
            Configuration({A("AB"): None}, [A("AB"), A("CD")])

    def test_parent_must_be_instantiated(self):
        with pytest.raises(ConfigurationError):
            Configuration({A("A"): A("AB")}, [A("A")])


class TestStructure:
    def test_flat(self):
        cfg = Configuration.flat([A("A"), A("B")])
        assert cfg.raw_relations == cfg.leaves
        assert cfg.phantoms == []

    def test_topological_order_parents_first(self):
        cfg = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
        order = cfg.relations
        for rel in order:
            parent = cfg.parent(rel)
            if parent is not None:
                assert order.index(parent) < order.index(rel)

    def test_ancestors_nearest_first(self):
        cfg = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
        assert [a.label() for a in cfg.ancestors(A("BC"))] == [
            "BCD", "ABCD"]
        assert cfg.depth(A("BC")) == 2
        assert cfg.depth(A("ABCD")) == 0

    def test_raw_and_leaf_not_exclusive(self):
        """Paper Sec 3.1: BD, CD are both raw and leaf in Fig 3(a)."""
        cfg = Configuration.from_notation("ABC(AB BC) BD CD")
        assert cfg.is_raw(A("BD")) and cfg.is_leaf(A("BD"))

    def test_nested_minimal_superset(self):
        cfg = Configuration.nested(
            [A(t) for t in ("A", "B", "AB", "ABC", "C")],
            [A(t) for t in ("A", "B", "C")])
        assert cfg.parent(A("A")) == A("AB")
        assert cfg.parent(A("C")) == A("ABC")
        assert cfg.parent(A("AB")) == A("ABC")


class TestSurgery:
    def test_with_phantom_captures_children(self):
        cfg = Configuration.flat([A(t) for t in "ABCD"])
        cfg2 = cfg.with_phantom(A("ABC"))
        assert cfg2.parent(A("A")) == A("ABC")
        assert cfg2.parent(A("D")) is None
        assert cfg2.is_raw(A("ABC"))

    def test_with_phantom_nested(self):
        cfg = Configuration.flat([A(t) for t in "ABCD"]) \
            .with_phantom(A("ABCD")).with_phantom(A("ABC"))
        assert cfg.parent(A("ABC")) == A("ABCD")
        assert cfg.parent(A("A")) == A("ABC")
        assert cfg.parent(A("D")) == A("ABCD")

    def test_add_then_remove_restores(self):
        cfg = Configuration.from_notation("(ABCD(AB BCD(BC BD CD)))")
        assert cfg.with_phantom(A("ABD")).without_phantom(A("ABD")) == cfg

    def test_with_existing_raises(self):
        cfg = Configuration.from_notation("AB(A B)")
        with pytest.raises(ConfigurationError):
            cfg.with_phantom(A("AB"))

    def test_without_query_raises(self):
        cfg = Configuration.from_notation("AB(A B)")
        with pytest.raises(ConfigurationError):
            cfg.without_phantom(A("A"))

    def test_with_childless_phantom_raises(self):
        cfg = Configuration.from_notation("ABCD(BCD(BC BD CD) AB)")
        # ACD captures no child of ABCD (BCD and AB are not subsets of ACD)
        with pytest.raises(ConfigurationError):
            cfg.with_phantom(A("ACD"))


@given(st.data())
def test_nested_always_valid_forest(data):
    queries = [A(t) for t in ("AB", "BC", "BD", "CD")]
    phantoms = enumerate_phantoms(queries)
    subset = data.draw(st.sets(st.sampled_from(phantoms)))
    try:
        cfg = Configuration.nested(queries + list(subset), queries)
    except ConfigurationError:
        return  # a childless-phantom structure; rejection is correct
    # Structural invariants hold for every accepted forest.
    for rel in cfg.relations:
        parent = cfg.parent(rel)
        if parent is not None:
            assert rel < parent
        if cfg.is_leaf(rel):
            assert rel in cfg.queries
    assert set(cfg.relations) == set(queries) | set(subset)
