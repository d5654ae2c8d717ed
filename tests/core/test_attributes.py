"""Unit tests for AttributeSet."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet
from repro.errors import SchemaError

NAMES = st.sets(st.sampled_from("ABCDEFG"), min_size=1, max_size=5)


class TestConstruction:
    def test_of_deduplicates_and_sorts(self):
        assert AttributeSet.of("B", "A", "B").names == ("A", "B")

    def test_parse_concatenated(self):
        assert AttributeSet.parse("CAB") == AttributeSet.of("A", "B", "C")

    def test_parse_plus_separated(self):
        got = AttributeSet.parse("src_ip+dst_ip")
        assert got.names == ("dst_ip", "src_ip")

    def test_parse_rejects_empty(self):
        with pytest.raises(SchemaError):
            AttributeSet.parse("")

    def test_parse_rejects_malformed_plus(self):
        with pytest.raises(SchemaError):
            AttributeSet.parse("a++b")

    def test_rejects_non_string(self):
        """Names are checked before they are sorted, so a mixed list gets
        the typed error naming the value, not ``sorted()``'s TypeError."""
        for names, offender in [([1, 2], "1"), (["A", 1], "1"),
                                (["A", None], "None"), (["A", ""], "''")]:
            with pytest.raises(SchemaError,
                               match=f"invalid attribute name: {offender}"):
                AttributeSet(names)  # type: ignore[arg-type]


class TestAlgebra:
    def test_union(self):
        assert (AttributeSet.parse("AB") | AttributeSet.parse("BC")
                == AttributeSet.parse("ABC"))

    def test_intersection(self):
        assert (AttributeSet.parse("AB") & AttributeSet.parse("BC")
                == AttributeSet.parse("B"))

    def test_difference(self):
        assert (AttributeSet.parse("ABC") - AttributeSet.parse("B")
                == AttributeSet.parse("AC"))

    def test_strict_subset(self):
        assert AttributeSet.parse("AB") < AttributeSet.parse("ABC")
        assert not AttributeSet.parse("AB") < AttributeSet.parse("AB")
        assert AttributeSet.parse("AB") <= AttributeSet.parse("AB")

    def test_incomparable(self):
        a, b = AttributeSet.parse("AB"), AttributeSet.parse("CD")
        assert not a < b and not b < a

    def test_contains_and_iter(self):
        s = AttributeSet.parse("AC")
        assert "A" in s and "B" not in s
        assert list(s) == ["A", "C"]
        assert len(s) == 2


class TestDisplay:
    def test_label_concatenates_single_chars(self):
        assert AttributeSet.parse("CBA").label() == "ABC"

    def test_label_joins_long_names(self):
        assert AttributeSet.of("y", "xx").label() == "xx+y"

    def test_repr_roundtrip(self):
        s = AttributeSet.parse("BD")
        assert AttributeSet.parse(str(s)) == s


class TestHashing:
    def test_equal_sets_hash_equal(self):
        assert hash(AttributeSet.parse("AB")) == hash(AttributeSet.of("B", "A"))

    def test_usable_in_dict(self):
        d = {AttributeSet.parse("AB"): 1}
        assert d[AttributeSet.of("A", "B")] == 1

    def test_unpickled_set_hashes_like_a_fresh_one(self):
        """A checkpoint is restored by another process, where the same
        names hash differently: the pickled hash must not survive."""
        written = AttributeSet.parse("ABC")
        written._hash = hash(written) ^ 1  # as another process computed it
        restored = pickle.loads(pickle.dumps(written))
        assert restored == AttributeSet.parse("ABC")
        assert hash(restored) == hash(AttributeSet.parse("ABC"))
        assert {restored: 1}[AttributeSet.parse("ABC")] == 1

    def test_sort_key_orders_by_size_then_name(self):
        items = [AttributeSet.parse(t) for t in ("ABC", "B", "AC", "A")]
        ordered = sorted(items, key=AttributeSet.sort_key)
        assert [s.label() for s in ordered] == ["A", "B", "AC", "ABC"]


@given(NAMES, NAMES)
def test_union_is_superset_of_both(a, b):
    u = AttributeSet(a) | AttributeSet(b)
    assert AttributeSet(a) <= u and AttributeSet(b) <= u


@given(NAMES, NAMES)
def test_intersection_is_subset_of_both(a, b):
    common = a & b
    if common:
        i = AttributeSet(a) & AttributeSet(b)
        assert i <= AttributeSet(a) and i <= AttributeSet(b)
        assert i == AttributeSet(common)


@given(NAMES)
def test_parse_label_roundtrip(names):
    s = AttributeSet(names)
    assert AttributeSet.parse(s.label()) == s
