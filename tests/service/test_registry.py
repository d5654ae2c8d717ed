"""Registry lifecycle: register/retire bookkeeping and its edge cases."""

from itertools import combinations

import pytest

from repro import AttributeSet, QueryRegistry
from repro.errors import SchemaError
from repro.service.registry import RECENT_SETS, Registration

from tests.service.conftest import query


class TestRegister:
    def test_register_and_lookup(self):
        registry = QueryRegistry()
        registration = registry.register("acme", query("AB"))
        assert isinstance(registration, Registration)
        assert registry.tenants == ["acme"]
        assert len(registry) == 1
        assert registry.group_bys() == [AttributeSet.parse("AB")]

    def test_epoch_locked_by_first_registration(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB", epoch_seconds=2.0))
        with pytest.raises(SchemaError, match="epoch"):
            registry.register("beta", query("BC", epoch_seconds=5.0))

    def test_duplicate_tenant_group_by_rejected(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        with pytest.raises(SchemaError, match="already registered"):
            registry.register("acme", query("AB"))
        # The failed duplicate must not corrupt the tenant's entry.
        assert len(registry.queries_for("acme")) == 1

    def test_failed_register_leaves_no_ghost_tenant(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB", epoch_seconds=2.0))
        with pytest.raises(SchemaError):
            registry.register("ghost", query("BC", epoch_seconds=7.0))
        assert "ghost" not in registry.tenants
        assert registry.is_empty is False

    def test_empty_tenant_name_rejected(self):
        registry = QueryRegistry()
        with pytest.raises(SchemaError, match="non-empty"):
            registry.register("", query("AB"))

    def test_shared_group_by_has_one_physical_query(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        registry.register("beta", query("AB"))
        registry.register("beta", query("BC"))
        assert sorted(registry.sharers(AttributeSet.parse("AB"))) == \
            ["acme", "beta"]
        physical = registry.physical_query_set()
        assert len(physical.group_bys) == 2

    def test_a_recent_physical_set_is_handed_out_again(self):
        """Each of the ``RECENT_SETS`` physical sets handed out last is
        handed out again as the same object; one set more pushes the
        oldest out, which is then built anew."""
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        pairs = [a + b for a, b in combinations("ABCDEFGHIJKL", 2)][1:]
        extras = [query(pair) for pair in pairs[:RECENT_SETS]]
        handed = [registry.physical_query_set(extra) for extra in extras]
        assert all(registry.physical_query_set(extra) is queries
                   for extra, queries in zip(extras, handed))
        registry.physical_query_set(query(pairs[RECENT_SETS]))
        again = registry.physical_query_set(extras[0])
        assert again is not handed[0]
        assert again.group_bys == handed[0].group_bys


class TestRetire:
    def test_retire_one_query(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        registry.register("acme", query("BC"))
        retired = registry.retire("acme", "AB")
        assert [r.group_by.label() for r in retired] == ["AB"]
        assert registry.group_bys() == [AttributeSet.parse("BC")]

    def test_retire_whole_tenant(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        registry.register("acme", query("BC"))
        retired = registry.retire("acme")
        assert len(retired) == 2
        assert registry.is_empty

    def test_retire_unknown_raises(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        with pytest.raises(SchemaError, match="unknown tenant"):
            registry.retire("nobody")
        with pytest.raises(SchemaError, match="no query grouping"):
            registry.retire("acme", "CD")

    def test_version_bumps_on_every_mutation(self):
        registry = QueryRegistry()
        v0 = registry.version
        registry.register("acme", query("AB"))
        registry.register("beta", query("AB"))
        registry.retire("beta")
        assert registry.version == v0 + 3

    def test_shared_table_survives_one_sharer_leaving(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        registry.register("beta", query("AB"))
        registry.retire("acme")
        assert registry.group_bys() == [AttributeSet.parse("AB")]
        assert registry.sharers(AttributeSet.parse("AB")) == ["beta"]


class TestStateRoundTrip:
    def test_to_from_state(self):
        registry = QueryRegistry()
        registry.register("acme", query("AB"))
        registry.register("acme", query("BC"))
        registry.register("beta", query("AB"))
        registry.retire("acme", "BC")

        clone = QueryRegistry.from_state(registry.to_state())
        assert clone.tenants == registry.tenants
        assert clone.group_bys() == registry.group_bys()
        assert clone.version == registry.version
        assert clone.epoch_seconds == registry.epoch_seconds
        # Sequence numbers continue where they left off.
        registration = clone.register("gamma", query("CD"))
        assert registration.seq == 4

    def test_empty_registry_has_no_physical_queries(self):
        registry = QueryRegistry()
        with pytest.raises(SchemaError, match="no queries"):
            registry.physical_query_set()
