"""The session layer: churn exactness, admission isolation, staged swaps.

The load-bearing test is the churn oracle: tenants registering and
retiring at different times must each receive answers *identical* to a
one-shot offline :func:`~repro.gigascope.engine.simulate` of the whole
stream, restricted to the epochs their lease covered. Exactness under
arbitrary plans is the paper's correctness invariant; the service adds
only the windowing.
"""

import numpy as np
import pytest

from repro import (
    AdmissionError,
    AdmissionPolicy,
    AttributeSet,
    Configuration,
    StreamService,
)
from repro.core.feeding_graph import FeedingGraph
from repro.core.queries import Aggregate, AggregationQuery
from repro.core.sketches import StreamStatisticsCollector
from repro.errors import (
    AllocationError,
    ConfigurationError,
    SchemaError,
    StatisticsError,
)
from repro.gigascope.engine import simulate
from repro.gigascope.records import Dataset, StreamSchema
from repro.service.replan import IncrementalReplanner
from repro.service.service import MAX_EXPECTED_GROUPS
from repro.workloads import (
    make_group_universe,
    paper_like_trace,
    uniform_dataset,
)

from tests.references import (
    reference_observe,
    reference_phantoms,
)
from tests.service.conftest import EPOCH, SCHEMA, push_slice, query


def offline_answers(dataset, group_by, epoch_seconds=EPOCH,
                    aggregate=None, value_column=None):
    """One-shot oracle: exact per-epoch answers for one query."""
    q = AggregationQuery(AttributeSet.parse(group_by),
                        aggregate=aggregate or Aggregate(),
                        epoch_seconds=epoch_seconds)
    config = Configuration.flat([q.group_by])
    result = simulate(dataset, config, {q.group_by: 64}, epoch_seconds,
                      value_column=value_column)
    return result.hfta.all_answers(q)


class TestChurnExactness:
    def test_tenants_joining_at_different_times_get_exact_windows(
            self, dataset):
        service = StreamService(SCHEMA, memory=800)
        service.register("early", query("AB"))
        service.register("early", query("BC"))

        n = len(dataset)
        cuts = [0, n // 3, 2 * n // 3, n]
        push_slice(service, dataset, cuts[0], cuts[1])
        service.register("mid", query("CD"))
        service.register("mid", query("AB"))
        push_slice(service, dataset, cuts[1], cuts[2])
        service.register("late", query("BD"))
        push_slice(service, dataset, cuts[2], cuts[3])
        service.finish()

        windows = {(w["tenant"], w["group_by"]): w
                   for w in service.leases()}
        # Every registration staged before data keeps the full stream;
        # later ones activate at the boundary after their registration.
        assert windows[("early", "AB")]["start"] is None
        assert windows[("mid", "CD")]["start"] is not None
        assert windows[("late", "BD")]["start"] > \
            windows[("mid", "CD")]["start"]

        for tenant in ("early", "mid", "late"):
            answers = service.answers(tenant)
            for window in service.leases(tenant):
                gb = window["group_by"]
                oracle = offline_answers(dataset, gb)
                start = window["start"] or 0
                expected = {e: a for e, a in oracle.items()
                            if e >= start}
                assert answers[gb] == expected, (tenant, gb)
                # The window genuinely excludes pre-activation epochs.
                if window["start"] is not None:
                    assert set(oracle) - set(answers[gb])

    def test_sharers_get_identical_answers_from_one_table(self, dataset):
        service = StreamService(SCHEMA, memory=800)
        service.register("a", query("AB"))
        service.register("b", query("AB"))
        push_slice(service, dataset, 0, len(dataset))
        service.finish()
        assert service.answers("a")["AB"] == service.answers("b")["AB"]
        # One physical query set entry despite two registrations.
        assert len(service.live.queries.group_bys) == 1

    def test_tenant_having_filter_is_per_tenant(self, dataset):
        service = StreamService(SCHEMA, memory=800)
        service.register("all", query("AB"))
        service.register("top", query("AB", having_min=30))
        push_slice(service, dataset, 0, len(dataset))
        service.finish()
        full = service.answers("all")["AB"]
        thresholded = service.answers("top")["AB"]
        assert any(len(thresholded[e]) < len(full[e]) for e in full)
        for epoch, answer in thresholded.items():
            assert all(count >= 30 for count in answer.values())

    def test_retired_tenant_keeps_its_window(self, dataset):
        service = StreamService(SCHEMA, memory=800)
        service.register("keep", query("AB"))
        service.register("leaver", query("CD"))
        half = len(dataset) // 2
        push_slice(service, dataset, 0, half)
        service.retire("leaver")
        push_slice(service, dataset, half, len(dataset))
        service.finish()

        oracle = offline_answers(dataset, "CD")
        window = service.leases("leaver")[0]
        assert window["retired"] is True
        assert window["end"] is not None
        got = service.answers("leaver")["CD"]
        assert got == {e: a for e, a in oracle.items()
                       if e < window["end"]}
        assert set(oracle) - set(got)  # later epochs are gone
        # The surviving tenant still sees everything.
        assert service.answers("keep")["AB"] == \
            offline_answers(dataset, "AB")

    def test_successive_leases_on_one_group_by_read_only_their_windows(
            self, dataset):
        """Three tenants lease ``CD`` one after the other. Each reads
        exactly the epochs of its own window out of the shared table —
        the rendered epochs are chosen by the lease, so this equals
        ``all_answers`` cut down to the window — and a registration that
        has not landed yet reads nothing."""
        service = StreamService(SCHEMA, memory=800)
        service.register("keep", query("AB"))
        service.register("first", query("CD"))
        n = len(dataset)
        push_slice(service, dataset, 0, n // 3)
        service.retire("first")
        service.register("second", query("CD"))
        boundary = service.live.open_epoch + 1
        assert service.leases("second")[0]["start"] == boundary
        assert service.answers("second") == {"CD": {}}
        push_slice(service, dataset, n // 3, 2 * n // 3)
        service.retire("second")
        service.register("third", query("CD"))
        push_slice(service, dataset, 2 * n // 3, n)
        service.finish()

        everything = service.live.hfta.all_answers(query("CD"))
        assert everything == offline_answers(dataset, "CD")
        seen = []
        for tenant in ("first", "second", "third"):
            window = service.leases(tenant)[0]
            assert "pending" not in window
            assert window["retired"] == (tenant != "third")
            start = window["start"] or 0
            end = window["end"] if window["end"] is not None else np.inf
            expected = {e: a for e, a in everything.items()
                        if start <= e < end}
            assert service.answers(tenant) == {"CD": expected}
            assert expected
            seen += sorted(expected)
        # Back to back: together the three windows are the whole stream.
        assert seen == sorted(everything)

    def test_answers_for_an_unknown_tenant_raise(self, dataset):
        """Same typed error as ``registry.retire`` for the same input,
        and probing names leaves no per-tenant metrics behind."""
        service = StreamService(SCHEMA, memory=800)
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset) // 2)
        with pytest.raises(SchemaError, match="unknown tenant 'ghost'"):
            service.answers("ghost")
        counters = service.metrics_snapshot().to_dict()["counters"]
        assert not [name for name in counters if "ghost" in name]
        assert counters.get("tenant.acme.answer_requests", 0) == 0
        service.retire("acme")  # retired, but it held a lease
        assert set(service.answers("acme")) == {"AB"}


    def test_multi_character_attribute_names_plan_and_serve(self):
        """The cold bound's single attributes are the schema's names,
        each one attribute: ``src`` is not the set ``{s, r, c}``, so the
        sketches bind to the batch's columns."""
        schema = StreamSchema(("src", "dst"))
        rng = np.random.default_rng(0)
        data = Dataset(schema, {"src": rng.integers(0, 9, 400),
                                "dst": rng.integers(0, 30, 400)},
                       np.linspace(0.0, 7.9, 400))
        service = StreamService(schema, memory=800)
        service.register("acme", AggregationQuery(
            AttributeSet.of("src", "dst"), epoch_seconds=EPOCH))
        service.push(data.columns, data.timestamps)
        service.finish()
        assert service.collector.records_seen == 400
        (answers,) = service.answers("acme").values()
        assert answers == offline_answers(data, "src+dst")


class TestAdmissionIsolation:
    def test_over_budget_rejection_leaves_existing_tenants_unaffected(
            self, dataset):
        service = StreamService(
            SCHEMA, memory=800,
            policy=AdmissionPolicy(memory=800, tenant_quota=900))
        service.register("acme", query("AB"))
        half = len(dataset) // 2
        push_slice(service, dataset, 0, half)

        before_version = service.registry.version
        with pytest.raises(AdmissionError) as err:
            service.register("hog", query("ABCD"))
        assert err.value.constraint in ("tenant-quota", "global-memory")
        # A rejected registration's expected_groups hint is not kept.
        with pytest.raises(AdmissionError):
            service.register("hog", query("ABCD"), expected_groups=10**6)
        assert service._hints == {}

        # Registry, plan and the admitted tenant's stream are untouched.
        assert service.registry.version == before_version
        assert service.registry.tenants == ["acme"]
        assert service.live._staged_plan is None
        push_slice(service, dataset, half, len(dataset))
        service.finish()
        assert service.answers("acme")["AB"] == \
            offline_answers(dataset, "AB")
        snapshot = service.metrics_snapshot().to_dict()["counters"]
        assert snapshot["service.rejections"] == 2
        assert snapshot["tenant.hog.rejections"] == 2

    @pytest.mark.parametrize("hint", [
        np.nan, np.inf, -np.inf, -5, 0, 0.5, 1e308,
        np.nextafter(MAX_EXPECTED_GROUPS, np.inf), 2**63 + 1, True, "10"])
    def test_bad_group_hints_are_refused_before_anything_moves(
            self, dataset, hint):
        """A hint that is not a finite real number in [1, 2**63] is a
        typed error raised before the registry, the hints or the plan
        move; the service then registers and serves as if it never
        came."""
        service = StreamService(SCHEMA, memory=800)
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset) // 2)
        before = (service.registry.version, dict(service._hints),
                  service.live._staged_plan, len(service.live.eras))
        with pytest.raises(StatisticsError, match="expected_groups"):
            service.register("acme", query("CD"), expected_groups=hint)
        assert (service.registry.version, service._hints,
                service.live._staged_plan, len(service.live.eras)) == before
        service.register("acme", query("CD"), expected_groups=50)
        push_slice(service, dataset, len(dataset) // 2, len(dataset))
        service.finish()
        assert service.answers("acme")["AB"] == \
            offline_answers(dataset, "AB")

    def test_the_largest_group_hint_plans_and_serves(self, dataset):
        """A hint of exactly :data:`MAX_EXPECTED_GROUPS` registers, is
        kept, and every later plan and push succeeds."""
        service = StreamService(SCHEMA, memory=800)
        service.register("acme", query("AB"),
                         expected_groups=MAX_EXPECTED_GROUPS)
        assert service._hints == {AttributeSet.parse("AB"):
                                  MAX_EXPECTED_GROUPS}
        n = len(dataset)
        push_slice(service, dataset, 0, n // 3)
        service.register("acme", query("CD"),
                         expected_groups=MAX_EXPECTED_GROUPS)
        push_slice(service, dataset, n // 3, n)
        service.finish()
        answers = service.answers("acme")
        assert answers["AB"] == offline_answers(dataset, "AB")
        start = service.leases("acme")[1]["start"]
        assert start is not None
        want = offline_answers(dataset, "CD")
        assert answers["CD"] == {epoch: answer
                                 for epoch, answer in want.items()
                                 if epoch >= start}

    def test_readmission_after_rejection_succeeds(self):
        """A rejected tenant can come back once capacity frees up.

        The one-bucket floor is data-independent (entry units only), so
        the arithmetic is exact: tables A and B cost 2 units each, ABCD
        costs 5; a budget of 8 fits {A, B} (4) but not {A, B, ABCD} (9).
        Retiring B frees enough for {A, ABCD} (7)."""
        service = StreamService(SCHEMA, memory=8)
        service.register("acme", query("A"))
        service.register("acme", query("B"))
        with pytest.raises(AdmissionError) as err:
            service.register("bursty", query("ABCD"))
        assert err.value.constraint == "global-memory"
        service.retire("acme", "B")
        service.register("bursty", query("ABCD"))
        assert "bursty" in service.registry.tenants

    def test_planner_failure_at_the_boundary_moves_nothing(
            self, dataset, monkeypatch, tmp_path):
        """Admission is a feasibility floor, not a plan: should the
        optimizer still fail on a registration it admitted, the boundary
        call that plans it (``push``, ``checkpoint``, ``finish``) raises
        with everything as it was — batch, registry, lease, hint,
        sketches, live plan — and the change stays pending, so the next
        boundary plans it and every tenant is served. (GS pays for its
        one-bucket floors, so a budget the floor accepts plans; the
        failure is injected.)"""
        service = StreamService(SCHEMA, memory=4000,
                                policy=AdmissionPolicy(memory=4000))
        service.register("acme", query("AB"))
        service.register("acme", query("CD"))
        half = len(dataset) // 2
        push_slice(service, dataset, 0, half)
        live = service.live
        service.register("hog", query("ABCD"), expected_groups=10**9)
        # Admitted and leased at once; nothing is planned yet.
        assert service.registry.tenants == ["acme", "hog"]
        assert service.leases("hog")[0]["start"] == live.open_epoch + 1
        assert service._hints == {AttributeSet.parse("ABCD"): 10**9}
        assert live._staged_plan is None

        def state():
            return (service.registry.version, service.registry.tenants,
                    service.leases(), dict(service._hints),
                    service.collector.records_seen,
                    {rel.label(): sketch._minima.tobytes()
                     for rel, sketch in service.collector._distinct.items()},
                    live.records_seen, live.open_epoch, len(live.eras),
                    list(live.epoch_reports), live._staged_plan,
                    service.metrics.counter("service.replans").value)

        before = state()

        def failing(*args, **kwargs):
            raise AllocationError("memory 4000 too small for integer "
                                  "allocation (needs 4002 units)")

        path = tmp_path / "svc.ckpt"
        with monkeypatch.context() as patch:
            patch.setattr(service.replanner, "replan", failing)
            with pytest.raises(AllocationError):
                push_slice(service, dataset, half, len(dataset))
            with pytest.raises(AllocationError):
                service.checkpoint(path)
            with pytest.raises(AllocationError):
                service.finish()
        assert state() == before
        assert service.live is live and live._staged_plan is None
        assert not path.exists()

        # Still pending: the next boundary plans it, once.
        service.checkpoint(path)
        assert live._staged_plan is not None
        assert AttributeSet.parse("ABCD") in live._staged_queries
        assert service.metrics.counter("service.replans").value == \
            before[-1] + 1
        push_slice(service, dataset, half, len(dataset))
        service.finish()
        assert service.metrics.counter("service.replans").value == \
            before[-1] + 1
        assert service.answers("acme")["AB"] == \
            offline_answers(dataset, "AB")
        start = service.leases("hog")[0]["start"]
        assert service.answers("hog")["ABCD"] == {
            epoch: answer for epoch, answer
            in offline_answers(dataset, "ABCD").items() if epoch >= start}

    def test_a_change_given_up_before_the_boundary_plans_nothing(
            self, dataset, monkeypatch):
        """A client that retires a registration whose plan failed takes
        the registry back to the running set: the next boundary plans
        nothing, so the failure never recurs, and the admitted tenants
        are served as by a service that never saw it."""
        service = StreamService(SCHEMA, memory=4000,
                                policy=AdmissionPolicy(memory=4000))
        service.register("acme", query("AB"))
        service.register("acme", query("CD"))
        half = len(dataset) // 2
        push_slice(service, dataset, 0, half)
        service.register("hog", query("ABCD"))

        def failing(*args, **kwargs):
            raise AllocationError("memory 4000 too small")

        with monkeypatch.context() as patch:
            patch.setattr(service.replanner, "replan", failing)
            with pytest.raises(AllocationError):
                push_slice(service, dataset, half, len(dataset))
            service.retire("hog")
            assert service.registry.tenants == ["acme"]
            push_slice(service, dataset, half, len(dataset))
            service.finish()
        assert service.live._staged_plan is None
        assert service.live.reconfigurations == []
        assert service.answers("acme")["AB"] == \
            offline_answers(dataset, "AB")
        assert service.answers("hog") == {"ABCD": {}}

    def test_rejected_first_batch_does_not_start_the_stream(self, dataset):
        """A first batch the live system refuses leaves no live system
        behind, so a tenant registering next is still active from the
        first epoch rather than staged for a later one."""
        service = StreamService(SCHEMA, memory=800)
        service.register("acme", query("AB"))
        incomplete = {a: dataset.columns[a][:10] for a in ("A", "C", "D")}
        with pytest.raises(SchemaError, match="missing column 'B'"):
            service.push(incomplete, dataset.timestamps[:10])
        assert service.live is None
        service.register("beta", query("CD"))
        push_slice(service, dataset, 0, len(dataset))
        service.finish()
        assert service.leases("beta")[0]["start"] is None
        assert service.answers("beta")["CD"] == offline_answers(dataset, "CD")

    def test_value_aggregate_requires_value_column(self):
        service = StreamService(SCHEMA, memory=800)
        with pytest.raises(SchemaError, match="value column"):
            service.register("acme", query(
                "AB", aggregate=Aggregate("sum", "v")))
        # A tenant reads the service's one value column or is refused:
        # max(ttl) on a value_column="len" service was answered from len.
        valued = StreamSchema(SCHEMA.attributes, ("len", "ttl"))
        service = StreamService(valued, memory=800, value_column="len")
        for group_by, error in (("AB", ConfigurationError),
                                ("AZ", SchemaError)):
            with pytest.raises(error):
                service.register("acme", query(
                    group_by, aggregate=Aggregate("max", "ttl")))
        assert service.registry.is_empty and not service._leases
        service.register("acme", query("AB", aggregate=Aggregate("max",
                                                                 "len")))


class TestStagedSwap:
    def test_registration_mid_epoch_does_not_disturb_open_epoch(
            self, dataset):
        """The swap lands at the boundary: the open epoch completes
        under the old configuration, and ingest continues immediately
        after the registration (nothing blocks, nothing re-runs)."""
        service = StreamService(SCHEMA, memory=800)
        service.register("acme", query("AB"))
        # Stop mid-epoch: find a cut strictly inside epoch 1.
        cut = int(np.searchsorted(dataset.timestamps, 1.5 * EPOCH))
        push_slice(service, dataset, 0, cut)
        live = service.live
        config_before = live.configuration
        open_epoch = live.open_epoch
        assert open_epoch is not None

        service.register("newbie", query("CD"))
        assert service.leases("newbie")[0]["start"] == open_epoch + 1
        # The next boundary plans it: a push that stays inside the open
        # epoch stages the swap, not applied: same era, same
        # configuration, epoch still open with its buffered records
        # intact.
        inside = int(np.searchsorted(dataset.timestamps, 1.75 * EPOCH))
        assert live._staged_plan is None
        push_slice(service, dataset, cut, inside)
        assert live.configuration is config_before
        assert live.open_epoch == open_epoch
        assert live._staged_plan is not None
        n_eras = len(live.eras)

        push_slice(service, dataset, inside, len(dataset))
        service.finish()
        # The swap landed exactly once, at the first boundary.
        assert len(live.eras) == n_eras + 1
        assert live.reconfigurations[0][0] == open_epoch + 1
        assert service.leases("newbie")[0]["start"] == open_epoch + 1

    def test_registration_with_no_epoch_open_covers_the_next_epoch(self):
        """Registered between ``finish`` and the next record, a tenant's
        lease starts at the very next epoch, and that epoch is computed
        for it."""
        trace = paper_like_trace(20_000, seed=1)
        epoch = 5.0
        cuts = np.searchsorted(trace.timestamps, [epoch, 3 * epoch])
        service = StreamService(SCHEMA, memory=40_000)
        service.register("t0", query("AB", epoch_seconds=epoch))
        push_slice(service, trace, 0, cuts[0])
        service.finish()
        service.register("t1", query("CD", epoch_seconds=epoch))
        push_slice(service, trace, cuts[0], cuts[1])
        service.finish()
        assert service.leases("t1")[0]["start"] == 1
        assert set(service.answers("t1")["CD"]) == {1, 2}
        assert [e for e, _ in service.live.reconfigurations] == [1]

    def test_retirement_before_a_reopened_epoch_keeps_it_exact(self):
        """``finish`` mid-epoch, then a retirement whose group-by the new
        plan drops: records that reopen the epoch still run the old plan,
        so the retired tenant's answer for it is whole."""
        trace = paper_like_trace(20_000, seed=1)
        epoch = 5.0
        cuts = np.searchsorted(trace.timestamps, [epoch / 2, epoch, 3 * epoch])
        service = StreamService(SCHEMA, memory=40_000)
        service.register("t0", query("AB", epoch_seconds=epoch))
        service.register("t1", query("CD", epoch_seconds=epoch))
        push_slice(service, trace, 0, cuts[0])
        service.finish()
        service.retire("t1")
        assert service.leases("t1")[0]["end"] == 1
        push_slice(service, trace, cuts[0], cuts[2])
        service.finish()
        head = trace.head(int(cuts[2]))
        assert service.answers("t1")["CD"] == \
            {0: offline_answers(head, "CD", epoch)[0]}
        assert service.answers("t0")["AB"] == \
            offline_answers(head, "AB", epoch)
        assert [e for e, _ in service.live.reconfigurations] == [1]

    def test_retiring_last_query_of_a_phantom_drops_it(self, dataset):
        """S3 edge: phantoms exist to feed queries; when the queries a
        phantom fed retire, the re-planned configuration forgets it."""
        service = StreamService(SCHEMA, memory=400, algorithm="gcsl")
        for gb in ("AB", "AC", "BC", "CD"):
            service.register("acme", query(gb))
        half = len(dataset) // 2
        push_slice(service, dataset, 0, half)
        service.finish()

        phantoms_before = set(service.live.configuration.phantoms)
        service.retire("acme", "AB")
        service.retire("acme", "AC")
        service.retire("acme", "BC")
        push_slice(service, dataset, half, len(dataset))
        service.finish()

        config = service.live.configuration
        assert config.queries == frozenset({AttributeSet.parse("CD")})
        # Any phantom built over the retired subtree is gone.
        for phantom in phantoms_before:
            if not AttributeSet.parse("CD").issubset(phantom):
                assert phantom not in config.relations

    def test_replan_cache_skips_planning_for_shared_joins(self, dataset):
        """A tenant joining an existing group-by leaves the physical
        problem unchanged — no plan, no reconfiguration."""
        service = StreamService(SCHEMA, memory=800)
        service.register("a", query("AB"))
        service.register("b", query("BC"))
        push_slice(service, dataset, 0, len(dataset) // 2)
        replans_before = service.metrics.counter("service.replans").value
        service.register("c", query("AB"))  # join, not a new table
        assert service.metrics.counter("service.replans").value == \
            replans_before
        assert service.live._staged_plan is None


class TestSLOReplan:
    """The service has no re-plan trigger of its own: it inherits the
    live system's rule, whose metrics land in the service registry."""

    def drifting(self, universe):
        """6 s over the shared universe, then 6 s over a 100x wider one."""
        calm = uniform_dataset(universe, 6000, duration=6.0, seed=1)
        wide = make_group_universe(SCHEMA, (800, 2400, 4800, 9000), seed=9)
        burst = uniform_dataset(wide, 6000, duration=6.0, seed=2)
        return Dataset(SCHEMA,
                       {a: np.concatenate([calm.columns[a],
                                           burst.columns[a]])
                        for a in SCHEMA.attributes},
                       np.concatenate([calm.timestamps,
                                       burst.timestamps + 6.0]))

    def test_measured_cost_breach_stages_a_replan(self, universe):
        data = self.drifting(universe)
        service = StreamService(SCHEMA, memory=3000, phi=0.8)
        service.register("acme", query("AB"))
        service.register("acme", query("BC"))
        n = len(data)
        push_slice(service, data, 0, n * 3 // 4)
        # Registered inside the rule's new era (epoch 4 is open): its
        # lease must align with the swap that carries it, the second.
        service.register("late", query("CD"))
        push_slice(service, data, n * 3 // 4, n)
        service.finish()
        snapshot = service.metrics_snapshot().to_dict()
        assert snapshot["counters"]["live.replans"] == 1
        (event,) = [e for e in snapshot["events"] if e["name"] == "replan"]
        assert event["epoch"] == 3  # the first epoch over the wide universe
        live = service.live
        assert live.reconfigurations[0][0] == 4
        replanned = live.eras[1].plan
        assert (replanned.algorithm, replanned.phi, replanned.clustered,
                replanned.memory) == ("gs", 0.8, False, 3000)
        for tenant in ("acme", "late"):
            for window in service.leases(tenant):
                gb = window["group_by"]
                start = window["start"] or 0
                assert service.answers(tenant)[gb] == {
                    e: a for e, a in offline_answers(data, gb).items()
                    if e >= start}
        assert [epoch for epoch, _ in live.reconfigurations] == [4, 5]
        assert service.leases("late")[0]["start"] == 5

    def test_no_slo_means_no_replans(self, dataset):
        service = StreamService(SCHEMA, memory=800)
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset))
        service.finish()
        counters = service.metrics_snapshot().to_dict()["counters"]
        assert "live.replans" not in counters
        assert service.live.reconfigurations == []
        with pytest.raises(TypeError):
            StreamService(SCHEMA, memory=800, slo=None)


class TestManifest:
    def test_manifest_carries_service_section(self, dataset):
        service = StreamService(SCHEMA, memory=800)
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset))
        service.finish()
        doc = service.manifest().to_dict()
        section = doc["extra"]["service"]
        assert section["tenants"] == ["acme"]
        assert section["group_bys"] == ["AB"]
        assert section["leases"][0]["tenant"] == "acme"
        assert doc["epochs"]
        assert doc["epochs"][0]["predicted_cost"] == \
            service.live.eras[0].plan.predicted_cost
        gauges = service.metrics_snapshot().to_dict()["gauges"]
        # AB plus the four single attributes the cold bound needs.
        assert gauges["sketches.relations"] == 5
        assert gauges["service.graph_nodes"] == 1


class TestPlansPinned:
    """The optimized control plane plans what the plain one plans.

    A ``service_churn``-shaped run (a tenant registers at every closed
    epoch over a rotation of 2- and 3-attribute group-bys, the oldest
    retires beyond six live) is driven twice: once as shipped, once with
    the reference closure, unfiltered KMV update and per-relation
    ``observe`` of the differential suites swapped in. Every plan the
    replanner returns must be the same, in order. A register and a
    retire after one close are one change, planned at the next push,
    so the run has 24 epochs for more than 20 plans."""

    CHURN_SCHEMA = StreamSchema(tuple("ABCDEF"))
    GROUP_BYS = ("AB", "BCD", "BCE", "AC", "BCF", "BDE", "AD", "BDF", "BEF",
                 "AE", "CDE", "CDF", "AF", "CEF", "DEF")

    def plans(self, seed, monkeypatch, reference):
        if reference:
            monkeypatch.setattr("repro.core.feeding_graph.enumerate_phantoms",
                                reference_phantoms)
            monkeypatch.setattr(StreamStatisticsCollector, "observe",
                                reference_observe)
        returned = []
        replan = IncrementalReplanner.replan

        def recording(self, queries, stats, token=None):
            new_plan, cached = replan(self, queries, stats, token=token)
            returned.append((
                tuple(gb.label() for gb in queries.group_bys),
                new_plan.configuration,
                {rel.label(): b
                 for rel, b in new_plan.allocation.buckets.items()}))
            return new_plan, cached

        monkeypatch.setattr(IncrementalReplanner, "replan", recording)
        # Small sketches, so that many of them saturate.
        monkeypatch.setattr("repro.service.service.SKETCH_K", 64)
        universe = make_group_universe(
            self.CHURN_SCHEMA, (10, 40, 100, 300, 600, 900), seed=seed)
        data = uniform_dataset(universe, 12_000, duration=24.0,
                               seed=seed + 1, zipf_exponent=0.8)
        service = StreamService(self.CHURN_SCHEMA, memory=50_000.0)
        live = []

        def register():
            index = len(service.leases())
            group_by = self.GROUP_BYS[index % len(self.GROUP_BYS)]
            service.register(f"tenant{index}", AggregationQuery(
                AttributeSet.parse(group_by), epoch_seconds=1.0))
            live.append(f"tenant{index}")

        for _ in range(4):
            register()
        for start in range(0, len(data), 256):
            columns = {a: data.columns[a][start:start + 256]
                       for a in self.CHURN_SCHEMA.attributes}
            for _ in service.push(columns,
                                  data.timestamps[start:start + 256]):
                register()
                if len(live) > 6:
                    service.retire(live.pop(0))
        service.finish()
        monkeypatch.undo()
        saturated = sum(sketch._saturated
                        for sketch in service.collector._distinct.values())
        return returned, saturated

    @pytest.mark.parametrize("seed", [1, 23])
    def test_same_plans_as_the_reference_control_plane(self, seed,
                                                       monkeypatch):
        shipped, saturated = self.plans(seed, monkeypatch, reference=False)
        plain, _ = self.plans(seed, monkeypatch, reference=True)
        assert len(shipped) > 20
        # Full sketches and phantoms in the plans, or neither the filter
        # nor the closure was exercised.
        assert saturated > 10
        assert any(config.phantoms for _, config, _ in shipped)
        assert shipped == plain


class TestOnePlanPerBoundary:
    """Registry changes wait for the next boundary call (``push``,
    ``finish``, ``checkpoint``): each boundary whose physical set
    changed makes one plan, from the statistics the last change saw,
    and each distinct physical set builds one feeding graph, shared by
    admission, statistics and the plan."""

    CHURN_SCHEMA = StreamSchema(tuple("ABCDEF"))
    GROUP_BYS = TestPlansPinned.GROUP_BYS

    def test_churn_plans_once_per_changed_boundary(self, monkeypatch,
                                                   tmp_path):
        built = []
        init = FeedingGraph.__init__

        def counting(graph, queries):
            built.append(frozenset(queries.group_bys))
            init(graph, queries)

        monkeypatch.setattr(FeedingGraph, "__init__", counting)
        universe = make_group_universe(
            self.CHURN_SCHEMA, (10, 40, 100, 300, 600, 900), seed=3)
        data = uniform_dataset(universe, 3000, duration=12.0, seed=4,
                               zipf_exponent=0.8)
        service = StreamService(self.CHURN_SCHEMA, memory=50_000.0)
        replans = service.metrics.counter("service.replans")
        live, seen, planned = [], [], None
        expected = 0
        closed = 0

        def physical():
            return frozenset(service.registry.group_bys())

        def register(tenant, group_by):
            if AttributeSet.parse(group_by) not in physical():
                seen.append(physical() | {AttributeSet.parse(group_by)})
            service.register(tenant, AggregationQuery(
                AttributeSet.parse(group_by), epoch_seconds=1.0))

        def boundary(call, *args):
            nonlocal expected, planned
            if physical() != planned:
                expected, planned = expected + 1, physical()
                seen.append(planned)
            out = call(*args)
            assert replans.value == expected
            return out

        for index in range(4):
            live.append(f"t{index}")
            register(live[-1], self.GROUP_BYS[index])
        for start in range(0, len(data), 250):
            columns = {a: data.columns[a][start:start + 250]
                       for a in self.CHURN_SCHEMA.attributes}
            for _ in boundary(service.push, columns,
                              data.timestamps[start:start + 250]):
                closed += 1
                index = len(service.leases())
                live.append(f"t{index}")
                register(live[-1], self.GROUP_BYS[index % 15])
                if len(live) > 5:
                    service.retire(live.pop(0))
                if closed % 3 == 0:  # a sharer joins: no new set
                    service.register(f"s{closed}", AggregationQuery(
                        service.registry.group_bys()[0],
                        epoch_seconds=1.0))
                if closed % 4 == 0:  # a burst back to the same set
                    register(f"b{closed}", self.GROUP_BYS[-1])
                    service.retire(f"b{closed}")
                if closed == 6:  # with a registration pending
                    boundary(service.checkpoint, tmp_path / "svc.ckpt")
        boundary(service.finish)

        assert closed == 11 and expected > 10
        assert replans.value == expected
        # One graph per distinct set, and only for sets that were
        # candidates or planned.
        assert len(built) == len(set(built))
        assert set(built) == set(seen)
        for window in service.leases():
            gb = window["group_by"]
            want = offline_answers(data, gb, epoch_seconds=1.0)
            start = window["start"] or 0
            end = window["end"] if window["end"] is not None else np.inf
            assert service.answers(window["tenant"])[gb] == {
                epoch: answer for epoch, answer in want.items()
                if start <= epoch < end}
