"""Service durability: kill the process, restore, and nobody notices.

The checkpoint must carry the *service* state — registry, leases,
sketches, hints — alongside the live system, including a staged
reconfiguration that has not yet landed (a tenant registered inside the
open epoch, then the crash).
"""

from contextlib import nullcontext
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from repro import QueryRegistry, StreamService
from repro.errors import CheckpointError
from repro.gigascope.online import LiveStreamSystem
from repro.resilience.checkpoint import read_checkpoint_document

from tests.references import numpy_bodies
from tests.service.conftest import SCHEMA, push_slice, query


#: Service checkpoints (format version 5, like today's) written by the
#: code that still had an SLO re-plan trigger: one with ``slo=None``, one
#: with a pickled ``ServiceSLO(max_cost_per_record=12.0)``.
LEGACY = Path(__file__).parents[1] / "resilience" / "data"


def fresh_service():
    return StreamService(SCHEMA, memory=800)


def costs(reports):
    """Epoch reports without ``predicted_cost``, which a legacy era
    does not know."""
    return [astuple(replace(r, predicted_cost=None)) for r in reports]


class TestRoundTrip:
    def run(self, dataset, interrupt, tmp_path):
        service = fresh_service()
        service.register("acme", query("AB"))
        service.register("beta", query("BC"))
        half = len(dataset) // 2
        push_slice(service, dataset, 0, half)
        # Register inside the open epoch, with no boundary since: the
        # checkpoint plans it, so a reconfiguration (plan AND query-set
        # swap) is staged but not yet applied at the cut.
        service.register("late", query("CD"))
        if interrupt:
            path = tmp_path / "svc.ckpt"
            service.checkpoint(path)
            assert service.live._staged_plan is not None
            del service  # the "crash"
            service = StreamService.restore(path)
        push_slice(service, dataset, half, len(dataset))
        service.finish()
        return service

    def test_restore_mid_stream_matches_uninterrupted_run(
            self, dataset, tmp_path):
        oracle = self.run(dataset, False, tmp_path)
        restored = self.run(dataset, True, tmp_path)

        assert restored.registry.tenants == oracle.registry.tenants
        assert restored.registry.version == oracle.registry.version
        assert restored.leases() == oracle.leases()
        for tenant in ("acme", "beta", "late"):
            assert restored.answers(tenant) == oracle.answers(tenant)
        assert restored.live.epoch_reports == oracle.live.epoch_reports
        assert restored.live.reconfigurations == \
            oracle.live.reconfigurations
        # Two plans in all (the first, then late's); the restored
        # service plans nothing more, its change came staged.
        assert oracle.metrics.counter("service.replans").value == 2
        assert restored.metrics.counter("service.replans").value == 0
        # The pickled sketches kept absorbing batches after the restore.
        target = oracle.registry.physical_query_set()
        assert restored.planning_statistics(target) == \
            oracle.planning_statistics(target)

    def test_restored_service_keeps_admitting(self, dataset, tmp_path):
        service = fresh_service()
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset) // 2)
        path = tmp_path / "svc.ckpt"
        service.checkpoint(path)

        restored = StreamService.restore(path)
        restored.register("joiner", query("BC"))
        push_slice(restored, dataset, len(dataset) // 2, len(dataset))
        restored.finish()
        assert restored.answers("joiner")["BC"]
        # Sketches survived too: the collector still counts the records
        # absorbed before the crash.
        assert restored.collector.records_seen == len(dataset)


class TestPayload:
    def test_registry_state_rides_in_the_extra_payload(self, dataset,
                                                       tmp_path):
        service = fresh_service()
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset) // 3)
        path = tmp_path / "svc.ckpt"
        service.checkpoint(path)

        document = read_checkpoint_document(path)
        payload = document["extra"]["service"]
        registry = QueryRegistry.from_state(payload["registry"])
        assert registry.tenants == ["acme"]
        assert payload["config"]["memory"] == 800

    def test_live_restore_still_works_on_service_checkpoints(
            self, dataset, tmp_path):
        """The payload is opaque to the live-system loader."""
        service = fresh_service()
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset) // 3)
        path = tmp_path / "svc.ckpt"
        service.checkpoint(path)
        live = LiveStreamSystem.restore(path)
        assert live.records_seen == service.live.records_seen

    def test_restore_rejects_plain_live_checkpoints(self, dataset,
                                                    tmp_path):
        service = fresh_service()
        service.register("acme", query("AB"))
        push_slice(service, dataset, 0, len(dataset) // 3)
        path = tmp_path / "plain.ckpt"
        service.live.checkpoint(path)  # no service payload
        with pytest.raises(CheckpointError, match="without service"):
            StreamService.restore(path)

    def test_checkpoint_before_any_data_is_an_error(self, tmp_path):
        service = fresh_service()
        service.register("acme", query("AB"))
        with pytest.raises(CheckpointError, match="not ingested"):
            service.checkpoint(tmp_path / "nope.ckpt")


class TestLegacyCheckpoints:
    def test_slo_free_checkpoint_restores_and_finishes_like_a_run(
            self, dataset, tmp_path):
        """Cut at 3000 records right after ``late`` registered, as in
        :class:`TestRoundTrip`. The legacy ``slo``,
        ``epochs_since_replan`` and ``config["sketch_k"]`` payload keys
        are ignored."""
        oracle = TestRoundTrip().run(dataset, False, tmp_path)
        document = read_checkpoint_document(LEGACY / "service-v5.ckpt")
        assert document["extra"]["service"]["slo"] is None
        assert document["extra"]["service"]["config"]["sketch_k"] == 256
        restored = StreamService.restore(LEGACY / "service-v5.ckpt")
        assert restored.live.records_seen == len(dataset) // 2
        assert restored.live._staged_plan.memory is None
        push_slice(restored, dataset, len(dataset) // 2, len(dataset))
        restored.finish()
        assert restored.leases() == oracle.leases()
        for tenant in ("acme", "beta", "late"):
            assert restored.answers(tenant) == oracle.answers(tenant)
        assert restored.live.reconfigurations == \
            oracle.live.reconfigurations
        assert costs(restored.live.epoch_reports) == \
            costs(oracle.live.epoch_reports)

    def test_checkpoint_with_a_pickled_slo_is_refused(self):
        path = LEGACY / "service-v5-slo.ckpt"
        with pytest.raises(CheckpointError, match="cannot read") as info:
            StreamService.restore(path)
        assert str(path) in str(info.value)


def sketches(service):
    """Every sketch's minima (raw bytes), flag and estimate, and the
    records the collector has seen."""
    collector = service.collector
    return collector.records_seen, {
        rel.label(): (sketch._minima.tobytes(), sketch._saturated,
                      sketch.estimate())
        for rel, sketch in collector._distinct.items()}


def pushed(service, dataset, start, numpy_body):
    """``service`` fed the records from ``start`` on, through the
    library's sketches or, with ``numpy_body``, the numpy reference's."""
    with numpy_bodies() if numpy_body else nullcontext():
        push_slice(service, dataset, start, len(dataset))
    return service


class TestSketchesOnBothBodies:
    """The sketches a checkpoint carries are the same bytes whichever
    body updates them, the library's or the numpy reference's."""

    def test_legacy_checkpoint_keeps_pushing_alike(self, dataset):
        got, want = (pushed(StreamService.restore(LEGACY / "service-v5.ckpt"),
                            dataset, len(dataset) // 2, numpy_body)
                     for numpy_body in (False, True))
        assert sketches(got) == sketches(want)

    @pytest.mark.parametrize("written_by_numpy", [False, True])
    def test_checkpoint_restores_on_the_other_body(
            self, dataset, tmp_path, monkeypatch, written_by_numpy):
        # Small sketches, so that they fill and saturate.
        monkeypatch.setattr("repro.service.service.SKETCH_K", 16)
        service = fresh_service()
        service.register("acme", query("ABC"))
        half = len(dataset) // 2
        with numpy_bodies() if written_by_numpy else nullcontext():
            push_slice(service, dataset, 0, half)
            service.checkpoint(tmp_path / "svc.ckpt")
        restored = pushed(StreamService.restore(tmp_path / "svc.ckpt"),
                          dataset, half, not written_by_numpy)
        oracle = fresh_service()
        oracle.register("acme", query("ABC"))
        pushed(oracle, dataset, 0, False)
        assert sketches(restored) == sketches(oracle)
        assert any(saturated for _, saturated, _ in
                   sketches(oracle)[1].values())
