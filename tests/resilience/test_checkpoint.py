"""Checkpoint/restore for the live runtime: resume must be invisible.

The contract under test: push half the stream, checkpoint, "kill" the
process (throw the object away), restore, push the rest — and every
answer and every :class:`EpochReport` is identical to the uninterrupted
run.
"""

import pickle
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from repro import MetricsRegistry, QuerySet, StreamSchema, plan
from repro.core.feeding_graph import FeedingGraph
from repro.errors import CheckpointError
from repro.gigascope.online import LiveStreamSystem
from repro.gigascope.records import Dataset
from repro.resilience import CHECKPOINT_VERSION
from repro.resilience.checkpoint import CHECKPOINT_MAGIC
from repro.workloads import make_group_universe, measure_statistics, uniform_dataset

SCHEMA = StreamSchema(("A", "B", "C", "D"))

#: Checkpoints written (format version 5, like today's) by the code
#: before eras carried their plan and epoch reports their prediction.
LEGACY = Path(__file__).parent / "data"


def costs(reports):
    """Epoch reports without ``predicted_cost``, which a legacy era
    does not know."""
    return [astuple(replace(r, predicted_cost=None)) for r in reports]


@pytest.fixture(scope="module")
def live_dataset():
    universe = make_group_universe(SCHEMA, (8, 24, 48, 90), value_pool=64,
                                   seed=7)
    return uniform_dataset(universe, 4000, duration=9.0, seed=13)


@pytest.fixture(scope="module")
def live_queries():
    return QuerySet.counts(["AB", "BC"], epoch_seconds=2.0)


@pytest.fixture(scope="module")
def live_plan(live_dataset, live_queries):
    stats = measure_statistics(live_dataset,
                               FeedingGraph(live_queries).nodes)
    return plan(live_queries, stats, memory=800)


def push_slice(live, dataset, start, stop):
    cols = {a: dataset.columns[a][start:stop] for a in SCHEMA.attributes}
    live.push(cols, dataset.timestamps[start:stop])


def run_uninterrupted(dataset, queries, the_plan):
    live = LiveStreamSystem(SCHEMA, queries, the_plan)
    live.push(dataset.columns, dataset.timestamps)
    live.finish()
    return live


class TestRoundTrip:
    def test_restore_mid_stream_is_byte_identical(self, live_dataset,
                                                  live_queries, live_plan,
                                                  tmp_path):
        oracle = run_uninterrupted(live_dataset, live_queries, live_plan)

        live = LiveStreamSystem(SCHEMA, live_queries, live_plan)
        half = len(live_dataset) // 2
        push_slice(live, live_dataset, 0, half)
        path = tmp_path / "live.ckpt"
        live.checkpoint(path)
        del live  # the "crash"

        restored = LiveStreamSystem.restore(path)
        assert restored.records_seen == half
        push_slice(restored, live_dataset, half, len(live_dataset))
        restored.finish()

        assert restored.epoch_reports == oracle.epoch_reports
        assert restored.records_seen == oracle.records_seen
        for query in live_queries:
            assert restored.answers(query) == oracle.answers(query)

    def test_checkpoint_at_awkward_offsets(self, live_dataset,
                                           live_queries, live_plan,
                                           tmp_path):
        """Mid-epoch cuts leave pending rows in flight; they must
        survive the round trip too."""
        oracle = run_uninterrupted(live_dataset, live_queries, live_plan)
        for cut in (1, 37, 1999, len(live_dataset) - 1):
            live = LiveStreamSystem(SCHEMA, live_queries, live_plan)
            push_slice(live, live_dataset, 0, cut)
            path = tmp_path / f"cut{cut}.ckpt"
            live.checkpoint(path)
            restored = LiveStreamSystem.restore(path)
            push_slice(restored, live_dataset, cut, len(live_dataset))
            restored.finish()
            assert restored.epoch_reports == oracle.epoch_reports, cut
            for query in live_queries:
                assert restored.answers(query) == oracle.answers(query)

    def test_watermark_and_staged_state_preserved(self, live_dataset,
                                                  live_queries, live_plan,
                                                  tmp_path):
        live = LiveStreamSystem(SCHEMA, live_queries, live_plan)
        push_slice(live, live_dataset, 0, 1500)
        path = tmp_path / "wm.ckpt"
        live.checkpoint(path)
        restored = LiveStreamSystem.restore(path)
        assert restored.watermark == live.watermark
        assert restored.records_seen == live.records_seen
        assert len(restored.epoch_reports) == len(live.epoch_reports)

    def test_double_restore_from_same_file(self, live_dataset,
                                           live_queries, live_plan,
                                           tmp_path):
        """A checkpoint is a value: restoring twice gives two
        independent systems with equal answers."""
        live = LiveStreamSystem(SCHEMA, live_queries, live_plan)
        push_slice(live, live_dataset, 0, 2000)
        path = tmp_path / "twice.ckpt"
        live.checkpoint(path)
        first = LiveStreamSystem.restore(path)
        second = LiveStreamSystem.restore(path)
        for system in (first, second):
            push_slice(system, live_dataset, 2000, len(live_dataset))
            system.finish()
        assert first.epoch_reports == second.epoch_reports
        for query in live_queries:
            assert first.answers(query) == second.answers(query)


class TestAttachments:
    def test_controller_and_registry_are_not_serialized(self, live_dataset,
                                                        live_queries,
                                                        live_plan,
                                                        tmp_path):
        """The registry is the one attachment, and it is not serialized.
        There is no ``controller`` to attach any more."""
        with pytest.raises(TypeError):
            LiveStreamSystem(SCHEMA, live_queries, live_plan,
                             controller=None)
        registry = MetricsRegistry()
        live = LiveStreamSystem(SCHEMA, live_queries, live_plan,
                                registry=registry)
        push_slice(live, live_dataset, 0, 1000)
        path = tmp_path / "attach.ckpt"
        live.checkpoint(path)

        with path.open("rb") as handle:
            payload = pickle.load(handle)
        assert payload["magic"] == CHECKPOINT_MAGIC
        assert payload["checkpoint_version"] == CHECKPOINT_VERSION
        assert "registry" not in payload["state"]

        bare = LiveStreamSystem.restore(path)
        assert bare.registry is None
        with pytest.raises(TypeError):
            LiveStreamSystem.restore(path, controller=None)

        fresh = MetricsRegistry()
        attached = LiveStreamSystem.restore(path, registry=fresh)
        assert attached.registry is fresh
        push_slice(attached, live_dataset, 1000, len(live_dataset))
        attached.finish()
        assert fresh.counters["live.epochs"].value > 0


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            LiveStreamSystem.restore(tmp_path / "absent.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not pickle")
        with pytest.raises(CheckpointError):
            LiveStreamSystem.restore(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "magic.ckpt"
        with path.open("wb") as handle:
            pickle.dump({"magic": "other-format",
                         "checkpoint_version": CHECKPOINT_VERSION,
                         "state": {}}, handle)
        with pytest.raises(CheckpointError, match="not a live-stream"):
            LiveStreamSystem.restore(path)

    def test_wrong_version(self, tmp_path):
        """One format, one reader: every other version — retired, future,
        or a bool posing as an int — is refused by name, and a document
        with the right magic and version but a missing or non-dict
        ``state`` is a CheckpointError too, never a KeyError or
        AttributeError."""
        path = tmp_path / "version.ckpt"
        good = {"magic": CHECKPOINT_MAGIC,
                "checkpoint_version": CHECKPOINT_VERSION, "state": {}}
        damaged = [({**good, "checkpoint_version": version},
                    f"checkpoint_version {version!r}.*"
                    f"version {CHECKPOINT_VERSION}")
                   for version in (1, 2, 3, 4, CHECKPOINT_VERSION + 1, True)]
        damaged.append(({"magic": CHECKPOINT_MAGIC,
                         "checkpoint_version": CHECKPOINT_VERSION},
                        "no state payload"))
        damaged.append(({**good, "state": ["not", "a", "dict"]},
                        "no state payload"))
        for document, match in damaged:
            with path.open("wb") as handle:
                pickle.dump(document, handle)
            with pytest.raises(CheckpointError, match=match) as info:
                LiveStreamSystem.restore(path)
            assert str(path) in str(info.value)

    def test_missing_state_field(self, live_dataset, live_queries,
                                 live_plan, tmp_path):
        live = LiveStreamSystem(SCHEMA, live_queries, live_plan)
        push_slice(live, live_dataset, 0, 100)
        path = tmp_path / "partial.ckpt"
        live.checkpoint(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        del payload["state"]["records_seen"]
        with path.open("wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(CheckpointError, match="records_seen"):
            LiveStreamSystem.restore(path)

    def test_restored_stream_still_rejects_out_of_order(self,
                                                        live_dataset,
                                                        live_queries,
                                                        live_plan,
                                                        tmp_path):
        """The watermark survives: replaying already-seen timestamps
        after a restore fails exactly as it would have before."""
        live = LiveStreamSystem(SCHEMA, live_queries, live_plan)
        push_slice(live, live_dataset, 0, 2000)
        path = tmp_path / "order.ckpt"
        live.checkpoint(path)
        restored = LiveStreamSystem.restore(path)
        cols = {a: live_dataset.columns[a][:1]
                for a in SCHEMA.attributes}
        stale = np.array([restored.watermark - 1.0])
        with pytest.raises(Exception, match="out of order|order"):
            restored.push(cols, stale)


class TestStagedReconfiguration:
    """A staged-but-unapplied reconfiguration must survive the trip.

    Regression: the snapshot carries ``_staged_plan`` AND
    ``_staged_queries``, so a plan/query-set swap staged
    inside the open epoch still lands at the first boundary after
    restore, exactly as in the uninterrupted run.
    """

    def _queries_with_cd(self, live_queries):
        return QuerySet(list(live_queries)
                        + list(QuerySet.counts(["CD"], epoch_seconds=2.0)))

    def _staged_plan(self, live_dataset, live_queries):
        wider = self._queries_with_cd(live_queries)
        stats = measure_statistics(live_dataset,
                                   FeedingGraph(wider).nodes)
        return wider, plan(wider, stats, memory=800)

    def test_staged_swap_applies_after_restore(self, live_dataset,
                                               live_queries, live_plan,
                                               tmp_path):
        wider, staged = self._staged_plan(live_dataset, live_queries)

        def run(interrupt):
            live = LiveStreamSystem(SCHEMA, live_queries, live_plan)
            cut = 1500  # strictly inside an epoch
            push_slice(live, live_dataset, 0, cut)
            live.reconfigure(staged, wider)
            if interrupt:
                path = tmp_path / "staged.ckpt"
                live.checkpoint(path)
                del live
                live = LiveStreamSystem.restore(path)
                assert live._staged_plan is not None
                assert live._staged_queries is not None
            push_slice(live, live_dataset, cut, len(live_dataset))
            live.finish()
            return live

        oracle = run(False)
        restored = run(True)
        assert restored.reconfigurations == oracle.reconfigurations
        assert restored.epoch_reports == oracle.epoch_reports
        # The staged query set landed: the new CD query answers from
        # the boundary epoch on, in both runs identically.
        for query in wider:
            assert restored.answers(query) == oracle.answers(query)
        cd = list(wider)[-1]
        assert restored.answers(cd)


class TestReplanRule:
    """The re-plan rule's state rides in the eras."""

    def test_rule_resumes_after_restore(self, live_queries, tmp_path):
        """Cut after the calm epochs set the baseline: the restored run
        re-plans at the drift exactly as the uninterrupted one."""
        universe = make_group_universe(SCHEMA, (8, 24, 48, 90), seed=7)
        wide = make_group_universe(SCHEMA, (800, 2400, 4800, 9000), seed=9)
        calm = uniform_dataset(universe, 4000, duration=4.0, seed=1)
        burst = uniform_dataset(wide, 4000, duration=4.0, seed=2)
        data = Dataset(SCHEMA,
                       {a: np.concatenate([calm.columns[a],
                                           burst.columns[a]])
                        for a in SCHEMA.attributes},
                       np.concatenate([calm.timestamps,
                                       burst.timestamps + 4.0]))
        stats = measure_statistics(calm, FeedingGraph(live_queries).nodes)
        first = plan(live_queries, stats, memory=3000)
        oracle = run_uninterrupted(data, live_queries, first)
        assert [epoch for epoch, _ in oracle.reconfigurations] == [3]

        live = LiveStreamSystem(SCHEMA, live_queries, first)
        push_slice(live, data, 0, 4100)  # epochs 0, 1 closed, 2 open
        assert live.eras[0].baseline is not None
        path = tmp_path / "rule.ckpt"
        live.checkpoint(path)
        restored = LiveStreamSystem.restore(path)
        assert restored.eras[0].plan == first
        assert restored.eras[0].baseline == live.eras[0].baseline
        push_slice(restored, data, 4100, len(data))
        restored.finish()
        assert restored.reconfigurations == oracle.reconfigurations
        assert restored.epoch_reports == oracle.epoch_reports

    def test_legacy_checkpoint_restores_and_finishes_like_a_run(
            self, live_dataset, live_queries, live_plan):
        """Written mid-stream (2000 records) over this module's stream
        and plan by code whose eras had no plan: it still restores and
        finishes equal to an uninterrupted run, and the rule stays idle
        in the restored era."""
        oracle = run_uninterrupted(live_dataset, live_queries, live_plan)
        restored = LiveStreamSystem.restore(LEGACY / "live-v5.ckpt")
        assert restored.records_seen == 2000
        assert restored.eras[0].plan is None
        push_slice(restored, live_dataset, 2000, len(live_dataset))
        restored.finish()
        assert restored.eras[0].baseline is None
        assert costs(restored.epoch_reports) == costs(oracle.epoch_reports)
        assert restored.reconfigurations == oracle.reconfigurations == []
        for query in live_queries:
            assert restored.answers(query) == oracle.answers(query)
