"""Tests for the incremental runtime and its one re-plan rule."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    AttributeSet,
    Configuration,
    CostParameters,
    MetricsRegistry,
    QuerySet,
    StreamSchema,
    StreamSystem,
    plan,
)
from repro.core.feeding_graph import FeedingGraph
from repro.errors import ConfigurationError, SchemaError
from repro.core.sketches import StreamStatisticsCollector
from repro.gigascope import engine, online, simulate
from repro.gigascope.filters import Comparison, filter_dataset
from repro.gigascope.hfta import HFTA
from repro.gigascope.online import (REPLAN_FACTOR, EpochReport,
                                    LiveStreamSystem)
from repro.gigascope.records import Dataset
from repro.native import ingest as native_ingest
from repro.workloads import (
    make_group_universe,
    measure_statistics,
    paper_like_trace,
    uniform_dataset,
)
from tests.conftest import split_ran, walk_lanes_of
from tests.references import numpy_bodies

SCHEMA = StreamSchema(("A", "B", "C", "D"))


@pytest.fixture(scope="module")
def universe():
    return make_group_universe(SCHEMA, (8, 24, 48, 90), value_pool=64,
                               seed=7)


@pytest.fixture(scope="module")
def dataset(universe):
    return uniform_dataset(universe, 6000, duration=9.0, seed=5)


@pytest.fixture(scope="module")
def queries():
    return QuerySet.counts(["AB", "BC", "CD"], epoch_seconds=2.0)


@pytest.fixture(scope="module")
def base_plan(dataset, queries):
    stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
    return plan(queries, stats, memory=800)


def batches(dataset, sizes):
    start = 0
    for size in sizes:
        end = min(start + size, len(dataset))
        yield (
            {a: dataset.columns[a][start:end] for a in SCHEMA.attributes},
            dataset.timestamps[start:end],
        )
        start = end
    if start < len(dataset):
        yield (
            {a: dataset.columns[a][start:] for a in SCHEMA.attributes},
            dataset.timestamps[start:],
        )


class TestLiveStreamSystem:
    def test_matches_batch_system_exactly(self, dataset, queries,
                                          base_plan):
        """Incremental execution == one-shot execution, any batching."""
        batch_report = StreamSystem.from_plan(dataset, queries,
                                              base_plan).run()
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 700, size=40).tolist()
        for cols, times in batches(dataset, sizes):
            live.push(cols, times)
        live.finish()
        assert live.total_intra_cost() == \
            batch_report.intra_cost.total
        assert live.total_flush_cost() == \
            batch_report.flush_cost.total
        for q in queries:
            assert live.answers(q) == batch_report.answers(q)

    def test_epoch_reports_cover_stream(self, dataset, queries, base_plan):
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        live.push(dataset.columns, dataset.timestamps)
        live.finish()
        assert sum(r.records for r in live.epoch_reports) == len(dataset)
        epochs = [r.epoch for r in live.epoch_reports]
        assert epochs == sorted(epochs)

    def test_fully_filtered_batch_still_closes_epoch(self, queries,
                                                     base_plan):
        """A batch dropped whole by WHERE must advance epoch state."""
        from repro.gigascope.filters import Comparison
        live = LiveStreamSystem(SCHEMA, queries, base_plan,
                                where=Comparison("A", "!=", 0))
        kept = {a: np.array([1, 2]) for a in SCHEMA.attributes}
        live.push(kept, np.array([0.5, 1.0]))  # epoch 0 stays open
        dropped = {a: np.array([0, 0]) for a in SCHEMA.attributes}
        reports = live.push(dropped, np.array([2.5, 2.9]))  # epoch 1
        assert [r.epoch for r in reports] == [0]
        assert reports[0].records == 2
        assert live.records_seen == 4
        assert live.finish() == []  # nothing pending anymore

    def test_filtered_batches_match_batch_system(self, queries, base_plan):
        """Equivalence with StreamSystem when WHERE empties whole epochs."""
        from repro.gigascope.filters import Comparison
        where = Comparison("A", "!=", 0)
        a = np.array([1, 2, 0, 0, 3, 1])
        columns = {name: a for name in SCHEMA.attributes}
        times = np.array([0.5, 1.0, 2.5, 2.6, 4.2, 4.9])
        dataset = Dataset(SCHEMA, columns, times)
        batch_report = StreamSystem.from_plan(dataset, queries, base_plan,
                                              where=where).run()
        live = LiveStreamSystem(SCHEMA, queries, base_plan, where=where)
        for start, end in ((0, 2), (2, 4), (4, 6)):
            live.push({n: c[start:end] for n, c in columns.items()},
                      times[start:end])
        live.finish()
        for q in queries:
            assert live.answers(q) == batch_report.answers(q)
        assert live.total_intra_cost() == batch_report.intra_cost.total

    def test_rejects_out_of_order_batches(self, queries, base_plan):
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        cols = {a: np.array([1]) for a in SCHEMA.attributes}
        live.push(cols, np.array([5.0]))
        with pytest.raises(SchemaError):
            live.push(cols, np.array([4.0]))

    def test_reconfigure_takes_effect_next_epoch(self, dataset, queries,
                                                 base_plan):
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        other_plan = plan(queries, stats, memory=800, algorithm="none")
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        # Feed the first epoch's worth, then reconfigure mid-epoch 1.
        half = len(dataset) // 2
        part = dataset.head(half)
        live.push(part.columns, part.timestamps)
        live.reconfigure(other_plan)
        cols = {a: dataset.columns[a][half:] for a in SCHEMA.attributes}
        live.push(cols, dataset.timestamps[half:])
        live.finish()
        # The open epoch at reconfigure time kept the old configuration.
        flip = [r.epoch for r in live.epoch_reports
                if r.configuration == other_plan.configuration]
        kept = [r.epoch for r in live.epoch_reports
                if r.configuration == base_plan.configuration]
        assert flip and kept
        assert min(flip) > max(kept)
        assert live.reconfigurations

    @staticmethod
    def _trace_and_plans():
        trace = paper_like_trace(20_000, seed=1)
        queries = QuerySet.counts(["AB", "BC", "BD", "CD"],
                                  epoch_seconds=5.0)
        stats = measure_statistics(trace, FeedingGraph(queries).nodes)
        first = plan(queries, stats, memory=40_000)
        flat = plan(queries, stats, memory=40_000, algorithm="none")
        assert first.configuration != flat.configuration
        return trace, queries, first, flat

    @staticmethod
    def _push_rows(live, trace, start, stop):
        live.push({a: trace.columns[a][start:stop]
                   for a in SCHEMA.attributes},
                  trace.timestamps[start:stop])

    def test_reconfigure_with_no_epoch_open_runs_the_next_epoch(self):
        """A plan staged between ``finish`` and the next record runs the
        very next epoch, not the one after it."""
        trace, queries, first, flat = self._trace_and_plans()
        cuts = np.searchsorted(trace.timestamps, [5.0, 15.0])
        live = LiveStreamSystem(SCHEMA, queries, first)
        self._push_rows(live, trace, 0, cuts[0])
        live.finish()
        live.reconfigure(flat)
        self._push_rows(live, trace, cuts[0], cuts[1])
        live.finish()
        assert [(r.epoch, r.configuration) for r in live.epoch_reports] == \
            [(0, first.configuration), (1, flat.configuration),
             (2, flat.configuration)]
        assert live.reconfigurations == [(1, flat.configuration)]

    def test_reopened_epoch_keeps_the_old_plan(self):
        """Records after a mid-epoch ``finish`` may reopen the epoch it
        closed. A plan staged in between waits for the next epoch, so
        the reopened one runs the plan it started under and its answers
        stay exact."""
        trace, queries, first, flat = self._trace_and_plans()
        cuts = np.searchsorted(trace.timestamps, [2.5, 5.0, 10.0])
        live = LiveStreamSystem(SCHEMA, queries, first)
        self._push_rows(live, trace, 0, cuts[0])
        live.finish()
        live.reconfigure(flat)
        self._push_rows(live, trace, cuts[0], cuts[1])
        assert live.configuration == first.configuration
        self._push_rows(live, trace, cuts[1], cuts[2])
        live.finish()
        assert [(r.epoch, r.configuration) for r in live.epoch_reports] == \
            [(0, first.configuration), (0, first.configuration),
             (1, flat.configuration)]
        assert live.reconfigurations == [(1, flat.configuration)]
        head = trace.head(int(cuts[2]))
        for q in queries:
            reference = StreamSystem.from_plan(head, queries, first).run()
            assert live.answers(q) == reference.answers(q)

    def test_reconfigure_before_any_epoch_replaces_the_plan(
            self, dataset, queries, base_plan):
        """Nothing ran under the construction plan: the new one replaces
        it, and no reconfiguration is recorded."""
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        flat = plan(queries, stats, memory=800, algorithm="none")
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        live.reconfigure(flat)
        live.push(dataset.columns, dataset.timestamps)
        live.finish()
        assert [era.plan for era in live.eras] == [flat]
        assert {r.configuration for r in live.epoch_reports} == \
            {flat.configuration}
        assert live.reconfigurations == []
        reference = StreamSystem.from_plan(dataset, queries, flat).run()
        for q in queries:
            assert live.answers(q) == reference.answers(q)

    def test_reconfigure_answers_still_exact(self, dataset, queries,
                                             base_plan):
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        other_plan = plan(queries, stats, memory=800, algorithm="none")
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        part = dataset.head(2000)
        live.push(part.columns, part.timestamps)
        live.reconfigure(other_plan)
        cols = {a: dataset.columns[a][2000:] for a in SCHEMA.attributes}
        live.push(cols, dataset.timestamps[2000:])
        live.finish()
        reference = StreamSystem.from_plan(dataset, queries,
                                           base_plan).run()
        for q in queries:
            assert live.answers(q) == reference.answers(q)

    def test_one_tables_keeps_the_engine_buffers(self, dataset, queries,
                                                 base_plan, monkeypatch):
        """Re-planning every epoch leaves one ``Tables`` holding the
        engine's buffers, every close walked through it, with at most
        two walks (two lanes), not one per era of the run."""
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        other_plan = plan(queries, stats, memory=800, algorithm="none")
        walked = []

        def recorded(*args, **kwargs):
            walked.append(kwargs["tables"])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(online, "simulate", recorded)
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        for i, (cols, times) in enumerate(batches(dataset, [700] * 8)):
            live.push(cols, times)
            live.reconfigure(other_plan if i % 2 == 0 else base_plan)
        live.finish()
        assert len(live.eras) > 3
        assert len(walked) == len(live.epoch_reports)
        assert all(tables is live.tables for tables in walked)
        assert 1 <= len(live.tables._walks) <= 2

    def test_rejects_plan_missing_queries(self, queries, base_plan):
        bad = Configuration.flat([AttributeSet.parse("AB")])
        with pytest.raises(ConfigurationError):
            LiveStreamSystem(SCHEMA, queries, base_plan).reconfigure(
                plan_with_config(base_plan, bad))
        # The same run check refuses, at construction as StreamSystem
        # does, what used to fail at the first epoch boundary.
        from repro.core.queries import Aggregate, AggregationQuery
        from repro.gigascope.filters import Comparison
        valued = StreamSchema(SCHEMA.attributes, value_columns=("len",))
        avg = QuerySet([AggregationQuery(q.group_by, Aggregate("avg", "len"),
                                         epoch_seconds=2.0)
                        for q in queries])
        for schema, query_set, kwargs, error in (
                # avg without a value column (answered 0.0 everywhere)
                (valued, avg, {}, ConfigurationError),
                # a plan over attribute D, which the schema lacks
                (StreamSchema(("A", "B", "C")), queries, {}, SchemaError),
                # a value column the schema does not declare
                (SCHEMA, queries, {"value_column": "len"}, SchemaError),
                # WHERE on a column the schema does not have
                (SCHEMA, queries, {"where": Comparison("Z", "=", 1)},
                 SchemaError)):
            with pytest.raises(error):
                LiveStreamSystem(schema, query_set, base_plan, **kwargs)
        live = LiveStreamSystem(valued, queries, base_plan)
        with pytest.raises(ConfigurationError, match="value_column='len'"):
            live.reconfigure(base_plan, avg)
        assert live._staged_plan is None


#: Both walks: the kernel's and the reference numpy one.
LEGS = ["kernel", "numpy"]


def leg(name):
    return nullcontext() if name == "kernel" else numpy_bodies()


class TestEraWalk:
    """An era binds its walk once, at its first close: the salts, the
    table sizes and the kernel's walk are not resolved again per epoch."""

    @staticmethod
    def _counted(monkeypatch):
        calls = {"salts": 0, "walks": 0}
        salt = engine.relation_salt

        def counted_salt(label, seed=0):
            calls["salts"] += 1
            return salt(label, seed)

        class CountedWalk(native_ingest.Walk):
            def __init__(self, *args, **kwargs):
                calls["walks"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "relation_salt", counted_salt)
        monkeypatch.setattr(native_ingest, "Walk", CountedWalk)
        return calls

    @pytest.mark.parametrize("name", LEGS)
    def test_an_era_builds_its_walk_once(self, name, universe, queries,
                                         base_plan, tmp_path, monkeypatch):
        stream = uniform_dataset(universe, 9000, duration=80.0, seed=11)
        stats = measure_statistics(stream, FeedingGraph(queries).nodes)
        flat = plan(queries, stats, memory=800, algorithm="none")
        first = base_plan.configuration.relations
        calls = self._counted(monkeypatch)
        walks = 1 if name == "kernel" else 0
        with leg(name):
            live = LiveStreamSystem(SCHEMA, queries, base_plan)
            edges = np.searchsorted(stream.timestamps, [60.0, 70.0])
            # 30 closes under one plan, in batches of every size
            for cols, times in batches(stream.head(int(edges[0])),
                                       [1, 500, 3, 1200] * 8):
                live.push(cols, times)
            live.finish()
            assert len(live.epoch_reports) == 30 and len(live.eras) == 1
            assert calls == {"salts": len(first), "walks": walks}
            path = live.checkpoint(tmp_path / "live.ckpt")
            live.reconfigure(flat)
            rows = slice(int(edges[0]), int(edges[1]))
            live.push({a: stream.columns[a][rows] for a in SCHEMA.attributes},
                      stream.timestamps[rows])
            live.finish()
            assert len(live.eras) == 2
            assert calls == {"salts": len(first) + len(flat.configuration),
                             "walks": 2 * walks}
            calls.update(salts=0, walks=0)
            restored = LiveStreamSystem.restore(path)
            assert calls == {"salts": 0, "walks": 0}
            restored.push({a: stream.columns[a][rows]
                           for a in SCHEMA.attributes},
                          stream.timestamps[rows])
            restored.finish()
            assert calls == {"salts": len(first), "walks": walks}

    def test_a_binding_schedules_its_lanes_once(self, universe, queries,
                                                base_plan, monkeypatch):
        """Over an era's closes with lanes forced the lanes are scheduled
        once, at the second close; a re-plan to another configuration
        binds again and schedules again (never where one core is
        usable)."""
        stream = uniform_dataset(universe, 9000, duration=80.0, seed=11)
        stats = measure_statistics(stream, FeedingGraph(queries).nodes)
        flat = plan(queries, stats, memory=800, algorithm="none")
        scheduled = []
        schedule = engine._schedule

        def counted(*args):
            scheduled.append(args)
            return schedule(*args)

        monkeypatch.setattr(engine, "_schedule", counted)
        once = 1 if split_ran() else 0
        edges = np.searchsorted(stream.timestamps, [30.0, 60.0]).tolist()
        with walk_lanes_of(True):
            live = LiveStreamSystem(SCHEMA, queries, base_plan)
            part = stream.head(edges[0])
            live.push(part.columns, part.timestamps)
            live.finish()
            assert len(live.epoch_reports) == 15
            assert len(scheduled) == once
            live.reconfigure(flat)
            rows = slice(edges[0], edges[1])
            live.push({a: stream.columns[a][rows] for a in SCHEMA.attributes},
                      stream.timestamps[rows])
            live.finish()
        assert len(live.eras) == 2
        assert len(scheduled) == 2 * once

    def test_an_equal_replan_keeps_the_binding(self, universe, queries,
                                               base_plan):
        """A staged plan of the same configuration and buckets starts an
        era but keeps the binding: the walk the first close built walks
        every later close, and the reports and answers are those of a
        run without the re-plan."""
        stream = uniform_dataset(universe, 9000, duration=40.0, seed=13)

        def run(replan):
            live = LiveStreamSystem(SCHEMA, queries, base_plan)
            kept = None
            for i, (cols, times) in enumerate(batches(stream, [600] * 15)):
                live.push(cols, times)
                kept = kept or live.tables._walks[:1]
                if replan and i == 6:
                    live.reconfigure(base_plan)
            live.finish()
            assert live.tables._walks[0] is kept[0]
            return live

        got, want = run(True), run(False)
        assert len(got.eras) == 2 and len(want.eras) == 1
        assert got.epoch_reports == want.epoch_reports
        for query in queries:
            assert got.answers(query) == want.answers(query)

    def test_a_plan_replaced_before_any_epoch_builds_nothing(
            self, dataset, queries, base_plan, monkeypatch):
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        flat = plan(queries, stats, memory=800, algorithm="none")
        calls = self._counted(monkeypatch)
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        live.reconfigure(flat)
        live.reconfigure(base_plan)
        assert calls == {"salts": 0, "walks": 0}
        part = dataset.head(1)
        live.push(part.columns, part.timestamps)
        assert calls == {"salts": 0, "walks": 0}
        live.finish()
        assert calls["salts"] == len(base_plan.configuration)


VALUED = StreamSchema(SCHEMA.attributes, value_columns=("v",))
#: A batch whose records all carry this A is dropped whole by ``KEEP``.
DROPPED = -1
KEEP = Comparison("A", ">=", 0)

#: One push per batch, then what follows it: a ``finish()``, a staged
#: plan, a checkpoint and restore (at most one of each of the last two).
cuts = st.fixed_dictionaries({
    # one record, a few, most of an epoch, several epochs
    "sizes": st.lists(st.sampled_from([1, 1, 7, 150, 700, 2500]),
                      min_size=1, max_size=10),
    "dropped": st.sets(st.integers(0, 9), max_size=2),
    "finishes": st.sets(st.integers(0, 9), max_size=3),
    "reconfigure": st.none() | st.integers(0, 9),
    "restore": st.none() | st.integers(0, 9),
    "nan": st.booleans(),
})


def valued_stream(universe, case):
    """A 5000-record stream over ``VALUED`` cut into the case's batches
    (the last one takes the rest); a dropped batch's records all fail
    ``KEEP``, and one value in 40 is a NaN when the case asks."""
    base = uniform_dataset(universe, 5000, duration=9.0, seed=17)
    rng = np.random.default_rng(len(case["sizes"]))
    values = rng.uniform(40, 1500, len(base))
    if case["nan"]:
        values[rng.random(len(base)) < 0.025] = np.nan
    columns = {a: base.columns[a].copy() for a in SCHEMA.attributes}
    edges = np.minimum(np.cumsum([0] + case["sizes"]), len(base)).tolist()
    if edges[-1] < len(base):
        edges.append(len(base))
    for i in case["dropped"]:
        if i + 1 < len(edges):
            columns["A"][edges[i]:edges[i + 1]] = DROPPED
    stream = Dataset(VALUED, columns, base.timestamps, {"v": values})
    return stream, list(zip(edges[:-1], edges[1:]))


def rows_of(dataset, lo, hi):
    return Dataset(dataset.schema,
                   {a: col[lo:hi] for a, col in dataset.columns.items()},
                   dataset.timestamps[lo:hi],
                   {k: v[lo:hi] for k, v in dataset.values.items()})


def state_bytes(hfta):
    """Every key's folded state as raw bytes, NaN bits included, then
    the HFTA's counters."""
    keys = sorted(hfta._columnar, key=lambda key: (key[0].label(), key[1]))
    return [(key, [col.tobytes() for col in state.columns],
             state.counts.tobytes(), state.value_sums.tobytes(),
             state.value_mins.tobytes(), state.value_maxs.tobytes())
            for key, state in ((key, hfta._columnar[key]) for key in keys)
            ] + [(hfta.evictions_received, hfta.folds, hfta.rows_folded)]


class TestAnyCuts:
    """Pushed in any batches — spanning epochs, one record, dropped
    whole by WHERE — with an epoch reopened after ``finish()``, a
    mid-stream ``reconfigure`` and a checkpoint and restore in the middle
    of an epoch, a live run equals the numpy walk's ``simulate`` over the
    same stream byte for byte: one call per stretch that no ``finish()``
    and no plan swap cuts, and one per epoch for its report."""

    @pytest.mark.parametrize("name", LEGS)
    @given(case=cuts)
    def test_matches_simulate_over_any_cuts(self, name, universe, dataset,
                                            queries, base_plan,
                                            tmp_path_factory, case):
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        flat = plan(queries, stats, memory=800, algorithm="none")
        stream, pieces = valued_stream(universe, case)
        kept_rows = np.cumsum([0] + [
            int(np.count_nonzero(stream.columns["A"][lo:hi] != DROPPED))
            for lo, hi in pieces])
        path = tmp_path_factory.mktemp("ckpt") / "live.ckpt"
        with leg(name):
            live = LiveStreamSystem(VALUED, queries, base_plan,
                                    value_column="v", salt_seed=3,
                                    where=KEEP)
            finished = set()
            for i, (lo, hi) in enumerate(pieces):
                live.push({a: stream.columns[a][lo:hi]
                           for a in SCHEMA.attributes},
                          stream.timestamps[lo:hi], stream.values["v"][lo:hi])
                if i in case["finishes"]:
                    live.finish()
                    finished.add(int(kept_rows[i + 1]))
                if i == case["reconfigure"]:
                    live.reconfigure(
                        flat if live.configuration == base_plan.configuration
                        else base_plan)
                if i == case["restore"]:
                    live.checkpoint(path)
                    live = LiveStreamSystem.restore(path)
            live.finish()
        # the numpy walk is the reference of both legs
        with numpy_bodies():
            reports, counters, hfta = self._reference(
                live, filter_dataset(stream, KEEP), finished, queries)
        assert live.epoch_reports == reports
        assert [era.counters.relations for era in live.eras] == counters
        assert state_bytes(live.hfta) == state_bytes(hfta)

    @staticmethod
    def _reference(live, kept, finished, queries):
        """``simulate`` over ``kept`` cut where ``finish()`` flushed the
        tables (``finished``, in kept rows) and where each era starts."""
        assert len(live.eras) == len(live.reconfigurations) + 1
        epochs = list(kept.epoch_slices(queries.epoch_seconds))
        starts = [next((s for epoch, s, _ in epochs if epoch >= first),
                       len(kept))
                  for first, _ in live.reconfigurations]
        edges = sorted({0, len(kept), *finished, *starts})
        hfta, counters, reports = HFTA(), [], []
        for k, era in enumerate(live.eras):
            lo = 0 if k == 0 else starts[k - 1]
            hi = starts[k] if k < len(starts) else len(kept)
            run = None
            for a, b in zip(edges, edges[1:]):
                if not lo <= a < b <= hi:
                    continue
                piece = rows_of(kept, a, b)
                run = simulate(piece, era.configuration, era.buckets, 2.0,
                               "v", 3, counters=run and run.counters,
                               hfta=hfta)
                for epoch, s, e in piece.epoch_slices(2.0):
                    one = simulate(rows_of(piece, s, e), era.configuration,
                                   era.buckets, 2.0, "v", 3)
                    reports.append(EpochReport(
                        epoch, e - s, era.configuration,
                        one.intra_cost(live.params).total,
                        one.flush_cost(live.params).total,
                        era.plan.predicted_cost))
            counters.append(run.counters.relations if run else {})
        return reports, counters, hfta


def plan_with_config(base_plan, config):
    from dataclasses import replace
    from repro.core.allocation import Allocation
    return replace(base_plan, configuration=config,
                   allocation=Allocation(
                       {rel: 8 for rel in config.relations}))


class TestPushExceptionSafety:
    """A batch that fails validation must leave the system untouched."""

    def test_bad_column_length_leaves_state_unchanged(self, queries,
                                                      base_plan):
        """Every batch a ``Dataset`` refuses — a column of another
        length among them — changes nothing, and the same time range is
        then accepted."""
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        good = {a: np.array([1, 2, 3]) for a in SCHEMA.attributes}
        live.push(good, np.array([0.5, 1.0, 2.5]))
        state = (live.watermark, live.records_seen, live.open_epoch)
        pending = sum(len(c) for chunks in live._pending_cols.values()
                      for c in chunks)
        times = np.array([3.0, 3.5, 4.5])
        for columns, stamps in (
                (dict(good, B=np.array([1, 2])), times),
                (dict(good, B=np.array([1.7, 2.0, 3.0])), times),  # was 1
                (good, np.array([3.0, np.nan, 4.5])),  # was epoch -2**63
                (good, np.array([np.nan, 3.5, 4.5])),
                (good, np.array([3.0, 3.5, np.inf])),
                (good, np.array([3.0, 2.9, 4.5]))):
            with pytest.raises(SchemaError):
                live.push(columns, stamps)
            assert (live.watermark, live.records_seen,
                    live.open_epoch) == state
            assert sum(len(c) for chunks in live._pending_cols.values()
                       for c in chunks) == pending
        assert [r.epoch for r in live.push(good, times)] == [1]
        live.finish()
        assert sum(r.records for r in live.epoch_reports) == 6

    def test_missing_column_leaves_state_unchanged(self, queries,
                                                   base_plan):
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        incomplete = {a: np.array([1]) for a in ("A", "B", "C")}
        with pytest.raises(SchemaError):
            live.push(incomplete, np.array([5.0]))
        assert live.records_seen == 0
        assert live._last_time == -np.inf

    def test_failed_batch_then_valid_retry_accepted(self, queries,
                                                    base_plan):
        """The acceptance scenario: a SchemaError batch must not advance
        stream time, so retrying the same timestamps succeeds."""
        live = LiveStreamSystem(SCHEMA, queries, base_plan)
        good = {a: np.array([1]) for a in SCHEMA.attributes}
        live.push(good, np.array([0.5]))
        bad = dict(good)
        bad["A"] = np.array([1, 2])
        with pytest.raises(SchemaError):
            live.push(bad, np.array([5.0]))
        # Before the fix _last_time had advanced to 5.0 and this retry
        # (timestamps >= 0.5 but < 5.0) was rejected as out-of-order.
        reports = live.push(good, np.array([3.0]))
        assert [r.epoch for r in reports] == [0]
        live.push(good, np.array([5.0]))
        live.finish()
        assert sum(r.records for r in live.epoch_reports) == 3

    def test_missing_values_leave_state_unchanged(self, queries,
                                                  base_plan):
        schema = StreamSchema(("A", "B", "C", "D"), value_columns=("len",))
        live = LiveStreamSystem(schema, queries, base_plan,
                                value_column="len")
        cols = {a: np.array([1]) for a in schema.attributes}
        with pytest.raises(SchemaError):
            live.push(cols, np.array([1.0]))  # values missing entirely
        with pytest.raises(SchemaError):
            live.push(cols, np.array([1.0]), values=np.array([1.0, 2.0]))
        assert live.records_seen == 0
        assert live._last_time == -np.inf
        assert live.push(cols, np.array([1.0]),
                         values=np.array([7.0])) == []


class TestWhereEdgeCases:
    def make_filtered(self, queries, base_plan):
        from repro.gigascope.filters import Comparison
        return LiveStreamSystem(SCHEMA, queries, base_plan,
                                where=Comparison("A", "!=", 0))

    def test_dropped_batch_that_starts_new_epoch_closes_previous(
            self, queries, base_plan):
        """WHERE drops a batch whose records all lie in a brand-new
        epoch: the open epoch must close, the new one stays empty."""
        live = self.make_filtered(queries, base_plan)
        kept = {a: np.array([1]) for a in SCHEMA.attributes}
        live.push(kept, np.array([0.5]))  # epoch 0 open
        dropped = {a: np.array([0, 0]) for a in SCHEMA.attributes}
        reports = live.push(dropped, np.array([2.1, 2.2]))  # all of epoch 1
        assert [r.epoch for r in reports] == [0]
        assert live._pending_epoch is None
        assert live.finish() == []

    def test_dropped_batch_within_open_epoch_keeps_it_open(self, queries,
                                                           base_plan):
        live = self.make_filtered(queries, base_plan)
        kept = {a: np.array([1]) for a in SCHEMA.attributes}
        live.push(kept, np.array([0.5]))
        dropped = {a: np.array([0]) for a in SCHEMA.attributes}
        assert live.push(dropped, np.array([1.0])) == []  # same epoch
        (report,) = live.finish()
        assert report.epoch == 0 and report.records == 1

    def test_finish_after_fully_filtered_stream(self, queries, base_plan):
        """Every record filtered: no epoch ever opens, finish() is empty."""
        live = self.make_filtered(queries, base_plan)
        dropped = {a: np.array([0, 0]) for a in SCHEMA.attributes}
        assert live.push(dropped, np.array([0.5, 1.0])) == []
        assert live.push(dropped, np.array([2.5, 2.9])) == []
        assert live.finish() == []
        assert live.epoch_reports == []
        assert live.records_seen == 4


class TestLiveMetrics:
    def test_per_epoch_metrics_emitted(self, dataset, queries, base_plan):
        from repro import MetricsRegistry
        registry = MetricsRegistry()
        live = LiveStreamSystem(SCHEMA, queries, base_plan,
                                registry=registry)
        live.push(dataset.columns, dataset.timestamps)
        live.finish()
        assert registry.counter("live.epochs").value == \
            len(live.epoch_reports)
        assert registry.counter("live.records").value == len(dataset)
        assert registry.histogram("live.epoch_records").count == \
            len(live.epoch_reports)
        assert registry.span_seconds("flush") > 0
        assert registry.counter("engine.records").value == len(dataset)

    def test_reconfiguration_event_recorded(self, dataset, queries,
                                            base_plan):
        from repro import MetricsRegistry
        stats = measure_statistics(dataset, FeedingGraph(queries).nodes)
        other_plan = plan(queries, stats, memory=800, algorithm="none")
        registry = MetricsRegistry()
        live = LiveStreamSystem(SCHEMA, queries, base_plan,
                                registry=registry)
        half = len(dataset) // 2
        part = dataset.head(half)
        live.push(part.columns, part.timestamps)
        live.reconfigure(other_plan)
        cols = {a: dataset.columns[a][half:] for a in SCHEMA.attributes}
        live.push(cols, dataset.timestamps[half:])
        live.finish()
        assert registry.counter("live.reconfigurations").value >= 1
        events = [e for e in registry.events if e.name == "reconfiguration"]
        assert events and events[0].fields["configuration"] == \
            str(other_plan.configuration)


def calm_then_burst(universe):
    """4 s over the small universe, then 4 s over a 100x wider one."""
    calm = uniform_dataset(universe, 4000, duration=4.0, seed=1)
    big_universe = make_group_universe(SCHEMA, (800, 2400, 4800, 9000),
                                       seed=9)
    burst_raw = uniform_dataset(big_universe, 4000, duration=4.0, seed=2)
    burst = Dataset(SCHEMA, burst_raw.columns, burst_raw.timestamps + 4.0)
    return calm, burst


def cost_per_record(live):
    return live.total_intra_cost() / sum(r.records
                                         for r in live.epoch_reports)


class TestAdaptiveController:
    """The re-plan rule: measured ÷ predicted Eq. 7 cost against the
    ratio of the era's first epoch, ``REPLAN_FACTOR`` either way."""

    def test_replans_on_drift(self, universe, queries):
        params = CostParameters()
        calm, burst = calm_then_burst(universe)
        stats = measure_statistics(calm, FeedingGraph(queries).nodes)
        first = plan(queries, stats, memory=3000, params=params)
        registry = MetricsRegistry()
        live = LiveStreamSystem(SCHEMA, queries, first, params=params,
                                registry=registry)
        live.push(calm.columns, calm.timestamps)
        live.push(burst.columns, burst.timestamps)
        live.finish()
        # Exactly one re-plan: judged on the first burst epoch (2), it
        # lands at epoch 3, and the new era calibrates to the burst.
        assert [epoch for epoch, _ in live.reconfigurations] == [3]
        assert live.reconfigurations[0][1] != first.configuration
        assert registry.counter("live.replans").value == 1
        (event,) = [e for e in registry.events if e.name == "replan"]
        assert event.fields["epoch"] == 2
        assert event.fields["predicted_cost"] == first.predicted_cost
        assert event.fields["ratio"] > \
            REPLAN_FACTOR * event.fields["baseline"]
        new_plan = live.eras[-1].plan
        assert (new_plan.memory, new_plan.algorithm) == (3000, "gcsl")
        assert [r.predicted_cost for r in live.epoch_reports] == \
            [first.predicted_cost] * 3 + [new_plan.predicted_cost]
        # No worse than the sketch-drift controller this rule replaced
        # (re-plans at epochs 1, 3 and 4, 55.588 per record).
        assert cost_per_record(live) <= 55.588

    def test_stable_stream_does_not_replan_constantly(self, universe,
                                                      queries):
        data = uniform_dataset(universe, 8000, duration=8.0, seed=3)
        stats = measure_statistics(data, FeedingGraph(queries).nodes)
        first = plan(queries, stats, memory=800)
        live = LiveStreamSystem(SCHEMA, queries, first)
        live.push(data.columns, data.timestamps)
        live.finish()
        assert live.reconfigurations == []
        era = live.eras[0]
        assert era.baseline == pytest.approx(
            live.epoch_reports[0].per_record_cost / first.predicted_cost)
        assert era.baseline_records == live.epoch_reports[0].records

    def test_initial_plan_from_sketches(self, universe, queries):
        """A first plan from KMV sketches predicts its own cost with a
        standing bias; the rule calibrates to it and stays quiet."""
        data = uniform_dataset(universe, 8000, duration=8.0, seed=4)
        collector = StreamStatisticsCollector(FeedingGraph(queries).nodes,
                                              k=16)
        collector.observe(data.head(400).columns)
        first = plan(queries, collector.statistics(), memory=800)
        live = LiveStreamSystem(SCHEMA, queries, first)
        live.push(data.columns, data.timestamps)
        live.finish()
        ratios = [r.per_record_cost / r.predicted_cost
                  for r in live.epoch_reports]
        assert abs(ratios[0] - 1.0) > 0.1  # the model is visibly off
        assert live.reconfigurations == []

    def test_small_epochs_are_not_judged(self, universe, queries):
        """An epoch under half the era's first epoch is never judged,
        however far its ratio strays."""
        calm, burst = calm_then_burst(universe)
        stats = measure_statistics(calm, FeedingGraph(queries).nodes)
        first = plan(queries, stats, memory=3000)
        live = LiveStreamSystem(SCHEMA, queries, first)
        live.push(calm.columns, calm.timestamps)
        part = burst.head(900)  # a burst epoch of 900 < 1980/2
        live.push(part.columns, part.timestamps)
        live.finish()
        assert [r.records for r in live.epoch_reports] == [1980, 2020, 900]
        assert live.epoch_reports[-1].per_record_cost > \
            10 * REPLAN_FACTOR * live.epoch_reports[0].per_record_cost
        assert live.reconfigurations == []

    def test_a_staged_swap_is_never_overridden(self, universe, queries):
        """While a caller's swap is staged the rule stays out of the
        way: the caller's plan lands, and the new era judges afresh."""
        calm, burst = calm_then_burst(universe)
        stats = measure_statistics(calm, FeedingGraph(queries).nodes)
        first = plan(queries, stats, memory=3000)
        flat = plan(queries, stats, memory=3000, algorithm="none")
        live = LiveStreamSystem(SCHEMA, queries, first)
        live.push(calm.columns, calm.timestamps)
        part = burst.head(10)  # epoch 2 opens
        live.push(part.columns, part.timestamps)
        live.reconfigure(flat)
        live.push({a: burst.columns[a][10:] for a in SCHEMA.attributes},
                  burst.timestamps[10:])
        live.finish()
        assert live.reconfigurations == [(3, flat.configuration)]
        assert live.eras[-1].plan is flat

    def test_a_replan_the_budget_cannot_fit_keeps_the_plan(
            self, universe, queries, monkeypatch):
        """A planner failure never escapes ``push``: the running plan
        stays and the era re-calibrates to the epoch that drifted."""
        from repro.errors import AllocationError
        from repro.gigascope import online

        def no_budget(*args, **kwargs):
            raise AllocationError("budget too small")

        calm, burst = calm_then_burst(universe)
        stats = measure_statistics(calm, FeedingGraph(queries).nodes)
        first = plan(queries, stats, memory=3000)
        monkeypatch.setattr(online, "plan", no_budget)
        live = LiveStreamSystem(SCHEMA, queries, first)
        live.push(calm.columns, calm.timestamps)
        live.push(burst.columns, burst.timestamps)
        live.finish()
        assert live.reconfigurations == []
        drifted = live.epoch_reports[2]
        assert live.eras[0].baseline == pytest.approx(
            drifted.per_record_cost / first.predicted_cost)
        assert live.eras[0].baseline_records == drifted.records
