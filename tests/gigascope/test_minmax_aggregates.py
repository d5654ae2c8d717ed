"""End-to-end tests for min/max aggregates through the phantom machinery."""

import numpy as np
import pytest

from repro import (
    Aggregate,
    AggregationQuery,
    AttributeSet,
    Configuration,
    QuerySet,
    StreamSchema,
    StreamSystem,
)
from repro.gigascope.records import Dataset

from tests.references import reference_report

SCHEMA = StreamSchema(("A", "B"), value_columns=("len",))


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    n = 4000
    return Dataset(
        SCHEMA,
        {"A": rng.integers(0, 9, n), "B": rng.integers(0, 6, n)},
        np.sort(rng.uniform(0, 4.0, n)),
        {"len": rng.uniform(40, 1500, n)},
    )


def exact_minmax(data, attrs, epoch_seconds, fn):
    epochs = np.floor(data.timestamps / epoch_seconds).astype(int)
    out: dict = {}
    for i in range(len(data)):
        key = (int(epochs[i]),
               tuple(int(data.columns[a][i]) for a in attrs))
        value = float(data.values["len"][i])
        out[key] = fn(out.get(key, value), value)
    return out


@pytest.mark.parametrize("kind,fn", [("min", min), ("max", max)])
@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("notation", ["A B", "AB(A B)"])
def test_minmax_exact_through_any_configuration(data, kind, fn, engine,
                                                notation):
    """min/max answers are exact regardless of phantoms, through the
    engine and through the sequential reference."""
    query = AggregationQuery(AttributeSet.parse("A"),
                             Aggregate(kind, "len"), epoch_seconds=2.0)
    other = AggregationQuery(AttributeSet.parse("B"), epoch_seconds=2.0)
    queries = QuerySet([query, other])
    config = Configuration.from_notation(notation)
    buckets = {rel: 4 for rel in config.relations}
    if engine == "vectorized":
        report = StreamSystem(data, queries, config, buckets,
                              value_column="len").run()
    else:
        report = reference_report(data, queries, config, buckets, "len")
    exact = exact_minmax(data, query.group_by, 2.0, fn)
    for epoch, answers in report.answers(query).items():
        for group, value in answers.items():
            assert value == pytest.approx(exact[(epoch, group)])


def test_min_and_max_differ(data):
    q_min = AggregationQuery(AttributeSet.parse("A"),
                             Aggregate("min", "len"), epoch_seconds=4.0)
    q_max = AggregationQuery(AttributeSet.parse("A"),
                             Aggregate("max", "len"), epoch_seconds=4.0)
    config = Configuration.flat([AttributeSet.parse("A")])
    report = StreamSystem(data, QuerySet([q_min]), config,
                          {AttributeSet.parse("A"): 8},
                          value_column="len").run()
    # Both aggregates read off the same totals.
    epoch = next(iter(report.answers(q_min)))
    mins = report.result.hfta.query_answer(q_min, epoch)
    maxs = report.result.hfta.query_answer(q_max, epoch)
    for group in mins:
        assert mins[group] < maxs[group]


def test_minmax_requires_value_column(data):
    query = AggregationQuery(AttributeSet.parse("A"),
                             Aggregate("max", "len"), epoch_seconds=2.0)
    config = Configuration.flat([AttributeSet.parse("A")])
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        StreamSystem(data, QuerySet([query]), config,
                     {AttributeSet.parse("A"): 8})


def test_sql_minmax_parses():
    from repro.core.sql import parse_query
    q = parse_query("select A, min(len) from R group by A").query
    assert q.aggregate.kind == "min" and q.aggregate.column == "len"
    q = parse_query("select A, max(len) from R group by A").query
    assert q.aggregate.kind == "max"
