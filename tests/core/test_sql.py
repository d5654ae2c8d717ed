"""Tests for the GSQL-like query parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.sql import parse_queries, parse_query
from repro.errors import NotationError, SchemaError


class TestPaperQueries:
    def test_q0(self):
        """The paper's Q0: select A, tb, count(*) as cnt ..."""
        parsed = parse_query(
            "select A, tb, count(*) as cnt from R "
            "group by A, time/60 as tb")
        q = parsed.query
        assert q.group_by == AttributeSet.parse("A")
        assert q.epoch_seconds == 60.0
        assert q.aggregate.kind == "count"
        assert parsed.aggregate_alias == "cnt"
        assert parsed.epoch_alias == "tb"
        assert parsed.stream == "R"

    def test_q1_q2_q3(self):
        qs = parse_queries([
            "select A, count(*) from R group by A",
            "select B, count(*) from R group by B",
            "select C, count(*) from R group by C",
        ])
        assert [g.label() for g in qs.group_bys] == ["A", "B", "C"]
        assert qs.epoch_seconds == 60.0  # default

    def test_intro_heavy_hitter_query(self):
        """'for every source IP and 5 minute interval, report the total
        number of packets, provided this number is more than 100'."""
        parsed = parse_query(
            "select srcIP, count(*) from packets "
            "group by srcIP, time/300 having count(*) > 100")
        q = parsed.query
        assert q.group_by == AttributeSet.of("srcIP")
        assert q.epoch_seconds == 300.0
        assert q.having_min == 101

    def test_avg_packet_length_query(self):
        """'for every destination IP, destination port and 5 minute
        interval, report the average packet length'."""
        parsed = parse_query(
            "select dstIP, dstPort, avg(len) from packets "
            "group by dstIP, dstPort, time/300")
        q = parsed.query
        assert q.group_by == AttributeSet.of("dstIP", "dstPort")
        assert q.aggregate.kind == "avg" and q.aggregate.column == "len"


class TestGrammar:
    def test_keywords_case_insensitive(self):
        q = parse_query("SELECT a, COUNT(*) FROM r GROUP BY a").query
        assert q.group_by == AttributeSet.of("a")

    def test_sum_aggregate(self):
        q = parse_query("select A, sum(bytes) from R group by A").query
        assert q.aggregate.kind == "sum" and q.aggregate.column == "bytes"

    def test_having_ge(self):
        """Thresholds are read exactly: ``> N`` is ``floor(N) + 1``,
        ``>= N`` is ``ceil(N)``, with no float rounding past 2**53."""
        for having, having_min in [
                (">= 10", 10), (">= 2.5", 3), ("> 2.5", 3), ("> 2", 3),
                (">= 0", 0), ("> 9007199254740993", 9007199254740994),
                (">= 9007199254740993", 9007199254740993)]:
            q = parse_query("select A, count(*) from R group by A "
                            f"having count(*) {having}").query
            assert q.having_min == having_min, having

    def test_no_group_by_uses_select_list(self):
        q = parse_query("select A, B, count(*) from R").query
        assert q.group_by == AttributeSet.parse("AB")

    def test_time_in_select_only(self):
        q = parse_query("select A, time/30, count(*) from R").query
        assert q.epoch_seconds == 30.0

    def test_default_epoch_override(self):
        q = parse_query("select A, count(*) from R group by A",
                        default_epoch=5.0).query
        assert q.epoch_seconds == 5.0

    def test_attribute_alias_in_group_by(self):
        q = parse_query("select A, count(*) from R "
                        "group by A as src").query
        assert q.group_by == AttributeSet.of("A")


class TestErrors:
    @pytest.mark.parametrize("text", [
        "select from R",
        "select count(*) from R",                      # no grouping attr
        "select A, B, count(*) from R group by A",     # B not grouped
        "select A, count(*), sum(x) from R group by A",  # two aggregates
        "select A, count(*) from R group by A having count(*) = 5",
        "select A count(*) from R group by A",          # missing comma
        "select A, count(*) from R group by A extra",
        "select A, time/10, count(*) from R group by A, time/20",
        "select A, count(*) from R group by A, time/60, time/30",
        "select A, time/60, time/30, count(*) from R",
        "select A, count(*) from",
        "select A, count(*) from R group by A; drop table R",
    ])
    def test_rejected(self, text):
        with pytest.raises(NotationError):
            parse_query(text)

    def test_mixed_streams_rejected(self):
        with pytest.raises(NotationError):
            parse_queries([
                "select A, count(*) from R group by A",
                "select B, count(*) from S group by B",
            ])

    def test_mixed_epochs_rejected(self):
        with pytest.raises(SchemaError):
            parse_queries([
                "select A, count(*) from R group by A, time/10",
                "select B, count(*) from R group by B, time/20",
            ])


class TestWhereClause:
    def test_where_parses_to_predicate(self):
        from repro.core.sql import parse_query
        parsed = parse_query(
            "select A, count(*) from R where B > 10 and C <= 5 group by A")
        assert parsed.where is not None
        assert "B > 10" in str(parsed.where)
        assert parsed.where.referenced_columns() == {"B", "C"}

    def test_where_all_operators(self):
        from repro.core.sql import parse_query
        for op in ("=", "==", "!=", "<", "<=", ">", ">="):
            parsed = parse_query(
                f"select A, count(*) from R where B {op} 3 group by A")
            assert parsed.where is not None

    def test_parse_workload_returns_shared_where(self):
        from repro.core.sql import parse_workload
        queries, where = parse_workload([
            "select A, count(*) from R where B > 1 group by A",
            "select C, count(*) from R where B > 1 group by C",
        ])
        assert len(queries) == 2 and where is not None

    def test_parse_workload_without_where(self):
        from repro.core.sql import parse_workload
        queries, where = parse_workload(
            ["select A, count(*) from R group by A"])
        assert where is None

    def test_mismatched_where_rejected(self):
        from repro.core.sql import parse_workload
        with pytest.raises(NotationError):
            parse_workload([
                "select A, count(*) from R where B > 1 group by A",
                "select C, count(*) from R where B > 2 group by C",
            ])

    def test_parse_queries_refuses_where(self):
        with pytest.raises(NotationError):
            parse_queries(
                ["select A, count(*) from R where B > 1 group by A"])

    def test_where_end_to_end(self):
        """A WHERE-filtered workload through planning and execution."""
        import numpy as np
        from repro import Configuration, StreamSchema, StreamSystem
        from repro.core.sql import parse_workload
        from repro.gigascope.records import Dataset
        queries, where = parse_workload(
            ["select A, count(*) from R where B >= 2 group by A, time/10"])
        schema = StreamSchema(("A", "B"))
        data = Dataset(schema,
                       {"A": np.array([1, 1, 2, 2]),
                        "B": np.array([1, 2, 3, 1])},
                       np.arange(4.0))
        config = Configuration.flat(queries.group_bys)
        report = StreamSystem(data, queries, config,
                              {queries.group_bys[0]: 8},
                              where=where).run()
        answers = report.answers(next(iter(queries)))
        assert answers[0] == {(1,): 1.0, (2,): 1.0}


#: Tokens of the grammar and near misses: every keyword, names, numbers
#: (huge, zero, fractional), every symbol, and pieces the tokenizer
#: refuses.
_TOKENS = st.sampled_from(
    ["select", "from", "where", "and", "group", "by", "having", "as",
     "time", "count", "sum", "avg", "min", "max", "A", "B", "srcIP", "R",
     "tb", "0", "1", "60", "0.5", "1e400", "9" * 400, "(", ")", ",", "*",
     "/", "<", ">", "=", ">=", "<=", "==", "!=", ";", "-", "'", "é",
     ""])

_TEXTS = st.one_of(
    st.lists(_TOKENS, max_size=24).map(" ".join),
    st.text(max_size=60),
    # a valid query with one token dropped, doubled or swapped in
    st.tuples(st.integers(0, 12), _TOKENS, st.sampled_from(
        ["drop", "double", "swap"])).map(lambda case: _mutated(*case)))

_VALID = ("select A , tb , count ( * ) as cnt from R where B >= 2 "
          "group by A , time / 60 as tb having count ( * ) > 100").split()


def _mutated(at: int, token: str, how: str) -> str:
    words = list(_VALID)
    if how == "drop":
        del words[at]
    elif how == "double":
        words.insert(at, words[at])
    else:
        words[at] = token
    return " ".join(words)


@settings(max_examples=300)
@given(text=_TEXTS, other=_TEXTS)
def test_any_text_parses_or_raises_notation_error(text, other):
    """Whatever the text, the parser returns a query or raises
    :class:`NotationError`, never another exception. Queries that each
    parse may still not make one query set (two with one group-by, or
    with two epoch lengths): that is the ``QuerySet`` rule's
    :class:`SchemaError`, as ``test_mixed_epochs_rejected`` has it."""
    for parse in (lambda: parse_query(text),
                  lambda: parse_queries([text])):
        try:
            parse()
        except NotationError:
            pass
    try:
        parse_queries([text, other])
    except (NotationError, SchemaError):
        pass
