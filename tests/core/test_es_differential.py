"""ES and admission on the planner's forests against their old evaluator.

``tests/references.py`` keeps ES and admission as they were when they
priced allocations through their own evaluator: the scalar ``cost``, the
batched ``cost_many``, ES's ``allocate`` and admission's candidate rows
and check. Over random configurations (1-7 queries on 4-6 attributes,
nested query sets, deep phantom chains and GC trajectory steps), memory
from the one-bucket minimum to generous, the lookup and linear models,
clustered or not, the production code must return the same buckets, the
same candidate prices and the same admission verdicts, bit for bit, or
raise the same error.
"""

import math

from hypothesis import given, strategies as st

from repro.core.allocation import ExhaustiveAllocator
from repro.core.attributes import AttributeSet
from repro.core.choosing import gcsl
from repro.core.collision.lookup import LinearModel, LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.queries import AggregationQuery, QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AdmissionError, ConfigurationError, ReproError
from repro.service import AdmissionPolicy, QueryRegistry
from repro.service.admission import _candidate_costs, check_admission
from tests.references import (
    RefCostEvaluator,
    RefExhaustiveAllocator,
    ref_candidate_rows,
    ref_check_admission,
    ref_with_phantom,
    reference_phantoms,
)

PARAMS = CostParameters()


@st.composite
def configurations(draw):
    """A query set, statistics for it and its phantoms, and one
    configuration over them."""
    names = "ABCDEF"[:draw(st.sampled_from([4, 5, 6]))]
    size = draw(st.sampled_from(range(1, 8)))
    group_bys = draw(st.lists(
        st.frozensets(st.sampled_from(names), min_size=1, max_size=3),
        min_size=size, max_size=size, unique=True))
    if draw(st.booleans()):  # an antichain: drop every query in another
        group_bys = [q for q in group_bys
                     if not any(q < other for other in group_bys)]
    queries = [AttributeSet(q) for q in group_bys]
    phantoms = reference_phantoms(queries)
    domain = {name: draw(st.integers(2, 40)) for name in names}
    cap = draw(st.sampled_from([300.0, 3_000.0, 30_000.0]))
    groups = {rel: min(float(math.prod(domain[n] for n in rel)), cap)
              for rel in queries + phantoms}
    flows = {rel: float(draw(st.integers(1, 6))) for rel in groups}
    stats = RelationStatistics(groups, flows,
                               counters=draw(st.sampled_from([1, 2])))
    config = Configuration.nested(queries, queries)
    shape = draw(st.sampled_from(["queries", "deep", "gc"]))
    if shape == "deep":
        # Widest phantoms first, so later ones nest under earlier ones.
        count = draw(st.sampled_from(range(min(len(phantoms), 3) + 1)))
        chosen = draw(st.permutations(phantoms))[:count]
        for phantom in sorted(chosen, key=len, reverse=True):
            try:
                config = ref_with_phantom(config, phantom)
            except ConfigurationError:
                pass
    elif shape == "gc":
        roomy = sum((0.3 * g + 1.0) * stats.entry_units(rel)
                    for rel, g in groups.items())
        steps = gcsl().choose(QuerySet.counts([q.label() for q in queries]),
                              stats, roomy, PARAMS).trajectory
        config = draw(st.sampled_from(steps)).configuration
    return queries, stats, config


def memories(config, stats):
    floor = sum(stats.entry_units(rel) for rel in config.relations)
    roomy = sum(stats.group_count(rel) * stats.entry_units(rel)
                for rel in config.relations)
    return st.sampled_from([floor - 1, floor, floor + 0.5, 1.5 * floor,
                            0.05 * roomy, 0.3 * roomy, roomy, 3.0 * roomy])


def outcome(run):
    try:
        return run()
    except ReproError as exc:
        return type(exc), str(exc)


@given(data=st.data())
def test_es_matches_frozen_evaluator(data):
    _, stats, config = data.draw(configurations())
    memory = data.draw(memories(config, stats))
    model = data.draw(st.sampled_from([LookupModel(), LinearModel()]))
    clustered = data.draw(st.booleans())

    def produced():
        return list(ExhaustiveAllocator(model, clustered).allocate(
            config, stats, memory, PARAMS).buckets.items())

    def referenced():
        return list(RefExhaustiveAllocator(
            model=model, clustered=clustered).allocate(
                config, stats, memory, PARAMS).buckets.items())

    assert outcome(produced) == outcome(referenced)


@given(data=st.data())
def test_admission_prices_match_cost_many_lanes(data):
    _, stats, config = data.draw(configurations())
    memory = data.draw(memories(config, stats))
    if memory <= 0:
        return
    evaluator = RefCostEvaluator(config, stats, PARAMS)
    lanes = evaluator.cost_many(ref_candidate_rows(evaluator, stats,
                                                   memory)).tolist()
    assert _candidate_costs(config.topological(stats), memory,
                            PARAMS) == lanes


def _verdict(check, *args):
    try:
        check(*args)
    except AdmissionError as exc:
        return (str(exc), exc.constraint, exc.tenant, exc.required,
                exc.limit)
    return None


@given(data=st.data())
def test_check_admission_matches_frozen(data):
    queries, stats, _ = data.draw(configurations())
    registry = QueryRegistry()
    tenants = ["t0", "t1", "t2"]
    for q in queries[:-1]:
        registry.register(data.draw(st.sampled_from(tenants)),
                          AggregationQuery(q, epoch_seconds=1.0))
    candidate = AggregationQuery(queries[-1], epoch_seconds=1.0)
    tenant = data.draw(st.sampled_from(tenants))
    flat = Configuration.flat(
        registry.physical_query_set(extra=candidate).group_bys)
    memory = data.draw(memories(flat, stats))
    if memory <= 0:
        return
    evaluator = RefCostEvaluator(flat, stats, PARAMS)
    lanes = evaluator.cost_many(ref_candidate_rows(evaluator, stats,
                                                   memory))
    best = float(lanes.min())
    policy = AdmissionPolicy(
        memory=memory,
        tenant_quota=data.draw(st.sampled_from([None, 50.0, 5_000.0])),
        max_cost_per_record=data.draw(st.sampled_from(
            [None, 0.5 * best, best, 2.0 * best])),
        phi=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    args = (policy, registry, tenant, candidate, stats, PARAMS)
    assert _verdict(check_admission, *args) == \
        _verdict(ref_check_admission, *args)
