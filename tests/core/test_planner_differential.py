"""The index-form planner against the dict-based planner it replaced.

``tests/references.py`` keeps the old planner verbatim: ``with_phantom``
on parent maps, SL/PL, ``spaces_to_allocation``, Eqs. 7/8 and the GC/GS
loops. Over random query sets (1-7 queries on 4-6 attributes, antichains
and nested sets, memory from below the one-bucket minimum to generous,
``phi`` 0.5/1/2, clustered or not, one or two counters) every chooser
``plan()`` runs must return the same configuration, fractional and
rounded buckets, predicted cost, flush cost and trajectory, bit for bit,
or raise the same error.

The one intended difference: when GS's phi-sized query tables do not fit
and scaling them down floors a table at one bucket, the old code never
paid for that bucket (its allocation exceeded the budget). There the new
one must fit the budget or raise the one-bucket error.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.choosing import GreedySpace, gcpl, gcsl
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters
from repro.core.optimizer import plan
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import AllocationError, ReproError
from tests.references import ref_plan, reference_phantoms, space_used

PARAMS = CostParameters()
ALGORITHMS = ("gcsl", "gcpl", "gs", "none")


@st.composite
def problems(draw):
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
    for rel in phantoms:  # a phantom without statistics is never tried
        if draw(st.integers(0, 5)) == 0:
            del groups[rel]
    clustered = draw(st.booleans())
    flows = ({rel: float(draw(st.integers(1, 6))) for rel in groups}
             if clustered else {})
    stats = RelationStatistics(groups, flows,
                               counters=draw(st.sampled_from([1, 2])))
    floor = sum(stats.entry_units(q) for q in queries)
    roomy = sum(g * stats.entry_units(rel) for rel, g in groups.items())
    memory = draw(st.sampled_from([
        floor - 1, floor, floor + 0.5, 1.5 * floor,
        0.05 * roomy, 0.3 * roomy, roomy, 3.0 * roomy]))
    phi = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return (QuerySet.counts([q.label() for q in queries]), stats, memory,
            phi, clustered)


def choose(algorithm, phi, clustered, *args):
    if algorithm == "gs":
        return GreedySpace(phi=phi, clustered=clustered).choose(*args)
    if algorithm == "gcpl":
        return gcpl(clustered=clustered).choose(*args)
    if algorithm == "none":
        return gcsl(clustered=clustered).start(*args)
    return gcsl(clustered=clustered).choose(*args)


def outcome(run):
    try:
        return run()
    except ReproError as exc:
        return type(exc), str(exc)


def choice_key(result):
    return (result.configuration, list(result.allocation.buckets.items()),
            result.cost,
            [(s.phantom, s.configuration, s.cost) for s in result.trajectory])


def produced(queries, stats, memory, algorithm, phi, clustered):
    result = choose(algorithm, phi, clustered, queries, stats, memory,
                    PARAMS)
    the_plan = plan(queries, stats, memory, PARAMS, algorithm=algorithm,
                    phi=phi, clustered=clustered)
    assert the_plan.configuration == result.configuration
    return (choice_key(result), list(the_plan.allocation.buckets.items()),
            the_plan.predicted_cost, the_plan.predicted_flush_cost)


def referenced(queries, stats, memory, algorithm, phi, clustered):
    result, allocation, cost, flush = ref_plan(
        queries, stats, memory, PARAMS, algorithm, phi, clustered)
    return (choice_key(result), list(allocation.buckets.items()), cost,
            flush)


def gs_floors(queries, stats, memory, phi):
    """Whether the old GS scaled a table of the query-only
    configuration below one bucket (it accepts no phantom then)."""
    start = Configuration.nested(queries.group_bys, queries.group_bys)
    sizes = [max(phi * stats.group_count(rel), 1.0)
             for rel in start.relations]
    used = sum(b * stats.entry_units(rel)
               for rel, b in zip(start.relations, sizes))
    return used > memory and any(b * (memory / used) < 1.0 for b in sizes)


@given(problem=problems())
@settings(max_examples=200)
def test_planner_matches_dict_reference(problem):
    queries, stats, memory, phi, clustered = problem
    for algorithm in ALGORITHMS:
        args = (queries, stats, memory, algorithm, phi, clustered)
        got = outcome(lambda: produced(*args))
        if algorithm == "gs" and gs_floors(queries, stats, memory, phi):
            if isinstance(got, tuple) and got[0] is AllocationError:
                assert "cannot hold one bucket per relation" in got[1] \
                    or "too small for integer allocation" in got[1]
            else:
                result = GreedySpace(phi=phi, clustered=clustered).choose(
                    queries, stats, memory, PARAMS)
                assert space_used(result.allocation, stats) <= \
                    memory * (1 + 1e-12)
            continue
        assert got == outcome(lambda: referenced(*args)), algorithm
