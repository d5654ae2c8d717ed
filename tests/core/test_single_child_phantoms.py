"""Single-child phantom chains: where the paper's pruning lemma fails.

The paper states "a phantom that feeds less than two relations is never
beneficial". Under its own cost model with c2 >> c1 that is false: a
chain phantom filters expensive leaf evictions at the price of cheap
updates. This module pins a concrete counterexample (found by a
randomized search of GCSL against EPES) and checks the EPES prune flag.
"""


from repro.core import QuerySet, RelationStatistics
from repro.core.choosing import ExhaustiveChoice, gcsl
from repro.core.collision import LookupModel
from repro.core.configuration import Configuration
from repro.core.cost_model import CostParameters, per_record_cost
from repro.core.allocation import ExhaustiveAllocator

# A distilled instance: B is huge (saturates its table), AB barely bigger.
STATS = RelationStatistics.from_counts({
    "A": 67, "B": 3431, "C": 200,
    "AB": 3691, "AC": 379, "BC": 4945, "ABC": 7579,
})
QUERIES = QuerySet.counts(["A", "B", "C"])
PARAMS = CostParameters()  # c2/c1 = 50
MEMORY = 20_000.0


def es_cost(config):
    alloc = ExhaustiveAllocator().allocate(config, STATS, MEMORY, PARAMS)
    return per_record_cost(config, STATS, alloc.buckets, LookupModel(),
                           PARAMS)


class TestFilterChains:
    def test_single_child_phantom_is_beneficial_here(self):
        """AB feeding only B beats every configuration without it."""
        chain = Configuration.from_notation("AB(B) AC(A C)")
        no_chain = Configuration.from_notation("B AC(A C)")
        assert es_cost(chain) < es_cost(no_chain)

    def test_greedy_finds_the_chain(self):
        result = gcsl().choose(QUERIES, STATS, MEMORY, PARAMS)
        single_child = [p for p in result.configuration.phantoms
                        if len(result.configuration.children(p)) == 1]
        assert single_child  # the filter chain was worth choosing

    def test_prune_flag_controls_the_oracle(self):
        pruned = ExhaustiveChoice().choose(QUERIES, STATS, MEMORY, PARAMS)
        strict = ExhaustiveChoice(prune_single_child=False).choose(
            QUERIES, STATS, MEMORY, PARAMS)
        # The strict oracle may use chains and must never be worse.
        assert strict.cost <= pruned.cost + 1e-9
        # On this instance it is strictly better (the lemma's failure).
        assert strict.cost < pruned.cost * 0.99

    def test_strict_oracle_bounds_greedy_here(self):
        greedy = gcsl().choose(QUERIES, STATS, MEMORY, PARAMS)
        strict = ExhaustiveChoice(prune_single_child=False).choose(
            QUERIES, STATS, MEMORY, PARAMS)
        assert strict.cost <= greedy.cost * 1.01
