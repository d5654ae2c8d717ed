"""The load-bearing integration tests of the substrate.

Two invariants (DESIGN.md Section 7):

1. **Engine equivalence** — the vectorized engine and the sequential
   reference produce identical per-relation counters and identical HFTA
   contents for any configuration and any data (the hypothesis matrix
   is ``test_differential.py``).
2. **Aggregation correctness** — for any configuration, the per-(epoch,
   group) totals delivered to the HFTA equal the exact group-by answer;
   phantoms change cost, never results.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.gigascope.engine import simulate
from repro.gigascope.records import Dataset
from tests.hfta_totals import totals
from tests.references import (ABC_SCHEMA as SCHEMA, abc_stream,
                              assert_matches_reference as assert_equivalent)

CONFIGS = [
    "A B C",
    "AB(A B) C",
    "ABC(A B C)",
    "ABC(AB(A B) C)",
    "ABC(AC(A C) B)",
    "AB(A B) AC(C)",  # forest with two raws; AC feeds only C here
]


def random_dataset(n, seed, domain=4, duration=5.0):
    return abc_stream(seed, n, domain, duration, clustered=False)


def exact_groupby(dataset, attrs, epoch_seconds):
    """Ground-truth (epoch, group) -> (count, value_sum)."""
    out = defaultdict(lambda: [0, 0.0])
    epochs = np.floor(dataset.timestamps / epoch_seconds).astype(int)
    values = dataset.values.get("v")
    for i in range(len(dataset)):
        group = tuple(int(dataset.columns[a][i]) for a in attrs)
        entry = out[(int(epochs[i]), group)]
        entry[0] += 1
        if values is not None:
            entry[1] += float(values[i])
    return out


@pytest.mark.parametrize("notation", CONFIGS)
def test_hfta_answers_are_exact(notation):
    """Phantoms and tiny tables never change the final answers."""
    dataset = random_dataset(2000, seed=3, domain=5)
    config = Configuration.from_notation(notation)
    buckets = {rel: 2 for rel in config.relations}  # brutal collision rates
    result = simulate(dataset, config, buckets, epoch_seconds=2.0,
                      value_column="v")
    for leaf in config.leaves:
        exact = exact_groupby(dataset, leaf, 2.0)
        got = {}
        for epoch in result.hfta.epochs(leaf):
            for group, agg in totals(result.hfta, leaf, epoch).items():
                got[(epoch, group)] = (agg.count, agg.value_sum)
        assert {k: v[0] for k, v in got.items()} == \
            {k: v[0] for k, v in exact.items()}
        for key, (count, vsum) in got.items():
            assert vsum == pytest.approx(exact[key][1])


def test_weights_conserved_to_hfta():
    """Every record is counted exactly once at each leaf."""
    dataset = random_dataset(3000, seed=5)
    config = Configuration.from_notation("ABC(AB(A B) C)")
    buckets = {rel: 4 for rel in config.relations}
    result = simulate(dataset, config, buckets, epoch_seconds=1.0)
    for leaf in config.leaves:
        total = sum(agg.count
                    for epoch in result.hfta.epochs(leaf)
                    for agg in totals(result.hfta, leaf, epoch).values())
        assert total == len(dataset)


def test_empty_epochs_are_skipped():
    rng = np.random.default_rng(0)
    dataset = Dataset(
        SCHEMA,
        {name: rng.integers(0, 3, 10) for name in SCHEMA.attributes},
        np.concatenate([np.linspace(0, 0.5, 5),
                        np.linspace(10.0, 10.5, 5)]),
        {"v": rng.uniform(40, 1500, 10)},
    )
    config = Configuration.from_notation("AB(A B)")
    result = simulate(dataset, config, {rel: 4 for rel in config.relations},
                      epoch_seconds=1.0)
    assert result.n_epochs == 2


def test_single_bucket_tables():
    dataset = random_dataset(500, seed=9)
    config = Configuration.from_notation("ABC(A B C)")
    assert_equivalent(dataset, config,
                      {rel: 1 for rel in config.relations},
                      epoch_seconds=2.0)
