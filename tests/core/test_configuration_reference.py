"""``Configuration`` against the dict-tree class it replaced.

``tests/references.py`` keeps the dict-based ``RefConfiguration`` as it
was before the class became index arrays over a universe. Over random
relation sets, parent maps, notation strings (valid and malformed) and
``with_phantom``/``without_phantom`` walks, the production class must
answer every accessor, ``to_notation``, ``len`` and ``in`` exactly as the
reference does, or raise the same error with the same message; ``==`` and
``hash`` must agree whichever constructor built a configuration,
planner-built ones included, and a pickle must restore an equal one.
"""

import pickle

from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet
from repro.core.choosing.base import start_configuration
from repro.core.configuration import Configuration
from repro.core.feeding_graph import enumerate_phantoms
from repro.core.queries import QuerySet
from repro.core.statistics import RelationStatistics
from repro.errors import ReproError
from tests.references import RefConfiguration

NAMES = "ABCDEF"


def outcome(run):
    try:
        return run()
    except ReproError as exc:
        return type(exc), str(exc)


def snapshot(config):
    """Everything a reader can ask a configuration."""
    rels = config.relations
    return (
        rels, sorted(config.queries, key=AttributeSet.sort_key),
        config.phantoms, config.raw_relations, config.leaves,
        [(config.parent(r), config.children(r), config.ancestors(r),
          config.depth(r), config.is_raw(r), config.is_leaf(r))
         for r in rels],
        config.to_notation(), str(config), len(config),
        [AttributeSet(name) in config for name in NAMES],
    )


def same(config, ref):
    assert snapshot(config) == snapshot(ref)
    rebuilt = Configuration({r: ref.parent(r) for r in ref.relations},
                            ref.queries)
    assert config == rebuilt and hash(config) == hash(rebuilt)
    restored = pickle.loads(pickle.dumps(config))
    assert restored == config and snapshot(restored) == snapshot(ref)


@st.composite
def relation_sets(draw):
    """1-9 distinct relations on at most 6 attributes."""
    names = NAMES[:draw(st.integers(1, 6))]
    return [AttributeSet(rel) for rel in draw(st.lists(
        st.frozensets(st.sampled_from(names), min_size=1),
        min_size=1, max_size=9, unique=True))]


@given(relations=relation_sets(), data=st.data())
def test_nested_matches_from_relations(relations, data):
    """Queries hold every leaf (plus any others); sometimes a leaf is
    left out or a foreign query put in, which both must reject alike."""
    full = RefConfiguration.from_relations(relations, relations)
    queries = set(full.leaves) | set(data.draw(st.sets(
        st.sampled_from(relations))))
    tweak = data.draw(st.sampled_from(["valid", "drop-leaf", "foreign"]))
    if tweak == "drop-leaf":
        queries.discard(data.draw(st.sampled_from(full.leaves)))
    elif tweak == "foreign":
        queries.add(AttributeSet("Z"))
    got = outcome(lambda: Configuration.nested(relations, queries))
    want = outcome(lambda: RefConfiguration.from_relations(relations,
                                                           queries))
    if isinstance(want, tuple):
        assert got == want
    else:
        same(got, want)
        assert got == Configuration.from_notation(want.to_notation(),
                                                  queries)


@given(relations=relation_sets(), data=st.data())
def test_parent_maps_match(relations, data):
    """Any parent map, valid or not: a parent may be uninstantiated, a
    superset, unrelated or missing entirely."""
    pool = relations + [AttributeSet("Z")]
    parent = {rel: data.draw(st.sampled_from([None, *pool]))
              for rel in relations}
    queries = data.draw(st.sets(st.sampled_from(pool)))
    got = outcome(lambda: Configuration(parent, queries))
    want = outcome(lambda: RefConfiguration(parent, queries))
    if isinstance(want, tuple):
        assert got == want
    else:
        same(got, want)


LABELS = ["A", "B", "AB", "BC", "CD", "ABC", "BCD", "ABCD", "A1"]


@given(st.one_of(
    st.lists(st.sampled_from(LABELS + ["(", ")", " ", "  "]),
             max_size=14).map("".join),
    st.lists(st.sampled_from(LABELS + ["(", ")"]), max_size=14)
    .map(" ".join)))
def test_notation_matches(text):
    got = outcome(lambda: Configuration.from_notation(text))
    want = outcome(lambda: RefConfiguration.from_notation(text))
    if isinstance(want, tuple):
        assert got == want
    else:
        same(got, want)


@given(relations=relation_sets(), data=st.data())
def test_surgery_walks_match(relations, data):
    """A walk of adds and removes, any relation tried; both classes step
    or fail together."""
    full = RefConfiguration.from_relations(relations, relations)
    queries = full.leaves
    ref = RefConfiguration.flat(queries)
    config = Configuration.flat(queries)
    for _ in range(data.draw(st.integers(1, 8))):
        rel = data.draw(st.sampled_from(relations))
        if data.draw(st.booleans()):
            step, ref_step = config.with_phantom, ref.with_phantom
        else:
            step, ref_step = config.without_phantom, ref.without_phantom
        got, want = outcome(lambda: step(rel)), outcome(lambda: ref_step(rel))
        if isinstance(want, tuple):
            assert got == want
            continue
        same(got, want)
        config, ref = got, want


@given(data=st.data())
def test_planner_built_match(data):
    """A planner configuration lives on a universe that also holds the
    candidates it has not instantiated. Grown phantom by phantom, each
    step reads like the reference's ``with_phantom`` (or both refuse the
    phantom), and equals and hashes like a configuration built from its
    parent map."""
    names = NAMES[:data.draw(st.integers(2, 5))]
    group_bys = data.draw(st.lists(
        st.frozensets(st.sampled_from(names), min_size=1, max_size=3),
        min_size=1, max_size=5, unique=True))
    queries = QuerySet.counts(["".join(sorted(q)) for q in group_bys])
    candidates = [rel for rel in enumerate_phantoms(queries.group_bys)
                  if data.draw(st.booleans())]
    stats = RelationStatistics(
        {rel: 10.0 for rel in [*queries.group_bys, *candidates]})
    config = start_configuration(queries, stats)
    ref = RefConfiguration.from_relations(queries.group_bys,
                                          queries.group_bys)
    same(config, ref)
    rels = config.universe.rels
    for _ in range(data.draw(st.integers(0, 4))):
        p = data.draw(st.sampled_from(range(len(rels))))
        if rels[p] in config:
            continue
        grown = config.with_phantom_at(p)
        want = outcome(lambda: ref.with_phantom(rels[p]))
        if grown is None:
            assert isinstance(want, tuple)
            assert outcome(lambda: config.with_phantom(rels[p])) == want
            continue
        assert grown.universe is config.universe
        same(grown, want)
        config, ref = grown, want
