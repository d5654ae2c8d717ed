"""``StreamService`` under the group-by oracle, over random schedules.

``tests/gigascope/test_oracle.py`` holds three runtimes to an
``np.unique`` group-by that imports nothing from the system; here the
service joins them. A schedule draws ``push`` batch sizes,
``register``/``retire`` of tenants over a set of group-bys (one may
contain another, so a tenant's query may feed another's),
``answers`` calls, ``finish`` (possibly mid-epoch, so later records
reopen the epoch it closed) and ``checkpoint``→``restore`` at random
points. The expected lease windows come from a model of the contract,
not from the service's own lease records: a change made after a record
of epoch ``e`` was pushed takes effect from epoch ``e + 1``, whether
``e`` is still open or was closed by ``finish``; a registration before
any data covers the whole stream; a retirement before any data drops
the lease.

Each ``answers`` call must give, for every lease, exactly the oracle's
answer over the *flushed* records (those of an epoch a later record has
left, and those pushed before a ``finish``) of every epoch the window
covers, and no other epoch: an epoch reopened after ``finish`` answers
with the records it held when it was closed.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import StreamService
from repro.errors import AdmissionError, SchemaError
from repro.gigascope.records import Dataset
from tests.gigascope.test_oracle import oracle
from tests.service.conftest import EPOCH, SCHEMA, query

NAMES = SCHEMA.attributes
TENANTS = ("t0", "t1", "t2")


def stream(seed, n, domain):
    rng = np.random.default_rng(seed)
    columns = {a: rng.integers(0, domain, size=n) for a in NAMES}
    return Dataset(SCHEMA, columns,
                   np.sort(rng.uniform(0.0, 6 * EPOCH, size=n)))


@st.composite
def group_by_sets(draw):
    """Distinct group-by labels; one may contain another."""
    group_bys = draw(st.lists(
        st.frozensets(st.sampled_from(NAMES), min_size=1, max_size=3),
        min_size=1, max_size=4, unique=True))
    return ["".join(sorted(q)) for q in group_bys]


#: One step: a batch of records (maybe none), then one control call.
steps = st.tuples(
    st.sampled_from([0, 1, 40, 150, 300]),
    st.one_of(
        st.tuples(st.sampled_from(["register", "retire"]),
                  st.sampled_from(TENANTS), st.integers(0, 3)),
        st.tuples(st.sampled_from(["answers", "finish", "checkpoint"]))))


class Schedule:
    """The service, the records pushed so far and the modelled windows
    ``{(tenant, group-by label): [start, end)}`` (None = unbounded)."""

    def __init__(self, dataset, directory: Path):
        self.dataset = dataset
        self.epochs = np.floor(dataset.timestamps / EPOCH).astype(np.int64)
        self.service = StreamService(SCHEMA, memory=4000)
        self.pushed = 0
        self.flushed = 0
        self.active: set[tuple[str, str]] = set()
        self.windows: dict[tuple[str, str], list] = {}
        self.path = directory / "service.ckpt"

    def boundary(self):
        """The first epoch a change made now affects (None: all)."""
        if not self.pushed:
            return None
        return int(self.epochs[self.pushed - 1]) + 1

    def push(self, size):
        stop = min(self.pushed + size, len(self.dataset))
        if stop <= self.pushed:
            return
        batch = ({a: self.dataset.columns[a][self.pushed:stop]
                  for a in NAMES}, self.dataset.timestamps[self.pushed:stop])
        if not self.pushed and not self.active:
            # Everyone retired before the first record: nothing to run.
            with pytest.raises(SchemaError, match="no tenant"):
                self.service.push(*batch)
            return
        self.service.push(*batch)
        self.pushed = stop
        # Every epoch before the last record's has closed.
        self.flushed = max(self.flushed, int(np.searchsorted(
            self.epochs, self.epochs[stop - 1], side="left")))

    def finish(self):
        """Close the open epoch where the stream stands."""
        if not self.pushed:
            return
        self.service.finish()
        self.flushed = self.pushed

    def register(self, tenant, label):
        if (tenant, label) in self.active:
            return
        try:
            self.service.register(tenant, query(label))
        except AdmissionError:
            return
        self.active.add((tenant, label))
        self.windows[(tenant, label)] = [self.boundary(), None]

    def retire(self, tenant, label):
        if (tenant, label) not in self.active:
            return
        self.service.retire(tenant, label)
        self.active.discard((tenant, label))
        if not self.pushed:
            del self.windows[(tenant, label)]
        else:
            self.windows[(tenant, label)][1] = self.boundary()

    def checkpoint(self):
        if self.service.live is None:
            return
        self.service.checkpoint(self.path)
        self.service = StreamService.restore(self.path)

    def check(self, final=False):
        """Every tenant's answers against the oracle over the flushed
        records (all of them once the stream is ``final``)."""
        flushed = self.pushed if final else self.flushed
        for tenant in TENANTS:
            mine = {label: window
                    for (t, label), window in self.windows.items()
                    if t == tenant}
            if not mine:
                with pytest.raises(SchemaError, match="unknown tenant"):
                    self.service.answers(tenant)
                continue
            got = self.service.answers(tenant)
            assert set(got) == set(mine), tenant
            for label, (start, end) in mine.items():
                want = oracle(
                    {a: self.dataset.columns[a][:flushed] for a in NAMES},
                    self.dataset.timestamps[:flushed], tuple(label), EPOCH)
                want = {epoch: groups for epoch, groups in want.items()
                        if (start is None or epoch >= start)
                        and (end is None or epoch < end)}
                assert got[label] == want, (tenant, label, start, end)


@given(group_bys=group_by_sets(), data=st.data())
def test_service_matches_oracle(group_bys, data):
    dataset = stream(data.draw(st.integers(0, 2**16)),
                     data.draw(st.sampled_from([300, 1200])),
                     data.draw(st.sampled_from([3, 9])))
    with tempfile.TemporaryDirectory() as directory:
        schedule = Schedule(dataset, Path(directory))
        schedule.register(data.draw(st.sampled_from(TENANTS)),
                          group_bys[0])
        for size, (op, *args) in data.draw(st.lists(steps, max_size=10)):
            schedule.push(size)
            if op == "answers":
                schedule.check()
            elif op == "finish":
                schedule.finish()
            elif op == "checkpoint":
                schedule.checkpoint()
            else:
                tenant, index = args
                getattr(schedule, op)(tenant,
                                      group_bys[index % len(group_bys)])
        schedule.push(len(dataset))
        schedule.service.finish()
        schedule.check(final=True)


def test_registration_after_finish_matches_oracle(tmp_path):
    """Registered while no epoch is open, a tenant's window starts at the
    next epoch, and that epoch is answered for it."""
    schedule = Schedule(stream(5, 1200, 9), tmp_path)
    schedule.register("t0", "AB")
    schedule.push(300)
    schedule.finish()
    schedule.register("t1", "CD")
    schedule.check()
    schedule.push(300)
    schedule.retire("t0", "AB")
    schedule.finish()
    schedule.retire("t1", "CD")
    schedule.register("t2", "AC")
    schedule.push(1200)
    schedule.service.finish()
    schedule.check(final=True)


def test_nested_tenants_match_oracle(tmp_path):
    """The plan nests AB under the tenant query ABC, which answers and
    feeds it, across a checkpoint."""
    schedule = Schedule(stream(3, 1200, 9), tmp_path)
    schedule.register("t0", "ABC")
    schedule.register("t1", "AB")
    schedule.push(600)
    schedule.checkpoint()
    schedule.push(1200)
    schedule.service.finish()
    schedule.check(final=True)
