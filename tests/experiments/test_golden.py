"""The reproduced paper outputs, number for number.

Every experiment's reduced-scale output (``repro-experiments run all``)
must equal the committed golden in ``golden/run_all.txt`` once the
wall-clock fields are normalised. A change that is meant to move paper
numbers regenerates the golden with ``regenerate_golden.py`` and shows the
diff in review; the shape claims in ``test_experiments.py`` keep judging
the paper's conclusions either way.
"""

import difflib

import pytest

from repro.experiments.registry import experiment_ids
from tests.experiments.regenerate_golden import (
    GOLDEN,
    normalise,
    run_all,
    sections,
)


@pytest.fixture(scope="module")
def produced():
    return sections(normalise(run_all()))


@pytest.fixture(scope="module")
def golden():
    return sections(GOLDEN.read_text())


def test_golden_covers_every_experiment(golden):
    assert list(golden) == experiment_ids()


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_output_matches_golden(produced, golden, experiment_id):
    want = golden.get(experiment_id, "")
    got = produced.get(experiment_id, "")
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(), got.splitlines(),
            f"golden/{experiment_id}", f"produced/{experiment_id}",
            lineterm="")
        pytest.fail("output differs from the golden "
                    "(regenerate_golden.py rewrites it):\n"
                    + "\n".join(diff), pytrace=False)


def test_normalise_hides_only_wall_clock_fields():
    text = ("== timing: Planning time ==\n"
            "M (units)  GCSL (ms)  GS (ms)\n"
            "---------  ---------  -------\n"
            "    20000     4.5392   1.6589\n"
            "note: 4.5 ms\n"
            "[timing finished in 1.0s]\n"
            "== fig6: x ==\n"
            "--  --\n"
            " 2  0.0747\n"
            "[fig6 finished in 12.3s]\n")
    assert normalise(text).splitlines() == [
        "== timing: Planning time ==",
        "M (units)  GCSL (ms)  GS (ms)",
        "<rule>",
        "20000  <ms>  <ms>",
        "note: 4.5 ms",
        "[timing finished in <s>]",
        "== fig6: x ==",
        "--  --",
        " 2  0.0747",
        "[fig6 finished in <s>]",
    ]
