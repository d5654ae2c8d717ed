"""Shape tests for the paper-reproduction experiments.

These run every experiment at small scale and assert the *qualitative*
claims of the paper hold (who wins, how curves bend) — the quantitative
values are recorded by the benchmarks and EXPERIMENTS.md.
"""

import numpy as np
import pytest

from repro.experiments.registry import (
    REGISTRY,
    experiment_ids,
    run_experiment,
)

# Small-scale overrides so the whole module runs in tens of seconds.
SMALL = {"memories": (20_000, 60_000)}


@pytest.fixture(scope="module")
def results():
    """Cache of experiment results shared by the shape tests."""
    return {}


def get(results, experiment_id, runner=None, **kwargs):
    key = (experiment_id, tuple(sorted(kwargs.items())))
    if key not in results:
        fn = runner or REGISTRY[experiment_id]
        results[key] = fn(**kwargs)
    return results[key]


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        paper = {"fig5", "fig6", "fig7", "fig8", "fig9a", "fig9b",
                 "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14",
                 "fig15", "tab1", "tab2", "tab3", "timing"}
        extensions = {"ext_skew", "ext_concurrency"}
        assert set(experiment_ids()) == paper | extensions

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestCollisionModelExperiments:
    def test_fig5_measured_tracks_precise_model(self, results):
        result = get(results, "fig5", ratios=(1.0, 2.0, 4.0))
        precise = results_map(result, "precise model")
        for s in result.series:
            if not s.name.startswith("measured"):
                continue
            for x, y in zip(s.x, s.y):
                assert y == pytest.approx(precise[x], rel=0.25)

    def test_fig5_rough_model_underestimates_at_small_ratio(self, results):
        result = get(results, "fig5", ratios=(1.0, 2.0, 4.0))
        rough = results_map(result, "rough model")
        precise = results_map(result, "precise model")
        assert rough[1.0] == 0.0 < precise[1.0]

    def test_fig6_bell_with_negligible_tail(self, results):
        result = get(results, "fig6")
        s = result.series[0]
        ys = list(s.y)
        peak = max(ys)
        assert ys.index(peak) <= 4  # peak at small k
        assert ys[-1] < 0.01 * peak or ys[-1] < 1e-4

    def test_tab1_variation_small(self, results):
        result = get(results, "tab1")
        ours = result.series_by_name("variation (%)")
        assert max(ours.y) < 3.0  # paper: < 1.5%
        # variation shrinks as g/b grows
        assert ours.y[-1] <= ours.y[0]

    def test_fig7_monotone_curve_with_good_fit(self, results):
        result = get(results, "fig7")
        curve = result.series_by_name("collision rate")
        assert all(b >= a - 1e-9 for a, b in zip(curve.y, curve.y[1:]))
        assert curve.y[-1] > 0.9
        assert "max rel. error" in result.notes[0]

    def test_fig8_rederives_eq16(self, results):
        result = get(results, "fig8")
        note = result.notes[0]
        # the re-derived mu must be close to the paper's 0.354
        import re
        alpha, mu = map(float, re.findall(r"= ([-\d.]+) \+ ([\d.]+)",
                                          note)[0])
        assert mu == pytest.approx(0.354, abs=0.02)
        assert alpha == pytest.approx(0.0267, abs=0.01)


class TestSpaceAllocationExperiments:
    @pytest.mark.parametrize("panel", ["fig9a", "fig9b", "fig10a", "fig10b"])
    def test_sl_close_to_es_everywhere(self, results, panel):
        result = get(results, panel, **SMALL)
        sl = result.series_by_name("SL")
        pl = result.series_by_name("PL")
        # SL never catastrophically wrong, and beats PL on average.
        assert np.mean(sl.y) <= np.mean(pl.y) + 1e-9

    def test_tab2_sl_best_on_average(self, results):
        result = get(results, "tab2", **SMALL)
        means = {s.name: np.mean(s.y) for s in result.series}
        assert means["SL (%)"] == min(means.values())

    def test_tab2_sl_lowest_at_every_memory_and_near_es(self, results):
        """Table 2: at every M, SL's average error is the lowest of the
        four heuristics and within ~6 % of ES."""
        result = get(results, "tab2", **SMALL)
        errors = {s.name: s.y for s in result.series}
        for k in range(len(errors["SL (%)"])):
            row = {name: ys[k] for name, ys in errors.items()}
            assert row["SL (%)"] == min(row.values())
            assert row["SL (%)"] <= 6.0

    def test_tab3_sl_frequently_best(self, results):
        result = get(results, "tab3", **SMALL)
        share = result.series_by_name("SL being best (%)")
        assert max(share.y) >= 30.0


class TestPhantomChoiceExperiments:
    def test_fig11_gcsl_below_gs_curve(self, results):
        result = get(results, "fig11")
        gs = result.series_by_name("GS")
        gcsl = result.series_by_name("GCSL")
        # GCSL is phi-independent and at most ~the best GS point.
        assert len(set(gcsl.y)) == 1
        assert gcsl.y[0] <= min(gs.y) * 1.05
        # the GS curve has a knee: endpoints above the minimum
        assert gs.y[0] > min(gs.y) and gs.y[-1] > min(gs.y)

    def test_fig11_gcsl_below_gs_at_every_phi(self, results):
        """Figure 11: GCSL is below GS at every phi, not only the best."""
        result = get(results, "fig11")
        gs = result.series_by_name("GS")
        gcsl = result.series_by_name("GCSL")
        assert all(c < g for c, g in zip(gcsl.y, gs.y))

    def test_fig11_costs_at_least_optimal(self, results):
        result = get(results, "fig11")
        for s in result.series:
            assert all(y >= 0.999 for y in s.y)

    def test_fig12_first_phantom_largest_drop(self, results):
        result = get(results, "fig12")
        gcsl = result.series_by_name("GCSL")
        drops = [a - b for a, b in zip(gcsl.y, gcsl.y[1:])]
        assert drops and drops[0] == max(drops)


class TestMeasuredExperiments:
    def test_fig13_phantoms_beat_no_phantom(self, results):
        result = get(results, "fig13", memories=(20_000, 60_000),
                     phis=(0.8, 1.0))
        gcsl = result.series_by_name("GCSL")
        none = result.series_by_name("no phantom")
        assert all(n > g for n, g in zip(none.y, gcsl.y))
        assert max(n / g for n, g in zip(none.y, gcsl.y)) > 2.0

    def test_fig13_gcsl_near_measured_optimal(self, results):
        result = get(results, "fig13", memories=(20_000, 60_000),
                     phis=(0.8, 1.0))
        gcsl = result.series_by_name("GCSL")
        assert all(y <= 3.0 for y in gcsl.y)  # paper: within 3x of optimal

    def test_fig14_phantoms_beat_no_phantom_on_clustered(self, results):
        result = get(results, "fig14", memories=(20_000, 60_000),
                     phis=(0.8, 1.0))
        gcsl = result.series_by_name("GCSL")
        none = result.series_by_name("no phantom")
        assert all(n > g for n, g in zip(none.y, gcsl.y))

    def test_fig15_shift_wins_near_eu(self, results):
        result = get(results, "fig15", percents=(74, 90, 98))
        shrink = dict(zip(result.series_by_name("shrink").x,
                          result.series_by_name("shrink").y))
        shift = dict(zip(result.series_by_name("shift").x,
                         result.series_by_name("shift").y))
        assert shift[98] <= shrink[98]
        # tight bounds: shift is worse than shrink or infeasible
        assert shift[74] is None or shift[74] >= shift[98]


class TestTiming:
    def test_planning_is_milliseconds(self, results):
        result = get(results, "timing", repeats=3)
        gcsl = result.series_by_name("GCSL (ms)")
        assert max(gcsl.y) < 250.0


def results_map(result, name):
    series = result.series_by_name(name)
    return dict(zip(series.x, series.y))


class TestExtensions:
    def test_skew_improvement_everywhere(self, results):
        result = get(results, "ext_skew", exponents=(0.0, 1.5))
        improvement = result.series_by_name("improvement (x)")
        assert all(x > 1.5 for x in improvement.y)

    def test_concurrency_monotone_improvement(self, results):
        result = get(results, "ext_concurrency",
                     flow_seconds=(0.5, 8.0))
        improvement = result.series_by_name("improvement (x)")
        assert improvement.y[-1] > improvement.y[0]
