"""Unit tests for the ReasonerStats counters and harness measure helper."""

from repro.dl import ReasonerStats
from repro.harness import Measurement, measure


class TestReasonerStats:
    def test_snapshot_is_independent(self):
        stats = ReasonerStats(tableau_runs=3, cache_hits=1)
        frozen = stats.snapshot()
        stats.tableau_runs += 2
        assert frozen.tableau_runs == 3
        assert stats.tableau_runs == 5

    def test_subtraction_gives_the_delta(self):
        stats = ReasonerStats(tableau_runs=5, cache_hits=2, cache_misses=5)
        earlier = ReasonerStats(tableau_runs=2, cache_hits=1, cache_misses=3)
        delta = stats - earlier
        assert delta.tableau_runs == 3
        assert delta.cache_hits == 1
        assert delta.cache_misses == 2

    def test_reset_zeroes_everything(self):
        stats = ReasonerStats(tableau_runs=7, branches_explored=9)
        stats.reset()
        assert stats == ReasonerStats()

    def test_hit_rate_handles_zero_lookups(self):
        assert ReasonerStats().cache_hit_rate == 0.0
        assert ReasonerStats(cache_hits=3, cache_misses=1).cache_hit_rate == 0.75

    def test_render_mentions_every_counter_family(self):
        line = ReasonerStats(tableau_runs=4, cache_hits=2).render()
        assert "tableau runs: 4" in line
        assert "2 hits" in line
        assert "subsumption tests" in line

    def test_as_dict_round_trips(self):
        stats = ReasonerStats(tableau_runs=1, model_witnesses=6)
        assert ReasonerStats(**stats.as_dict()) == stats


class TestMeasure:
    def test_measure_captures_result_and_delta(self):
        stats = ReasonerStats(tableau_runs=10)

        def work():
            stats.tableau_runs += 4
            return "answer"

        outcome = measure(work, stats=stats)
        assert isinstance(outcome, Measurement)
        assert outcome.result == "answer"
        assert outcome.seconds >= 0
        assert outcome.stats.tableau_runs == 4

    def test_measure_without_stats(self):
        outcome = measure(lambda: 42)
        assert outcome.result == 42
        assert outcome.stats is None
        assert outcome.render().endswith("s")

    def test_render_includes_stats_when_present(self):
        outcome = measure(lambda: None, stats=ReasonerStats())
        assert "tableau runs" in outcome.render()
