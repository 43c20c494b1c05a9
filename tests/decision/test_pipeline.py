"""Pipeline orchestration: tier order, caching, budgets, synonyms."""

import pytest

from repro.core import Solvability
from repro.core.bounds import GSBSpecificationError
from repro.decision import (
    CertificateCache,
    DecisionBudget,
    DecisionPipeline,
    decide,
)


class TestTierOrder:
    def test_tier1_wins_for_closed_forms(self):
        verdict = decide(6, 3, 0, 6)
        assert verdict.solvability is Solvability.TRIVIAL
        assert verdict.tier == 1 and verdict.procedure == "closed-form"

    def test_tier2_wins_for_the_renaming_ladder(self):
        verdict = decide(4, 5, 0, 1)
        assert verdict.solvability is Solvability.UNSOLVABLE
        assert verdict.tier == 2 and verdict.procedure == "value-padding"
        assert verdict.certificate.check() == []

    def test_open_verdict_carries_empirical_evidence(self):
        budget = DecisionBudget(max_rounds=1)
        verdict = decide(4, 3, 0, 2, budget=budget)
        assert verdict.solvability is Solvability.OPEN
        assert verdict.certificate is None
        assert verdict.evidence

    def test_malformed_parameters_raise(self):
        with pytest.raises(GSBSpecificationError):
            decide(0, 3, 0, 2)

    def test_theorem9_threshold_past_float_precision(self):
        # The fallback configuration the server decides on its event loop.
        # The certificate is not checked: its re-derivation computes every
        # C(n, i) at n = 2**61.
        pipeline = DecisionPipeline(
            budget=DecisionBudget(max_empirical_n=0), cache=None
        )
        verdict = pipeline.decide(2**61, 2**62 - 2, 0, 1)
        assert verdict.solvability is Solvability.UNSOLVABLE
        assert verdict.tier == 1
        assert verdict.certificate.rule == "renaming-2n2-unsolvable"


class TestCache:
    def test_warm_decide_is_a_cache_hit(self, tmp_path):
        cache = CertificateCache(tmp_path / "cache")
        pipeline = DecisionPipeline(cache=cache)
        cold = pipeline.decide(4, 5, 0, 1)
        warm = pipeline.decide(4, 5, 0, 1)
        assert not cold.cached and warm.cached
        assert warm.solvability is cold.solvability
        assert warm.certificate_id == cold.certificate_id
        assert cache.stats()["hits"] >= 1

    def test_cache_persists_across_pipelines(self, tmp_path):
        cache_dir = tmp_path / "cache"
        DecisionPipeline(cache=CertificateCache(cache_dir)).decide(4, 5, 0, 1)
        verdict = DecisionPipeline(cache=CertificateCache(cache_dir)).decide(
            4, 5, 0, 1
        )
        assert verdict.cached

    def test_synonyms_share_cache_entries(self, tmp_path):
        pipeline = DecisionPipeline(cache=CertificateCache(tmp_path / "c"))
        first = pipeline.decide(6, 3, 1, 6)
        second = pipeline.decide(6, 3, 1, 4)  # the paper's synonym pair
        assert first.canonical == second.canonical == (6, 3, 1, 4)
        assert second.cached

    def test_open_entry_expires_under_larger_budget(self, tmp_path):
        cache = CertificateCache(tmp_path / "cache")
        small = DecisionBudget(max_rounds=1, max_assignments=5_000)
        large = DecisionBudget(max_rounds=2, max_assignments=10_000)
        DecisionPipeline(budget=small, cache=cache).decide(4, 3, 0, 2)
        verdict = DecisionPipeline(budget=large, cache=cache).decide(4, 3, 0, 2)
        assert not verdict.cached  # deeper budget must re-search
        again = DecisionPipeline(budget=large, cache=cache).decide(4, 3, 0, 2)
        assert again.cached  # same budget: the memo holds

    def test_malformed_cache_entry_is_a_miss(self, tmp_path):
        # A valid-JSON shard with a bogus entry value must not crash
        # decide: the entry reads as a miss and is rewritten.
        cache = CertificateCache(tmp_path / "cache")
        pipeline = DecisionPipeline(cache=cache)
        pipeline.decide(4, 5, 0, 1)
        entry = cache.get((4, 5, 0, 1))
        entry["solvability"] = "bogus"
        cache.put((4, 5, 0, 1), entry)
        fresh = DecisionPipeline(cache=CertificateCache(tmp_path / "cache"))
        verdict = fresh.decide(4, 5, 0, 1)
        assert verdict.solvability is Solvability.UNSOLVABLE
        assert not verdict.cached

    def test_open_attribution_matches_the_tier_that_ran(self, tmp_path):
        budget = DecisionBudget(max_rounds=1, max_assignments=5_000)
        verdict = decide(4, 3, 0, 2, budget=budget)
        # The empirical tier ran (and produced the evidence), so the
        # OPEN verdict is attributed to it — consistent with what
        # close_open caches for the same task.
        assert verdict.tier == 4 and verdict.procedure == "decision-map"

    def test_open_entry_serves_smaller_budget(self, tmp_path):
        cache = CertificateCache(tmp_path / "cache")
        large = DecisionBudget(max_rounds=1, max_assignments=10_000)
        small = DecisionBudget(max_rounds=1, max_assignments=5_000)
        DecisionPipeline(budget=large, cache=cache).decide(4, 3, 0, 2)
        verdict = DecisionPipeline(budget=small, cache=cache).decide(4, 3, 0, 2)
        assert verdict.cached


class TestGraphWiring:
    def test_pipeline_builds_family_rows_on_demand(self):
        pipeline = DecisionPipeline(budget=DecisionBudget(max_empirical_n=0))
        verdict = pipeline.decide(6, 2, 2, 4)  # 2-WSB at n=6: OPEN
        assert verdict.solvability is Solvability.OPEN
        assert pipeline._row_graphs  # the row was materialized

    def test_supplied_graph_is_used(self):
        from repro.universe import build_rectangle

        graph = build_rectangle(6, 6)
        graph.override_node((6, 3, 0, 6), "open", "simulated unknown", "")
        pipeline = DecisionPipeline(
            budget=DecisionBudget(max_empirical_n=0), graph=graph
        )
        verdict = pipeline.decide(6, 3, 0, 6)
        # Tier 1 still decides this closed form; the graph is only a
        # tier-3 context.  Use a task tier 1 leaves open to see tier 3:
        assert verdict.tier == 1

    def test_verdict_json_shape(self):
        payload = decide(4, 5, 0, 1).to_json()
        assert payload["solvability"] == "not wait-free solvable"
        assert payload["certificate"]["kind"] == "value-padding"
        assert payload["canonical"] == [4, 5, 0, 1]
        assert isinstance(payload["seconds"], float)


class TestTimingsAndConsumedBudget:
    def test_timings_cover_only_the_tiers_that_ran(self):
        verdict = decide(6, 3, 0, 6)
        assert [name for name, _ in verdict.timings] == ["closed-form"]
        assert all(seconds >= 0.0 for _, seconds in verdict.timings)
        assert verdict.budget_consumed == {}

    def test_open_verdict_times_all_tiers_and_reports_consumption(self):
        budget = DecisionBudget(max_rounds=1)
        verdict = decide(4, 3, 0, 2, budget=budget)
        assert [name for name, _ in verdict.timings] == [
            "closed-form",
            "value-padding",
            "reduction-closure",
            "decision-map",
        ]
        # The empirical tier accounts for what the budget actually paid.
        assert verdict.budget_consumed["rounds_searched"] == 1
        assert verdict.budget_consumed["assignments_tried"] > 0

    def test_json_carries_per_tier_timings(self):
        payload = decide(4, 3, 0, 2, budget=DecisionBudget(max_rounds=1)).to_json()
        assert set(payload["timings"]) == {
            "closed-form",
            "value-padding",
            "reduction-closure",
            "decision-map",
        }
        assert all(
            isinstance(seconds, float) for seconds in payload["timings"].values()
        )
        assert payload["budget_consumed"]["rounds_searched"] == 1
