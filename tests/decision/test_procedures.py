"""Tier behavior: closed forms, padding, reduction closure, empirical."""

import random

import pytest

from repro.core import Solvability, classify_parameters
from repro.core.bounds import GSBSpecificationError
from repro.core.solvability import classify_parameters_certified
from repro.decision.certificates import SOLVABLE_VALUES
from repro.decision import (
    DecisionBudget,
    canonical_key,
    close_open,
    closed_form,
    empirical,
    reduction_closure,
    value_padding,
)
from repro.universe import build_rectangle


@pytest.fixture(scope="module")
def rect():
    return build_rectangle(6, 6)


class TestClosedForm:
    @pytest.mark.parametrize(
        "params",
        [(6, 3, 0, 6), (6, 6, 1, 1), (4, 2, 1, 3), (6, 3, 3, 3), (1, 1, 0, 1)],
    )
    def test_matches_legacy_classifier(self, params):
        result = closed_form(*params)
        verdict, reason = classify_parameters(*params)
        assert result.solvability is verdict
        assert result.reason == reason
        assert result.tier == 1
        assert result.certificate is not None
        assert result.certificate.check() == []

    def test_open_has_no_certificate(self):
        result = closed_form(4, 3, 0, 2)
        assert result.solvability is Solvability.OPEN
        assert result.certificate is None


class TestValuePadding:
    def test_closes_the_prime_power_renaming_ladder(self):
        # OPEN under the bare classifier, UNSOLVABLE with padding.
        for n, m in [(4, 5), (5, 6), (7, 8), (7, 11), (8, 9), (9, 14)]:
            assert classify_parameters(n, m, 0, 1)[0] is Solvability.OPEN
            result = value_padding(n, m, 0, 1)
            assert result is not None, (n, m)
            assert result.solvability is Solvability.UNSOLVABLE
            assert result.tier == 2
            assert result.certificate.check() == []

    def test_silent_on_non_prime_power_ladder(self):
        # n = 6 is not a prime power: the ladder is genuinely open.
        assert value_padding(6, 7, 0, 1) is None

    def test_silent_on_canonical_lower_bounded_tasks(self):
        assert value_padding(6, 2, 2, 4) is None

    def test_canonicalizes_before_deciding(self):
        # <4,5,0,4> has canonical high 1? No — but synonyms of the ladder
        # node must close identically.
        direct = value_padding(4, 5, 0, 1)
        assert canonical_key(4, 5, 0, 1) == (4, 5, 0, 1)
        assert direct.certificate.task == (4, 5, 0, 1)


def full_padding_scan(n, m, low, high):
    """Tier 2 as a scan of every sibling: the reference the candidate
    scan must agree with, as ``(direction, m')`` or None."""
    n, m, low_c, high_c = canonical_key(n, m, low, high)
    if low_c != 0 or high_c < 1:
        return None
    for m2 in range(max(1, -(-n // high_c)), m):
        verdict, _, payload = classify_parameters_certified(n, m2, 0, high_c)
        if payload is not None and verdict.value in SOLVABLE_VALUES:
            return "solvable-from-harder", m2
    for m2 in range(m + 1, max(m + 1, 2 * n - 1)):
        verdict, _, payload = classify_parameters_certified(n, m2, 0, high_c)
        if payload is not None and verdict is Solvability.UNSOLVABLE:
            return "unsolvable-from-weaker", m2
    return None


def padding_outcome(scan, *params):
    try:
        result = scan(*params)
    except GSBSpecificationError as error:
        return str(error)
    if result is None or isinstance(result, tuple):
        return result
    return result.certificate.direction, result.certificate.witness[1]


class TestPaddingCandidates:
    def test_every_small_task_gets_the_full_scans_witness(self):
        for n in range(-1, 17):
            for m in range(-2, 2 * n + 3):
                for low in range(-1, n + 2):
                    for high in range(-1, n + 2):
                        params = (n, m, low, high)
                        assert padding_outcome(value_padding, *params) == (
                            padding_outcome(full_padding_scan, *params)
                        ), params

    def test_large_n_ladders_get_the_full_scans_witness(self):
        rng = random.Random(5)
        for n in (127, 128, 243, 1000, 1024, 2187, 4096, 4097):
            for _ in range(20):
                high = rng.choice([1, 2, 3, rng.randint(1, n)])
                m = rng.randint(-(-n // high), 2 * n)
                assert padding_outcome(value_padding, n, m, 0, high) == (
                    padding_outcome(full_padding_scan, n, m, 0, high)
                ), (n, m, high)

    def test_cost_does_not_grow_with_n(self):
        # An open l* = 0 task at n = 10**9 has ~2 * 10**9 siblings.
        assert value_padding(10**9, 3, 0, 6 * 10**8) is None
        result = value_padding(2**40, 2**40 + 5, 0, 1)
        assert result.solvability is Solvability.UNSOLVABLE
        assert result.certificate.witness == (2**40, 2**41 - 2, 0, 1)


class TestReductionClosure:
    def test_solvable_flows_from_harder_containment(self, rect):
        # Simulate an unknown verdict on the loosest <6,3> task: its
        # harder siblings are closed-form trivial, so closure re-decides.
        rect.override_node((6, 3, 0, 6), "open", "simulated unknown", "")
        try:
            result = reduction_closure(rect, (6, 3, 0, 6))
        finally:
            fresh = closed_form(6, 3, 0, 6)
            rect.override_node(
                (6, 3, 0, 6),
                fresh.solvability.value,
                fresh.reason,
                fresh.certificate.id,
                fresh.certificate.payload(),
            )
        assert result is not None
        assert result.solvability is Solvability.SOLVABLE
        assert result.tier == 3
        assert result.certificate.check() == []

    def test_unsolvable_flows_along_padding_edges(self, rect):
        rect.override_node((4, 5, 0, 1), "open", "simulated unknown", "")
        try:
            result = reduction_closure(rect, (4, 5, 0, 1))
        finally:
            fresh = value_padding(4, 5, 0, 1)
            rect.override_node(
                (4, 5, 0, 1),
                fresh.solvability.value,
                fresh.reason,
                fresh.certificate.id,
                fresh.certificate.payload(),
            )
        assert result is not None
        assert result.solvability is Solvability.UNSOLVABLE
        assert result.certificate.check() == []

    def test_none_outside_graph(self, rect):
        assert reduction_closure(rect, (99, 2, 1, 1)) is None


class TestEmpirical:
    def test_positive_control_has_checked_map(self):
        result = empirical(3, 3, 0, 2, budget=DecisionBudget())
        assert result.solvability is Solvability.SOLVABLE
        assert result.tier == 4
        assert result.certificate.check() == []

    def test_one_round_refutation_is_recorded(self):
        budget = DecisionBudget(max_rounds=1, max_assignments=100_000)
        result = empirical(4, 3, 0, 2, budget=budget)
        assert result.solvability is Solvability.OPEN
        assert any("no comparison-based IIS" in note for note in result.evidence)

    def test_budget_exhaustion_is_distinguished_from_refutation(self):
        budget = DecisionBudget(max_rounds=2, max_assignments=2_000)
        result = empirical(4, 3, 0, 2, budget=budget)
        assert result.solvability is Solvability.OPEN
        assert any("exhausted undecided" in note for note in result.evidence)

    def test_oversized_n_is_skipped(self):
        budget = DecisionBudget(max_empirical_n=3)
        result = empirical(5, 4, 0, 2, budget=budget)
        assert result.solvability is Solvability.OPEN
        assert any("skipped" in note for note in result.evidence)


class TestCloseOpen:
    def test_sweep_closes_simulated_unknowns(self):
        graph = build_rectangle(6, 6)
        # Erase two verdicts the structural tiers established; the sweep
        # must re-derive both (solvable via containment, unsolvable via
        # padding) with checkable path certificates.
        for key in [(6, 3, 0, 6), (4, 5, 0, 1)]:
            graph.override_node(key, "open", "simulated unknown", "")
        budget = DecisionBudget(max_empirical_n=0)  # isolate tier 3
        report = close_open(graph, budget)
        assert report.open_before >= 2
        assert (6, 3, 0, 6) in report.closed
        assert (4, 5, 0, 1) in report.closed
        assert report.closed[(6, 3, 0, 6)].solvability is Solvability.SOLVABLE
        assert (
            report.closed[(4, 5, 0, 1)].solvability is Solvability.UNSOLVABLE
        )
        for result in report.closed.values():
            assert result.certificate.check() == []
        assert report.open_after == report.open_before - len(report.closed)

    def test_sweep_records_empirical_evidence(self):
        graph = build_rectangle(4, 3)
        budget = DecisionBudget(max_rounds=1)
        report = close_open(graph, budget)
        assert (4, 3, 0, 2) in report.evidence

    def test_graph_itself_is_not_mutated(self):
        graph = build_rectangle(6, 6)
        before = {node.key: node.solvability for node in graph.nodes()}
        close_open(graph, DecisionBudget(max_empirical_n=0))
        assert {node.key: node.solvability for node in graph.nodes()} == before


class TestBudgetDefaults:
    def test_engine_replay_covers_the_whole_empirical_range(self):
        # The compiled protocol core made n = 4 replay affordable: found
        # maps are model-checked at every n the empirical tier searches.
        budget = DecisionBudget()
        assert budget.engine_replay_n == 4
        assert budget.engine_replay_n == budget.max_empirical_n

    def test_replay_runs_on_the_compiled_core(self, monkeypatch):
        # Behavioral check: the replay path must not construct generator
        # runtimes anymore — a Runtime instantiation during replay fails.
        import repro.shm.runtime as runtime_module
        from repro.core.gsb import SymmetricGSBTask
        from repro.decision.certificates import replay_decision_map
        from repro.topology.decision import search_decision_map
        from repro.topology.is_complex import ISProtocolComplex

        def forbidden_init(self, *args, **kwargs):
            raise AssertionError("replay built a generator Runtime")

        monkeypatch.setattr(runtime_module.Runtime, "__init__", forbidden_init)
        task = SymmetricGSBTask(2, 2, 0, 2)
        search = search_decision_map(
            task, ISProtocolComplex(2, 1), max_assignments=100_000
        )
        assert search.solvable
        assert replay_decision_map(task, 1, search.decision_map) == []
