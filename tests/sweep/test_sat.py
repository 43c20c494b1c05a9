"""Tests for the sweep's CNF encoding and built-in CDCL solver.

The solver is the component a wrong answer from would be worst — an
unsound SAT answer is caught downstream by verification, but an unsound
UNSAT would silently weaken refutation evidence.  So beyond unit tests
the battery differentially checks the whole encode+solve path against
the independent backtracking search on every small task.
"""

import random

import pytest

from repro.core.gsb import SymmetricGSBTask
from repro.core.solvability import Solvability
from repro.decision.certificates import MAX_CNF_LITERALS, DecisionMapCertificate
from repro.sweep import sat
from repro.sweep.attacks import attack_sat
from repro.sweep.jobs import OUTCOME_EXHAUSTED
from repro.sweep.sat import (
    SatBudgetExceeded,
    encode_decision_map,
    solve_cnf,
    solve_decision_map_sat,
)
from repro.topology.decision import (
    decision_class_order,
    search_decision_map,
    verify_decision_map,
)
from repro.topology.is_complex import ISProtocolComplex


class TestSolveCnf:
    def test_trivial_sat(self):
        result = solve_cnf(2, [(1,), (2,)])
        assert result.satisfiable
        assert result.model[1] and result.model[2]

    def test_trivial_unsat(self):
        result = solve_cnf(1, [(1,), (-1,)])
        assert not result.satisfiable

    def test_empty_formula_is_sat(self):
        assert solve_cnf(3, []).satisfiable

    def test_empty_clause_is_unsat(self):
        assert not solve_cnf(2, [(1,), ()]).satisfiable

    def test_pigeonhole_3_into_2_unsat(self):
        # var(p, h) for pigeons 0..2, holes 0..1
        def var(p, h):
            return p * 2 + h + 1

        clauses = [tuple(var(p, h) for h in range(2)) for p in range(3)]
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append((-var(p1, h), -var(p2, h)))
        result = solve_cnf(6, clauses)
        assert not result.satisfiable
        assert result.conflicts > 0

    def test_model_satisfies_every_clause(self):
        clauses = [(1, 2), (-1, 3), (-2, -3), (2, 3)]
        result = solve_cnf(3, clauses)
        assert result.satisfiable
        for clause in clauses:
            assert any(
                result.model[abs(lit)] == (lit > 0) for lit in clause
            )

    def test_literal_outside_the_variables_rejected(self):
        # A negative literal past -num_vars would alias a positive slot.
        for clause in [(3,), (1, -3), (0, 1)]:
            with pytest.raises(ValueError, match="outside"):
                solve_cnf(2, [clause])

    def test_conflict_budget_raises(self):
        # A hard-enough pigeonhole to exceed a one-conflict budget.
        def var(p, h):
            return p * 4 + h + 1

        clauses = [tuple(var(p, h) for h in range(4)) for p in range(5)]
        for h in range(4):
            for p1 in range(5):
                for p2 in range(p1 + 1, 5):
                    clauses.append((-var(p1, h), -var(p2, h)))
        with pytest.raises(SatBudgetExceeded):
            solve_cnf(20, clauses, max_conflicts=1)


class TestEncoding:
    def test_exactly_one_value_per_class(self):
        task = SymmetricGSBTask(3, 2, 0, 3)  # trivially solvable
        complex_ = ISProtocolComplex(3, 1)
        encoding = encode_decision_map(task, complex_)
        decision_map, result = solve_decision_map_sat(task, complex_)
        assert result.satisfiable
        assert set(decision_map) == set(encoding.class_order)
        assert all(1 <= v <= task.m for v in decision_map.values())

    def test_found_map_verifies(self):
        task = SymmetricGSBTask(3, 2, 0, 3)  # trivially solvable
        complex_ = ISProtocolComplex(3, 1)
        decision_map, _ = solve_decision_map_sat(task, complex_)
        assert decision_map is not None
        assert verify_decision_map(task, complex_, decision_map) == []

    def test_known_refutation_is_unsat(self):
        # (4,3,0,2) has no 1-round map (the store's last OPEN cell at
        # n=4; its refutation at r=1 is well-established).
        task = SymmetricGSBTask(4, 3, 0, 2)
        complex_ = ISProtocolComplex(4, 1)
        decision_map, result = solve_decision_map_sat(task, complex_)
        assert decision_map is None
        assert not result.satisfiable


class TestDifferentialAgainstBacktracker:
    """encode+solve must agree with search_decision_map everywhere."""

    CASES = [
        (n, m, low, high, rounds)
        for n in (2, 3)
        for m in (2, 3)
        if m <= n
        for low in range(0, 2)
        for high in range(max(low, 1), n + 1)
        for rounds in (1, 2)
    ]

    #: (satisfiable, conflicts, decisions, certificate id) per case, as
    #: in :class:`TestPinnedSolverPath`.
    PINS = {
        (2, 2, 0, 1, 1): (False, 0, 0, None),
        (2, 2, 0, 1, 2): (False, 0, 0, None),
        (2, 2, 0, 2, 1): (True, 0, 2, "c520b55d95066c0ce"),
        (2, 2, 0, 2, 2): (True, 0, 8, "c41b10ee27d14c3f3"),
        (2, 2, 1, 1, 1): (False, 0, 0, None),
        (2, 2, 1, 1, 2): (False, 0, 0, None),
        (2, 2, 1, 2, 1): (False, 0, 0, None),
        (2, 2, 1, 2, 2): (False, 0, 0, None),
        (3, 2, 0, 1, 1): (False, 0, 0, None),
        (3, 2, 0, 1, 2): (False, 0, 0, None),
        (3, 2, 0, 2, 1): (False, 3, 2, None),
        (3, 2, 0, 2, 2): (False, 195, 570, None),
        (3, 2, 0, 3, 1): (True, 0, 5, "c74ce84e00db033b4"),
        (3, 2, 0, 3, 2): (True, 0, 80, "c6efa209b6ff5ee15"),
        (3, 2, 1, 1, 1): (False, 0, 0, None),
        (3, 2, 1, 1, 2): (False, 0, 0, None),
        (3, 2, 1, 2, 1): (False, 3, 2, None),
        (3, 2, 1, 2, 2): (False, 193, 540, None),
        (3, 2, 1, 3, 1): (False, 3, 2, None),
        (3, 2, 1, 3, 2): (False, 206, 577, None),
        (3, 3, 0, 1, 1): (False, 0, 0, None),
        (3, 3, 0, 1, 2): (False, 0, 0, None),
        (3, 3, 0, 2, 1): (True, 0, 6, "c9527c237d82d1729"),
        (3, 3, 0, 2, 2): (True, 0, 123, "cdd9568ec388ead46"),
        (3, 3, 0, 3, 1): (True, 0, 9, "cc09cf4c0ac28d5b0"),
        (3, 3, 0, 3, 2): (True, 0, 159, "c9f36eb419a9ffe8e"),
        (3, 3, 1, 1, 1): (False, 0, 0, None),
        (3, 3, 1, 1, 2): (False, 0, 0, None),
        (3, 3, 1, 2, 1): (False, 0, 0, None),
        (3, 3, 1, 2, 2): (False, 0, 0, None),
        (3, 3, 1, 3, 1): (False, 0, 0, None),
        (3, 3, 1, 3, 2): (False, 0, 0, None),
    }

    @pytest.mark.parametrize("n,m,low,high,rounds", CASES)
    def test_agreement(self, n, m, low, high, rounds):
        task = SymmetricGSBTask(n, m, low, high)
        complex_ = ISProtocolComplex(n, rounds)
        decision_map, result = solve_decision_map_sat(task, complex_)
        assert _outcome(complex_, task, decision_map, result) == self.PINS[
            (n, m, low, high, rounds)
        ]
        try:
            reference = search_decision_map(
                task, complex_, max_assignments=200_000
            )
        except RuntimeError:
            pytest.skip("backtracker budget exhausted; nothing to compare")
        assert result.satisfiable == reference.solvable
        if decision_map is not None:
            assert verify_decision_map(task, complex_, decision_map) == []


class TestPinnedSolverPath:
    """The CDCL's path: ``(satisfiable, conflicts, decisions, x)``.

    ``x`` is the decoded map's certificate id for decision-map CNFs and
    the model as a bit string for random 3-SAT.  The values were recorded
    with the solver that scanned every variable to branch, so they check
    that the branching heap reproduces its every step.
    """


    def test_4302_one_round(self):
        assert _solve_decision_map(4, 3, 0, 2, 1) == (False, 27, 32, None)

    def test_4302_two_rounds_is_the_sweep_closure(self):
        # The map the close-open sweep certifies for <4,3,0,2>.
        assert _solve_decision_map(4, 3, 0, 2, 2) == (
            True,
            1595,
            24525,
            "ce321148192c79375",
        )

    #: seed -> pinned outcome of a random 3-SAT CNF with 100 variables
    #: and 426 clauses.  Seeds 1 and 3-5 run past 256 conflicts, so the
    #: solver restarts and decays activities on them.
    RANDOM = {
        0: (
            True,
            184,
            237,
            "01001000010110000100101000101110111101011000110010"
            "01101000100110001101010000101101000110111010011000",
        ),
        1: (False, 932, 1075, None),
        2: (
            True,
            198,
            240,
            "01001000011000110111101001011100110111100111100100"
            "11010110110001101101000011101010010111000011010111",
        ),
        3: (False, 826, 1004, None),
        4: (False, 545, 682, None),
        5: (False, 798, 959, None),
    }

    @pytest.mark.parametrize("seed", sorted(RANDOM))
    def test_random_3sat(self, seed):
        rng = random.Random(seed)
        clauses = [
            tuple(rng.choice((-1, 1)) * v for v in rng.sample(range(1, 101), 3))
            for _ in range(426)
        ]
        result = solve_cnf(100, clauses)
        bits = None
        if result.model is not None:
            bits = "".join("1" if result.model[v] else "0" for v in range(1, 101))
        outcome = (result.satisfiable, result.conflicts, result.decisions, bits)
        assert outcome == self.RANDOM[seed]


def _solve_decision_map(n, m, low, high, rounds):
    task = SymmetricGSBTask(n, m, low, high)
    complex_ = ISProtocolComplex(n, rounds)
    return _outcome(complex_, task, *solve_decision_map_sat(task, complex_))


def _outcome(complex_, task, decision_map, result):
    """``(satisfiable, conflicts, decisions, certificate id | None)``."""
    certificate = None
    if decision_map is not None:
        certificate = DecisionMapCertificate(
            task=task.parameters,
            verdict_value=Solvability.SOLVABLE.value,
            n=task.n,
            rounds=complex_.rounds,
            assignment=tuple(
                decision_map[label] for label in decision_class_order(complex_)
            ),
            facets=complex_.facet_count(),
        ).id
    return result.satisfiable, result.conflicts, result.decisions, certificate


class TestLiteralBudget:
    """The encoder refuses a CNF past MAX_CNF_LITERALS before building it."""

    def test_encoder_raises_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(sat, "MAX_CNF_LITERALS", 1_000)
        # 81 classes, m = 2: 81 * 4 + 81 * 82 / 2 = 3,645 literals.
        with pytest.raises(SatBudgetExceeded, match="3645 literals"):
            encode_decision_map(SymmetricGSBTask(3, 2, 0, 2), ISProtocolComplex(3, 2))
        # The one-round CNF (6 classes: 45 literals) still fits.
        encode_decision_map(SymmetricGSBTask(3, 2, 0, 2), ISProtocolComplex(3, 1))

    def test_attack_ends_exhausted_with_the_reason(self, monkeypatch):
        monkeypatch.setattr(sat, "MAX_CNF_LITERALS", 1_000)
        outcome = attack_sat((3, 2, 0, 2), {"rounds": 2})
        assert outcome.outcome == OUTCOME_EXHAUSTED
        assert "past the encoder's budget of 1000" in outcome.reason

    def test_default_budget_admits_every_two_round_n4_rung(self):
        # The sweep's n <= 4, r <= 2 rungs, for every m the universe holds.
        classes = len(decision_class_order(ISProtocolComplex(4, 2)))
        for m in range(2, 7):
            literals = classes * m * m + (m - 1) * classes * (classes + 1) // 2
            assert literals <= MAX_CNF_LITERALS, m
