"""Tests for solvability (Theorems 9-11, Corollaries 2-5, Theorem 10)."""

import math

import pytest

from repro.core import (
    GSBTask,
    BoundVector,
    Solvability,
    SymmetricGSBTask,
    binomial_gcd,
    binomials_coprime,
    brute_force_communication_free,
    classify,
    classify_parameters,
    communication_free_decision_function,
    decision_function_is_valid,
    election,
    homonymous_decision_function,
    is_communication_free_solvable,
    is_prime_power,
    k_slot,
    perfect_renaming,
    renaming,
    weak_symmetry_breaking,
    wsb_wait_free_solvable,
    x_bounded_homonymous_renaming,
)
from repro.core.solvability import explicit_binomial_gcd


class TestTheorem9:
    def test_closed_form_examples(self):
        # (2n-1)-renaming: trivial.
        assert is_communication_free_solvable(renaming(5, 9))
        # (2n-2)-renaming: u = 1 < ceil(9/8) is false... ceil(9/8)=2 > 1.
        assert not is_communication_free_solvable(renaming(5, 8))
        # WSB: l = 1 > 0 (Corollary 3).
        assert not is_communication_free_solvable(weak_symmetry_breaking(5))
        # m = 1 always trivial.
        assert is_communication_free_solvable(SymmetricGSBTask(5, 1, 0, 5))

    def test_threshold_exact(self):
        # m > 1, l = 0: solvable iff u >= ceil((2n-1)/m).
        n, m = 6, 3
        threshold = math.ceil((2 * n - 1) / m)  # 4
        assert is_communication_free_solvable(SymmetricGSBTask(n, m, 0, threshold))
        assert not is_communication_free_solvable(
            SymmetricGSBTask(n, m, 0, threshold - 1)
        )

    def test_matches_brute_force_small(self):
        # Exhaustive delta-space search validates the closed form / the
        # group-size argument for every small symmetric task.
        for n in (2, 3):
            for m in (1, 2, 3):
                for low in range(0, n + 1):
                    for high in range(low, n + 1):
                        task = SymmetricGSBTask(n, m, low, high)
                        if not task.is_feasible:
                            continue
                        assert is_communication_free_solvable(
                            task
                        ) == brute_force_communication_free(task), task

    def test_matches_brute_force_asymmetric(self):
        cases = [
            GSBTask(3, BoundVector(lower=(0, 0), upper=(2, 3))),
            GSBTask(3, BoundVector(lower=(1, 0), upper=(3, 3))),
            GSBTask(3, BoundVector(lower=(0, 1), upper=(1, 3))),
            election(3),
        ]
        for task in cases:
            assert is_communication_free_solvable(
                task
            ) == brute_force_communication_free(task), task

    def test_witness_function_valid(self):
        task = renaming(5, 9)
        delta = communication_free_decision_function(task)
        assert delta is not None
        assert decision_function_is_valid(task, delta)

    def test_witness_none_for_unsolvable(self):
        assert communication_free_decision_function(weak_symmetry_breaking(4)) is None

    def test_infeasible_not_solvable(self):
        assert not is_communication_free_solvable(SymmetricGSBTask(6, 3, 3, 3))

    def test_threshold_is_exact_past_float_precision(self):
        # (2n-1)/m in floats rounds to 1.0 here, so a float ceiling makes
        # (2n-2)-renaming look communication-free; the exact threshold is 2.
        n, m = 2**61, 2**62 - 2
        assert classify_parameters(n, m, 0, 1) == (
            Solvability.UNSOLVABLE,
            "(2n-2)-renaming with non-coprime binomials [17]",
        )
        assert x_bounded_homonymous_renaming(n, m).m == 2


class TestCorollary2:
    def test_homonymous_function_solves_task(self):
        for n, x in [(4, 2), (5, 2), (6, 3), (5, 1)]:
            task = x_bounded_homonymous_renaming(n, x)
            delta = homonymous_decision_function(n, x)
            assert decision_function_is_valid(task, delta)

    def test_homonymous_task_trivial_by_theorem_9(self):
        for n, x in [(4, 2), (5, 2), (6, 3)]:
            assert is_communication_free_solvable(
                x_bounded_homonymous_renaming(n, x)
            )

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            homonymous_decision_function(4, 0)


class TestTheorem10Condition:
    def test_gcd_values(self):
        assert binomial_gcd(2) == 2
        assert binomial_gcd(3) == 3
        assert binomial_gcd(4) == 2
        assert binomial_gcd(5) == 5
        assert binomial_gcd(6) == 1
        assert binomial_gcd(9) == 3
        assert binomial_gcd(12) == 1

    def test_gcd_empty_for_small_n(self):
        assert binomial_gcd(0) == 0
        assert binomial_gcd(1) == 0

    def test_prime_power_gcd_equals_the_explicit_gcd(self):
        for n in range(-2, 501):
            assert binomial_gcd(n) == explicit_binomial_gcd(n), n

    @pytest.mark.parametrize(
        "n, gcd",
        [
            (2**61 - 1, 2**61 - 1),  # a Mersenne prime
            (2**61, 2),
            (3**40, 3),
            (6**20, 1),
            (2**64 - 59, 2**64 - 59),  # the largest prime below 2**64
            (2**63 + 1, 1),
            (2**64 - 1, 1),
            (4294967291**2, 4294967291),  # the largest prime below 2**32
            (4294967291 * 4294967279, 1),
            (3215031751, 1),  # a strong pseudoprime to bases 2, 3, 5, 7
        ],
    )
    def test_prime_power_gcd_on_large_n(self, n, gcd):
        assert binomial_gcd(n) == gcd

    def test_large_n_agrees_with_the_explicit_gcd_where_it_is_cheap(self):
        for n in (2**11, 3**7, 2017, 2021, 4096 + 1, 1331, 2 * 1024):
            assert binomial_gcd(n) == explicit_binomial_gcd(n), n

    def test_coprime_iff_not_prime_power(self):
        # Ram's theorem, checked over a wide range.
        for n in range(2, 200):
            assert binomials_coprime(n) == (not is_prime_power(n)), n

    def test_prime_power_detection(self):
        assert is_prime_power(2) and is_prime_power(8) and is_prime_power(27)
        assert is_prime_power(7) and is_prime_power(49)
        assert not is_prime_power(6) and not is_prime_power(12)
        assert not is_prime_power(1) and not is_prime_power(0)

    def test_wsb_solvable_values(self):
        assert not wsb_wait_free_solvable(4)
        assert wsb_wait_free_solvable(6)
        assert not wsb_wait_free_solvable(8)
        assert wsb_wait_free_solvable(10)


class TestClassification:
    def test_infeasible(self):
        verdict, reason = classify(SymmetricGSBTask(6, 3, 3, 3))
        assert verdict is Solvability.INFEASIBLE
        assert "Lemma 1" in reason

    def test_trivial_renaming(self):
        verdict, _ = classify(renaming(5, 9))
        assert verdict is Solvability.TRIVIAL

    def test_single_process(self):
        verdict, _ = classify(SymmetricGSBTask(1, 1, 1, 1))
        assert verdict is Solvability.TRIVIAL

    def test_classify_parameters_rejects_malformed_specs(self):
        # Same error contract as the SymmetricGSBTask constructor the old
        # implementation routed through: malformed is an error, not
        # INFEASIBLE.
        from repro.core import GSBSpecificationError, classify_parameters

        with pytest.raises(GSBSpecificationError, match="at least one"):
            classify_parameters(0, 3, 0, 0)
        with pytest.raises(GSBSpecificationError, match="at least one"):
            classify_parameters(-2, 3, 0, 1)
        with pytest.raises(GSBSpecificationError, match="m must be"):
            classify_parameters(6, 0, 0, 3)
        with pytest.raises(GSBSpecificationError, match="lower bound 5"):
            classify_parameters(6, 3, 5, 2)
        with pytest.raises(GSBSpecificationError, match="negative"):
            classify_parameters(6, 3, 0, -1)

    def test_classify_parameters_matches_task_classification(self):
        from repro.core import classify_parameters

        for n in range(1, 10):
            for m in range(1, n + 1):
                for low in range(n + 1):
                    for high in range(low, n + 1):
                        task = SymmetricGSBTask(n, m, low, high)
                        assert classify_parameters(n, m, low, high) == (
                            classify(task)
                        )

    def test_perfect_renaming_unsolvable(self):
        for n in (2, 3, 5, 6):
            verdict, reason = classify(perfect_renaming(n))
            assert verdict is Solvability.UNSOLVABLE
            assert "Corollary 5" in reason

    def test_perfect_renaming_in_disguise(self):
        # <n, n, 0, 1> has the same outputs as <n, n, 1, 1>.
        verdict, reason = classify(SymmetricGSBTask(5, 5, 0, 1))
        assert verdict is Solvability.UNSOLVABLE
        assert "Corollary 5" in reason

    def test_election_unsolvable(self):
        for n in (3, 5):
            verdict, reason = classify(election(n))
            assert verdict is Solvability.UNSOLVABLE
            assert "Theorem 11" in reason

    def test_election_n2_is_perfect_renaming(self):
        # For n=2 the election bounds coincide with <2,2,1,1>.
        verdict, reason = classify(election(2))
        assert verdict is Solvability.UNSOLVABLE
        assert "Corollary 5" in reason

    def test_wsb_depends_on_binomials(self):
        verdict, _ = classify(weak_symmetry_breaking(6))
        assert verdict is Solvability.SOLVABLE
        verdict, _ = classify(weak_symmetry_breaking(4))
        assert verdict is Solvability.UNSOLVABLE
        verdict, _ = classify(weak_symmetry_breaking(8))
        assert verdict is Solvability.UNSOLVABLE

    def test_renaming_2n2_matches_wsb(self):
        verdict, _ = classify(renaming(6, 10))
        assert verdict is Solvability.SOLVABLE
        verdict, _ = classify(renaming(4, 6))
        assert verdict is Solvability.UNSOLVABLE

    def test_theorem_10_l_geq_1(self):
        # l >= 1, m > 1, prime-power n: unsolvable.
        verdict, reason = classify(k_slot(4, 3))
        assert verdict is Solvability.UNSOLVABLE
        assert "Theorem 10" in reason
        # Canonicalization catches tasks whose raw l is 0.
        verdict, _ = classify(SymmetricGSBTask(4, 2, 0, 2))  # = <4,2,2,2>
        assert verdict is Solvability.UNSOLVABLE

    def test_open_cases_reported_open(self):
        # k-slot at coprime n is between trivial and perfect renaming.
        verdict, _ = classify(k_slot(6, 5))
        assert verdict is Solvability.OPEN

    def test_asymmetric_non_election_open(self):
        task = GSBTask(4, BoundVector(lower=(2, 1), upper=(2, 2)))
        verdict, _ = classify(task)
        assert verdict is Solvability.OPEN
