"""Unit tests for counting vectors and kernel vectors (Section 4.1)."""

import itertools
import math
import random
import time

import pytest

from repro.core import (
    SymmetricGSBTask,
    balanced_kernel_vector,
    count_asymmetric_counting_vectors,
    count_kernel_vectors,
    counting_vector,
    is_gsb_kernel_set,
    is_kernel_vector,
    kernel_of_counting,
    kernel_vectors,
)
from repro.core.kernel import (
    count_output_vectors,
    counting_vectors,
    kernel_set_is_lexicographically_sorted,
)


def _seed_descending_compositions(remaining, slots, low, high, cap=None):
    """The seed repo's recursive enumeration, kept as the reference oracle."""
    if cap is None:
        cap = high
    if slots == 0:
        if remaining == 0:
            yield ()
        return
    top = min(cap, high, remaining - low * (slots - 1))
    bottom = max(low, math.ceil(remaining / slots))
    for first in range(top, bottom - 1, -1):
        for rest in _seed_descending_compositions(
            remaining - first, slots - 1, low, high, cap=first
        ):
            yield (first, *rest)


def _seed_kernel_vectors(n, m, low, high):
    low, high = max(low, 0), min(high, n)
    return tuple(
        sorted(_seed_descending_compositions(n, m, low, high), reverse=True)
    )


class TestCountingVector:
    def test_basic_counts(self):
        assert counting_vector([1, 2, 2, 3], 3) == (1, 2, 1)

    def test_missing_values_count_zero(self):
        assert counting_vector([1, 1], 3) == (2, 0, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            counting_vector([0], 2)
        with pytest.raises(ValueError, match="outside"):
            counting_vector([3], 2)

    def test_kernel_of_counting_sorts_descending(self):
        assert kernel_of_counting((1, 3, 2)) == (3, 2, 1)


class TestKernelVectors:
    def test_paper_columns_for_6_3(self):
        # Table 1's seven columns, in descending lexicographic order.
        assert kernel_vectors(6, 3, 0, 6) == (
            (6, 0, 0), (5, 1, 0), (4, 2, 0), (4, 1, 1),
            (3, 3, 0), (3, 2, 1), (2, 2, 2),
        )

    def test_paper_kernel_set_of_1_6(self):
        assert kernel_vectors(6, 3, 1, 6) == ((4, 1, 1), (3, 2, 1), (2, 2, 2))

    def test_paper_kernel_set_of_0_4(self):
        assert kernel_vectors(6, 3, 0, 4) == (
            (4, 2, 0), (4, 1, 1), (3, 3, 0), (3, 2, 1), (2, 2, 2),
        )

    def test_infeasible_gives_empty(self):
        assert kernel_vectors(6, 3, 3, 3) == ()  # 3*3 = 9 > 6
        assert kernel_vectors(6, 3, 0, 1) == ()  # 3*1 = 3 < 6

    def test_entries_within_bounds(self):
        for kernel in kernel_vectors(10, 4, 1, 5):
            assert all(1 <= entry <= 5 for entry in kernel)
            assert sum(kernel) == 10

    def test_all_weakly_decreasing(self):
        for kernel in kernel_vectors(9, 4, 0, 9):
            assert is_kernel_vector(kernel)

    def test_lexicographic_total_order_lemma_3(self):
        for n, m in [(6, 3), (8, 4), (5, 5), (7, 2)]:
            assert kernel_set_is_lexicographically_sorted(
                kernel_vectors(n, m, 0, n)
            )

    def test_matches_brute_force_enumeration(self):
        n, m, low, high = 6, 3, 1, 4
        brute = {
            tuple(sorted(combo, reverse=True))
            for combo in itertools.product(range(low, high + 1), repeat=m)
            if sum(combo) == n
        }
        assert set(kernel_vectors(n, m, low, high)) == brute

    def test_rejects_bad_n_m(self):
        with pytest.raises(ValueError):
            kernel_vectors(-1, 3, 0, 1)
        with pytest.raises(ValueError):
            kernel_vectors(3, 0, 0, 1)


class TestKernelLatticeSharing:
    """The master-filter implementation must match the seed byte for byte."""

    def test_byte_identical_to_seed_for_all_small_grids(self):
        for n in range(0, 13):
            for m in range(1, n + 2):
                for low in range(0, n + 2):
                    for high in range(low, n + 2):
                        assert kernel_vectors(n, m, low, high) == (
                            _seed_kernel_vectors(n, m, low, high)
                        ), (n, m, low, high)

    def test_every_tight_set_filters_the_master(self):
        master = set(kernel_vectors(9, 4, 0, 9))
        for low in range(0, 4):
            for high in range(low, 10):
                assert set(kernel_vectors(9, 4, low, high)) <= master

    @pytest.mark.parametrize("n,m", [(11, 4), (30, 6), (40, 6)])
    def test_filter_path_matches_direct_path(self, n, m):
        # Every (l, u), including lows past the hardest task's floor: with
        # the master cached each is a slice of its (l, n) set, without it
        # a direct enumeration, and both must equal the pruned generator.
        from repro.core.kernel import _KERNEL_SET_CACHE, _descending_compositions

        pairs = [
            (low, high)
            for low in range(0, n // m + 2)
            for high in range(0, n + 1)
        ]
        reference = {
            pair: tuple(_descending_compositions(n, m, *pair)) for pair in pairs
        }

        def evict():  # every pair, hence every (l, n) set and the master
            for pair in pairs:
                _KERNEL_SET_CACHE.pop((n, m, *pair), None)

        evict()
        kernel_vectors(n, m, 0, n)  # cache the master
        for pair in pairs:
            assert kernel_vectors(n, m, *pair) == reference[pair], pair
        evict()
        for pair in pairs:
            _KERNEL_SET_CACHE.pop((n, m, 0, n), None)  # keep the master out
            assert kernel_vectors(n, m, *pair) == reference[pair], pair

    def test_slice_query_counts_once(self):
        # The (l, n) set is probed, not queried: one lookup per call.
        from repro.core.kernel import _KERNEL_SET_CACHE

        kernel_vectors(13, 3, 0, 13)
        _KERNEL_SET_CACHE.pop((13, 3, 2, 13), None)
        _KERNEL_SET_CACHE.pop((13, 3, 2, 7), None)
        before = _KERNEL_SET_CACHE.stats()
        assert kernel_vectors(13, 3, 2, 7) == _seed_kernel_vectors(13, 3, 2, 7)
        after = _KERNEL_SET_CACHE.stats()
        assert (after["hits"], after["misses"]) == (
            before["hits"],
            before["misses"] + 1,
        )
        assert _KERNEL_SET_CACHE.peek((13, 3, 2, 13)) == _seed_kernel_vectors(
            13, 3, 2, 13
        )

    def test_tight_query_never_builds_a_huge_master(self):
        # <200,10,19,21> has 6 vectors; its master has ~1.2e9.  The tight
        # query must use the pruned generator, not the master filter.
        started = time.perf_counter()
        kernels = kernel_vectors(200, 10, 19, 21)
        assert time.perf_counter() - started < 5.0
        assert len(kernels) == count_kernel_vectors(200, 10, 19, 21) == 6

    def test_large_single_family_is_fast(self):
        # The acceptance workload: <60,8,1,30> must complete well under a
        # second (the generous bound absorbs slow CI machines).
        started = time.perf_counter()
        kernels = kernel_vectors(60, 8, 1, 30)
        elapsed = time.perf_counter() - started
        assert len(kernels) == count_kernel_vectors(60, 8, 1, 30)
        assert elapsed < 5.0


class TestCountKernelVectors:
    def test_matches_enumeration_on_randomized_grid(self):
        rng = random.Random(20260727)
        for _ in range(300):
            n = rng.randint(0, 24)
            m = rng.randint(1, 8)
            low = rng.randint(0, 5)
            high = rng.randint(low, max(low, n + 2))
            assert count_kernel_vectors(n, m, low, high) == len(
                kernel_vectors(n, m, low, high)
            ), (n, m, low, high)

    def test_counts_without_materializing_at_scale(self):
        # Far past any size the enumerator could touch: partitions of 400
        # into at most 12 parts, counted exactly.
        assert count_kernel_vectors(400, 12, 0, 400) > 10**12

    def test_infeasible_counts_zero(self):
        assert count_kernel_vectors(6, 3, 3, 3) == 0
        assert count_kernel_vectors(6, 3, 0, 1) == 0

    def test_cross_check_against_output_vector_totals(self):
        # Summing multinomials over the kernel set must equal the task's
        # own DP-free output-vector count, and m**n for the loosest task.
        for n, m, low, high in [(6, 3, 0, 6), (6, 3, 1, 4), (7, 2, 1, 6)]:
            task = SymmetricGSBTask(n, m, low, high)
            by_kernels = sum(
                count_output_vectors(kernel, n)
                for kernel in kernel_vectors(n, m, low, high)
            )
            assert by_kernels == task.count_output_vectors()
        assert sum(
            count_output_vectors(kernel, 5)
            for kernel in kernel_vectors(5, 3, 0, 5)
        ) == 3**5

    def test_rejects_bad_n_m(self):
        with pytest.raises(ValueError):
            count_kernel_vectors(-1, 3, 0, 1)
        with pytest.raises(ValueError):
            count_kernel_vectors(3, 0, 0, 1)


class TestCountAsymmetricCountingVectors:
    def test_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(0, 10)
            m = rng.randint(1, 4)
            lower = tuple(rng.randint(0, 3) for _ in range(m))
            upper = tuple(
                low + rng.randint(0, 5) for low in lower
            )
            task = count_asymmetric_counting_vectors(n, lower, upper)
            brute = sum(
                1
                for combo in itertools.product(range(n + 1), repeat=m)
                if sum(combo) == n
                and all(
                    lo <= c <= min(up, n)
                    for c, lo, up in zip(combo, lower, upper)
                )
            )
            assert task == brute, (n, lower, upper)

    def test_symmetric_case_agrees_with_counting_vectors(self):
        total = count_asymmetric_counting_vectors(6, (1,) * 3, (4,) * 3)
        assert total == sum(1 for _ in counting_vectors(6, 3, 1, 4))


class TestCountingVectors:
    def test_orbit_of_kernel_set(self):
        countings = set(counting_vectors(6, 3, 1, 4))
        kernels = set(kernel_vectors(6, 3, 1, 4))
        assert {kernel_of_counting(c) for c in countings} == kernels

    def test_count_matches_multinomial(self):
        # Output-vector count via kernels equals direct enumeration.
        task = SymmetricGSBTask(5, 3, 0, 2)
        direct = sum(1 for _ in task.output_vectors())
        assert task.count_output_vectors() == direct

    def test_count_output_vectors_per_kernel(self):
        # For kernel (2,1,0) with n=3: 3 value arrangements * 3 process splits.
        assert count_output_vectors((2, 1, 0), 3) == 6 * 3

    def test_count_output_vectors_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="does not sum"):
            count_output_vectors((2, 2), 3)


class TestBalancedKernel:
    def test_divisible(self):
        assert balanced_kernel_vector(6, 3) == (2, 2, 2)

    def test_non_divisible(self):
        assert balanced_kernel_vector(7, 3) == (3, 2, 2)
        assert balanced_kernel_vector(10, 4) == (3, 3, 2, 2)

    def test_in_every_feasible_task(self):
        # The paper: the balanced kernel vector belongs to all tasks.
        for low in range(0, 3):
            for high in range(2, 7):
                kernels = kernel_vectors(6, 3, low, high)
                if kernels:
                    assert (2, 2, 2) in kernels

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            balanced_kernel_vector(5, 0)


class TestKernelSetRealizability:
    def test_paper_counterexample(self):
        # Section 4.1 remark: {[5,1,0],[4,2,1]} does not define a task.
        assert not is_gsb_kernel_set([(5, 1, 0), (4, 2, 1)], 6, 3)

    def test_real_kernel_sets_are_realizable(self):
        for low in range(0, 3):
            for high in range(low, 7):
                kernels = kernel_vectors(6, 3, low, high)
                if kernels:
                    assert is_gsb_kernel_set(kernels, 6, 3)

    def test_rejects_wrong_dimension(self):
        assert not is_gsb_kernel_set([(6, 0)], 6, 3)

    def test_rejects_wrong_sum(self):
        assert not is_gsb_kernel_set([(3, 2, 0)], 6, 3)

    def test_rejects_unsorted(self):
        assert not is_gsb_kernel_set([(0, 6, 0)], 6, 3)

    def test_rejects_empty(self):
        assert not is_gsb_kernel_set([], 6, 3)

    def test_single_balanced_vector_is_a_task(self):
        assert is_gsb_kernel_set([(2, 2, 2)], 6, 3)


def test_is_kernel_vector_edge_cases():
    assert is_kernel_vector(())
    assert is_kernel_vector((5,))
    assert is_kernel_vector((3, 3, 3))
    assert not is_kernel_vector((1, 2))
    assert not is_kernel_vector((2, -1))


def test_count_output_vectors_total_equals_m_power_n_for_loosest_task():
    # <n, m, 0, n> admits every output vector: m ** n of them.
    task = SymmetricGSBTask(4, 3, 0, 4)
    assert task.count_output_vectors() == 3 ** 4
    total = sum(
        count_output_vectors(kernel, 4) for kernel in kernel_vectors(4, 3, 0, 4)
    )
    assert total == 3 ** 4
