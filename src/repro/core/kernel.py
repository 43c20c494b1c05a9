"""Counting vectors and kernel vectors of GSB tasks (Section 4.1).

For an output vector ``O`` of an ``<n, m, l, u>`` task, the *counting vector*
records how many processes decided each value: ``V[v] = #v(O)``.  Because a
symmetric GSB task treats all values interchangeably, counting vectors that
are permutations of one another describe the same symmetry class; the
*kernel vector* is the canonical member of such a class, sorted in weakly
decreasing order (Definition 4).  The *kernel set* of a task — the set of its
kernel vectors — is a complete, finite description of the task: two symmetric
GSB tasks are synonyms exactly when their kernel sets coincide.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from .cache_config import BoundedDictCache, managed_cache

KernelVector = tuple[int, ...]


def counting_vector(output_vector: Sequence[int], m: int) -> tuple[int, ...]:
    """Counting vector of an output vector (Definition 3).

    Args:
        output_vector: decided values, one per process, each in ``[1..m]``.
        m: number of possible output values.

    Returns:
        The m-tuple whose v-th entry is the number of processes deciding v.
    """
    counts = [0] * m
    for value in output_vector:
        if not 1 <= value <= m:
            raise ValueError(f"output value {value} outside [1..{m}]")
        counts[value - 1] += 1
    return tuple(counts)


def kernel_of_counting(counts: Sequence[int]) -> KernelVector:
    """Kernel vector representing a counting vector (Definition 4)."""
    return tuple(sorted(counts, reverse=True))


def is_kernel_vector(vector: Sequence[int]) -> bool:
    """True when ``vector`` is weakly decreasing with non-negative entries."""
    return all(entry >= 0 for entry in vector) and all(
        earlier >= later for earlier, later in zip(vector, vector[1:])
    )


def kernel_vectors(n: int, m: int, low: int, high: int) -> tuple[KernelVector, ...]:
    """Kernel set of the symmetric ``<n, m, low, high>`` GSB task.

    The kernel set is the family of weakly decreasing m-tuples that sum to n
    with every entry in ``[low..high]``, listed in descending lexicographic
    order (the total order of Lemma 3).

    Kernel sets within one ``<n, m, -, ->`` family form a lattice under the
    subset order, all contained in the loosest task's set (Table 1's column
    set).  The implementation exploits this: once the ``<n, m, 0, n>``
    master list has been enumerated (iteratively) and cached — which every
    family sweep does first, via the store's kernel columns — every tighter
    ``(low, high)`` set is derived from it: a weakly decreasing vector
    lies within bounds exactly when its first entry is ``<= high`` and its
    last ``>= low``.  The master is filtered once per ``low`` into the
    ``(low, n)`` set, and each ``high`` is a bisected slice of that.  A
    whole family sweep therefore pays for one enumeration and one filter
    per ``l`` instead of one of each per ``(l, u)`` pair.  A tight query
    whose master is *not* cached enumerates directly with the pruned
    generator — the master can be astronomically larger than the
    requested set (e.g. ``<200,10,19,21>`` has 6 vectors, its master
    1.2e9), so it is never built speculatively.

    Returns an empty tuple when the task is infeasible.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    return _kernel_vectors_cached(n, m, max(low, 0), min(high, n))


_KERNEL_SET_CACHE = BoundedDictCache("kernel.kernel_sets")


def _kernel_vectors_cached(
    n: int, m: int, low: int, high: int
) -> tuple[KernelVector, ...]:
    key = (n, m, low, high)
    cached = _KERNEL_SET_CACHE.get(key)
    if cached is not None:
        return cached
    master = _KERNEL_SET_CACHE.peek((n, m, 0, n))
    if master is not None:
        # The master list is in descending lexicographic order and
        # filtering preserves it, so the (low, n) set — filtered once per
        # low and cached under its own key — keeps that order.  Its first
        # entries never increase, so the vectors with first entry <= high
        # are a suffix: each high is a bisected slice, equal to the filter.
        floor = _KERNEL_SET_CACHE.peek((n, m, low, n))
        if floor is None:
            floor = tuple(vector for vector in master if vector[-1] >= low)
            _KERNEL_SET_CACHE.put((n, m, low, n), floor)
        result = floor[bisect_left(floor, -high, key=_negated_first):]
    else:
        result = tuple(_descending_compositions(n, m, low, high))
    _KERNEL_SET_CACHE.put(key, result)
    return result


def _negated_first(vector: KernelVector) -> int:
    return -vector[0]


def _descending_compositions(
    remaining: int, slots: int, low: int, high: int
) -> Iterator[KernelVector]:
    """Weakly decreasing `slots`-tuples summing to `remaining`, entries in [low..high].

    Iterative depth-first walk (explicit choice stack) yielding descending
    lexicographic order; each output tuple is built exactly once, with no
    per-level ``(first, *rest)`` rebuilding and no recursion depth limit.
    """
    if slots == 0:
        if remaining == 0:
            yield ()
        return
    prefix: list[int] = []
    sums = [remaining] + [0] * slots  # sums[d]: total still to place at depth d

    def choices(depth: int) -> Iterator[int]:
        rest = sums[depth]
        left = slots - depth
        cap = prefix[depth - 1] if depth else high
        # The largest entry must be at least the average of what is left
        # (the weakly-decreasing suffix cannot absorb more), and must leave
        # at least `low` per remaining slot.
        top = min(cap, rest - low * (left - 1))
        bottom = max(low, -(-rest // left))
        return iter(range(top, bottom - 1, -1))

    stack = [choices(0)]
    while stack:
        depth = len(stack) - 1
        value = next(stack[-1], None)
        if value is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        if depth + 1 == slots:
            yield (*prefix, value)
            continue
        prefix.append(value)
        sums[depth + 1] = sums[depth] - value
        stack.append(choices(depth + 1))


def count_kernel_vectors(n: int, m: int, low: int, high: int) -> int:
    """``len(kernel_vectors(n, m, low, high))`` without materializing vectors.

    Counts weakly decreasing m-tuples summing to n with entries in
    ``[low..high]`` by a bounded-partition DP: subtracting ``low`` from
    every entry leaves partitions of ``n - m*low`` into at most m parts,
    each at most ``high - low``.  Census-style workloads (solvability and
    synonym rollups over whole parameter grids) use this to avoid
    enumerating a single vector.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    low = max(low, 0)
    high = min(high, n)
    if low > high:
        return 0
    shifted = n - m * low
    if shifted < 0:
        return 0
    return _count_bounded_partitions(shifted, m, high - low)


@managed_cache("kernel.count_bounded_partitions")
def _count_bounded_partitions(total: int, slots: int, cap: int) -> int:
    """Partitions of ``total`` into at most ``slots`` parts, each ``<= cap``."""
    if total == 0:
        return 1
    if slots == 0 or cap == 0:
        return 0
    top = min(cap, total)
    bottom = -(-total // slots)
    if bottom > top:
        return 0
    # Branch on the largest part; the remainder is a smaller instance with
    # the cap lowered to it (recursion depth is at most `slots`).
    return sum(
        _count_bounded_partitions(total - first, slots - 1, first)
        for first in range(bottom, top + 1)
    )


def counting_vectors(n: int, m: int, low: int, high: int) -> Iterator[tuple[int, ...]]:
    """All counting vectors of the symmetric ``<n, m, low, high>`` GSB task.

    These are all (ordered) m-tuples summing to n with entries in
    ``[low..high]`` — the orbit of the kernel set under permutations.
    """
    yield from _compositions(n, m, max(low, 0), min(high, n))


def _compositions(
    remaining: int, slots: int, low: int, high: int
) -> Iterator[tuple[int, ...]]:
    if slots == 0:
        if remaining == 0:
            yield ()
        return
    top = min(high, remaining - low * (slots - 1))
    for first in range(low, top + 1):
        for rest in _compositions(remaining - first, slots - 1, low, high):
            yield (first, *rest)


def asymmetric_counting_vectors(
    n: int, lower: Sequence[int], upper: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """All counting vectors admitted by per-value bounds (asymmetric case)."""
    yield from _bounded_compositions(n, tuple(lower), tuple(upper))


def _bounded_compositions(
    remaining: int, lower: tuple[int, ...], upper: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    if not lower:
        if remaining == 0:
            yield ()
        return
    low, high = lower[0], min(upper[0], remaining)
    # Remaining slots must be able to absorb what is left.
    min_rest = sum(lower[1:])
    max_rest = sum(upper[1:])
    for first in range(max(low, remaining - max_rest), high + 1):
        if remaining - first < min_rest:
            break
        for rest in _bounded_compositions(remaining - first, lower[1:], upper[1:]):
            yield (first, *rest)


def count_asymmetric_counting_vectors(
    n: int, lower: Sequence[int], upper: Sequence[int]
) -> int:
    """Number of counting vectors admitted by per-value bounds, by DP.

    Counts the bounded compositions :func:`asymmetric_counting_vectors`
    would enumerate — ``O(m * n**2)`` work versus the potentially
    exponential composition count — so synonym/containment checks can
    reject mismatched tasks without materializing either side.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    ways = [0] * (n + 1)
    ways[0] = 1
    for low, high in zip(lower, upper):
        low = max(low, 0)
        high = min(high, n)
        if low > high:
            return 0
        nxt = [0] * (n + 1)
        for partial, count in enumerate(ways):
            if not count:
                continue
            for chosen in range(low, min(high, n - partial) + 1):
                nxt[partial + chosen] += count
        ways = nxt
    return ways[n]


def balanced_kernel_vector(n: int, m: int) -> KernelVector:
    """The balanced kernel vector of Definition 4.

    ``[n/m, ..., n/m]`` when m divides n, otherwise ``n mod m`` entries equal
    to ``ceil(n/m)`` followed by ``floor(n/m)`` entries.  This vector belongs
    to every feasible symmetric ``<n, m, -, ->`` task (see Table 1's last
    column) and is the single kernel vector of the hardest task (Theorem 5).
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    quotient, remainder = divmod(n, m)
    return (quotient + 1,) * remainder + (quotient,) * (m - remainder)


def kernel_set_is_lexicographically_sorted(
    kernel_set: Sequence[KernelVector],
) -> bool:
    """Check the total-order property of Lemma 3 on an ordered kernel set."""
    return all(
        earlier > later for earlier, later in zip(kernel_set, kernel_set[1:])
    )


def bounds_from_kernel_set(
    kernel_set: Iterable[KernelVector],
) -> tuple[int, int] | None:
    """Tightest symmetric ``(low, high)`` pair covering a kernel set.

    Returns None for an empty set.  Note that the covering task may admit
    *more* kernel vectors than the given set; :func:`is_gsb_kernel_set`
    checks whether the set is exactly realizable.
    """
    kernel_set = list(kernel_set)
    if not kernel_set:
        return None
    low = min(min(vector) for vector in kernel_set)
    high = max(max(vector) for vector in kernel_set)
    return low, high


def is_gsb_kernel_set(kernel_set: Iterable[KernelVector], n: int, m: int) -> bool:
    """Whether a set of kernel vectors is the kernel set of some GSB task.

    The paper's Section 4.1 remark observes that not every set of kernel
    vectors defines a task: e.g. for n=6, m=3 the set
    ``{[5,1,0], [4,2,1]}`` is not the kernel set of any ``<6,3,l,u>`` task.
    A set is realizable exactly when it equals the full kernel set of the
    tightest symmetric bounds that cover it.
    """
    kernel_set = {tuple(vector) for vector in kernel_set}
    for vector in kernel_set:
        if len(vector) != m:
            return False
        if sum(vector) != n:
            return False
        if not is_kernel_vector(vector):
            return False
    bounds = bounds_from_kernel_set(kernel_set)
    if bounds is None:
        return False
    low, high = bounds
    return kernel_set == set(kernel_vectors(n, m, low, high))


def count_output_vectors(kernel: KernelVector, n: int) -> int:
    """Number of output vectors whose counting vector sorts to ``kernel``.

    This is the multinomial coefficient ``n! / prod(k_i!)`` (choice of which
    processes decide which count class) times the number of distinct value
    assignments, i.e. permutations of the kernel entries over the m values
    divided by repetitions among equal entries.  Used by tests to
    cross-check enumeration against closed-form counting.
    """
    if sum(kernel) != n:
        raise ValueError(f"kernel {kernel} does not sum to n={n}")
    # Distinct counting vectors obtained by permuting the kernel entries:
    arrangements = math.factorial(len(kernel))
    for entry in set(kernel):
        arrangements //= math.factorial(kernel.count(entry))
    # Output vectors per counting vector: multinomial(n; k_1, ..., k_m).
    per_counting = math.factorial(n)
    for entry in kernel:
        per_counting //= math.factorial(entry)
    return arrangements * per_counting
