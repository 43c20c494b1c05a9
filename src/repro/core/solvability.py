"""Solvability of GSB tasks (Section 5).

Three tiers of difficulty appear in the paper:

* **Trivial** tasks are solvable with no communication at all; Theorem 9
  characterizes them (for m > 1) as ``l = 0 and u >= ceil((2n-1)/m)``.
* **Wait-free solvable** tasks need communication but have a read/write
  protocol: e.g. WSB and (2n-2)-renaming exactly when the binomial
  coefficients ``C(n, i)`` for ``1 <= i <= floor(n/2)`` are setwise coprime
  (Theorem 10 direction via [17]; sufficiency also due to
  Castaneda-Rajsbaum [17]).
* **Unsolvable** tasks: election (Theorem 11), perfect renaming
  (Corollary 5), and every ``<n, m, l>=1, u>`` task when the binomial set
  is not coprime (Theorem 10, extended to l >= 1 via Lemma 5).

Everything else the paper leaves open; the classifier reports OPEN for
those, which is itself a faithful reproduction of the paper's Section 7.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Iterator

from .bounds import GSBSpecificationError
from .cache_config import managed_cache
from .canonical import canonical_parameters
from .feasibility import is_feasible_symmetric
from .gsb import GSBTask
from .task import identity_space


class Solvability(Enum):
    """Wait-free solvability classification of a GSB task."""

    INFEASIBLE = "infeasible"
    TRIVIAL = "trivial"  # solvable with no communication (Theorem 9)
    SOLVABLE = "wait-free solvable"
    UNSOLVABLE = "not wait-free solvable"
    OPEN = "open"


# ----------------------------------------------------------------------
# Theorem 9: communication-free solvability
# ----------------------------------------------------------------------

def is_communication_free_solvable(task: GSBTask) -> bool:
    """Whether a feasible GSB task is solvable with no communication.

    Symmetric case is Theorem 9's closed form.  The asymmetric case uses
    the same partition argument: a no-communication algorithm is a decision
    function ``delta`` over the 2n-1 identities, valid iff its group sizes
    ``g_v`` satisfy, for every value v, ``min(g_v, n) <= u_v`` and
    ``g_v - (n-1) >= l_v`` whenever ``l_v >= 1`` (the adversary picks which
    n identities participate, so it can include a whole group or exclude
    up to n-1 of its members).
    """
    if not task.is_feasible:
        return False
    if task.m == 1:
        return True
    if task.is_symmetric:
        symmetric = task.as_symmetric()
        return _communication_free_symmetric(
            task.n, task.m, symmetric.low, symmetric.high
        )
    return _communication_free_group_sizes(task) is not None


def _communication_free_symmetric(n: int, m: int, low: int, high: int) -> bool:
    """Theorem 9's symmetric closed form (bounds already clamped, n >= 1)."""
    if m == 1:
        return True
    return low == 0 and high >= -(-(2 * n - 1) // m)


def communication_free_decision_function(task: GSBTask) -> dict[int, int] | None:
    """A witness decision function ``identity -> value``, or None.

    Constructive half of Theorem 9: deterministically partition the
    identity space ``[1..2n-1]`` into groups whose sizes make every
    participating-set count legal.
    """
    if not task.is_feasible:
        return None
    if task.m == 1:
        return {identity: 1 for identity in identity_space(task.n)}
    sizes = _communication_free_group_sizes(task)
    if sizes is None:
        return None
    delta: dict[int, int] = {}
    identities = iter(identity_space(task.n))
    for value, size in enumerate(sizes, start=1):
        for _ in range(size):
            delta[next(identities)] = value
    return delta


def _communication_free_group_sizes(task: GSBTask) -> tuple[int, ...] | None:
    """Group sizes making a partition-based solver valid, or None.

    For the symmetric case the balanced partition of Theorem 9's proof is
    tried first; otherwise a bounded search over compositions of 2n-1 runs
    (small m keeps this cheap).
    """
    n, m = task.n, task.m
    total = 2 * n - 1
    bounds = task.bounds

    def valid(sizes: tuple[int, ...]) -> bool:
        for size, (low, high) in zip(sizes, bounds.pairs()):
            if min(size, n) > high:
                return False
            if low >= 1 and size - (n - 1) < low:
                return False
        return True

    balanced = _balanced_partition_sizes(total, m)
    if valid(balanced):
        return balanced
    for sizes in _size_compositions(total, m, n, bounds):
        if valid(sizes):
            return sizes
    return None


def _balanced_partition_sizes(total: int, m: int) -> tuple[int, ...]:
    quotient, remainder = divmod(total, m)
    return (quotient + 1,) * remainder + (quotient,) * (m - remainder)


def _size_compositions(total, m, n, bounds) -> Iterator[tuple[int, ...]]:
    """Candidate group-size vectors, pruned per-value by the validity bounds."""
    per_value_ranges = []
    for low, high in bounds.pairs():
        smallest = (low + n - 1) if low >= 1 else 0
        largest = total if high >= n else high
        if smallest > largest:
            return
        per_value_ranges.append(range(smallest, largest + 1))
    for sizes in itertools.product(*per_value_ranges):
        if sum(sizes) == total:
            yield sizes


def brute_force_communication_free(task: GSBTask) -> bool:
    """Exhaustive search over all decision functions (tiny tasks only).

    Used by tests to validate Theorem 9 and the group-size argument.
    Cost is m ** (2n-1) * C(2n-1, n); keep n <= 4 and m <= 3.
    """
    n, m = task.n, task.m
    identities = list(identity_space(n))
    for assignment in itertools.product(range(1, m + 1), repeat=len(identities)):
        delta = dict(zip(identities, assignment))
        if decision_function_is_valid(task, delta):
            return True
    return False


def decision_function_is_valid(task: GSBTask, delta: dict[int, int]) -> bool:
    """Whether ``delta`` solves ``task`` for every participating id set.

    Legality reads only the counting vector, so each multiset of outputs
    is decided once.
    """
    identities = list(identity_space(task.n))
    if set(delta) != set(identities):
        return False
    legal: dict[tuple[int, ...], bool] = {}
    for chosen in itertools.combinations(identities, task.n):
        outputs = tuple(sorted(map(delta.__getitem__, chosen)))
        verdict = legal.get(outputs)
        if verdict is None:
            verdict = legal[outputs] = task.is_legal_output(outputs)
        if not verdict:
            return False
    return True


def homonymous_decision_function(n: int, x: int) -> dict[int, int]:
    """Corollary 2's solver for x-bounded homonymous renaming.

    Process with identity ``id`` decides ``ceil(id / x)``.
    """
    if x < 1:
        raise ValueError(f"x must be at least 1, got {x}")
    return {identity: -(-identity // x) for identity in identity_space(n)}


# ----------------------------------------------------------------------
# Theorem 10: the binomial-coefficient coprimality condition
# ----------------------------------------------------------------------

@managed_cache("solvability.binomial_gcd")
def binomial_gcd(n: int) -> int:
    """``gcd{ C(n, i) : 1 <= i <= floor(n/2) }`` (0 when the set is empty).

    By Ram's theorem the gcd is p when ``n = p**k`` and 1 otherwise, so
    below 2**64 it is read off n's prime-power structure in microseconds;
    at and above 2**64, where :func:`_is_prime` is no longer proven, it
    is :func:`explicit_binomial_gcd`.
    """
    if n < 2:
        return 0
    if n >= PRIME_POWER_GCD_BOUND:
        return explicit_binomial_gcd(n)
    return _prime_power_base(n) or 1


def explicit_binomial_gcd(n: int) -> int:
    """The gcd of Theorem 10's binomial set, computed from every member:
    the definition :func:`binomial_gcd` answers by Ram's theorem."""
    if n < 2:
        return 0
    return math.gcd(*(math.comb(n, i) for i in range(1, n // 2 + 1)))


#: :func:`binomial_gcd` reads the gcd off n's prime-power structure
#: below this bound, where :func:`_is_prime` is exact.
PRIME_POWER_GCD_BOUND = 1 << 64

#: Miller-Rabin bases, the first twelve primes: no composite below
#: 318665857834031151167461 (about 3.2 * 10**23, Sorenson and Webster,
#: 2015) is a strong pseudoprime to all of them, so they decide every
#: n < 2**64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``2 <= n < 2**64``."""
    for prime in _WITNESSES:
        if n % prime == 0:
            return n == prime
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _WITNESSES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """``floor(n ** (1/k))``, exact: the float guess is corrected in
    integers."""
    root = int(round(n ** (1.0 / k)))
    while root**k > n:
        root -= 1
    while (root + 1) ** k <= n:
        root += 1
    return root


def _prime_power_base(n: int) -> int | None:
    """p when ``n = p**k`` for a prime p and k >= 1, else None
    (``2 <= n < 2**64``).

    A perfect power ``n = r**q`` is a prime power exactly when r is one
    (with the same prime), and a perfect k-th power is a perfect q-th
    power for each prime q dividing k, so prime exponents suffice.
    """
    if _is_prime(n):
        return n
    for exponent in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                     47, 53, 59, 61):
        if 1 << exponent > n:
            break
        root = _integer_root(n, exponent)
        if root**exponent == n:
            return _prime_power_base(root)
    return None


def binomials_coprime(n: int) -> bool:
    """Whether the binomial set of Theorem 10 is "prime" (setwise coprime).

    By Ram's classical theorem this holds exactly when n is *not* a prime
    power; :func:`is_prime_power` provides the independent cross-check used
    in tests.  For n < 2 the set is empty and we treat it as coprime
    (the tasks involved are trivial).
    """
    if n < 2:
        return True
    return binomial_gcd(n) == 1


def is_prime_power(n: int) -> bool:
    """Whether ``n = p**k`` for a prime p and k >= 1."""
    if n < 2:
        return False
    for prime in _primes_up_to(n):
        if n % prime == 0:
            while n % prime == 0:
                n //= prime
            return n == 1
    return False


def _primes_up_to(n: int) -> Iterator[int]:
    sieve = [True] * (n + 1)
    for candidate in range(2, n + 1):
        if sieve[candidate]:
            yield candidate
            for multiple in range(candidate * candidate, n + 1, candidate):
                sieve[multiple] = False


def wsb_wait_free_solvable(n: int) -> bool:
    """Solvability of WSB / (2n-2)-renaming / 2-slot, by the gcd condition.

    Unsolvability when the binomial set is not coprime is Theorem 10 (via
    [17, 29]); solvability when it is coprime is Castaneda-Rajsbaum's
    matching upper bound, which the paper cites as [17].
    """
    if n < 2:
        return True
    return binomials_coprime(n)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
#
# Tier 1 of the decision-procedure stack (:mod:`repro.decision`): every
# closed-form verdict below is *certified* — alongside the verdict and
# its one-line reason, the classifier emits a plain-dict certificate
# payload naming the rule applied and the parameters it was applied
# with.  :mod:`repro.decision.certificates` wraps these payloads in
# typed certificates whose ``check()`` re-derives each rule with
# independent code.  The legacy :func:`classify`/:func:`classify_parameters`
# API is a thin projection that drops the payload — pinned byte-identical
# to the pre-certificate behavior by the tier-1 suite.

def certificate_payload(
    rule: str,
    task: tuple[int, int, int, int],
    verdict: "Solvability",
    cite: str,
    **params,
) -> dict:
    """Canonical shape of a tier-1 (theorem) certificate payload."""
    return {
        "kind": "theorem",
        "rule": rule,
        "task": list(task),
        "verdict": verdict.value,
        "cite": cite,
        "params": params,
    }


def classify(task: GSBTask) -> tuple[Solvability, str]:
    """Wait-free solvability classification with a one-line justification.

    The classifier applies, in order: feasibility (Lemma 1), Theorem 9,
    Corollary 5 (perfect renaming), Theorem 11 (election), Theorem 10
    (extended to l >= 1 through Lemma 5), and the WSB/(2n-2)-renaming
    characterization.  Anything beyond those results is reported OPEN,
    matching the paper's open-problem list.

    Symmetric tasks are routed through the memoized
    :func:`classify_parameters` layer: classification is a pure function
    of ``<n, m, l, u>``, and family sweeps (Table 1, Figure 1, the atlas,
    benchmarks) re-classify the same parameters many times.
    """
    if task.is_symmetric:
        symmetric = task.as_symmetric()
        return classify_parameters(
            symmetric.n, symmetric.m, symmetric.low, symmetric.high
        )
    return _classify_uncached(task)


def classify_parameters(
    n: int, m: int, low: int, high: int
) -> tuple[Solvability, str]:
    """Memoized classification of the symmetric task ``<n, m, low, high>``.

    Pure closed forms over the parameters — no task or bound objects are
    built, which is what lets census sweeps classify hundreds of
    thousands of parameterizations per second.  Thin wrapper over
    :func:`classify_parameters_certified` (tier 1 of the decision stack)
    that drops the certificate payload; the memo is process-wide and
    bounded by :mod:`repro.core.cache_config`, inspectable via
    :func:`classification_cache_info`.
    """
    return classify_parameters_certified(n, m, low, high)[:2]


@managed_cache("solvability.classify_parameters")
def classify_parameters_certified(
    n: int, m: int, low: int, high: int
) -> tuple[Solvability, str, dict | None]:
    """Certified closed-form classification: verdict, reason, certificate.

    The third element is a tier-1 certificate payload
    (:func:`certificate_payload`) naming the theorem applied, or None
    when the parameters fall outside the paper's closed forms (verdict
    OPEN — there is nothing to certify).
    """
    # Mirror the SymmetricGSBTask constructor the old implementation went
    # through: malformed specs raise (same messages, same precedence —
    # bound checks before the process-count check) rather than being
    # classified as merely infeasible.
    low = max(low, 0)
    if m < 1:
        raise GSBSpecificationError(f"m must be at least 1, got {m}")
    if high < 0:
        raise GSBSpecificationError(
            f"upper bound of value 1 is negative: {high}"
        )
    if low > high:
        raise GSBSpecificationError(
            f"value 1 has lower bound {low} > upper bound {high}"
        )
    if n < 1:
        raise GSBSpecificationError(f"need at least one process, got n={n}")
    high = min(high, n)
    key = (n, m, low, high)
    if not is_feasible_symmetric(n, m, low, high):
        return (
            Solvability.INFEASIBLE,
            "empty output set (Lemma 1)",
            certificate_payload(
                "lemma1-infeasible", key, Solvability.INFEASIBLE, "Lemma 1"
            ),
        )
    if n == 1:
        return (
            Solvability.TRIVIAL,
            "single process decides alone",
            certificate_payload(
                "single-process", key, Solvability.TRIVIAL, "Section 3"
            ),
        )
    if _communication_free_symmetric(n, m, low, high):
        return (
            Solvability.TRIVIAL,
            "communication-free (Theorem 9)",
            certificate_payload(
                "theorem9",
                key,
                Solvability.TRIVIAL,
                "Theorem 9",
                threshold=-(-(2 * n - 1) // m),
            ),
        )
    return _classify_symmetric_parameters(n, m, low, high)


def classification_cache_info():
    """Hit/miss statistics of the memoized classification layer."""
    return classify_parameters_certified.cache_info()


def clear_classification_cache() -> None:
    """Drop all memoized classifications (mainly for benchmarks/tests)."""
    classify_parameters_certified.cache_clear()


def _classify_uncached(task: GSBTask) -> tuple[Solvability, str]:
    if not task.is_feasible:
        return Solvability.INFEASIBLE, "empty output set (Lemma 1)"
    if task.n == 1:
        return Solvability.TRIVIAL, "single process decides alone"
    if is_communication_free_solvable(task):
        return Solvability.TRIVIAL, "communication-free (Theorem 9)"
    if task.is_symmetric:
        symmetric = task.as_symmetric()
        return _classify_symmetric_parameters(
            symmetric.n, symmetric.m, symmetric.low, symmetric.high
        )[:2]
    if _is_election(task):
        return Solvability.UNSOLVABLE, "election (Theorem 11)"
    return Solvability.OPEN, "asymmetric task outside the paper's results"


def _classify_symmetric_parameters(
    n: int, m: int, low: int, high: int
) -> tuple[Solvability, str, dict | None]:
    """Sections 5.2-5.3 for a feasible, non-trivial symmetric task."""
    key = (n, m, low, high)
    low_c, high_c = canonical_parameters(n, m, low, high)
    if (m, low_c, high_c) == (n, 1, 1):
        return (
            Solvability.UNSOLVABLE,
            "perfect renaming (Corollary 5)",
            certificate_payload(
                "corollary5-perfect",
                key,
                Solvability.UNSOLVABLE,
                "Corollary 5",
                canonical=[low_c, high_c],
            ),
        )
    if low_c >= 1 and m > 1 and not binomials_coprime(n):
        return (
            Solvability.UNSOLVABLE,
            f"l >= 1 and gcd{{C({n},i)}} = {binomial_gcd(n)} != 1 "
            "(Theorem 10 with Lemma 5)",
            certificate_payload(
                "theorem10-lemma5",
                key,
                Solvability.UNSOLVABLE,
                "Theorem 10 with Lemma 5",
                canonical=[low_c, high_c],
                gcd=binomial_gcd(n),
            ),
        )
    is_wsb = (
        n >= 2
        and m == 2
        and (low_c, high_c) == canonical_parameters(n, 2, 1, n - 1)
    )
    if is_wsb:
        if binomials_coprime(n):
            return (
                Solvability.SOLVABLE,
                "WSB with coprime binomials (Castaneda-Rajsbaum via [17, 29])",
                certificate_payload(
                    "wsb-solvable",
                    key,
                    Solvability.SOLVABLE,
                    "Theorem 10 / [17, 29]",
                    canonical=[low_c, high_c],
                    gcd=binomial_gcd(n),
                ),
            )
        return (
            Solvability.UNSOLVABLE,
            "WSB with non-coprime binomials (Theorem 10)",
            certificate_payload(
                "wsb-unsolvable",
                key,
                Solvability.UNSOLVABLE,
                "Theorem 10",
                canonical=[low_c, high_c],
                gcd=binomial_gcd(n),
            ),
        )
    if m == 2 * n - 2 and (low_c, high_c) == (0, 1):
        if binomials_coprime(n):
            return (
                Solvability.SOLVABLE,
                "(2n-2)-renaming, equivalent to WSB [29], binomials coprime",
                certificate_payload(
                    "renaming-2n2-solvable",
                    key,
                    Solvability.SOLVABLE,
                    "Theorem 10 / [17, 29]",
                    canonical=[low_c, high_c],
                    gcd=binomial_gcd(n),
                ),
            )
        return (
            Solvability.UNSOLVABLE,
            "(2n-2)-renaming with non-coprime binomials [17]",
            certificate_payload(
                "renaming-2n2-unsolvable",
                key,
                Solvability.UNSOLVABLE,
                "Theorem 10 / [17]",
                canonical=[low_c, high_c],
                gcd=binomial_gcd(n),
            ),
        )
    return (
        Solvability.OPEN,
        "between trivial and perfect renaming; open in the paper",
        None,
    )


def _is_election(task: GSBTask) -> bool:
    if task.m != 2 or task.n < 2:
        return False
    return set(task.counting_vectors()) == {(1, task.n - 1)}
