"""Theorem 10's binomial condition, tabulated (experiment E-GCD).

Theorem 10 hinges on whether ``{C(n,i) : 1 <= i <= floor(n/2)}`` is
setwise coprime.  By Ram's classical theorem the gcd is p when n is a
prime power p^k and 1 otherwise, so the WSB-family tasks flip solvability
along the prime-power structure of n.  This module tabulates the
condition and the downstream verdicts for ranges of n.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.solvability import (
    binomials_coprime,
    explicit_binomial_gcd,
    is_prime_power,
    wsb_wait_free_solvable,
)
from .reporting import render_table


@dataclass(frozen=True)
class BinomialRow:
    """Theorem 10's data for one n."""

    n: int
    gcd: int
    coprime: bool
    prime_power: bool
    wsb_solvable: bool
    renaming_2n2_solvable: bool


def binomial_table(max_n: int = 32, min_n: int = 2) -> list[BinomialRow]:
    """Rows for n in [min_n..max_n]; the gcd is computed from every
    binomial, so the table shows Ram's theorem instead of assuming it."""
    rows = []
    for n in range(min_n, max_n + 1):
        rows.append(
            BinomialRow(
                n=n,
                gcd=explicit_binomial_gcd(n),
                coprime=binomials_coprime(n),
                prime_power=is_prime_power(n),
                wsb_solvable=wsb_wait_free_solvable(n),
                renaming_2n2_solvable=wsb_wait_free_solvable(n),
            )
        )
    return rows


def check_ram_theorem(max_n: int = 256) -> list[int]:
    """Cross-check gcd{C(n,i)} == 1 iff n is not a prime power, with
    the gcd computed from every binomial (the production
    :func:`~repro.core.solvability.binomial_gcd` assumes the theorem).

    Returns the n values violating the equivalence (expected: none).
    """
    return [
        n
        for n in range(2, max_n + 1)
        if (explicit_binomial_gcd(n) == 1) == is_prime_power(n)
    ]


def render_binomial_table(max_n: int = 32) -> str:
    """ASCII table of the condition and WSB/(2n-2)-renaming verdicts."""
    rows = binomial_table(max_n)
    return "Theorem 10 condition: gcd{C(n,i) : 1 <= i <= n/2}\n" + render_table(
        ["n", "gcd", "coprime", "prime power", "WSB solvable",
         "(2n-2)-renaming solvable"],
        [
            [row.n, row.gcd, row.coprime, row.prime_power, row.wsb_solvable,
             row.renaming_2n2_solvable]
            for row in rows
        ],
        aligns=["r", "r", "l", "l", "l", "l"],
    )


def solvable_wsb_values(max_n: int = 64) -> list[int]:
    """The n values (>= 2) for which WSB is wait-free solvable."""
    return [n for n in range(2, max_n + 1) if wsb_wait_free_solvable(n)]
