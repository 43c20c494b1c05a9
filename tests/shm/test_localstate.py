"""Unit tests for local-state signatures of suspended generators.

The frame-signature analysis (:mod:`repro.shm.localstate`) is the
trie-to-DAG lever of the orbit quotient: two histories whose suspended
generators agree on live locals must merge, and any code the analysis
cannot vouch for must yield None (the caller falls back to history
identity, which is always sound).  These tests pin both directions.
"""

import sys

import pytest

from repro.shm.localstate import (
    UNBOUND,
    code_token,
    generator_signature,
    suspension_profile,
)
from repro.shm.runtime import freeze_value

pre_314 = pytest.mark.skipif(
    sys.version_info >= (3, 14),
    reason="signature generation is hard-disabled on unvetted bytecode",
)


def sig(generator):
    return generator_signature(generator, freeze_value)


def simple(x):
    total = x
    yield total
    scratch = total * 2
    yield scratch
    return scratch


def with_dead_local(x):
    scratch = x * 100  # dead after this yield: never read again
    yield scratch
    yield x


def yield_in_expression(x):
    total = (yield x) + (yield x)
    return total


def delegating(x):
    prefix = x + 1
    result = yield from simple(prefix)
    yield result


class TestCodeToken:
    def test_token_is_stable(self):
        token = code_token(simple.__code__)
        assert token == code_token(simple.__code__)
        assert simple.__qualname__ in token[0]

    def test_distinct_functions_distinct_tokens(self):
        assert code_token(simple.__code__) != code_token(
            with_dead_local.__code__
        )


class TestSuspensionProfile:
    def test_plain_yields_are_ok(self):
        profile = suspension_profile(simple.__code__)
        assert profile.ok
        assert profile.live_at  # at least one analysable suspension

    def test_profile_never_raises_on_non_generator_code(self):
        profile = suspension_profile(code_token.__code__)
        assert profile.ok in (True, False)  # contract: returns, not raises


class TestGeneratorSignature:
    @pre_314
    def test_equal_states_equal_signatures(self):
        first, second = simple(5), simple(5)
        next(first), next(second)
        assert sig(first) == sig(second) is not None

    @pre_314
    def test_live_local_differences_show_up(self):
        first, second = simple(5), simple(6)
        next(first), next(second)
        assert sig(first) != sig(second)

    @pre_314
    def test_dead_locals_are_filtered(self):
        # After the first yield `scratch` is dead; generators that got
        # there with different scratch values share a signature.
        first, second = with_dead_local(1), with_dead_local(2)
        next(first), next(second)
        next(first), next(second)  # suspend at the second yield
        first_sig, second_sig = sig(first), sig(second)
        assert first_sig is not None
        # Nothing is read after the final yield: scratch AND x are both
        # dead, so the two generators collapse to one local state even
        # though every raw local differs.
        names = {name for _, _, items in first_sig for name, _ in items}
        assert "scratch" not in names
        assert first_sig == second_sig

    @pre_314
    def test_yield_inside_expression_gets_no_signature(self):
        # The second yield of `a + b` suspends with the first operand
        # still on the stack; the analysis must refuse rather than guess.
        gen = yield_in_expression(3)
        next(gen)
        gen.send(1)  # now suspended mid-expression
        assert sig(gen) is None

    @pre_314
    def test_delegation_walks_the_yieldfrom_chain(self):
        gen = delegating(1)
        next(gen)
        signature = sig(gen)
        assert signature is not None
        assert len(signature) == 2  # outer frame + delegated frame
        tokens = [token for token, _, _ in signature]
        assert code_token(delegating.__code__) in tokens
        assert code_token(simple.__code__) in tokens

    @pre_314
    def test_unbound_locals_use_the_sentinel(self):
        def late_binding():
            yield 1
            bound_late = 2
            yield bound_late

        gen = late_binding()
        next(gen)
        signature = sig(gen)
        if signature is None:
            pytest.skip("bound_late dead at first yield on this bytecode")
        items = dict(signature[0][2])
        if "bound_late" in items:
            assert items["bound_late"] is UNBOUND

    def test_exhausted_generator_has_no_signature(self):
        gen = simple(1)
        list(gen)
        assert sig(gen) is None

    def test_non_generator_has_no_signature(self):
        assert generator_signature(object(), freeze_value) is None

    @pre_314
    def test_unfreezable_locals_yield_none(self):
        def holds_unhashable():
            blob = {"nested": [1, 2]}
            yield 1
            yield blob

        gen = holds_unhashable()
        next(gen)
        # freeze_value freezes dicts/lists; an identity "freeze" that
        # returns the raw unhashable must be rejected at the hash check.
        assert generator_signature(gen, lambda value: value) is None
