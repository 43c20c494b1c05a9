"""Property-based tests over the GSB core (hypothesis).

These are the library's invariants, exercised on randomly drawn task
parameters rather than hand-picked examples: kernel-set structure,
synonym/canonical coherence, containment monotonicity, feasibility, and
the Theorem 8 map.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    SymmetricGSBTask,
    balanced_kernel_vector,
    canonical_parameters,
    canonical_representative,
    is_communication_free_solvable,
    is_gsb_kernel_set,
    is_kernel_vector,
    is_l_anchored,
    is_l_anchored_by_definition,
    is_u_anchored,
    is_u_anchored_by_definition,
    kernel_vectors,
    solve_from_perfect_names,
)


@st.composite
def task_parameters(draw, max_n: int = 9):
    """A (possibly infeasible) symmetric task parameter tuple."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=n))
    low = draw(st.integers(min_value=0, max_value=n))
    high = draw(st.integers(min_value=low, max_value=n))
    return n, m, low, high


@st.composite
def feasible_task(draw, max_n: int = 9):
    """A feasible symmetric GSB task."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=n))
    low = draw(st.integers(min_value=0, max_value=n // m))
    high = draw(st.integers(min_value=max(low, math.ceil(n / m)), max_value=n))
    return SymmetricGSBTask(n, m, low, high)


@given(task_parameters())
def test_kernel_vectors_are_sorted_within_bounds(params):
    n, m, low, high = params
    kernels = kernel_vectors(n, m, low, high)
    for earlier, later in zip(kernels, kernels[1:]):
        assert earlier > later
    for kernel in kernels:
        assert is_kernel_vector(kernel)
        assert sum(kernel) == n
        assert all(max(low, 0) <= entry <= min(high, n) for entry in kernel)


@given(feasible_task())
def test_feasible_tasks_have_nonempty_kernel_with_balanced_member(task):
    assert task.kernel_set
    assert balanced_kernel_vector(task.n, task.m) in task.kernel_set


@given(feasible_task())
def test_kernel_sets_are_realizable(task):
    assert is_gsb_kernel_set(task.kernel_set, task.n, task.m)


@given(feasible_task())
def test_canonical_representative_is_fixed_point_synonym(task):
    representative = canonical_representative(task)
    assert representative.same_task(task)
    low, high = representative.low, representative.high
    assert canonical_parameters(task.n, task.m, low, high) == (low, high)


@given(feasible_task())
def test_canonical_parameters_tighten(task):
    low, high = canonical_parameters(task.n, task.m, task.low, task.high)
    assert low >= task.low
    assert high <= min(task.high, task.n)


@given(task_parameters())
def test_anchoring_closed_forms_match_definition(params):
    task = SymmetricGSBTask(*params)
    assert is_l_anchored(task) == is_l_anchored_by_definition(task)
    assert is_u_anchored(task) == is_u_anchored_by_definition(task)


@given(feasible_task(), st.integers(min_value=0, max_value=9))
def test_containment_monotone_in_bounds(task, delta):
    n, m, low, high = task.parameters
    wider = SymmetricGSBTask(n, m, max(0, low - delta), min(n, high + delta))
    assert wider.includes(task)


@given(feasible_task(), st.randoms(use_true_random=False))
def test_theorem_8_on_random_permutation(task, rng):
    names = list(range(1, task.n + 1))
    rng.shuffle(names)
    outputs = solve_from_perfect_names(task, names)
    assert task.is_legal_output(outputs)


@given(feasible_task())
def test_output_membership_consistent_with_counting_vectors(task):
    witness = task.deterministic_output_vector()
    assert task.is_legal_output(witness)
    from repro.core import counting_vector

    assert counting_vector(witness, task.m) in set(task.counting_vectors())


@given(feasible_task())
def test_communication_free_implies_witness_exists(task):
    from repro.core import (
        communication_free_decision_function,
        decision_function_is_valid,
    )

    solvable = is_communication_free_solvable(task)
    delta = communication_free_decision_function(task)
    assert (delta is not None) == solvable
    if delta is not None and task.n <= 5:
        assert decision_function_is_valid(task, delta)


@st.composite
def witness_cases(draw):
    """A task with n <= 4, m <= 3 and a decision function for it.

    The function is Theorem 9's witness when one exists, or random, and
    may then be perturbed: values outside ``[1..m]`` and a missing or an
    extra identity make it invalid too.
    """
    from repro.core import communication_free_decision_function, identity_space

    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=3))
    low = draw(st.integers(min_value=0, max_value=n))
    high = draw(st.integers(min_value=low, max_value=n))
    task = SymmetricGSBTask(n, m, low, high)
    identities = list(identity_space(n))
    witness = None
    if task.is_feasible and draw(st.booleans()):
        witness = communication_free_decision_function(task)
    if witness is None:
        values = st.integers(min_value=0, max_value=m + 1)
        witness = {identity: draw(values) for identity in identities}
    delta = dict(witness)
    if draw(st.booleans()):
        identity = draw(st.sampled_from(identities))
        delta[identity] = draw(st.integers(min_value=0, max_value=m + 1))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        del delta[draw(st.sampled_from(identities))]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        delta[len(identities) + 1] = 1
    return task, delta


@given(witness_cases())
def test_decision_function_validity_matches_its_definition(case):
    from itertools import combinations

    from repro.core import decision_function_is_valid, identity_space

    task, delta = case
    identities = list(identity_space(task.n))
    expected = set(delta) == set(identities) and all(
        task.is_legal_output([delta[identity] for identity in chosen])
        for chosen in combinations(identities, task.n)
    )
    assert decision_function_is_valid(task, delta) == expected


@given(task_parameters(max_n=7))
def test_partial_output_none_vector_iff_feasible(params):
    task = SymmetricGSBTask(*params)
    assert task.is_legal_partial_output([None] * task.n) == task.is_feasible
