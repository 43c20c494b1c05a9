"""The decision-map search's path, pinned.

The search's occupancy counters replaced a per-assignment re-check of
every touched facet (:meth:`GSBTask.is_legal_partial_output` on each
facet's partial vector).  The tables below were recorded with that
re-check: for each task and round count, the number of assignments the
search tries (``None``: it exhausts a budget of 20,000 assignments) and
the map it finds, as the value of each class in
:func:`repro.topology.decision.decision_class_order`, one digit each
(``None``: no map).  Any change to class order, value order, pruning or
the budget rule moves a count or a map.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import BoundVector
from repro.core.gsb import GSBTask, SymmetricGSBTask
from repro.topology.decision import (
    FacetOccupancy,
    decision_class_order,
    search_decision_map,
)
from repro.topology.is_complex import ISProtocolComplex

BUDGET = 20_000

#: Every feasible symmetric <n, m, l, u> with m <= 2n - 1, at n <= 3 for
#: r <= 2 and at n = 4 for r = 1: (n, m, l, u, r) -> (tried, map).
SYMMETRIC_PINS = {
    (2, 1, 0, 2, 1): (3, "111"),
    (2, 1, 1, 2, 1): (3, "111"),
    (2, 1, 2, 2, 1): (3, "111"),
    (2, 2, 0, 1, 1): (5, None),
    (2, 2, 0, 2, 1): (3, "111"),
    (2, 2, 1, 1, 1): (5, None),
    (2, 2, 1, 2, 1): (5, None),
    (2, 3, 0, 1, 1): (6, "123"),
    (2, 3, 0, 2, 1): (3, "111"),
    (2, 1, 0, 2, 2): (9, "111111111"),
    (2, 1, 1, 2, 2): (9, "111111111"),
    (2, 1, 2, 2, 2): (9, "111111111"),
    (2, 2, 0, 1, 2): (17, None),
    (2, 2, 0, 2, 2): (9, "111111111"),
    (2, 2, 1, 1, 2): (17, None),
    (2, 2, 1, 2, 2): (17, None),
    (2, 3, 0, 1, 2): (15, "121212123"),
    (2, 3, 0, 2, 2): (9, "111111111"),
    (3, 1, 0, 3, 1): (6, "111111"),
    (3, 1, 1, 3, 1): (6, "111111"),
    (3, 1, 2, 3, 1): (6, "111111"),
    (3, 1, 3, 3, 1): (6, "111111"),
    (3, 2, 0, 2, 1): (37, None),
    (3, 2, 0, 3, 1): (6, "111111"),
    (3, 2, 1, 2, 1): (37, None),
    (3, 2, 1, 3, 1): (37, None),
    (3, 3, 0, 1, 1): (16, None),
    (3, 3, 0, 2, 1): (10, "112123"),
    (3, 3, 0, 3, 1): (6, "111111"),
    (3, 3, 1, 1, 1): (16, None),
    (3, 3, 1, 2, 1): (16, None),
    (3, 3, 1, 3, 1): (16, None),
    (3, 4, 0, 1, 1): (65, None),
    (3, 4, 0, 2, 1): (10, "112123"),
    (3, 4, 0, 3, 1): (6, "111111"),
    (3, 5, 0, 1, 1): (326, None),
    (3, 5, 0, 2, 1): (10, "112123"),
    (3, 5, 0, 3, 1): (6, "111111"),
    (3, 1, 0, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (3, 1, 1, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (3, 1, 2, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (3, 1, 3, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (3, 2, 0, 2, 2): (None, None),
    (3, 2, 0, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (3, 2, 1, 2, 2): (None, None),
    (3, 2, 1, 3, 2): (None, None),
    (3, 3, 0, 1, 2): (436, None),
    (3, 3, 0, 2, 2): (
        116,
        "112111212112112111212111221122212112211211121112111221121112112112121221122122223",
    ),
    (3, 3, 0, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (3, 3, 1, 1, 2): (436, None),
    (3, 3, 1, 2, 2): (436, None),
    (3, 3, 1, 3, 2): (436, None),
    (3, 4, 0, 1, 2): (None, None),
    (3, 4, 0, 2, 2): (
        116,
        "112111212112112111212111221122212112211211121112111221121112112112121221122122223",
    ),
    (3, 4, 0, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (3, 5, 0, 1, 2): (
        200,
        "123121323123123121323121341234342341212312131123121342432413243243453243421354325",
    ),
    (3, 5, 0, 2, 2): (
        116,
        "112111212112112111212111221122212112211211121112111221121112112112121221122122223",
    ),
    (3, 5, 0, 3, 2): (
        81,
        "111111111111111111111111111111111111111111111111111111111111111111111111111111111",
    ),
    (4, 1, 0, 4, 1): (10, "1111111111"),
    (4, 1, 1, 4, 1): (10, "1111111111"),
    (4, 1, 2, 4, 1): (10, "1111111111"),
    (4, 1, 3, 4, 1): (10, "1111111111"),
    (4, 1, 4, 4, 1): (10, "1111111111"),
    (4, 2, 0, 2, 1): (43, None),
    (4, 2, 0, 3, 1): (533, None),
    (4, 2, 0, 4, 1): (10, "1111111111"),
    (4, 2, 1, 2, 1): (43, None),
    (4, 2, 1, 3, 1): (533, None),
    (4, 2, 1, 4, 1): (533, None),
    (4, 2, 2, 2, 1): (43, None),
    (4, 2, 2, 3, 1): (43, None),
    (4, 2, 2, 4, 1): (43, None),
    (4, 3, 0, 2, 1): (1243, None),
    (4, 3, 0, 3, 1): (15, "1112112123"),
    (4, 3, 0, 4, 1): (10, "1111111111"),
    (4, 3, 1, 2, 1): (613, None),
    (4, 3, 1, 3, 1): (613, None),
    (4, 3, 1, 4, 1): (613, None),
    (4, 4, 0, 1, 1): (65, None),
    (4, 4, 0, 2, 1): (23, "1122123344"),
    (4, 4, 0, 3, 1): (15, "1112112123"),
    (4, 4, 0, 4, 1): (10, "1111111111"),
    (4, 4, 1, 1, 1): (65, None),
    (4, 4, 1, 2, 1): (65, None),
    (4, 4, 1, 3, 1): (65, None),
    (4, 4, 1, 4, 1): (65, None),
    (4, 5, 0, 1, 1): (326, None),
    (4, 5, 0, 2, 1): (23, "1122123344"),
    (4, 5, 0, 3, 1): (15, "1112112123"),
    (4, 5, 0, 4, 1): (10, "1111111111"),
    (4, 6, 0, 1, 1): (1957, None),
    (4, 6, 0, 2, 1): (23, "1122123344"),
    (4, 6, 0, 3, 1): (15, "1112112123"),
    (4, 6, 0, 4, 1): (10, "1111111111"),
    (4, 7, 0, 1, 1): (13700, None),
    (4, 7, 0, 2, 1): (23, "1122123344"),
    (4, 7, 0, 3, 1): (15, "1112112123"),
    (4, 7, 0, 4, 1): (10, "1111111111"),
}

#: Asymmetric tasks (no value pinning): (n, lower, upper, r) -> (tried, map).
ASYMMETRIC_PINS = {
    (2, (1, 0), (1, 2), 1): (10, None),
    (2, (1, 0), (1, 2), 2): (34, None),
    (3, (0, 1), (1, 3), 1): (11, "122222"),
    (3, (0, 1), (1, 3), 2): (
        142,
        "122121222122122121222121221222222221212212121122121222222212222222222222221222222",
    ),
    (3, (0, 0, 1), (2, 2, 3), 1): (12, "113133"),
    (3, (0, 0, 1), (2, 2, 3), 2): (
        149,
        "113111313113113111313111331133313113311311131113111331131113113113131331133133333",
    ),
    (3, (0, 0, 0, 0), (1, 1, 2, 3), 1): (17, "123344"),
    (3, (0, 0, 0, 0), (1, 1, 2, 3), 2): (
        184,
        "123121323123123121323121331233332331212312131123121332332313233233343233321334324",
    ),
    (3, (1, 0, 0), (1, 3, 1), 1): (96, None),
    (3, (1, 0, 0), (1, 3, 1), 2): (None, None),
    (4, (0, 1, 0), (2, 4, 1), 1): (17, "1122122222"),
    (4, (0, 0, 0, 0, 0), (1, 1, 1, 2, 4), 1): (39, "1234455555"),
    (4, (1, 1, 0), (1, 3, 2), 1): (609, None),
}


def _search(task: GSBTask, rounds: int):
    complex_ = ISProtocolComplex(task.n, rounds)
    try:
        result = search_decision_map(task, complex_, max_assignments=BUDGET)
    except RuntimeError:
        return None, None
    if result.decision_map is None:
        return result.assignments_tried, None
    digits = "".join(
        str(result.decision_map[label]) for label in decision_class_order(complex_)
    )
    return result.assignments_tried, digits


@pytest.mark.parametrize("key", sorted(SYMMETRIC_PINS))
def test_symmetric_search_path(key):
    n, m, low, high, rounds = key
    assert _search(SymmetricGSBTask(n, m, low, high), rounds) == SYMMETRIC_PINS[key]


@pytest.mark.parametrize("key", list(ASYMMETRIC_PINS))
def test_asymmetric_search_path(key):
    n, lower, upper, rounds = key
    task = GSBTask(n, BoundVector(lower=lower, upper=upper))
    assert not task.is_symmetric
    assert _search(task, rounds) == ASYMMETRIC_PINS[key]


def test_budget_raises_on_the_assignment_past_it():
    # 5-renaming for n = 3 at two rounds finds its map on exactly the
    # pinned count.
    tried, _ = SYMMETRIC_PINS[(3, 5, 0, 1, 2)]
    task, complex_ = SymmetricGSBTask(3, 5, 0, 1), ISProtocolComplex(3, 2)
    assert search_decision_map(task, complex_, max_assignments=tried).solvable
    with pytest.raises(RuntimeError, match="exceeded"):
        search_decision_map(task, complex_, max_assignments=tried - 1)


@st.composite
def _occupancy_cases(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    lower = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    upper = [draw(st.integers(low, n + 1)) for low in lower]
    task = GSBTask(n, BoundVector(lower=tuple(lower), upper=tuple(upper)))
    classes = draw(st.integers(1, n + 2))
    facets = draw(
        st.lists(
            st.lists(st.integers(0, classes - 1), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
    value = st.one_of(st.none(), st.integers(1, m))
    values = draw(st.lists(value, min_size=classes, max_size=classes))
    retracted = draw(st.sets(st.integers(0, classes - 1)))
    return task, facets, values, retracted


@settings(max_examples=300, deadline=None)
@given(_occupancy_cases())
# Class 0 is refused value 1 by its second facet after its first took it.
@example((
    GSBTask(2, BoundVector(lower=(0, 0), upper=(1, 2))),
    [[0, 1], [0, 0]],
    [1, None],
    set(),
))
def test_occupancy_matches_partial_output_check(case):
    """The counters' verdicts are the reference partial-output check's.

    ``assign`` returns exactly whether every facet the class touches
    stays completable, and a refused assignment leaves no trace: every
    facet's completability is as it was, and nothing is retracted for it.
    """
    task, facets, values, retracted = case
    classes = len(values)
    occupancy = FacetOccupancy(task, facets, classes)
    assigned: list[int | None] = [None] * classes

    def legal(members):
        return task.is_legal_partial_output([assigned[c] for c in members])

    def agree():
        for index, members in enumerate(facets):
            assert occupancy.completable(index) == legal(members), (task, members)

    def assign(class_index, value):
        assigned[class_index] = value
        touched = [members for members in facets if class_index in members]
        stood = occupancy.assign(class_index, value)
        assert stood == all(map(legal, touched))
        if not stood:
            assigned[class_index] = None
        agree()
        return stood

    def probe():
        # Try every value on every undecided class and back out again, so
        # that a counter a refusal left moved shows in a later verdict.
        for class_index in range(classes):
            if assigned[class_index] is None:
                for value in range(1, task.m + 1):
                    if assign(class_index, value):
                        occupancy.retract(class_index, value)
                        assigned[class_index] = None
                        agree()

    for class_index, value in enumerate(values):
        if value is not None:
            assign(class_index, value)
    probe()
    for class_index in sorted(retracted):
        if assigned[class_index] is not None:
            occupancy.retract(class_index, assigned[class_index])
            assigned[class_index] = None
        agree()
    probe()
