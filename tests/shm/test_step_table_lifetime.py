"""A finished exploration's step table is freed by reference counting.

Batch CLI commands run with the cyclic collector paused, so whatever an
exploration leaves in a reference cycle would stay allocated until the
command returns.  The value canonicalizer is the structure most at risk:
it points at the step table and caches tables of relabelings over it.
"""

import gc
import weakref

import pytest

from repro.shm.engine import PrefixSharingEngine, get_spec, make_spec_machine


@pytest.fixture
def paused_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _explore(factory, spec):
    engine = PrefixSharingEngine(
        factory, quotient=True, relabeler=spec.value_relabel
    )
    return sum(engine.decided_vectors().values())


def test_relabeled_exploration_frees_its_step_table(paused_collector):
    spec = get_spec("renaming")
    factory = make_spec_machine(spec, 4, frame_nodes=True)
    table = weakref.ref(factory.program)
    assert _explore(factory, spec) == 369_600
    del factory
    assert table() is None


def test_factory_reuses_its_canonicalizer():
    spec = get_spec("renaming")
    factory = make_spec_machine(spec, 3, frame_nodes=True)
    assert _explore(factory, spec) == 1_680
    canonicalizer = factory.canonicalizers[spec.value_relabel]
    assert canonicalizer.program is factory.program
    assert _explore(factory, spec) == 1_680
    assert factory.canonicalizers[spec.value_relabel] is canonicalizer
