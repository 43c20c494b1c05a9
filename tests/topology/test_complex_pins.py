"""The protocol complexes' structure, pinned.

Each digest is the SHA-256 of ``repr((facets(), sorted(canonical_classes()
items), class_order(), facet_class_indexes(), facet_count()))``, recorded
when complexes were built round by round from nested view tuples with
:func:`repro.topology.is_complex.one_round_states`, before views were
interned.  A change to the facet order, a vertex's view, a canonical
class, the class order or a facet's class indexes moves a digest.
"""

import hashlib

import pytest

from repro.topology.is_complex import ISProtocolComplex

#: (n, rounds) -> SHA-256 of the structure above.
DIGESTS = {
    (1, 1): "31ca9852be8e3a121ea597d764ecd6e5fab93d7b50a57f70992d84a337644746",
    (2, 1): "68ac1cb75aa51a856fa07c91acee0024dfede6559831e51f286a7929a4813fc8",
    (2, 2): "fa0c6dd710b9c327426702cd5899ddae74ea9329b50ccb6595fd2b111c6ad16b",
    (2, 3): "3adef39b11d1c36c385d275574d6a990c9b79393b420f4a5bdea4168a2701f90",
    (3, 1): "4c4927191d85d863054b077d70ea824672e8e57bdca47e78fcee6965fe912bc9",
    (3, 2): "8d276cbc307764f37dd1e304498dfe026e22acec0ff383f3b9ea15cc11eccd86",
    (3, 3): "c4461c1cb51364cf226c196671f786ba43d74bc8341a3713fd3055e296727403",
    (4, 1): "878a7c0afe6120a74e34677d39a2912ccc2346807f2a97da346bbe8121afcf20",
    (4, 2): "ca1b14c3c6b024807ef2658e8e024cf3e85768844b9974662fe92d3b3cdf3a83",
}


@pytest.mark.parametrize("n,rounds", sorted(DIGESTS))
def test_structure_digest(n, rounds):
    complex_ = ISProtocolComplex(n, rounds)
    structure = (
        complex_.facets(),
        sorted(complex_.canonical_classes().items()),
        complex_.class_order(),
        complex_.facet_class_indexes(),
        complex_.facet_count(),
    )
    digest = hashlib.sha256(repr(structure).encode()).hexdigest()
    assert digest == DIGESTS[(n, rounds)]
