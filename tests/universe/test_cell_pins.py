"""Byte pins of built cells: shard bytes must not move under refactors.

Each digest is SHA-256 over ``json.dumps(cell_to_payload(build_cell(n, m)))``,
the exact text a store shard holds (minus its trailing newline).  Every
downstream artifact — shard files, pack rows, certificate ids, the
close-open overrides — is derived from these payloads, so a kernel
rewrite that changes a mask, an edge order or a verdict shows up here.
"""

import hashlib
import json

import pytest

from repro.universe import build_cell, rectangle_cells
from repro.universe.persist import cell_to_payload


def _cell_text(n: int, m: int) -> str:
    return json.dumps(cell_to_payload(build_cell(n, m)))


def test_rectangle_20x6_digest():
    # The whole rectangle in build order, one payload per line.
    digest = hashlib.sha256()
    for n, m in rectangle_cells(20, 6):
        digest.update((_cell_text(n, m) + "\n").encode("utf-8"))
    assert digest.hexdigest() == (
        "2fd8b849ecdc4dfac5a74d7efaff75559ff9ad8520556f806d076d838be30d78"
    )


@pytest.mark.parametrize(
    "n,m,expected",
    [
        # The widest family: 3,692 kernel columns, 128 nodes.
        (40, 6, "3611a8cf098e62589cb370db962de842a834181911d72b7bd260e0bc0a7f965d"),
        (40, 5, "79ebbc42797e98b677ec54a24724daa60060c1df8cc31dc67e7208651fd03afa"),
        (39, 6, "715705144d81e28aca7f9092f447f9f4d05d98869d39984b6ae03e1f3c315c75"),
        # m > n: the renaming-ladder side of the rectangle.
        (12, 13, "1ecb779d92a8bfb89fc6c007f2290c4362a2866278daf8a93084ecaac661bfd0"),
    ],
)
def test_cell_digest(n, m, expected):
    text = _cell_text(n, m)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
