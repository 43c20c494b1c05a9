"""The request-target split equals ``urlsplit`` + ``parse_qsl``.

``split_target`` splits plain origin-form targets itself and hands every
other one to the standard library; either way the path and the query
dict must be exactly what ``urlsplit`` and ``parse_qsl`` give, or the
same ``ValueError``.
"""

import socket
from urllib.parse import parse_qsl, urlsplit

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import BackgroundServer
from repro.serve import http as http_module
from repro.serve.http import split_target
from repro.universe import UniverseStore

#: Pieces a target is built from: the separators and escapes both
#: splitters treat specially, plain and non-ASCII text, and whitespace.
PIECES = st.sampled_from(
    [
        "?", "&", "=", "%", "+", "#", ";", "/", ":", "@", "[", "]",
        "%41", "%2B", "%26", "%3D", "%zz", "%C3%A9", "+x",
        "n", "m", "low", "high", "kinds", "6", "-1", "a b",
        "é", "ü", "中", "\xa0", "\x00", "\x1f", "\t", "\n", "\r",
    ]
)
PREFIXES = st.sampled_from(
    ["/", "/decide", "//", "//h/decide", "http://h/decide", "*", "", "?"]
)
#: Query-shaped targets: names and values mostly from text the direct
#: split takes, with or without ``=``, repeated names, ``&`` between
#: fields, sometimes an escape, a fragment or an absolute form.
TEXT = st.lists(
    st.sampled_from(
        ["6", "x", "-1", "a b", "é", "中", "+", "+x", ";", "=", "?", "/", ":"]
    )
    | PIECES,
    max_size=3,
).map("".join)
FIELD = st.one_of(
    st.tuples(st.sampled_from(["n", "m", "kinds", ""]), st.just("="), TEXT),
    st.tuples(TEXT, st.sampled_from(["=", ""]), TEXT),
).map("".join)
QUERY_TARGETS = st.tuples(
    st.sampled_from(["/decide", "/decide", "/", "//h/decide", "http://h/x"]),
    st.sampled_from(["?", "?", ""]),
    st.lists(FIELD, max_size=6).map("&".join),
    st.sampled_from(["", "", "", "#", "#n=1"]),
).map("".join)


def reference(target):
    parsed = urlsplit(target)
    return parsed.path, dict(parse_qsl(parsed.query))


def outcome(split, target):
    try:
        return split(target)
    except ValueError as error:
        return ValueError, str(error)


@settings(max_examples=300)
@given(PREFIXES, st.lists(PIECES, max_size=12))
@example("/decide", ["?", "n", "=", "6", "&", "m", "=", "&", "m", "=", "3"])
@example("/decide", ["?", "n", "&", "=", "6", "&", "&", "n", ";", "m", "=", "1"])
@example("/decide", ["?", "a", "=", "b", "=", "c", "#", "x", "=", "1"])
@example("http://h/decide", ["?", "n", "=", "6"])
@example("//h/decide", ["?", "n", "=", "6"])
@example("*", [])
@example("http://[", [":", "1", "/"])
def test_split_equals_urlsplit_and_parse_qsl(prefix, pieces):
    target = prefix + "".join(pieces)
    assert outcome(split_target, target) == outcome(reference, target)


@settings(max_examples=300)
@given(QUERY_TARGETS)
def test_query_split_equals_parse_qsl(target):
    assert outcome(split_target, target) == outcome(reference, target)


def test_plain_targets_skip_urlsplit(monkeypatch):
    def refuse(target):
        raise AssertionError("urlsplit called for a plain target")

    monkeypatch.setattr(http_module, "urlsplit", refuse)
    assert split_target("/decide?n=6&m=3&low=&high=4&n=7&flag&=x") == (
        "/decide",
        {"n": "7", "m": "3", "high": "4", "": "x"},
    )
    assert split_target("/frontier") == ("/frontier", {})
    assert split_target("/cones?kinds=a;b") == ("/cones", {"kinds": "a;b"})


def test_a_target_urlsplit_rejects_is_a_400(tmp_path):
    root = tmp_path / "store"
    store = UniverseStore(root)
    store.build(4, 2)
    store.pack()
    with BackgroundServer(root, backend="binary") as server:
        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            raw.sendall(b"GET http://[::1/decide HTTP/1.1\r\n\r\n")
            assert raw.recv(4096).startswith(b"HTTP/1.1 400")
        _, _, stats = server.get("/stats")
        assert stats["transport"]["malformed"] == 1
        assert server.get("/healthz")[0] == 200
