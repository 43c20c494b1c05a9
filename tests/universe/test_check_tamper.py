"""Adversarial tests: ``universe check`` must catch tampered overrides.

The override rows in ``overrides.json`` are the store's mutable surface
— close-open and sweep campaigns append to them — so the checker treats
each row adversarially: the row's claim is only accepted when its own
certificate proves it.  These tests edit the document the way an
attacker (or a bad merge) would, bypassing ``apply_closures``, and
assert the check fails loudly.
"""

import json

import pytest

from repro.__main__ import main
from repro.universe import UniverseStore


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tamper") / "store"
    store = UniverseStore(root)
    store.build(4, 3)
    # One honest override row, carrying a real certificate lifted from
    # the graph: the baseline every tamper test mutates.
    graph = store.load()
    node = next(n for n in graph.nodes() if n.certificate_id)
    payload = graph.certificate_payloads[node.certificate_id]
    store.apply_closures(
        {
            node.key: {
                "solvability": payload["verdict"],
                "reason": "test closure",
                "tier": 4,
                "procedure": "decision-map",
                "certificate_id": node.certificate_id,
                "certificate": payload,
            }
        },
        {"test": True},
    )
    return root


@pytest.fixture
def overrides_path(root):
    """Hand each test a pristine document; restore it afterwards."""
    path = root / "overrides.json"
    pristine = path.read_text()
    yield path
    path.write_text(pristine)


def tamper(path, mutate):
    document = json.loads(path.read_text())
    raw_key, row = next(iter(document["overrides"].items()))
    mutate(document["overrides"], raw_key, row)
    path.write_text(json.dumps(document))


def check(root):
    return main(["universe", "check", "--dir", str(root)])


class TestTamperedOverrides:
    def test_honest_document_passes(self, root, overrides_path, capsys):
        assert check(root) == 0
        assert "all OK" in capsys.readouterr().out

    def test_flipped_solvability_is_caught(self, root, overrides_path, capsys):
        def mutate(overrides, raw_key, row):
            row["solvability"] = "not wait-free solvable"

        tamper(overrides_path, mutate)
        assert check(root) == 1
        out = capsys.readouterr().out
        assert "its certificate proves" in out

    def test_forged_certificate_id_is_caught(
        self, root, overrides_path, capsys
    ):
        def mutate(overrides, raw_key, row):
            row["certificate_id"] = "c" + "0" * 16

        tamper(overrides_path, mutate)
        assert check(root) == 1
        assert "does not match the payload" in capsys.readouterr().out

    def test_certificate_grafted_from_another_cell_is_caught(
        self, root, overrides_path, capsys
    ):
        # The certificate is genuine and its id consistent — but it
        # proves a different task than the row it was grafted onto.
        def mutate(overrides, raw_key, row):
            del overrides[raw_key]
            overrides["4,3,0,2"] = row

        tamper(overrides_path, mutate)
        assert check(root) == 1
        assert "not this cell" in capsys.readouterr().out

    def test_verdict_without_certificate_is_caught(
        self, root, overrides_path, capsys
    ):
        def mutate(overrides, raw_key, row):
            row["certificate"] = None

        tamper(overrides_path, mutate)
        assert check(root) == 1
        assert "carries no certificate" in capsys.readouterr().out

    def test_unparseable_key_is_caught(self, root, overrides_path, capsys):
        def mutate(overrides, raw_key, row):
            overrides["not,a,key"] = overrides.pop(raw_key)

        tamper(overrides_path, mutate)
        assert check(root) == 1
        assert "unparseable cell key" in capsys.readouterr().out

    def test_corrupt_certificate_body_is_caught(
        self, root, overrides_path, capsys
    ):
        # Keep the id honest for the corrupted payload so the replay
        # itself (not the id cross-check) has to catch the damage.
        from repro.decision import certificate_id

        def mutate(overrides, raw_key, row):
            row["certificate"]["rule"] = "no-such-rule"
            row["certificate_id"] = certificate_id(row["certificate"])

        tamper(overrides_path, mutate)
        assert check(root) == 1
        out = capsys.readouterr().out
        assert "FAIL override" in out


class TestReplayCount:
    def test_each_distinct_payload_is_replayed_once(
        self, root, overrides_path, monkeypatch, capsys
    ):
        # The honest override row carries a payload the graph holds under
        # the same id, so the graph's replay result stands for it.
        import repro.decision as decision

        replayed = []
        check_payload = decision.check_certificate_payload

        def counting(payload):
            replayed.append(json.dumps(payload, sort_keys=True))
            return check_payload(payload)

        monkeypatch.setattr(decision, "check_certificate_payload", counting)
        assert check(root) == 0
        assert "all OK" in capsys.readouterr().out
        (row,) = json.loads(overrides_path.read_text())["overrides"].values()
        assert json.dumps(row["certificate"], sort_keys=True) in replayed
        assert len(replayed) == len(set(replayed))
