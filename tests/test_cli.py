"""Tests for the command-line interface."""

import dataclasses
import gc
import json
import re

import pytest

import repro.__main__ as cli
from repro.__main__ import main


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "<6,3,0,6>" in out
        assert "matches the published Table 1: True" in out

    def test_table1_other_family(self, capsys):
        assert main(["table1", "--n", "5", "--m", "2"]) == 0
        assert "<5,2," in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "->" in capsys.readouterr().out

    def test_figure1_dot(self, capsys):
        assert main(["figure1", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_atlas(self, capsys):
        assert main(["atlas", "--n", "5", "--m", "2"]) == 0
        assert "statistics:" in capsys.readouterr().out

    def test_named(self, capsys):
        assert main(["named", "--n", "6"]) == 0
        assert "election" in capsys.readouterr().out

    def test_binomials(self, capsys):
        assert main(["binomials", "--max-n", "12"]) == 0
        assert "gcd" in capsys.readouterr().out

    def test_classify(self, capsys):
        assert main(["classify", "6", "3", "1", "6"]) == 0
        out = capsys.readouterr().out
        assert "GSB<6,3,1,4>" in out  # canonical representative
        assert "classification:" in out

    def test_classify_infeasible(self, capsys):
        assert main(["classify", "6", "3", "3", "3"]) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_census(self, capsys):
        assert main(["census", "--max-n", "10", "--max-m", "3"]) == 0
        out = capsys.readouterr().out
        assert "GSB universe census" in out
        assert "solvability:" in out

    def test_census_per_cell_and_json(self, capsys, tmp_path):
        path = tmp_path / "census.json"
        assert (
            main(
                [
                    "census", "--max-n", "8", "--max-m", "3",
                    "--per-cell", "--json", str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert path.exists()

    def test_census_parallel(self, capsys):
        assert main(["census", "--max-n", "8", "--max-m", "3", "--jobs", "2"]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_census_rejects_bad_range(self, capsys):
        assert main(["census", "--min-n", "9", "--max-n", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_figure1_legacy_method_matches(self, capsys):
        from repro.analysis import to_dot
        from repro.analysis.figure1 import Figure1
        from repro.core.order import hasse_diagram
        from repro.core.store import get_store

        assert main(["figure1", "--dot"]) == 0
        tasks = [entry.task for entry in get_store().canonical_entries(6, 3)]
        legacy = Figure1(n=6, m=3, graph=hasse_diagram(tasks, method="legacy"))
        assert capsys.readouterr().out == to_dot(legacy) + "\n"

    def test_figure1_has_one_construction(self, capsys):
        # The universe cell is the figure's only construction; the legacy
        # pairwise Hasse diagram is a test reference, not a CLI choice.
        with pytest.raises(SystemExit) as exit_info:
            main(["figure1", "--method", "legacy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 regeneration: OK" in out
        assert "Figure 1 regeneration: OK" in out
        assert "all artifacts verified" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestUniformJsonFlag:
    """Every report subcommand shares the same --json [PATH] contract."""

    def test_table1_json_stdout(self, capsys):
        assert main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 6 and payload["m"] == 3
        assert len(payload["rows"]) == 15
        # JSON mode still runs the acceptance check and reports it.
        assert payload["matches_paper"] is True
        assert "problems" not in payload

    def test_table1_json_file(self, capsys, tmp_path):
        path = tmp_path / "table1.json"
        assert main(["table1", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "matches the published Table 1: True" in out
        assert json.loads(path.read_text())["m"] == 3

    def test_atlas_json_stdout(self, capsys):
        assert main(["atlas", "--n", "5", "--m", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistics"]["synonym_classes"] == 3
        assert all("solvability" in entry for entry in payload["entries"])

    def test_named_json_stdout(self, capsys):
        assert main(["named", "--n", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {task["name"] for task in payload["tasks"]}
        assert "election" in names and "WSB" in names

    def test_classify_json_stdout(self, capsys):
        assert main(["classify", "6", "3", "1", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical_representative"] == [6, 3, 1, 4]
        assert payload["solvability"] == "open"

    def test_classify_json_infeasible(self, capsys):
        assert main(["classify", "6", "3", "3", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert "kernel_set" not in payload

    def test_census_json_stdout(self, capsys):
        assert main(["census", "--max-n", "8", "--max-m", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"]["max_n"] == 8


class TestUniverseCommands:
    @pytest.fixture()
    def store_dir(self, tmp_path, capsys):
        path = tmp_path / "universe"
        assert main(["universe", "build", "--max-n", "6", "--max-m", "4",
                     "--dir", str(path)]) == 0
        capsys.readouterr()  # drain the build chatter
        return str(path)

    def test_build_cold_then_warm(self, capsys, tmp_path):
        path = str(tmp_path / "u")
        assert main(["universe", "build", "--max-n", "5", "--max-m", "3",
                     "--dir", path]) == 0
        assert "15 built, 0 reused" in capsys.readouterr().out
        assert main(["universe", "build", "--max-n", "5", "--max-m", "3",
                     "--dir", path]) == 0
        assert "0 built, 15 reused" in capsys.readouterr().out

    def test_build_parallel(self, capsys, tmp_path):
        path = str(tmp_path / "u")
        assert main(["universe", "build", "--max-n", "5", "--max-m", "3",
                     "--jobs", "2", "--dir", path]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_build_rejects_bad_rectangle(self, capsys):
        assert main(["universe", "build", "--max-n", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats(self, capsys, store_dir):
        assert main(["universe", "stats", "--dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "GSB universe graph" in out
        assert "edges[containment]" in out

    def test_stats_json(self, capsys, store_dir):
        assert main(["universe", "stats", "--dir", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["cells"] == 24
        assert payload["store"]["cells"] == 24

    def test_query_harder_than(self, capsys, store_dir):
        assert main(["universe", "query", "--dir", store_dir,
                     "--harder-than", "6", "3", "0", "6"]) == 0
        out = capsys.readouterr().out
        assert "<6,3,2,2>" in out

    def test_query_path_json(self, capsys, store_dir):
        assert main(["universe", "query", "--dir", store_dir, "--json",
                     "--path", "4", "2", "0", "4", "4", "4", "1", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"][-1]["kind"] == "theorem8"

    def test_query_frontier(self, capsys, store_dir):
        assert main(["universe", "query", "--dir", store_dir,
                     "--frontier"]) == 0
        assert "boundary edges" in capsys.readouterr().out

    def test_query_incomparable(self, capsys, store_dir):
        assert main(["universe", "query", "--dir", store_dir,
                     "--incomparable", "6", "3"]) == 0
        assert "1 incomparable pairs" in capsys.readouterr().out

    def test_query_infeasible_task_rejected(self, capsys, store_dir):
        assert main(["universe", "query", "--dir", store_dir,
                     "--harder-than", "6", "3", "3", "3"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_query_missing_store_rejected(self, capsys, tmp_path):
        assert main(["universe", "query", "--dir", str(tmp_path / "nope"),
                     "--frontier"]) == 2
        assert "no built cells" in capsys.readouterr().err

    def test_export_dot_stdout(self, capsys, store_dir):
        assert main(["universe", "export", "--dir", store_dir]) == 0
        assert capsys.readouterr().out.startswith('digraph "GSB universe"')

    def test_export_graphml_file(self, capsys, store_dir, tmp_path):
        out_path = tmp_path / "u.graphml"
        assert main(["universe", "export", "--dir", store_dir,
                     "--format", "graphml", "--out", str(out_path)]) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        assert out_path.read_text().lstrip().startswith("<?xml")


class TestDecideCommand:
    def test_decide_closed_form(self, capsys, tmp_path):
        assert main(["decide", "6", "3", "0", "6",
                     "--dir", str(tmp_path / "u")]) == 0
        out = capsys.readouterr().out
        assert "verdict: trivial" in out
        assert "tier 1" in out
        assert "certificate: c" in out

    def test_decide_padding_with_check(self, capsys, tmp_path):
        assert main(["decide", "4", "5", "0", "1", "--check",
                     "--dir", str(tmp_path / "u")]) == 0
        out = capsys.readouterr().out
        assert "not wait-free solvable" in out
        assert "value-padding" in out
        assert "certificate replays cleanly" in out

    def test_decide_warm_cache(self, capsys, tmp_path):
        store_dir = str(tmp_path / "u")
        assert main(["decide", "4", "5", "0", "1", "--dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["decide", "4", "5", "0", "1", "--dir", store_dir]) == 0
        assert "[cache]" in capsys.readouterr().out

    def test_decide_open_reports_evidence(self, capsys, tmp_path):
        assert main(["decide", "4", "3", "0", "2", "--budget", "3000",
                     "--dir", str(tmp_path / "u")]) == 0
        out = capsys.readouterr().out
        assert "verdict: open" in out
        assert "evidence:" in out

    def test_decide_json(self, capsys, tmp_path):
        assert main(["decide", "4", "5", "0", "1", "--json", "--no-cache",
                     "--dir", str(tmp_path / "u")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solvability"] == "not wait-free solvable"
        assert payload["certificate"]["kind"] == "value-padding"
        # Per-tier wall clock: this verdict is decided at tier 2, so
        # tiers 1-2 are timed and the later tiers never ran.
        assert list(payload["timings"]) == ["closed-form", "value-padding"]

    def test_decide_json_open_reports_consumed_budget(self, capsys, tmp_path):
        assert main(["decide", "4", "3", "0", "2", "--json", "--no-cache",
                     "--max-rounds", "1", "--dir", str(tmp_path / "u")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solvability"] == "open"
        assert list(payload["timings"]) == [
            "closed-form", "value-padding", "reduction-closure",
            "decision-map",
        ]
        assert payload["budget_consumed"]["rounds_searched"] == 1
        assert payload["budget_consumed"]["assignments_tried"] > 0

    def test_decide_malformed_parameters(self, capsys, tmp_path):
        assert main(["decide", "0", "3", "0", "2",
                     "--dir", str(tmp_path / "u")]) == 2
        assert "error:" in capsys.readouterr().err


class TestUniverseCheckCommand:
    def test_check_replays_store_certificates(self, capsys, tmp_path):
        store_dir = str(tmp_path / "universe")
        assert main(["universe", "build", "--max-n", "5", "--max-m", "4",
                     "--dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["universe", "check", "--dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "all OK" in out

    def test_check_replays_cached_certificates_too(self, capsys, tmp_path):
        # A decide outside the built rectangle leaves a certificate only
        # in the decision cache; check must replay (not skip) it.
        store_dir = str(tmp_path / "universe")
        assert main(["universe", "build", "--max-n", "4", "--max-m", "3",
                     "--dir", store_dir]) == 0
        assert main(["decide", "9", "3", "0", "9", "--dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["universe", "check", "--dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "1 cached certificates" in out
        assert "all OK" in out

    def test_check_missing_store(self, capsys, tmp_path):
        assert main(["universe", "check",
                     "--dir", str(tmp_path / "nope")]) == 2

    def test_build_close_open(self, capsys, tmp_path):
        store_dir = str(tmp_path / "universe")
        assert main(["universe", "build", "--max-n", "6", "--max-m", "4",
                     "--dir", store_dir, "--close-open",
                     "--budget", "3000", "--max-rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "close-open sweep:" in out
        assert "OPEN before" in out


class TestExploreCommand:
    def test_explore_table(self, capsys):
        assert main(["explore", "--tasks", "wsb,renaming", "--n", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "wsb" in out and "renaming" in out
        assert "OK" in out

    def test_explore_unknown_task(self, capsys):
        assert main(["explore", "--tasks", "nope"]) == 2
        assert "unknown exploration task" in capsys.readouterr().err

    def test_explore_json_stdout(self, capsys):
        assert main(["explore", "--tasks", "wsb", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tasks"] == ["wsb"]
        assert payload["failures"] == 0
        (row,) = payload["results"]
        assert row["name"] == "wsb" and row["n"] == 2
        assert row["runs"] == 2 and row["violations"] == 0
        assert row["seconds"] > 0  # per-job timing
        assert row["stats"]["nodes"] >= 1  # engine stats in the payload

    def test_explore_json_file(self, capsys, tmp_path):
        path = tmp_path / "explore.json"
        assert (
            main(["explore", "--tasks", "wsb", "--n", "2", "--json", str(path)])
            == 0
        )
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "task" in out  # ASCII table still printed with a path
        payload = json.loads(path.read_text())
        assert payload["results"][0]["name"] == "wsb"

    def test_explore_exhausted_budget(self, capsys):
        # renaming n=4 materializes 24 leaves on the quotient DFS.
        argv = ["explore", "--tasks", "renaming", "--n", "4", "--max-runs", "10"]
        assert main(argv) == 2
        assert "raise --max-runs" in capsys.readouterr().err

    def test_explore_json_row_is_the_library_result(self, capsys):
        from repro.shm import explore_one

        assert main(["explore", "--tasks", "renaming", "--n", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "tasks", "n", "total_seconds", "failures", "results",
        }
        (row,) = payload["results"]
        expected = explore_one("renaming", 3).to_json()
        del row["seconds"], expected["seconds"]
        assert row == expected
        assert row["runs"] == 1680

    @pytest.mark.parametrize(
        "task,n",
        [
            ("wsb", 2),
            ("wsb", 3),
            ("renaming", 2),
            ("renaming", 3),
            ("wsb-grh", 2),
            ("election", 2),
        ],
    )
    def test_explore_rows_match_the_legacy_explorer(self, capsys, task, n):
        # The reference every explore row answers to: the re-execution
        # explorer over the generator runtime, one run at a time.  Election
        # is refuted, so its row's violations are compared too.
        from collections import Counter

        from repro.shm import get_spec, make_spec_runtime
        from repro.shm.explore import _legacy_explore_interleavings

        argv = ["explore", "--tasks", task, "--n", str(n), "--json"]
        assert main(argv) == 0
        (row,) = json.loads(capsys.readouterr().out)["results"]
        spec = get_spec(task)
        legal = spec.task_factory(n).is_legal_output
        legacy = Counter()
        violations = 0
        for result in _legacy_explore_interleavings(make_spec_runtime(spec, n)):
            legacy[tuple(result.outputs)] += 1
            violations += not legal(
                list(result.outputs), list(result.identities)
            )
        assert (row["runs"], row["distinct"], row["violations"]) == (
            sum(legacy.values()), len(legacy), violations
        )
        assert (violations > 0) == (task == "election")

    def test_explore_offers_one_path(self, capsys):
        # The compiled orbit quotient is the only exploration path: no
        # option chooses another.
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--json", "--tasks", "--n", "--max-runs"}

    @pytest.mark.parametrize(
        "options",
        [
            ["--core", "generator"],
            ["--no-memo"],
            ["--quotient", "off"],
            ["--compare-legacy"],
        ],
    )
    def test_explore_rejects_path_switches(self, capsys, options):
        argv = ["explore", "--tasks", "wsb", "--n", "2", *options]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {options[0]}" in capsys.readouterr().err

    def test_explore_json_reports_election_refutation(self, capsys):
        # Election violations are the expected model-checking outcome,
        # not a failure.
        assert main(["explore", "--tasks", "election", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["violations"] > 0
        assert payload["failures"] == 0


@pytest.fixture
def collector():
    """Start with the cyclic collector on, and leave it on."""
    gc.enable()
    yield
    gc.enable()


def _patch_handler(monkeypatch, name, handler):
    """Route one top-level command to ``handler`` through the real parser."""
    monkeypatch.setattr(
        cli,
        "COMMANDS",
        tuple(
            dataclasses.replace(command, handler=handler)
            if command.name == name
            else command
            for command in cli.COMMANDS
        ),
    )


class TestCollectorPause:
    """Batch commands run with the cyclic collector paused."""

    def test_batch_commands_leave_no_repro_cycles(self, collector, tmp_path):
        # The premise of the pause: the program's own structures are
        # acyclic, so reference counting frees them and a paused collector
        # only delays other libraries' cycles until the command returns.
        store = str(tmp_path / "store")
        commands = [
            ["universe", "build", "--max-n", "6", "--max-m", "3",
             "--close-open", "--budget", "1000", "--dir", store],
            ["sweep", "run", "--workers", "0", "--max-n", "3",
             "--sweep-rounds", "1", "--dir", store],
            ["universe", "pack", "--dir", store],
            ["universe", "check", "--dir", store],
            ["explore", "--tasks", "all", "--n", "3"],
        ]
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv in commands:
                assert main(argv) == 0, argv
                assert gc.isenabled(), argv
            gc.collect()
            leaked = sorted(
                {
                    f"{type(obj).__module__}.{type(obj).__qualname__}"
                    for obj in gc.garbage
                    if type(obj).__module__.startswith("repro.")
                }
            )
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []

    def test_batch_handler_runs_with_collector_off(
        self, collector, monkeypatch
    ):
        seen = []
        _patch_handler(
            monkeypatch, "binomials", lambda args: seen.append(gc.isenabled())
        )
        main(["binomials"])
        assert seen == [False]
        assert gc.isenabled()

    def test_serve_keeps_the_collector(self, collector, monkeypatch):
        seen = []
        _patch_handler(
            monkeypatch, "serve", lambda args: seen.append(gc.isenabled())
        )
        main(["serve", "--port", "0"])
        assert seen == [True]
        assert gc.isenabled()

    def test_raising_handler_restores_the_collector(
        self, collector, monkeypatch
    ):
        def fail(args):
            raise RuntimeError("handler failed")

        _patch_handler(monkeypatch, "binomials", fail)
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["binomials"])
        assert gc.isenabled()

    def test_commands_share_one_parser(self, collector):
        # The argparse tree is cyclic: a parser built per command would
        # leave one tree per call for the collector.
        assert main(["binomials", "--max-n", "4"]) == 0  # builds the parser
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(2):
                assert main(["binomials", "--max-n", "4"]) == 0
            gc.collect()
            leaked = [
                obj for obj in gc.garbage if type(obj).__module__ == "argparse"
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []

    def test_caller_disabled_collector_stays_disabled(self, collector):
        gc.disable()
        assert main(["binomials", "--max-n", "4"]) == 0
        assert not gc.isenabled()
