"""Tests for database I/O and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core import REGISTRY, approx_count_answers
from repro.obs import ProfileStore
from repro.queries import QueryClass, parse_query
from repro.relational import Database
from repro.relational.io import (
    database_from_dict,
    database_to_dict,
    load_database_json,
    load_edge_list,
    load_relation_csv,
    save_database_json,
)
from repro.workloads import database_from_graph, erdos_renyi_graph


@pytest.fixture
def sample_database():
    return Database.from_relations(
        {"E": [(1, 2), (2, 3), (2, 1), (3, 2)], "P": [(1,)]}, universe=[1, 2, 3, 4]
    )


class TestDatabaseIO:
    def test_dict_round_trip(self, sample_database):
        data = database_to_dict(sample_database)
        restored = database_from_dict(data)
        assert restored.relations() == sample_database.relations()
        assert restored.universe == sample_database.universe

    def test_json_round_trip(self, sample_database, tmp_path):
        path = tmp_path / "db.json"
        save_database_json(sample_database, path)
        restored = load_database_json(path)
        assert restored.relation("E") == sample_database.relation("E")
        assert restored.relation("P") == sample_database.relation("P")

    def test_empty_relation_needs_arity(self):
        with pytest.raises(ValueError):
            database_from_dict({"relations": {"E": []}})
        database = database_from_dict({"relations": {"E": []}, "arities": {"E": 2}})
        assert database.relation("E") == frozenset()

    def test_round_trip_preserves_empty_relations_and_signature(self, tmp_path):
        """Declared-but-unpopulated symbols (including relations a stream of
        deletions emptied) must survive save/load, so a reloaded database
        re-subscribes cleanly against queries mentioning them."""
        from repro.relational import RelationSymbol

        database = Database.from_relations({"E": [(1, 2), (2, 1)]})
        database.add_relation(RelationSymbol("F", 2))  # declared, never populated
        database.add_fact("G", (1, 2))
        database.remove_fact("G", (1, 2))  # emptied by a deletion
        path = tmp_path / "stream_db.json"
        save_database_json(database, path)
        restored = load_database_json(path)
        assert restored.signature == database.signature
        assert restored.relations() == database.relations()
        assert restored.universe == database.universe

        # The reloaded database serves subscriptions over the empty relation.
        from repro.queries import parse_query
        from repro.service import CountingService, ServiceConfig

        service = CountingService(restored, ServiceConfig(executor="serial"))
        subscription = service.subscribe(
            parse_query("Ans(x) :- E(x, y), !F(x, y)")
        )
        assert subscription.read().fresh
        restored.add_fact("F", (1, 2))
        live = subscription.read()
        assert live.refreshed
        assert live.estimate == parse_query(
            "Ans(x) :- E(x, y), !F(x, y)"
        ).count_answers_bruteforce(restored)
        subscription.close()

    def test_load_edge_list(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# a comment\n1 2\n2 3\n\n")
        database = load_edge_list(path)
        assert database.has_fact("E", ("1", "2"))
        assert database.has_fact("E", ("2", "1"))  # symmetric by default
        assert len(database.relation("E")) == 4

    def test_load_edge_list_bad_line(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_load_relation_csv(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b,c\nd,e,f\n")
        database = load_relation_csv(path)
        assert database.has_fact("R", ("a", "b", "c"))
        assert database.signature["R"].arity == 3


class TestCLI:
    def _write_db(self, tmp_path):
        database = Database.from_relations(
            {"E": [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]}
        )
        path = tmp_path / "db.json"
        save_database_json(database, path)
        return path

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["classify", "--query", "Ans(x) :- E(x, y)"])
        assert args.command == "classify"

    def test_count_command(self, tmp_path, capsys):
        path = self._write_db(tmp_path)
        code = main(
            [
                "count",
                "--query",
                "Ans(x) :- E(x, y), E(x, z), y != z",
                "--database",
                str(path),
                "--seed",
                "0",
                "--exact",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "estimate:" in output and "exact:" in output
        # The triangle has 3 vertices with two distinct neighbours each.
        assert "3" in output

    def test_count_exact_method(self, tmp_path, capsys):
        path = self._write_db(tmp_path)
        code = main(
            ["count", "--query", "Ans(x, y) :- E(x, y)", "--database", str(path),
             "--method", "exact"]
        )
        assert code == 0
        assert "estimate:    6" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "method, query",
        [
            ("fptras_dcq", "Ans(x, w) :- E(x, y), E(x, z), E(z, w), y != w"),
            ("auto", "Ans(x, w) :- E(x, y), E(y, z), E(z, w)"),
        ],
    )
    def test_count_estimate_equals_approx_count_answers(
        self, tmp_path, capsys, method, query
    ):
        """``count`` runs through the service with the scheme its method
        resolves to, and prints the estimate ``approx_count_answers`` gives
        under the same seed (here the estimate moves with the seed)."""
        database = database_from_graph(erdos_renyi_graph(14, 0.4, rng=2))
        path = tmp_path / "db.json"
        save_database_json(database, path)
        code = main(
            ["count", "--query", query, "--database", str(path), "--seed", "0",
             "--method", method, "--epsilon", "0.8", "--delta", "0.25"]
        )
        assert code == 0
        expected = approx_count_answers(
            parse_query(query), database, epsilon=0.8, delta=0.25, seed=0,
            method=method,
        )
        assert f"estimate:    {expected}\n" in capsys.readouterr().out

    def test_count_picks_the_engine_by_database_size(self, tmp_path, capsys, monkeypatch):
        """No engine option: a database at or above the planner's columnar
        threshold (5,000) counts on columnar, a small one on indexed."""
        engines = []
        count = REGISTRY.count

        def recording_count(*args, **kwargs):
            engines.append(kwargs["engine"])
            return count(*args, **kwargs)

        monkeypatch.setattr(REGISTRY, "count", recording_count)
        edges = tmp_path / "path.edges"
        edges.write_text("".join(f"{i} {i + 1}\n" for i in range(1300)))
        code = main(
            ["count", "--query", "Ans(x, y) :- E(x, y)", "--edge-list", str(edges),
             "--method", "exact"]
        )
        assert code == 0
        assert "estimate:    2600" in capsys.readouterr().out
        code = main(
            ["count", "--query", "Ans(x, y) :- E(x, y)", "--database",
             str(self._write_db(tmp_path)), "--exact"]
        )
        assert code == 0
        assert engines == ["columnar", "indexed", "indexed"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--query", "Ans(x) :- E(x, y)"],
            ["plan", "--query", "Ans(x) :- E(x, y)"],
            ["batch", "--workload", "2"],
            ["batch", "--workload", "2", "--shards", "2"],
            ["stream"],
            ["serve"],
        ],
        ids=["count", "plan", "batch", "batch-shards", "stream", "serve"],
    )
    def test_engine_option_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--engine", "columnar"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine columnar" in capsys.readouterr().err

    def test_plan_accepts_a_scheme_registered_after_import(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(REGISTRY, "_schemes", dict(REGISTRY._schemes))
        REGISTRY.register(
            "custom_exact",
            lambda *args, **kwargs: (0, {}, None, ()),
            (QueryClass.CQ,),
            "a test scheme",
        )
        code = main(
            ["plan", "--query", "Ans(x) :- E(x, y)", "--database",
             str(self._write_db(tmp_path)), "--method", "custom_exact"]
        )
        assert code == 0
        assert "scheme:      custom_exact" in capsys.readouterr().out

    def test_stream_command(self, capsys):
        code = main(
            ["stream", "--events", "40", "--queries", "3", "--seed", "5",
             "--verify"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "replayed 40 events" in output
        assert "verified" in output

    def test_stream_command_json(self, capsys):
        code = main(
            ["stream", "--events", "30", "--queries", "2", "--seed", "5",
             "--refresh", "debounced", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_events"] == 30
        assert payload["refresh_policy"] == "debounced"
        assert (
            payload["refreshes"] + payload["fresh_serves"] + payload["stale_serves"]
            == payload["reads"]
        )

    def test_classify_command_json(self, capsys):
        code = main(["classify", "--query", "Ans(x, y) :- E(x, y), x != y", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query_class"] == "DCQ"
        assert payload["fpras"] == "no"
        assert payload["fptras"] == "yes"

    def test_classify_command_text(self, capsys):
        code = main(["classify", "--query", "Ans(x) :- E(x, y), !F(x, y)"])
        assert code == 0
        assert "ECQ" in capsys.readouterr().out

    def test_sample_command(self, tmp_path, capsys):
        path = self._write_db(tmp_path)
        code = main(
            ["sample", "--query", "Ans(x, y) :- E(x, y)", "--database", str(path),
             "-n", "3", "--exact", "--seed", "1"]
        )
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) == 3

    def test_sample_no_answers(self, tmp_path, capsys):
        database = Database.from_relations({"E": [(1, 1)]}, universe=[1])
        path = tmp_path / "db.json"
        save_database_json(database, path)
        code = main(
            ["sample", "--query", "Ans(x, y) :- E(x, y), x != y", "--database",
             str(path), "--exact"]
        )
        assert code == 0
        assert "(no answers)" in capsys.readouterr().out

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2 3\n1 3\n")
        code = main(
            ["count", "--query", "Ans(x) :- E(x, y), E(x, z), y != z",
             "--edge-list", str(path), "--seed", "0", "--exact"]
        )
        assert code == 0
        assert "exact:       3" in capsys.readouterr().out

    def test_both_database_sources_rejected(self, tmp_path, capsys):
        path = self._write_db(tmp_path)
        code = main(
            ["count", "--query", "Ans(x) :- E(x, y)", "--database", str(path),
             "--edge-list", str(path)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_database_rejected(self, capsys):
        code = main(["count", "--query", "Ans(x) :- E(x, y)"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_batch_adaptive_persists_profiles(self, tmp_path, capsys):
        path = tmp_path / "profiles.json"
        batch = [
            "batch", "--workload", "4", "--executor", "serial",
            "--adaptive", "--latency-budget", "0.5", "--profiles", str(path),
        ]
        assert main(batch + ["--seed", "1"]) == 0
        capsys.readouterr()
        store = ProfileStore.load(path)
        first_runs = store.stats()["runs"]
        assert first_runs > 0
        # A second process-equivalent run loads the snapshot and adds to it.
        assert main(batch + ["--seed", "2"]) == 0
        capsys.readouterr()
        assert ProfileStore.load(path).stats()["runs"] == 2 * first_runs

    def test_profiles_show_export_import(self, tmp_path, capsys):
        store = ProfileStore()
        store.record("Ans(f0):-E(f0,e0)", 100, "exact", 0.002, 5.0)
        store.record("Ans(f0):-E(f0,e0)", 100, "fpras_cq", 0.2, 5.0)
        source = tmp_path / "a.json"
        store.save(source)

        assert main(["profiles", "show", str(source)]) == 0
        shown = capsys.readouterr().out
        assert "2 entries, 2 recorded runs" in shown
        assert "exact" in shown and "fpras_cq" in shown

        assert main(["profiles", "show", str(source), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 2
        assert len(payload["profiles"]) == 2

        exported = tmp_path / "b.json"
        assert main(
            ["profiles", "export", str(source), "--out", str(exported)]
        ) == 0
        capsys.readouterr()
        assert ProfileStore.load(exported).stats()["runs"] == 2

        merged = tmp_path / "merged.json"
        assert main(
            ["profiles", "import", str(source), str(exported),
             "--into", str(merged)]
        ) == 0
        assert "2 snapshot(s)" in capsys.readouterr().out
        stats = ProfileStore.load(merged).stats()
        assert stats["entries"] == 2
        assert stats["runs"] == 4

    def test_profiles_show_missing_file_rejected(self, tmp_path, capsys):
        code = main(["profiles", "show", str(tmp_path / "nope.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
