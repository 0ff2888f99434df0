"""The command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.runs == 10
        assert args.n == 1000

    def test_options(self):
        args = build_parser().parse_args(["table4", "--runs", "3", "--n", "200"])
        assert args.runs == 3
        assert args.n == 200

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestMain:
    def test_invalid_runs(self, capsys):
        assert main(["table1", "--runs", "0"]) == 2

    def test_invalid_n(self, capsys):
        assert main(["table1", "--n", "1"]) == 2

    def test_table1_small(self, capsys):
        assert main(["table1", "--runs", "1", "--n", "100"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "paper" in out
        assert "residue" in out

    def test_deathcerts(self, capsys):
        assert main(["deathcerts", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "naive delete" in out
        assert "dormant certificates" in out

    def test_backup(self, capsys):
        assert main(["backup", "--runs", "1", "--n", "60"]) == 0
        out = capsys.readouterr().out
        assert "redistribute-mail" in out

    def test_tau(self, capsys):
        assert main(["tau", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "checksum success" in out

    def test_pathologies(self, capsys):
        assert main(["pathologies", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 2" in out

    def test_every_command_is_wired(self):
        # Every command in the registry is reachable through the parser.
        parser = build_parser()
        for name in COMMANDS:
            assert parser.parse_args([name]).experiment == name


class TestRemainingCommands:
    def test_table2_and_table3(self, capsys):
        assert main(["table2", "--runs", "1", "--n", "100"]) == 0
        assert main(["table3", "--runs", "1", "--n", "100"]) == 0
        out = capsys.readouterr().out
        assert "blind+coin" in out
        assert "pull" in out

    def test_table4_and_table5(self, capsys):
        assert main(["table4", "--runs", "1"]) == 0
        assert main(["table5", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "no connection limit" in out
        assert "connection limit 1" in out
        assert "uniform" in out

    def test_line(self, capsys):
        assert main(["line", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "d^-a on a line" in out

    def test_hierarchy(self, capsys):
        assert main(["hierarchy", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "hierarchy" in out


class TestTraceAnalyze:
    def trace_file(self, tmp_path):
        from repro.cluster.cluster import Cluster
        from repro.obs.events import EventKind, HARNESS_NODE, JsonlTraceWriter
        from repro.protocols.direct_mail import DirectMailProtocol

        path = tmp_path / "run.jsonl"
        cluster = Cluster(n=4, seed=0)
        cluster.add_protocol(DirectMailProtocol())
        with JsonlTraceWriter(path) as writer:
            cluster.bus.add_sink(writer)
            cluster.bus.emit(EventKind.RUN_STARTED, node=HARNESS_NODE, n=4, key="k")
            cluster.inject_update(0, "k", "v")
            cluster.run_cycle()
        return path

    def test_renders_the_tree(self, tmp_path, capsys):
        path = self.trace_file(tmp_path)
        assert main(["trace", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace analysis" in out
        assert "[complete]" in out
        assert "anomalies: none" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        path = self.trace_file(tmp_path)
        assert main(["trace", "analyze", str(path), "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["n"] == 4
        assert len(blob["traces"]) == 1
        assert blob["traces"][0]["infected"] == [0, 1, 2, 3]

    def test_usage_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["trace"])
        with pytest.raises(SystemExit):
            main(["trace", "summarize", "x.jsonl"])
        with pytest.raises(SystemExit):
            main(["trace", "analyze", str(tmp_path / "missing.jsonl")])

    def test_a_bad_record_exits_2_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        good = '{"seq": 0, "t": 1.0, "kind": "census", "node": -1, "payload": {}}'
        path.write_text(good + '\n{"seq":1,"t":0,"kind":"bogus","node":0,"payload":{}}\n')
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "analyze", str(path)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {path}:2: unknown event kind 'bogus'\n"

    def test_stray_arguments_on_other_commands_rejected(self, capsys):
        assert main(["table1", "analyze"]) == 2
