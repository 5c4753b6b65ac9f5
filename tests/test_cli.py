"""Command line behavior: output shapes and exit codes."""

from __future__ import annotations

import json

import pytest

from delibsim import builtin_fixture, dump_scenario, load_scenario, read_summary, read_trace
from delibsim.cli import main

from conftest import line_space


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["conquer"])
        assert err.value.code == 1

    def test_source_required(self):
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 1

    def test_source_exclusive(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--fixture", "example1", "--scenario", "x.json"])
        assert err.value.code == 1

    def test_bad_kind(self):
        with pytest.raises(SystemExit) as err:
            main(["transitions", "--fixture", "example1", "--kinds", "teleport"])
        assert err.value.code == 1

    def test_bad_seed_range(self):
        with pytest.raises(SystemExit) as err:
            main(["batch", "--policies", "merge", "--seeds", "9..1"])
        assert err.value.code == 1


class TestRunCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--fixture", "example3", "--policy", "merge",
        )
        assert code == 0
        assert out == "terminal after 1 steps: successful (m*=4)\n"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "run", "--fixture", "example3",
            "--policy", "merge",
        )
        assert code == 0
        data = json.loads(out)
        assert data["classification"] == "successful"
        assert data["m_star"] == 4
        assert data["terminal_signature"] == [4]

    def test_trace_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, _, _ = run_cli(
            capsys, "run", "--fixture", "example5", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        trace = read_trace(out_path.read_text())
        assert trace.policy.seed == 3
        assert trace.classification == "successful"

    def test_bad_policy_is_invalid_input(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--fixture", "example1", "--policy", "merge>merge",
        )
        assert code == 2
        assert "invalid input" in err

    def test_missing_scenario_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--scenario", "/nope/missing.json")
        assert code == 2

    def test_non_finite_coordinate(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"format_version": 1, "space": {"metric": "euclidean", "dimension": 1},'
            ' "status_quo": {"coords": [0.0]}, "proposals": "continuous",'
            ' "agents": [{"id": "v1", "coords": [NaN]}, {"id": "v2", "coords": [1.0]}]}'
        )
        code, _, err = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 2
        assert "agent 'v1': non-finite coordinate" in err

    @pytest.mark.parametrize("change, clause", [
        ({"space": {"metric": "euclidean", "dimension": "x"}}, "space.dimension"),
        ({"space": {"metric": "euclidean", "dimension": True}}, "space.dimension"),
        ({"space": {"metric": "euclidean", "dimension": 1.5}}, "space.dimension"),
        ({"agents": [{"id": "v1", "coords": ["a"]}]}, "space.coords"),
        ({"agents": [{"id": "v1", "coords": 1}]}, "space.coords"),
        ({"status_quo": 5}, "space.coords"),
        ({"space": {"metric": "explicit", "points": ["r", "v"], "matrix": [[0, "a"], ["a", 0]]},
          "status_quo": "r", "agents": [{"id": "v1", "point": "v"}]}, "metric.shape"),
        ({"space": {"metric": "explicit", "points": ["r", "v"], "matrix": 5},
          "status_quo": "r", "agents": [{"id": "v1", "point": "v"}]}, "metric.shape"),
    ])
    def test_malformed_scenario_names_clause(self, capsys, tmp_path, change, clause):
        scenario = {
            "format_version": 1, "space": {"metric": "euclidean", "dimension": 1},
            "status_quo": [0.0], "proposals": "continuous",
            "agents": [{"id": "v1", "coords": [1.0]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**scenario, **change}))
        code, _, err = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 2
        assert clause in err
        assert "Traceback" not in err

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(dump_scenario(*builtin_fixture("example2")))
        code, out, _ = run_cli(
            capsys, "run", "--scenario", str(path),
            "--policy", "follow", "--selector", "first_enumerated",
        )
        assert code == 0
        assert "successful" in out


class TestTransitionsCommand:
    def test_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "transitions", "--fixture", "example4",
            "--kinds", "merge,compromise",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "merge: 0"
        assert lines[1] == "compromise: 1"
        assert "v1" in lines[2]

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "transitions", "--fixture", "example4",
        )
        data = json.loads(out)
        assert code == 0
        assert [t["proposal"] for t in data["compromise"]] == [{"id": "p"}]
        assert data["merge"] == []


class TestOracleCommand:
    def test_support_line(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--fixture", "example4")
        assert code == 0
        assert out == "m*=4 witnesses=[p]\n"

    def test_explore_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--fixture", "example1", "--explore",
        )
        assert code == 0
        assert "states=2 edges=6 truncated=false" in out
        assert "terminals=1 all_successful=true" in out

    def test_explore_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "oracle", "--fixture", "example6",
            "--explore",
        )
        data = json.loads(out)
        assert code == 0
        assert data["m_star"] == 5
        assert data["all_terminals_successful"] is False
        assert data["unsuccessful_witness_steps"] == 0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_truncated_walk_without_terminal_is_unknown(self, capsys, fmt):
        code, out, _ = run_cli(
            capsys, "--format", fmt, "oracle", "--fixture", "example3",
            "--explore", "--state-cap", "1",
        )
        assert code == 0
        if fmt == "json":
            data = json.loads(out)
            assert data["truncated"] is True and data["terminals"] == 0
            assert data["all_terminals_successful"] is None
        else:
            assert "terminals=0 all_successful=unknown" in out

    def test_explore_continuous_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "continuous.json"
        path.write_text(dump_scenario(line_space([1.0, 2.0])))
        code, _, err = run_cli(capsys, "oracle", "--scenario", str(path), "--explore")
        assert code == 2
        assert "finite proposal list" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_explore_state_cap_below_one(self, capsys, cap):
        code, out, err = run_cli(
            capsys, "oracle", "--fixture", "example1", "--explore", "--state-cap", cap,
        )
        assert code == 2
        assert "state cap" in err
        assert out == ""

    def test_oracle_cap_exit_code(self, capsys, tmp_path):
        space = line_space([float(i + 1) for i in range(17)])
        path = tmp_path / "big.json"
        path.write_text(dump_scenario(space))
        code, _, err = run_cli(capsys, "oracle", "--scenario", str(path))
        assert code == 3
        assert "solver limit" in err


class TestBatchCommand:
    def test_summary_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "batch", "--policies", "merge;follow,single_agent",
            "--seeds", "1..4", "--out", str(out_path),
        )
        assert code == 0
        rows = read_summary(out_path.read_text())
        assert len(rows) == 8
        assert "policy merge:" in out
        assert "policy follow,single_agent:" in out

    def test_gen_file(self, capsys, tmp_path):
        gen_path = tmp_path / "gen.json"
        gen_path.write_text(json.dumps({"mode": "continuous", "max_agents": 4}))
        code, out, _ = run_cli(
            capsys, "--format", "json", "batch", "--gen", str(gen_path),
            "--policies", "compromise", "--seeds", "1,2,3",
        )
        assert code == 0
        assert json.loads(out)["compromise"]["runs"] == 3

    def test_bad_gen_json(self, capsys):
        code, _, err = run_cli(
            capsys, "batch", "--gen", "{broken", "--policies", "merge",
        )
        assert code == 2


    def test_unknown_gen_key(self, capsys):
        code, _, err = run_cli(
            capsys, "batch", "--gen", '{"foo": 1}', "--policies", "merge",
        )
        assert code == 2
        assert "'foo'" in err

    @pytest.mark.parametrize("gen, field", [
        ('{"mode": 3}', "mode"),
        ('{"max_agents": "x"}', "max_agents"),
        ('{"min_agents": true}', "min_agents"),
        ('{"max_proposals": 2.5}', "max_proposals"),
        ('{"dimensions": 3}', "dimensions"),
        ('{"dimensions": [9]}', "dimensions"),
        ('{"dimensions": [1, "2"]}', "dimensions"),
        ('{"coordinate_range": "a"}', "coordinate_range"),
        ('{"coordinate_range": NaN}', "coordinate_range"),
    ])
    def test_bad_gen_value(self, capsys, gen, field):
        code, _, err = run_cli(capsys, "batch", "--gen", gen, "--policies", "merge")
        assert code == 2
        assert f"'{field}'" in err


class TestFixturesCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures", "--list")
        assert code == 0
        assert out.splitlines()[0] == "example1"

    def test_dump_is_loadable(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures", "--dump", "example6")
        assert code == 0
        space, init = load_scenario(out)
        assert len(space.agents) == 9

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "fixtures", "--dump", "example0")
        assert code == 2
