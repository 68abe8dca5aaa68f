"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import argparse
import ast
import json
import re
from pathlib import Path

import pytest

from repro import ECF, SearchRequest, default_registry
from repro.cli import build_parser, main
from repro.graphs import HostingNetwork, QueryNetwork, read_graphml, write_graphml


@pytest.fixture
def graphml_pair(tmp_path, small_hosting, path_query):
    host_path = write_graphml(small_hosting, tmp_path / "host.graphml")
    query_path = write_graphml(path_query, tmp_path / "query.graphml")
    return host_path, query_path


REPO_ROOT = Path(__file__).resolve().parents[1]

WINDOW = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_embed_requires_hosting_and_query(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["embed", "--hosting", "h.graphml"])

    def test_experiment_rejects_unknown_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestEmbedCommand:
    def test_plain_output(self, graphml_pair, capsys):
        host_path, query_path = graphml_pair
        code = main(["embed", "--hosting", str(host_path), "--query", str(query_path),
                     "--constraint", WINDOW, "--algorithm", "ECF"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "ECF" in captured
        assert "->" in captured

    def test_json_output(self, graphml_pair, capsys):
        host_path, query_path = graphml_pair
        code = main(["embed", "--hosting", str(host_path), "--query", str(query_path),
                     "--constraint", WINDOW, "--algorithm", "LNS",
                     "--max-results", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "LNS"
        assert payload["status"] in ("complete", "partial")
        assert 1 <= len(payload["mappings"]) <= 2
        assert all(isinstance(m, dict) for m in payload["mappings"])

    def test_rwb_with_seed(self, graphml_pair, capsys):
        host_path, query_path = graphml_pair
        code = main(["embed", "--hosting", str(host_path), "--query", str(query_path),
                     "--constraint", WINDOW, "--algorithm", "RWB", "--seed", "3"])
        assert code == 0

    def test_infeasible_query_returns_nonzero_when_inconclusive(self, tmp_path,
                                                                small_hosting,
                                                                capsys):
        # A query that needs more nodes than the host has, forced through a
        # tiny timeout: nothing can be found.
        big = QueryNetwork("big")
        for index in range(4):
            big.add_node(f"q{index}")
        big.add_edge("q0", "q1", minDelay=1.0, maxDelay=2.0)
        big.add_edge("q1", "q2", minDelay=1.0, maxDelay=2.0)
        big.add_edge("q2", "q3", minDelay=1.0, maxDelay=2.0)
        host_path = write_graphml(small_hosting, tmp_path / "h.graphml")
        query_path = write_graphml(big, tmp_path / "q.graphml")
        code = main(["embed", "--hosting", str(host_path), "--query", str(query_path),
                     "--constraint", WINDOW, "--algorithm", "ECF"])
        # Proven infeasible is still a *conclusive* answer: exit code 0.
        assert code == 0
        assert "0 embedding(s)" in capsys.readouterr().out


class TestPlanCommand:
    def test_explains_cache_hits_and_entries(self, graphml_pair, capsys):
        host_path, query_path = graphml_pair
        code = main(["plan", "--hosting", str(host_path), "--query", str(query_path),
                     "--constraint", WINDOW, "--algorithm", "ECF", "--repeat", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan cache:" in out
        assert "2 hits / 1 misses" in out
        assert "run 0: cache miss" in out
        assert "run 1: cache hit" in out

    def test_json_output_with_tick_invalidation(self, graphml_pair, capsys):
        host_path, query_path = graphml_pair
        code = main(["plan", "--hosting", str(host_path), "--query", str(query_path),
                     "--constraint", WINDOW, "--repeat", "2", "--tick", "1",
                     "--seed", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"]["plan_cache"]["hits"] == 1
        assert payload["runs"][0]["cache"] == "miss"
        assert payload["runs"][1]["cache"] == "hit"
        # the monitor tick bumped the model version: the re-run must miss
        assert payload["invalidation"]["cache"] == "miss"
        assert payload["invalidation"]["model_version"] == 1
        assert all(entry["fingerprint"] for entry in payload["entries"])

    def test_non_preparable_algorithm_reports_bypass(self, graphml_pair, capsys):
        host_path, query_path = graphml_pair
        code = main(["plan", "--hosting", str(host_path), "--query", str(query_path),
                     "--constraint", WINDOW, "--algorithm", "bruteforce",
                     "--repeat", "2", "--max-results", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [run["cache"] for run in payload["runs"]] == ["bypass", "bypass"]
        cache = payload["service"]["plan_cache"]
        assert cache["hits"] == 0 and cache["misses"] == 0

    def test_rejects_nonpositive_repeat(self, graphml_pair, capsys):
        host_path, query_path = graphml_pair
        code = main(["plan", "--hosting", str(host_path), "--query", str(query_path),
                     "--repeat", "0"])
        assert code == 2


class TestBatchCommand:
    def test_json_rows_match_direct_searches(self, graphml_pair, tmp_path,
                                             small_hosting, path_query, capsys):
        host_path, query_path = graphml_pair
        node_screen = "rNode.cpuLoad < 0.5"
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([
            {"query": query_path.name, "constraint": WINDOW, "algorithm": "ECF"},
            {"query": str(query_path), "constraint": WINDOW, "algorithm": "ECF",
             "node_constraint": node_screen, "timeout": 5},
        ]))
        code = main(["batch", "--hosting", str(host_path), "--specs", str(specs),
                     "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)

        def expected(**screens):
            result = ECF().request(SearchRequest.build(
                path_query, small_hosting, constraint=WINDOW, **screens))
            return [{str(q): str(r) for q, r in m.items()} for m in result.mappings]

        assert [row["index"] for row in rows] == [0, 1]
        assert all(row["algorithm"] == "ECF" and row["status"] == "complete"
                   for row in rows)
        assert rows[0]["mappings"] == expected()
        assert rows[1]["mappings"] == expected(node_constraint=node_screen)
        assert 0 < len(rows[1]["mappings"]) < len(rows[0]["mappings"])


def test_list_algorithms_prints_every_registered_name(capsys):
    assert main(["list-algorithms"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line and not line[0].isspace()}
    assert listed == set(default_registry().names())


class TestGenerateCommand:
    @pytest.mark.parametrize("kind,size", [("planetlab", 24), ("brite", 30)])
    def test_generates_graphml(self, tmp_path, capsys, kind, size):
        output = tmp_path / f"{kind}.graphml"
        code = main(["generate", kind, "--sites", str(size), "--seed", "5",
                     "--output", str(output)])
        assert code == 0
        network = read_graphml(output, cls=HostingNetwork)
        assert network.num_nodes == size
        assert network.num_edges > 0

    def test_generates_transit_stub(self, tmp_path):
        output = tmp_path / "ts.graphml"
        assert main(["generate", "transit-stub", "--seed", "2",
                     "--output", str(output)]) == 0
        network = read_graphml(output, cls=HostingNetwork)
        assert network.is_connected()


class TestExperimentCommand:
    def test_runs_a_small_experiment_and_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code = main(["experiment", "fig13", "--seed", "3", "--timeout", "2",
                     "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment fig13" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "algorithm" in header and "total_ms" in header

class TestServeCommand:
    def test_requires_hosting(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serves_for_duration_and_prints_summary(self, graphml_pair,
                                                    capsys):
        host_path, _ = graphml_pair
        code = main(["serve", "--hosting", str(host_path),
                     "--duration", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving 'small-host' (6 nodes, 7 edges" in out \
            or "serving 'small-host' (6 nodes, 7 links" in out
        assert "served 0 request(s), shed 0" in out

    def test_json_stats_shape(self, graphml_pair, capsys):
        host_path, _ = graphml_pair
        code = main(["serve", "--hosting", str(host_path),
                     "--duration", "0.1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        stats = json.loads(out[out.index("{"):])
        assert set(stats) == {"service", "admission", "server"}
        assert "small-host" in stats["service"]["networks"]
        assert stats["admission"]["offered"] == 0

    def test_rejects_bad_qos_file(self, graphml_pair, tmp_path, capsys):
        host_path, _ = graphml_pair
        qos = tmp_path / "qos.json"
        qos.write_text('{"default": {"no_such_knob": 1}}')
        code = main(["serve", "--hosting", str(host_path),
                     "--duration", "0.1", "--qos", str(qos)])
        assert code == 2
        assert "cannot load QoS policies" in capsys.readouterr().err

    def test_end_to_end_over_the_socket(self, graphml_pair, path_query):
        """Serve on a real port and drive it with the async client."""
        import asyncio
        import socket
        import threading

        from repro.server import AsyncNetEmbedClient

        host_path, _ = graphml_pair
        with socket.socket() as probe:  # find a free port to pass in
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        thread = threading.Thread(target=main, args=(
            ["serve", "--hosting", str(host_path), "--port", str(port),
             "--duration", "1.5"],), daemon=True)
        thread.start()

        async def drive():
            for _ in range(100):  # wait for the listener to come up
                try:
                    client = await AsyncNetEmbedClient.connect("127.0.0.1",
                                                               port)
                    break
                except OSError:
                    await asyncio.sleep(0.02)
            else:
                raise AssertionError("server never came up")
            async with client:
                response = await client.embed(
                    path_query,
                    constraint="rEdge.avgDelay <= vEdge.maxDelay",
                    algorithm="ecf")
                metrics = await client.metrics()
            return response, metrics

        response, metrics = asyncio.run(drive())
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert response["kind"] == "result" and response["mappings"]
        assert metrics["admission"]["completed"] >= 1
        assert metrics["server"]["requests"]["embed"] == 1


class TestInputErrors:
    """A malformed input is one ``error:`` line and exit code 2, never a
    traceback out of :func:`main`."""

    @pytest.fixture
    def inputs(self, graphml_pair, tmp_path):
        host_path, query_path = graphml_pair

        def specs(text):
            path = tmp_path / "specs.json"
            path.write_text(text)
            return ["batch", "--hosting", str(host_path), "--specs", str(path)]

        search = ["--hosting", str(host_path), "--query", str(query_path)]
        return {
            "batch-invalid-json": lambda: specs("[{"),
            "batch-missing-specs": lambda: [
                "batch", "--hosting", str(host_path),
                "--specs", str(tmp_path / "absent.json")],
            "batch-bad-timeout": lambda: specs(json.dumps(
                [{"query": str(query_path), "timeout": "abc"}])),
            "batch-missing-query": lambda: specs(json.dumps(
                [{"query": "absent.graphml"}])),
            "embed-bad-constraint": lambda: [
                "embed", *search, "--constraint", "rEdge.avgDelay <="],
            "plan-bad-constraint": lambda: [
                "plan", *search, "--constraint", "rEdge.avgDelay <="],
            "embed-missing-hosting": lambda: [
                "embed", "--hosting", str(tmp_path / "absent.graphml"),
                "--query", str(query_path)],
            "plan-missing-query": lambda: [
                "plan", "--hosting", str(host_path),
                "--query", str(tmp_path / "absent.graphml")],
        }

    @pytest.mark.parametrize("case", [
        "batch-invalid-json", "batch-missing-specs", "batch-bad-timeout",
        "batch-missing-query", "embed-bad-constraint", "plan-bad-constraint",
        "embed-missing-hosting", "plan-missing-query"])
    def test_reports_one_error_line(self, inputs, case, capsys):
        assert main(inputs[case]()) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_batch_names_the_bad_spec(self, inputs, capsys):
        assert main(inputs["batch-bad-timeout"]()) == 2
        assert capsys.readouterr().err.startswith("error: spec #0: ")


def _readme_invocations():
    """``(command, text)`` for each ``python -m repro <command> ...`` in
    README.md, up to the end of its line (continuations joined) or its
    closing backtick."""
    text = (REPO_ROOT / "README.md").read_text().replace("\\\n", " ")
    for match in re.finditer(r"python -m repro ([\w-]+)([^`\n]*)", text):
        yield match.group(1), match.group(2)


def _argv_invocations():
    """``(command, strings)`` for each list literal under tests/ and
    benchmarks/ that reads as an argv: its first string (or the one after
    ``"repro"``) names a subcommand."""
    commands = set(_subparsers())
    for path in [*(REPO_ROOT / "tests").rglob("*.py"),
                 *(REPO_ROOT / "benchmarks").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.List):
                continue
            strings = [elt.value for elt in node.elts
                       if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
            if "repro" in strings:
                strings = strings[strings.index("repro") + 1:]
            if strings and strings[0] in commands:
                yield strings[0], " ".join(strings[1:])


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_cli_flag_has_a_caller():
    """A flag no README command, test or benchmark passes does not exist.
    ``serve --host`` is exempt: a bind address is a deployment setting."""
    called = {}
    for command, text in [*_readme_invocations(), *_argv_invocations()]:
        called.setdefault(command, set()).update(re.findall(r"--[\w-]+", text))
    uncalled = [(command, flag)
                for command, subparser in _subparsers().items()
                for action in subparser._actions
                for flag in action.option_strings
                if flag.startswith("--") and flag != "--help"
                and (command, flag) != ("serve", "--host")
                and flag not in called.get(command, ())]
    assert not uncalled, f"CLI flags with no caller: {uncalled}"
