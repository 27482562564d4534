import hashlib
import itertools
import json

import pytest

from mpdagid import Graph, graph_to_text
from mpdagid.cli import main

from cases import (CHAIN_TEXT, FRACTION_TEXT, MARGINAL_TEXT,
                   UNIDENTIFIABLE_TEXT)


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplete:
    def test_closure(self, graph_file, capsys):
        path = graph_file("A -> B\nB -- C\nnode D\n")  # R1 orients B -> C
        code, out, _ = run(capsys, "complete", path)
        assert code == 0
        assert "B -> C" in out

    def test_orient_flag(self, graph_file, capsys):
        path = graph_file("A -- B\nB -- C\n")
        code, out, _ = run(capsys, "complete", path, "--orient", "A>B")
        assert code == 0
        assert "A -> B" in out and "B -> C" in out

    def test_orient_conflict_is_input_error(self, graph_file, capsys):
        path = graph_file("A -> B\n")
        code, _, err = run(capsys, "complete", path, "--orient", "B>A")
        assert code == 2
        assert "error:" in err

    def test_orient_unknown_label_is_named(self, graph_file, capsys):
        path = graph_file("A -- B\nB -- C\n")
        code, out, err = run(capsys, "complete", path, "--orient", "R>Q")
        assert (code, out, err) == (2, "", "error: unknown node 'Q'\n")

    def test_orient_contradictory_pairs(self, graph_file, capsys):
        # the second pair meets the edge the first one oriented
        path = graph_file("A -- B\nB -- C\n")
        code, out, err = run(capsys, "complete", path, "--orient", "A>B,B>A")
        assert (code, out, err) == (2, "", "error: edge between 'B' and 'A' "
                                    "already oriented the other way\n")

    def test_json_round_trips(self, graph_file, capsys):
        path = graph_file("A -- B\n")
        code, out, _ = run(capsys, "complete", path, "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["edges"] == [{"a": "A", "b": "B", "kind": "--"}]


class TestDags:
    def test_triangle_count(self, graph_file, capsys):
        path = graph_file("A -- B\nB -- C\nA -- C\n")
        code, out, _ = run(capsys, "dags", path, "--json")
        assert code == 0
        assert json.loads(out)["count"] == 6


class TestPco:
    def test_buckets(self, graph_file, capsys):
        path = graph_file(FRACTION_TEXT)
        code, out, _ = run(capsys, "pco", path, "--nodes", "V1,Z,Y")
        assert code == 0
        assert out.splitlines() == ["V1", "Z,Y"]


class TestDsep:
    def test_separated(self, graph_file, capsys):
        path = graph_file("A -> B\nB -> C\n")
        code, out, _ = run(capsys, "dsep", path, "-x", "A", "-y", "C",
                           "-z", "B")
        assert code == 0
        assert out.strip() == "separated"

    def test_witness_json(self, graph_file, capsys):
        path = graph_file("A -> B\nB -> C\n")
        code, out, _ = run(capsys, "dsep", path, "-x", "A", "-y", "C",
                           "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["separated"] is False
        assert blob["witness"]["path"] == ["A", "B", "C"]

    def test_collider_descent_reported(self, graph_file, capsys):
        path = graph_file("A -> B\nC -> B\nB -> D\nD -> E\n")
        code, out, _ = run(capsys, "dsep", path, "-x", "A", "-y", "C",
                           "-z", "E", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["witness"]["path"] == ["A", "B", "C"]
        assert blob["witness"]["collider_descents"] == [["B", "D", "E"]]
        code, out, _ = run(capsys, "dsep", path, "-x", "A", "-y", "C",
                           "-z", "E")
        assert "collider descent: B -> D -> E" in out


class TestReach:
    def test_possible_descendants(self, graph_file, capsys):
        path = graph_file("X -- A\nA -> B\nnode C\n")
        code, out, _ = run(capsys, "reach", path, "--nodes", "X")
        assert code == 0
        assert out.strip() == "X,A,B"

    def test_parents(self, graph_file, capsys):
        path = graph_file("A -> B\nC -> B\n")
        code, out, _ = run(capsys, "reach", path, "--nodes", "B",
                           "--relation", "parents")
        assert code == 0
        assert out.strip() == "A,C"


class TestIdentify:
    def test_expression(self, graph_file, capsys):
        path = graph_file(MARGINAL_TEXT)
        code, out, _ = run(capsys, "identify", path, "-x", "X", "-y", "Y",
                           "-z", "V1")
        assert code == 0
        assert out.strip() == "INT_{v2} f(y|x,v1,v2) f(v2|v1) dv2"

    def test_latex(self, graph_file, capsys):
        path = graph_file(CHAIN_TEXT)
        code, out, _ = run(capsys, "identify", path, "-x", "X", "-y", "Y",
                           "-z", "Z", "--latex")
        assert code == 0
        assert out.strip() == "f(y \\mid x, z)"

    def test_not_identifiable_exit_three(self, graph_file, capsys):
        path = graph_file(UNIDENTIFIABLE_TEXT)
        code, out, err = run(capsys, "identify", path, "-x", "X", "-y", "Y",
                             "-z", "Z")
        assert code == 3
        assert not out
        assert "not identifiable" in err
        assert "X -- Z" in err

    def test_not_identifiable_json(self, graph_file, capsys):
        path = graph_file(UNIDENTIFIABLE_TEXT)
        code, out, _ = run(capsys, "identify", path, "-x", "X", "-y", "Y",
                           "-z", "Z", "--json")
        assert code == 3
        blob = json.loads(out)
        assert blob["identifiable"] is False
        cert = blob["certificate"]
        assert cert["offending_path"] == ["X", "Z"]
        assert cert["dsep_failure"]["picked"] == "X"
        assert cert["dsep_failure"]["open_path"]["path"] == ["Y", "V1", "X"]

    def test_bad_query_exit_two(self, graph_file, capsys):
        path = graph_file(CHAIN_TEXT)
        code, _, err = run(capsys, "identify", path, "-x", "X", "-y", "X")
        assert code == 2
        assert "error:" in err

    def test_malformed_graph_exit_two(self, graph_file, capsys):
        path = graph_file("A => B\n")
        code, _, err = run(capsys, "identify", path, "-x", "A", "-y", "B")
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "identify", "/no/such/file", "-x", "A",
                           "-y", "B")
        assert code == 2
        assert "error:" in err


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("A -> B\n"))
        code, out, _ = run(capsys, "reach", "-", "--nodes", "A")
        assert code == 0
        assert out.strip() == "A,B"

    def test_reach_on_cyclic_input(self, capsys, monkeypatch):
        # not an MPDAG; without undirected edges reach follows directed edges
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("A -> B\nB -> C\nC -> A\n"))
        code, out, _ = run(capsys, "reach", "-", "--nodes", "A")
        assert code == 0
        assert out.strip() == "A,B,C"

    def test_json_input_detected(self, capsys, monkeypatch):
        import io
        blob = json.dumps({"nodes": ["A", "B"],
                           "edges": [{"a": "A", "b": "B", "kind": "->"}]})
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, _ = run(capsys, "reach", "-", "--nodes", "A")
        assert code == 0
        assert out.strip() == "A,B"


class TestEnumerate:
    def test_split_graph(self, graph_file, capsys):
        path = graph_file(UNIDENTIFIABLE_TEXT)
        code, out, _ = run(capsys, "enumerate", path, "-x", "X", "-y", "Y",
                           "-z", "Z", "--json")
        assert code == 0
        blob = json.loads(out)
        assert len(blob["leaves"]) == 2
        assert blob["distinct_expressions"] == 2


class TestVerify:
    def test_identified_expression_passes(self, graph_file, capsys):
        path = graph_file(CHAIN_TEXT)
        code, out, _ = run(capsys, "verify", path, "-x", "X", "-y", "Y",
                           "-z", "Z", "--trials", "1")
        assert code == 0
        assert "verified" in out

    def test_not_identifiable_exit_one(self, graph_file, capsys):
        path = graph_file(UNIDENTIFIABLE_TEXT)
        code, _, err = run(capsys, "verify", path, "-x", "X", "-y", "Y",
                           "-z", "Z")
        assert code == 1
        assert "nothing to verify" in err

    def test_seed_env_fallback(self, graph_file, capsys, monkeypatch):
        monkeypatch.setenv("MPDAG_ID_SEED", "7")
        path = graph_file("X -> Y\n")
        code, out, _ = run(capsys, "verify", path, "-x", "X", "-y", "Y",
                           "--trials", "1", "--json")
        assert code == 0
        assert json.loads(out)["verified"] is True

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_is_input_error(self, graph_file, capsys, trials):
        # the count is checked before identification, so a query that is
        # not identifiable is refused for it too
        for text in (CHAIN_TEXT, UNIDENTIFIABLE_TEXT):
            path = graph_file(text)
            code, out, err = run(capsys, "verify", path, "-x", "X", "-y", "Y",
                                 "-z", "Z", "--trials", trials)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "trials" in err


class TestMalformedJson:
    @pytest.mark.parametrize("blob", [
        {"nodes": 5},
        {"nodes": [["a"]]},
        {"nodes": ["a", "b"], "edges": [{"a": ["a"], "b": "b", "kind": "->"}]},
        {"nodes": ["a"], "edges": 5},
    ])
    def test_exit_two_with_one_line_error(self, blob, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
        code, out, err = run(capsys, "dags", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestOneProcess:
    def test_subcommands_share_no_state(self, graph_file, capsys):
        path = graph_file("A -- B\nB -- C\n")
        code, out, _ = run(capsys, "complete", path, "--orient", "A>B")
        assert code == 0 and "A -> B" in out
        code, out, _ = run(capsys, "complete", path)
        assert code == 0 and "A -- B" in out and "B -- C" in out
        code, out, _ = run(capsys, "pco", path, "--json")
        assert json.loads(out) == {"buckets": [["A", "B", "C"]]}
        code, out, _ = run(capsys, "reach", path, "--nodes", "A")
        assert out.strip() == "A,B,C"
        code, out, _ = run(capsys, "reach", path, "--nodes", "A",
                           "--relation", "parents")
        assert out.strip() == "(empty)"
        code, out, _ = run(capsys, "pco", path)
        assert out.strip() == "A,B,C"
        code, _, err = run(capsys, "complete", path, "--orient", "A>B,B>A")
        assert code == 2 and err.startswith("error:")
        code, out, _ = run(capsys, "complete", path, "--json")
        assert json.loads(out)["edges"] == [
            {"a": "A", "b": "B", "kind": "--"},
            {"a": "B", "b": "C", "kind": "--"}]

    def test_graph_labels_round_trip_through_complete(self, graph_file, capsys):
        path = graph_file("node -- B\nB -- C\n")
        code, out, _ = run(capsys, "complete", path, "--orient", "node>B")
        assert code == 0
        again = graph_file(out, name="again.txt")
        code, out2, _ = run(capsys, "complete", again)
        assert code == 0 and out2 == out
        assert "node -> B" in out and "B -> C" in out

    def test_json_label_with_whitespace_exits_two(self, capsys, monkeypatch):
        import io
        blob = json.dumps({"nodes": ["A B", "C"], "edges": []})
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, err = run(capsys, "complete", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: node label") and err.count("\n") == 1


def test_no_subcommand_but_verify_loads_numpy(graph_file):
    import os
    import subprocess
    import sys

    import mpdagid
    path = graph_file(FRACTION_TEXT)
    code = (
        "import sys, mpdagid, mpdagid.cli\n"
        "from mpdagid.cli import main\n"
        f"path = {path!r}\n"
        "for argv in (['identify', path, '-x', 'X', '-y', 'Y', '-z', 'Z'],\n"
        "             ['enumerate', path, '-x', 'X', '-y', 'Y', '--json'],\n"
        "             ['complete', path], ['pco', path], ['dags', path],\n"
        "             ['dsep', path, '-x', 'X', '-y', 'Y'],\n"
        "             ['reach', path, '--nodes', 'X']):\n"
        "    assert main(argv) in (0, 3), argv\n"
        "assert 'numpy' not in sys.modules\n"
        "print('ok')\n")
    src = os.path.dirname(os.path.dirname(mpdagid.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("ok")


def test_verify_without_numpy_exits_two(graph_file):
    import os
    import subprocess
    import sys

    import mpdagid
    path = graph_file(MARGINAL_TEXT)
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from mpdagid.cli import main\n"
        f"sys.exit(main(['verify', {path!r}, '-x', 'X', '-y', 'Y',"
        " '-z', 'V1']))\n")
    src = os.path.dirname(os.path.dirname(mpdagid.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "numpy" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_unknown_node_error_is_the_same_in_every_process(graph_file):
    # the error names the least unknown label, not the first in hash order
    import os
    import subprocess
    import sys

    import mpdagid
    path = graph_file("A -> B\nB -> C\n")
    src = os.path.dirname(os.path.dirname(mpdagid.__file__))
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-m", "mpdagid.cli", "reach", path,
             "--nodes", "Q,R,S"], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "error: unknown node 'Q'\n"), seed


def _clique(k):
    nodes = [f"C{i}" for i in range(k)]
    return Graph(nodes, undirected=list(itertools.combinations(nodes, 2)))


def _treated_ladder(m):
    """L0..L{m-1} with undirected i--i+1 and i--i+2, and T -> every L."""
    nodes = [f"L{i}" for i in range(m)]
    und = [(nodes[i], nodes[i + 1]) for i in range(m - 1)]
    und += [(nodes[i], nodes[i + 2]) for i in range(m - 2)]
    return Graph(["T"] + nodes, [("T", v) for v in nodes], und)


# SHA-256 of stdout, recorded before graphs were derived from their parents'
# maps: the derivation must leave every byte of output as it was
_GOLDEN = [
    ("enumerate", "k6", ["-x", "C0,C1", "-y", "C5"],
     "84c73c40cfc6b80f421ec16809d183ef7f7029a859657fd20b6d22c13d273205"),
    ("enumerate", "k6", ["-x", "C0,C1", "-y", "C5", "--json"],
     "3704f824ace3b78bdfc48608e674645c3358d809c046ec5be5d93615c1ed0749"),
    ("enumerate", "ladder", ["-x", "L2", "-y", "L9", "-z", "L5"],
     "e81299bf5ee64e6ade37980c8f9f10415dce6125ee5b2e41290e8ae9c2ff0fa6"),
    ("enumerate", "ladder", ["-x", "L2", "-y", "L9", "-z", "L5", "--json"],
     "2e2edcbf7e3768e21238c91c292d8b0e0b3050dee943c829c7f29a028acbb97d"),
    ("identify", "fraction", ["-x", "X", "-y", "Y", "-z", "Z", "--json"],
     "a97ec204076e84a44606e244fa4ed4a6d7ffba2b4ebc1d42a76ea3802064ac36"),
]


@pytest.mark.parametrize("command, graph, args, digest", _GOLDEN,
                         ids=[f"{c}-{g}-{len(a)}" for c, g, a, _ in _GOLDEN])
def test_golden_output(graph_file, capsys, command, graph, args, digest):
    text = {"k6": lambda: graph_to_text(_clique(6)),
            "ladder": lambda: graph_to_text(_treated_ladder(10)),
            "fraction": lambda: FRACTION_TEXT}[graph]()
    code, out, err = run(capsys, command, graph_file(text), *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
