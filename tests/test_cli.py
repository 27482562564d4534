import hashlib
import itertools
import json
import random
import time

import pytest

from mpdagid import (Factor, Fraction, Graph, MarginalOver, Product, cli,
                     graph_to_text, parse_graph_text)
from mpdagid.cli import main
from mpdagid.graph import _dumps

from cases import (CHAIN_TEXT, FRACTION_TEXT, MARGINAL_TEXT,
                   UNIDENTIFIABLE_TEXT, reference_graph_obj,
                   small_random_graphs)


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

    def test_orient_without_arrow_is_input_error(self, graph_file, capsys):
        path = graph_file("A -- B\nB -- C\n")
        code, out, err = run(capsys, "complete", path, "--orient", "AB")
        assert (code, out, err) == (2, "", "error: orientation 'AB' is not "
                                    "of the form A>B\n")

    def test_orient_skips_empty_tokens(self, graph_file, capsys):
        path = graph_file("A -- B\nB -- C\n")
        want = run(capsys, "complete", path, "--orient", "A>B")
        assert want[0] == 0
        assert run(capsys, "complete", path, "--orient", "A>B,,") == want
        assert run(capsys, "complete", path, "--orient", " , A>B",
                   "--orient", ",") == want

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


class TestByteOrderMark:
    # some editors start a UTF-8 file with a byte-order mark
    @pytest.mark.parametrize("body", [
        "A -> B\n",
        json.dumps({"nodes": ["A", "B"],
                    "edges": [{"a": "A", "b": "B", "kind": "->"}]}),
    ], ids=["text", "json"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_leading_mark_is_ignored(self, tmp_path, capsys, monkeypatch,
                                     body, source):
        import io
        plain = tmp_path / "plain.txt"
        plain.write_bytes(body.encode())
        expected = run(capsys, "identify", str(plain), "-x", "A", "-y", "B")
        assert expected[0] == 0
        marked = b"\xef\xbb\xbf" + body.encode()
        if source == "file":
            path = tmp_path / "bom.txt"
            path.write_bytes(marked)
            path = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(marked.decode()))
            path = "-"
        assert run(capsys, "identify", path, "-x", "A", "-y", "B") == expected


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

    @pytest.mark.parametrize("seed", ["abc", "", "1.5"])
    def test_bad_seed_env_is_named(self, graph_file, capsys, monkeypatch,
                                   seed):
        # int()'s own message named neither the variable nor the command
        monkeypatch.setenv("MPDAG_ID_SEED", seed)
        path = graph_file("X -> Y\n")
        code, out, err = run(capsys, "verify", path, "-x", "X", "-y", "Y")
        assert (code, out) == (2, "")
        assert err == (f"error: MPDAG_ID_SEED must be an integer, "
                       f"got {seed!r}\n")
        # --seed takes precedence, so the variable is not read
        code, _, _ = run(capsys, "verify", path, "-x", "X", "-y", "Y",
                         "--seed", "3")
        assert code == 0

    def test_work_past_the_cap_exits_two_at_once(self, graph_file, capsys):
        # 10^8 models of X -> Y: each of the three tables counts as
        # MIN_TABLE_CELLS; it ran silently for minutes before the cap
        path = graph_file("X -> Y\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", path, "-x", "X", "-y", "Y",
                             "--trials", "100000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: 307200000000 table cells exceeds the verify "
                       "work cap (1073741824)\n")

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

    def test_joint_table_too_large_exits_two(self, graph_file, capsys):
        # the (2,)*56 joint table of a 56-node chain: the node cap refuses
        # it before numpy would (MemoryError, or ValueError past 32
        # dimensions on numpy < 2)
        path = graph_file("".join(f"V{i} -> V{i + 1}\n" for i in range(55)))
        code, out, err = run(capsys, "verify", path, "-x", "V0", "-y", "V1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_graph_past_the_node_cap_exits_two_at_once(self, graph_file,
                                                       capsys):
        # a 26-node chain: its joint table of 2^26 floats (512 MB) can be
        # allocated, and building and summing it would take minutes
        path = graph_file("".join(f"V{i} -> V{i + 1}\n" for i in range(25)))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", path, "-x", "V0", "-y", "V25")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: 26 nodes exceeds the joint-table cap (20)\n"


    def test_chain_at_the_node_cap_verifies_fast(self, graph_file, capsys):
        # the 20-node chain's expression sums over 18 nodes: built once per
        # model as an array, not once per assignment, it takes well under
        # a second, where the per-assignment loop took about a minute
        path = graph_file("".join(f"V{i} -> V{i + 1}\n" for i in range(19)))
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify", path, "-x", "V0", "-y", "V19",
                           "--json")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert json.loads(out)["verified"] is True


class TestMalformedJson:
    @pytest.mark.parametrize("blob", [
        {"nodes": 5},
        {"nodes": [["a"]]},
        {"nodes": ["a", "b"], "edges": [{"a": ["a"], "b": "b", "kind": "->"}]},
        {"nodes": ["a"], "edges": 5},
        {"edges": []},
        {"nodes": ["a"], "edges": [1]},
        {"nodes": ["a", "b"], "edges": [{"a": "a", "b": "b", "kind": "<-"}]},
    ])
    def test_exit_two_with_one_line_error(self, blob, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
        code, out, err = run(capsys, "dags", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_too_deeply_nested_exits_two(self, graph_file, capsys):
        path = graph_file('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + "}",
                          name="deep.json")
        code, out, err = run(capsys, "reach", path, "--nodes", "A")
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1


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


def test_graph_file_is_closed(graph_file):
    # under -X dev a file left open prints a ResourceWarning on stderr
    import os
    import subprocess
    import sys

    import mpdagid
    path = graph_file("A -> B\n")
    src = os.path.dirname(os.path.dirname(mpdagid.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "mpdagid.cli", "reach", path,
         "--nodes", "A"], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "A,B\n", "")


@pytest.mark.parametrize("argv", [
    ["reach", "--nodes", "C0"],
    ["enumerate", "-x", "C0,C1", "-y", "C4", "-z", "C2", "--json"],
], ids=["flushed-at-the-end", "larger-than-the-buffer"])
def test_closed_stdout_exits_quietly(graph_file, argv):
    # the read end is closed before the child writes, as `| head` may do:
    # the BrokenPipeError is neither malformed input (exit 2 with an
    # error line) nor an exception at exit's flush; the exit status is
    # the one a shell reports for SIGPIPE.  stdout is block-buffered, as
    # in a shell, so a short output is written only when it is flushed
    import os
    import subprocess
    import sys

    import mpdagid
    path = graph_file("".join(f"C{a} -- C{b}\n" for a, b
                              in itertools.combinations(range(5), 2)))
    src = os.path.dirname(os.path.dirname(mpdagid.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mpdagid.cli", argv[0], path, *argv[1:]],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
            env={**{k: v for k, v in os.environ.items()
                    if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("body, argv, out", [
    ("X -> Y\n# caf\u00e9\n", ["identify", "-x", "X", "-y", "Y"], "f(y|x)\n"),
    ("\u00e9 -> Y\n", ["dags", "--json"], None),
], ids=["comment", "label"])
def test_graph_file_is_read_as_utf8_in_any_locale(tmp_path, body, argv, out):
    # under the POSIX locale, with UTF-8 mode off, the locale's encoding
    # is ASCII; a graph file is UTF-8 whatever the locale
    import os
    import subprocess
    import sys

    import mpdagid
    path = tmp_path / "g.txt"
    path.write_bytes(body.encode("utf-8"))
    src = os.path.dirname(os.path.dirname(mpdagid.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "mpdagid.cli", argv[0],
         str(path), *argv[1:]], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, LC_ALL="POSIX"))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    if out is not None:
        assert proc.stdout == out
    else:  # json writes the label as an ASCII escape
        assert json.loads(proc.stdout)["dags"][0]["nodes"] == ["\u00e9", "Y"]


def _clique(k):
    nodes = [f"C{i}" for i in range(k)]
    return Graph(nodes, undirected=list(itertools.combinations(nodes, 2)))


def _treated_ladder(m):
    """L0..L{m-1} with undirected i--i+1 and i--i+2, and T -> every L."""
    nodes = [f"L{i}" for i in range(m)]
    und = [(nodes[i], nodes[i + 1]) for i in range(m - 1)]
    und += [(nodes[i], nodes[i + 2]) for i in range(m - 2)]
    return Graph(["T"] + nodes, [("T", v) for v in nodes], und)


# SHA-256 of stdout, each row recorded before a refactor of the code it runs
# (derived graphs; the edge writers; the oracle's per-model work): a
# refactor must leave every byte of output as it was
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
    ("complete", "ladder", ["--orient", "L4>L3"],
     "d4a5fa467427b0b8f91087c7b9a93d56b1c92d38212bd57ae64ccd99d208a9a2"),
    ("complete", "ladder", ["--orient", "L4>L3", "--json"],
     "a9c93c3d0f70795475838579c4ca83f93cf08ed6706b6a6da4aa247abac7e79f"),
    ("dags", "k4w", [],
     "45a565ab7c82957e63c515a4633e057efb8c05ae3eab1e528b609e131075517a"),
    ("dags", "k4w", ["--json"],
     "2b6941a2e9677c87dff5bd146673c101fdce3046f91eefd7e1608a0eab4e06fe"),
    # verify prints max_gap to the last bit in --json: these rows pin every
    # float of the oracle (do-tables, marginal sums, expression evaluation)
    ("verify", "fraction", ["-x", "X", "-y", "Y", "-z", "Z"],
     "0bd193ebd01ec148244cf1627b963488d6f5504bd47c2485fcd9a13276b742e8"),
    ("verify", "fraction", ["-x", "X", "-y", "Y", "-z", "Z", "--json"],
     "5344cceb7bc056096823e216d9ceed1696da42cafded1931ce8193a8d62252d4"),
    ("verify", "fraction", ["-x", "X", "-y", "Y", "-z", "Z", "--trials", "3"],
     "d50659e724755e5c4c730802c200278c6231429f6cb615eb0cc18facab0455f5"),
    ("verify", "ladder", ["-x", "T", "-y", "L9", "-z", "L5"],
     "117bdfd855f87fca594f30522d1cee1e2c57f6e2c1a408e0dd1f44667f6dc093"),
    ("verify", "ladder", ["-x", "T", "-y", "L9", "-z", "L5", "--json"],
     "e1c59f05db5062e3922596b69f4de8d5ad5f7925a24f57c4620ccf63b95b20de"),
    ("verify", "ladder", ["-x", "T", "-y", "L9", "-z", "L5", "--trials", "3"],
     "69c4647d00e5b9dd1d46599bdc78fd8c2074879c4969b0a22950a63a39912fa5"),
]

_GOLDEN_TEXTS = {
    "k6": lambda: graph_to_text(_clique(6)),
    "ladder": lambda: graph_to_text(_treated_ladder(10)),
    "k4w": lambda: graph_to_text(_clique(4)) + "node W\n",  # isolated W
    "fraction": lambda: FRACTION_TEXT,
    "unidentifiable": lambda: UNIDENTIFIABLE_TEXT,
}


@pytest.mark.parametrize("command, graph, args, digest", _GOLDEN,
                         ids=[f"{c}-{g}-{len(a)}" for c, g, a, _ in _GOLDEN])
def test_golden_output(graph_file, capsys, command, graph, args, digest):
    code, out, err = run(capsys, command,
                         graph_file(_GOLDEN_TEXTS[graph]()), *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("as_json, digest", [
    (False, "899a3ac48184fc9d9830be0446ab1b5a4b93c74d535288a03f06766cef4db506"),
    (True, "84436dd3f19501badcea4399942db50574d21db7e3d6c7437c3908165ec54613"),
])
def test_golden_refusal(graph_file, capsys, as_json, digest):
    # the certificate goes to stderr as text, to stdout as JSON
    code, out, err = run(capsys, "identify",
                         graph_file(_GOLDEN_TEXTS["unidentifiable"]()),
                         "-x", "X", "-y", "Y", "-z", "Z",
                         *(["--json"] if as_json else []))
    written, silent = (out, err) if as_json else (err, out)
    assert (code, silent) == (3, "")
    assert hashlib.sha256(written.encode()).hexdigest() == digest


class TestJsonWriter:
    """``graph._dumps``, the one writer of ``--json`` output and of a
    graph's JSON form, is byte-identical to ``json.dumps(obj, indent=2)``,
    with ``cases.reference_graph_obj`` as the default that writes a graph."""

    def test_matches_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        special = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300,
                   1e300, 2 ** 64, -(2 ** 70)]
        texts = st.text() | st.text(
            alphabet='"\\/\x00\x1f\x7f\n\t é€\U0001f600')
        scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                   | st.sampled_from(special) | texts)
        keys = texts | st.integers() | st.floats() | st.booleans() | st.none()
        values = st.recursive(
            scalars, lambda inner: (st.lists(inner)
                                    | st.lists(inner).map(tuple)
                                    | st.dictionaries(keys, inner)),
            max_leaves=40)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(values)
        def check(obj):
            assert _dumps(obj) == json.dumps(obj, indent=2)

        check()

    @pytest.mark.parametrize("obj", [
        {1, 2}, b"bytes", object(), [1, ["a", frozenset()]],
        {"k": (1, {"v": bytearray()})}, {(1, 2): 3}, 1j,
    ], ids=["set", "bytes", "object", "frozenset-in-list",
            "bytearray-in-dict", "tuple-key", "complex"])
    def test_unsupported_type_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            _dumps(obj)

    # Repeats that a writer reusing the chunk of an earlier equal dict
    # would get wrong if it keyed the chunk on less than the items in
    # order, the indent and the exact types: a string-only dict at two
    # depths, in two key orders, next to AST dicts, and scalars that
    # compare equal but are written apart
    @pytest.mark.parametrize("obj", [
        # the same string-only dict at two depths
        {"e": {"a": "A", "b": "B"}, "l": [{"a": "A", "b": "B"}],
         "m": {"n": {"a": "A", "b": "B"}}},
        # the same items in two key orders, the same values under other keys
        [{"a": "A", "b": "B", "kind": "->"},
         {"kind": "->", "b": "B", "a": "A"},
         {"x": "A", "y": "B", "z": "->"},
         {"a": "A", "b": "B", "kind": "->"}],
        # a string-only dict next to AST dicts that share its "kind"
        [{"kind": "marginal", "a": "A", "b": "B"},
         {"kind": "marginal", "variables": ["A"], "body": {"kind": "product",
                                                           "factors": []}},
         {"kind": "fraction", "numerator": {"kind": "marginal", "a": "A",
                                            "b": "B"}, "denominator": "B"},
         {"kind": "fraction", "numerator": "A", "denominator": "B"}],
        # values json writes alike or not, after a string-only dict
        [{"a": "1"}, {"a": 1}, {"a": True}, {"a": 1.0}, {"a": None},
         {"a": "true"}, {1: "a"}, {"1": "a"}, {True: "a"}, {"a": "1"}],
        [{}, {"a": {}}, {}, [{}]],
    ], ids=["two-depths", "key-orders", "ast-kind", "scalars", "empty"])
    def test_repeated_dicts_match_json_dumps(self, obj):
        assert _dumps(obj) == json.dumps(obj, indent=2)

    def test_graphs_match_json_dumps(self):
        # the writer renders each "nodes" array once per node tuple and
        # indent and each edge once per edge and indent: keyed without the
        # indent, or on the node set, it would reuse a wrong chunk here
        g = parse_graph_text("A -> B\nB -- C\nC -- D\nnode E\n")
        shared = [g.orient("B", "C"), g.remove_edges_into({"B"})]
        assert all(h.nodes is g.nodes for h in shared)
        sub = g.induced_subgraph({"B", "C", "D"})  # a node tuple of its own
        reordered = Graph(g.nodes[::-1], g.directed_edges, g.undirected_edges)
        edgeless, empty = Graph(["A", "B"]), Graph([])
        graphs = [g, *shared, sub, reordered, edgeless, empty]
        payload = {"graph": g,
                   "leaves": [{"graph": h, "all": [h, g]} for h in graphs],
                   "deep": {"er": [[reordered, sub, g]]}, "dags": graphs}
        assert _dumps(payload) == json.dumps(payload, indent=2,
                                             default=reference_graph_obj)
        for h in graphs:
            assert _dumps(h) == json.dumps(
                reference_graph_obj(h), indent=2)

    def test_expressions_match_json_dumps(self):
        # a factor's equality leaves fixed out, yet its fixed labels are
        # written, and at the indent of each place it appears
        f = Factor(("A",), ("B", "C"), ("B",))
        unfixed = Factor(("A",), ("B", "C"))
        assert f == unfixed
        expr = Fraction(MarginalOver(("C",), Product((f, Factor(("C",))))),
                        unfixed)
        payload = {"ast": expr, "leaves": [{"ast": f}, {"ast": unfixed},
                                           {"deep": [expr, [f]]}],
                   "bare": Factor(("A",)), "pair": [unfixed, f]}
        assert _dumps(payload) == json.dumps(payload, indent=2,
                                             default=reference_graph_obj)

    @pytest.mark.parametrize("command", [
        "identify", "enumerate", "verify", "dags", "complete", "dsep",
        "reach", "pco"])
    def test_every_payload_matches_json_dumps(self, command, graph_file,
                                              capsys, monkeypatch):
        if command == "verify":
            pytest.importorskip("numpy")
        payloads = []

        def checked(payload):
            text = _dumps(payload)
            assert text == json.dumps(payload, indent=2,
                                      default=reference_graph_obj)
            payloads.append(payload)
            return text

        monkeypatch.setattr(cli, "_dumps", checked)
        rng = random.Random(31)
        for g in small_random_graphs(seed=31, count=40):
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            x, y = nodes[:2]
            query = ["-x", x, "-y", y,
                     "-z", ",".join(nodes[2:2 + rng.randrange(3)])]
            args = {"identify": query, "enumerate": query,
                    "verify": query + ["--trials", "1"], "dags": [],
                    "complete": [], "dsep": query, "reach": ["--nodes", x],
                    "pco": []}[command]
            main([command, graph_file(graph_to_text(g)), *args, "--json"])
            capsys.readouterr()
        # the 20 MPDAGs among the graphs give a payload, the others may not
        assert len(payloads) >= 15
