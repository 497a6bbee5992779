import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fastmis
from fastmis.cli import (
    ParseError,
    main,
    read_edge_list,
    read_metis,
    read_solution,
    verify,
    write_metis,
)
from fastmis.graph import load
from fastmis.metrics import read_log

from util import ba_graph, er_graph, path_graph, read_metis_reference


P5_METIS = "5 4\n2\n1 3\n2 4\n3 5\n4\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# readers


def test_read_metis_path(tmp_path):
    g = read_metis(write(tmp_path / "p3.metis", "3 2\n2\n1 3\n2\n"))
    assert g.edges() == [(0, 1), (1, 2)]


def test_read_metis_skips_comments(tmp_path):
    g = read_metis(write(tmp_path / "c.metis", "% a comment\n3 2\n2\n1 3\n2\n"))
    assert g.edges() == [(0, 1), (1, 2)]


def test_read_metis_blank_line_is_isolated_vertex(tmp_path):
    g = read_metis(write(tmp_path / "i.metis", "2 0\n\n\n"))
    assert g.alive_count() == 2 and g.edges() == []


def test_read_metis_rejects_zero_index(tmp_path):
    with pytest.raises(ParseError, match="outside 1"):
        read_metis(write(tmp_path / "z.metis", "2 1\n0\n1\n"))


def test_read_metis_rejects_asymmetry(tmp_path):
    with pytest.raises(ParseError, match="not vice versa"):
        read_metis(write(tmp_path / "a.metis", "3 2\n2\n1 3\n\n"))


def test_read_metis_rejects_edge_count_mismatch(tmp_path):
    with pytest.raises(ParseError, match="claims"):
        read_metis(write(tmp_path / "m.metis", "3 5\n2\n1 3\n2\n"))


def test_read_metis_rejects_self_loop(tmp_path):
    with pytest.raises(ParseError, match="self-loop"):
        read_metis(write(tmp_path / "s.metis", "2 1\n1\n1\n"))


def test_read_metis_rejects_weighted_format(tmp_path):
    with pytest.raises(ParseError, match="unsupported"):
        read_metis(write(tmp_path / "w.metis", "2 1 11\n2 5\n1 5\n"))


def parse_error(path) -> str:
    with pytest.raises(ParseError) as info:
        read_metis(path)
    return str(info.value)


def test_read_metis_rejects_duplicate_neighbors(tmp_path):
    # the comment shifts file lines against vertex lines
    path = write(tmp_path / "d.metis", "% c\n3 2\n2\n1 3 3\n2\n")
    assert parse_error(path) == f"{path}:4: duplicate neighbors on vertex 2"


def test_read_metis_rejects_bad_token(tmp_path):
    path = write(tmp_path / "t.metis", "3 2\n2\n1 x\n2\n")
    assert parse_error(path) == f"{path}:3: bad neighbor token 'x'"


def test_read_metis_rejects_too_few_vertex_lines(tmp_path):
    # a missing line has no line number; the message counts the lines
    path = write(tmp_path / "f.metis", "3 1\n2\n1\n")
    assert parse_error(path) == f"{path}: expected 3 vertex lines, found 2"


def test_read_metis_rejects_malformed_header(tmp_path):
    path = write(tmp_path / "h.metis", "% c\n3\n2\n1 3\n2\n")
    assert parse_error(path) == f"{path}:2: header must be 'n m [fmt]'"
    path = write(tmp_path / "n.metis", "3 two\n2\n1 3\n2\n")
    assert parse_error(path).startswith(f"{path}:1: invalid literal for int()")


# The error contract of read_metis: each bad file and the exact message it
# gets after "<path>". Within a line the first bad token, out-of-range index
# or self-loop wins in token order, then a duplicate; the first bad line wins
# over later ones; asymmetry is checked after every line, the edge count last.
METIS_ERRORS = [
    ("empty", "", ": empty file"),
    ("only-comments", "% a\n  % b\n", ": empty file"),
    ("header-arity", "3\n2\n1 3\n2\n", ":1: header must be 'n m [fmt]'"),
    ("header-int", "3 two\n2\n1 3\n2\n",
     ":1: invalid literal for int() with base 10: 'two'"),
    ("weighted", "2 1 11\n2 5\n1 5\n", ":1: weighted format 11 is unsupported"),
    ("too-few-lines", "3 1\n2\n1\n", ": expected 3 vertex lines, found 2"),
    ("too-many-lines", "2 1\n2\n1\n1\n", ": expected 2 vertex lines, found 3"),
    ("negative-n", "-1 0\n\n", ": expected -1 vertex lines, found 0"),
    ("index-zero", "2 1\n0\n1\n", ":2: neighbor 0 outside 1..2"),
    ("index-n-plus-1", "2 1\n2\n1 3\n", ":3: neighbor 3 outside 1..2"),
    ("index-minus-1", "2 1\n2\n-1\n", ":3: neighbor -1 outside 1..2"),
    ("self-loop", "2 1\n1\n1\n", ":2: self-loop at vertex 1"),
    ("bad-token", "3 2\n2\n1 x\n2\n", ":3: bad neighbor token 'x'"),
    ("duplicate", "% c\n3 2\n2\n1 3 3\n2\n", ":4: duplicate neighbors on vertex 2"),
    ("range-before-token", "3 1\n9 x\n\n\n", ":2: neighbor 9 outside 1..3"),
    ("token-before-range", "3 1\nx 9\n\n\n", ":2: bad neighbor token 'x'"),
    ("self-loop-before-duplicate", "3 2\n2 2 1\n1\n\n", ":2: self-loop at vertex 1"),
    ("duplicate-before-next-line", "3 2\n2 2\n1 x\n\n",
     ":2: duplicate neighbors on vertex 1"),
    ("asymmetry-after-comments", "% c\n3 2\n2\n% between\n1 3\n\n",
     ":5: vertex 2 lists 3 but not vice versa"),
    ("asymmetry-first-in-file-order", "4 2\n2\n1 4\n\n1\n",
     ":3: vertex 2 lists 4 but not vice versa"),
    ("asymmetry-crlf", "3 2\r\n2\r\n1 3\r\n\r\n", ":3: vertex 2 lists 3 but not vice versa"),
    ("asymmetry-before-edge-count", "3 7\n2\n1 3\n\n",
     ":3: vertex 2 lists 3 but not vice versa"),
    ("edge-count", "3 5\n2\n1 3\n2\n", ":1: header claims 5 edges, lines hold 2"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in METIS_ERRORS],
                         ids=[case[0] for case in METIS_ERRORS])
def test_read_metis_error_contract(tmp_path, text, message):
    path = tmp_path / "bad.metis"
    path.write_bytes(text.encode("utf-8"))
    assert parse_error(str(path)) == f"{path}{message}"


def test_read_metis_rejects_invalid_utf8(tmp_path):
    # the file is UTF-8 text: a byte that does not decode fails, even in a comment
    for i, body in enumerate((b"2 1\n2\n1\n% \xff\n", b"2 1\n2\n\xff1\n")):
        path = tmp_path / f"u{i}.metis"
        path.write_bytes(body)
        with pytest.raises(UnicodeDecodeError):
            read_metis(path)
        assert main(["kernel-stats", "--graph", str(path)]) == 1


def test_read_metis_reads_unicode_text(tmp_path):
    # tokens are split and read as Python str: a no-break space separates
    # them and a non-ASCII decimal digit is a digit
    path = tmp_path / "nb.metis"
    path.write_bytes("3 2\n2\n1\u00a0\u0663\n2\n".encode("utf-8"))
    assert read_metis(path).edges() == [(0, 1), (1, 2)]


def test_metis_round_trip(tmp_path):
    rng = random.Random(7)
    for i in range(15):
        g = er_graph(rng, rng.randrange(1, 20), rng.uniform(0.0, 0.5))
        path = tmp_path / f"rt{i}.metis"
        write_metis(g, path)
        back = read_metis(path)
        assert back.edges() == g.edges()
        assert back.n == g.n


def messy_metis(g, rng) -> bytes:
    """``g`` in the adjacency format with shuffled neighbours, mixed spaces
    and tabs, comments between vertex lines, trailing blank lines, and one
    line ending throughout."""
    gaps = (" ", "  ", "\t", " \t ")
    lines = ["% header next", f"{g.n}\t{g.live_edge_count()} "]
    for v in range(g.n):
        nbrs = [u + 1 for u in g.adjacency[v]]
        rng.shuffle(nbrs)
        lines.append("".join(rng.choice(gaps) + str(u) for u in nbrs)
                     + rng.choice(("", " ", "\t")))
        if rng.random() < 0.1:
            lines.append(rng.choice(("%", "% between", "  \t% indented")))
    lines += ["", " ", "\t"][:rng.randrange(4)]
    eol = rng.choice(("\n", "\r\n", "\r"))
    return (eol.join(lines) + eol).encode("utf-8")


def test_read_metis_formatting_variants_parse_to_load(tmp_path):
    rng = random.Random(11)
    for i in range(30):
        n = rng.randrange(1, 60)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if u % 4 and v % 4 and rng.random() < 0.2]   # multiples of 4 stay isolated
        want = load(edges, n)
        path = tmp_path / f"v{i}.metis"
        path.write_bytes(messy_metis(want, rng))
        got = read_metis(path)
        assert got.n == n and got.next_id == n and all(got.alive)
        assert got.adjacency == want.adjacency
        assert got.live_degree == want.live_degree


def test_read_metis_reads_back_large_ba_graph(tmp_path):
    g = ba_graph(random.Random(5), 20_000, attach=(1, 2, 4, 8))
    path = tmp_path / "ba.metis"
    write_metis(g, path)
    back = read_metis(path)
    assert back.adjacency == g.adjacency
    assert back.live_degree == g.live_degree


def parse_outcome(parse, path):
    """The graph ``parse`` reads from ``path``, or the error it raises;
    a warning fails the parse too."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = parse(path)
    except (ParseError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)
    return g.n, g.next_id, g.adjacency, g.live_degree, g.alive


def assert_parses_as_reference(path):
    got = parse_outcome(read_metis, path)
    assert got == parse_outcome(read_metis_reference, path), path.read_bytes()
    return got


def test_read_metis_matches_reference_on_messy_files(tmp_path):
    rng = random.Random(19)
    path = tmp_path / "m.metis"
    for _ in range(40):
        g = er_graph(rng, rng.randrange(0, 40), rng.uniform(0.0, 0.3))
        path.write_bytes(messy_metis(g, rng))
        assert assert_parses_as_reference(path)[2] == g.adjacency


def test_read_metis_matches_reference_on_error_contract(tmp_path):
    path = tmp_path / "bad.metis"
    for _, text, _ in METIS_ERRORS:
        path.write_bytes(text.encode("utf-8"))
        assert_parses_as_reference(path)


# gaps between tokens: the bulk tokenizer reads files with the first kind
# only; one of the second kind sends a file through str.split and int
BULK_GAPS = (" ", "  ", "\t", "\v", "\f", " \t ")
OTHER_GAPS = ("\x1c", "\x1f", "\u00a0", "\u2003", "\x85")


def mutate_token(token: str, v: int, n: int, rng) -> str:
    """``token`` spelt another way that ``int`` reads as the same value, a
    token ``int`` rejects, or an index out of range, a self-loop or any
    index."""
    kind = rng.randrange(10)
    if kind == 0:
        return str(rng.randrange(10**24, 10**25))          # 25 digits
    if kind == 1:
        return "+" + token
    if kind == 2:
        return token[0] + "_" + token[1:] if len(token) > 1 else "1_0"
    if kind == 3:
        return token.replace("3", "\u0663") if "3" in token else "\u0663"
    if kind == 4:
        return "-" + token
    if kind == 5:
        return rng.choice(("x", "3x", "0x1", "1.0", "\u00b2", "--2", "1__0"))
    if kind == 6:
        return "0" * rng.randrange(1, 3) + token              # leading zeros
    if kind == 7:
        return str(v + 1)                                   # self-loop
    if kind == 8:
        return str(rng.choice((0, n + 1, 2 ** 63, 2 ** 64 + 1)))
    return str(rng.randrange(1, n + 1))


def faulty_metis(rng) -> bytes:
    """A random graph in the adjacency format with up to three random
    faults, each one spelling, token, line or header change, so that
    faults land before and after each other; some files stay valid."""
    n = rng.randrange(1, 16)
    g = er_graph(rng, n, rng.uniform(0.0, 0.5))
    header = [str(n), str(g.live_edge_count())]
    rows = [[str(u + 1) for u in g.adjacency[v]] for v in range(n)]
    for row in rows:
        if rng.random() < 0.5:
            rng.shuffle(row)
    comments = set()
    for _ in range(rng.randrange(4)):
        v = rng.randrange(n)
        row = rows[v]
        kind = rng.randrange(6)
        if kind == 0 and row:
            i = rng.randrange(len(row))
            row[i] = mutate_token(row[i], v, n, rng)
        elif kind == 1:
            token = mutate_token(str(rng.randrange(1, n + 1)), v, n, rng)
            row.insert(rng.randrange(len(row) + 1), token)
        elif kind == 2 and row:
            row.append(rng.choice(row))                   # a duplicate
        elif kind == 3 and row:
            del row[rng.randrange(len(row))]              # asymmetric, and one edge short
        elif kind == 4:
            header[1] = str(int(header[1]) + rng.choice((-1, 1)))
        else:
            comments.add(v)
    exotic = rng.random() < 0.3
    lines = [" ".join(header)]
    for v, row in enumerate(rows):
        if v in comments:
            lines.append(rng.choice(("%", "% c", " \t% indented")))
        gaps = BULK_GAPS + (OTHER_GAPS if exotic else ())
        lines.append(rng.choice(("", " ")) + "".join(
            (rng.choice(gaps) if i else "") + token for i, token in enumerate(row))
            + rng.choice(("", " ", "\t", "\f")))
    lines += ["", " "][:rng.randrange(3)]
    eol = rng.choice(("\n", "\r\n", "\r"))
    return (eol.join(lines) + eol).encode("utf-8")


def test_read_metis_matches_reference_on_random_faults(tmp_path):
    rng = random.Random(29)
    path = tmp_path / "f.metis"
    kinds = set()
    for _ in range(1500):
        path.write_bytes(faulty_metis(rng))
        got = assert_parses_as_reference(path)
        kinds.add(got[1].split(": ", 1)[1].split(" ")[0] if got[0] == "ParseError" else "graph")
    # every fault of the vertex lines, the edge count and valid files turned up
    assert kinds >= {"graph", "neighbor", "self-loop", "duplicate", "bad", "vertex", "header"}


def test_read_edge_list(tmp_path):
    g = read_edge_list(write(tmp_path / "p3.txt", "0 1\n1 2\n"))
    assert g.edges() == [(0, 1), (1, 2)]


def test_read_edge_list_duplicates_collapse(tmp_path):
    g = read_edge_list(write(tmp_path / "d.txt", "0 1\n1 0\n0 1\n"))
    assert g.edges() == [(0, 1)]


def test_read_edge_list_empty_needs_count(tmp_path):
    path = write(tmp_path / "e.txt", "# nothing\n")
    with pytest.raises(ParseError, match="explicit vertex count"):
        read_edge_list(path)
    g = read_edge_list(path, n=3)
    assert g.alive_count() == 3


def test_read_edge_list_rejects_garbage(tmp_path):
    with pytest.raises(ParseError):
        read_edge_list(write(tmp_path / "g.txt", "0 one\n"))
    # with an explicit vertex count, an id past it names the file and line
    path = write(tmp_path / "h.txt", "0 1\n# comment\n0 5\n")
    with pytest.raises(ParseError, match=r"h\.txt:3: vertex id 5 is outside 0\.\.2"):
        read_edge_list(path, 3)


# ----------------------------------------------------------------------
# verify


def test_verify_p5_optimum():
    report = verify(path_graph(5), {0, 2, 4})
    assert report.ok and report.independent
    assert report.size == 3 and report.maximal


def test_verify_adjacent_pair_fails():
    report = verify(path_graph(5), {0, 1})
    assert not report.ok
    assert report.violations == [(0, 1)]


def test_verify_empty_solution():
    report = verify(path_graph(5), set())
    assert report.ok and report.size == 0 and not report.maximal


def test_verify_out_of_range_ids():
    report = verify(path_graph(3), {0, 9})
    assert not report.ok and report.invalid_ids == [9]


# ----------------------------------------------------------------------
# CLI end to end


def test_solve_online_on_p5(tmp_path, capsys):
    # the default 1% cut removes one of the three tied degree-2 vertices;
    # this seed draws an end one, so the unique optimum stays reachable
    graph = write(tmp_path / "p5.metis", P5_METIS)
    solution = tmp_path / "out.sol"
    log = tmp_path / "out.csv"
    code = main([
        "solve", "--algo", "onlinemis", "--graph", graph, "--seed", "4",
        "--iterations", "1000", "--solution", str(solution), "--log", str(log),
    ])
    assert code == 0
    assert read_solution(solution) == {0, 2, 4}
    parsed = read_log(log)
    assert parsed.points[-1][1] == 3
    assert "size=3" in capsys.readouterr().out


def test_solve_each_algorithm(tmp_path):
    graph = write(tmp_path / "p5.metis", P5_METIS)
    for algo in ("onlinemis", "kermis", "arw"):
        solution = tmp_path / f"{algo}.sol"
        code = main([
            "solve", "--algo", algo, "--graph", graph, "--seed", "3",
            "--iterations", "500", "--cut-fraction", "0",
            "--solution", str(solution),
        ])
        assert code == 0
        assert len(read_solution(solution)) == 3


def test_solve_kernel_mode_no_budget(tmp_path, capsys):
    graph = write(tmp_path / "p5.metis", P5_METIS)
    solution = tmp_path / "k.sol"
    code = main(["solve", "--algo", "kernel", "--graph", graph,
                 "--solution", str(solution)])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel_n=0" in out
    assert len(read_solution(solution)) == 3


def test_solve_requires_budget(tmp_path):
    graph = write(tmp_path / "p5.metis", P5_METIS)
    assert main(["solve", "--algo", "arw", "--graph", graph]) == 2


def run_python(*args):
    """``python ARGS`` in a subprocess, with this package first on the
    import path."""
    env = dict(os.environ)
    src = str(Path(fastmis.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=60, env=env)


def run_module(*args, module="fastmis"):
    """``python -m MODULE ARGS`` in a subprocess, as :func:`run_python`."""
    return run_python("-m", module, *args)


@pytest.mark.parametrize("module", ["fastmis", "fastmis.cli"])
def test_python_m_solves(tmp_path, module):
    graph = write(tmp_path / "p5.metis", P5_METIS)
    # no cut: the default 1% cut removes one of the path's three middle
    # vertices, and then the best set has only 2 vertices
    out = str(tmp_path / "out.sol")
    result = run_module("solve", "--algo", "onlinemis", "--graph", graph,
                        "--cut-fraction", "0", "--iterations", "50",
                        "--solution", out, module=module)
    assert result.returncode == 0, result.stderr
    assert "size=3" in result.stdout
    result = run_module("verify", "--graph", graph, "--solution", out, module=module)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("independent size=3 ")


@pytest.mark.parametrize("fmt, text, numpy_after", [
    ("edges", "0 1\n1 2\n2 3\n3 4\n", False),
    ("metis", P5_METIS, True),
])
def test_cli_imports_numpy_only_to_parse_metis(tmp_path, fmt, text, numpy_after):
    # a fresh process pays more for numpy's import than a small parse
    # saves, so only the METIS parser imports it
    graph = write(tmp_path / f"p5.{fmt}", text)
    solution = write(tmp_path / "p5.sol", "0\n2\n4\n")
    probe = ("import sys; import fastmis.cli; imported = 'numpy' in sys.modules; "
             "code = fastmis.cli.main(sys.argv[1:]); "
             "print(imported, 'numpy' in sys.modules); sys.exit(code)")
    result = run_python("-c", probe, "verify", "--graph", graph, "--format", fmt,
                        "--solution", solution)
    assert result.returncode == 0, result.stderr
    report, modules = result.stdout.splitlines()
    assert report.startswith("independent size=3 ")
    assert modules == f"False {numpy_after}"


@pytest.mark.parametrize("limit", [
    ["--time-limit", "nan"],
    ["--time-limit", "-3"],
    ["--iterations", "-3"],
])
def test_solve_rejects_invalid_budget(tmp_path, limit):
    # a NaN time limit would never expire: run the CLI in a subprocess,
    # so that a hang fails the test instead of stalling the suite
    graph = write(tmp_path / "p5.metis", P5_METIS)
    result = run_module("solve", "--algo", "arw", "--graph", graph, *limit)
    assert result.returncode == 1
    assert result.stderr.startswith("fastmis: budget ")
    assert result.stdout == ""


def test_solve_missing_file_errors():
    assert main(["solve", "--algo", "arw", "--graph", "/nope.metis",
                 "--iterations", "5"]) == 1


@pytest.mark.parametrize("args, code, message", [
    (["--algo", "arw"], 2, "solve: need --time-limit or --iterations"),
    (["--algo", "onlinemis", "--iterations", "5", "--cut-fraction", "2"], 1,
     "fastmis: fraction must be within [0, 1]"),
    (["--algo", "kermis", "--iterations", "5", "--cut-fraction", "2"], 1,
     "fastmis: fraction must be within [0, 1]"),
], ids=["no-budget", "onlinemis-fraction-2", "kermis-fraction-2"])
def test_solve_checks_arguments_before_reading_the_graph(capsys, args, code, message):
    # the graph file does not exist, so an error that named it would show
    # that the file was read before the arguments were checked
    assert main(["solve", "--graph", "/nope.metis", *args]) == code
    assert capsys.readouterr().err == message + "\n"


def test_solve_usage_error_exits_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--algo", "bogus", "--graph", "x"])
    assert info.value.code == 2


def test_solve_deterministic_outputs(tmp_path):
    rng = random.Random(23)
    g = er_graph(rng, 18, 0.25)
    graph = tmp_path / "g.metis"
    write_metis(g, graph)
    files = []
    for run in range(2):
        sol = tmp_path / f"s{run}.sol"
        log = tmp_path / f"l{run}.csv"
        code = main([
            "solve", "--algo", "kermis", "--graph", str(graph), "--seed", "9",
            "--iterations", "80", "--solution", str(sol), "--log", str(log),
        ])
        assert code == 0
        files.append((sol.read_bytes(), log.read_bytes()))
    assert files[0] == files[1]


def test_verify_command(tmp_path, capsys):
    graph = write(tmp_path / "p5.metis", P5_METIS)
    good = write(tmp_path / "good.sol", "0\n2\n4\n")
    bad = write(tmp_path / "bad.sol", "0\n1\n")
    assert main(["verify", "--graph", graph, "--solution", good]) == 0
    assert "size=3" in capsys.readouterr().out
    assert main(["verify", "--graph", graph, "--solution", bad]) == 1
    assert "not independent" in capsys.readouterr().err


def test_speedup_command(tmp_path, capsys):
    base = write(tmp_path / "base.csv", "# instance=g algorithm=a seed=0\n1.000000,10\n")
    other = write(tmp_path / "other.csv", "# instance=g algorithm=b seed=0\n5.000000,10\n")
    assert main(["speedup", base, other]) == 0
    assert capsys.readouterr().out.strip() == "5.00"


def test_speedup_infinite(tmp_path, capsys):
    base = write(tmp_path / "base.csv", "# instance=g algorithm=a seed=0\n1.000000,10\n")
    other = write(tmp_path / "other.csv", "# instance=g algorithm=b seed=0\n5.000000,9\n")
    assert main(["speedup", base, other]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_quality_time_command(tmp_path, capsys):
    a = write(tmp_path / "a.csv", "# instance=g algorithm=a seed=0\n1.000000,199\n2.000000,200\n")
    b = write(tmp_path / "b.csv", "# instance=g algorithm=b seed=0\n4.000000,150\n")
    assert main(["quality-time", a, b, "--quality", "0.995"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("1.000000")  # 199 >= 0.995 * 200
    assert lines[1].endswith("-")


@pytest.mark.parametrize("quality", ["nan", "0", "-3", "7"])
def test_quality_time_rejects_a_fraction_outside_0_1(tmp_path, capsys, quality):
    a = write(tmp_path / "a.csv", "# instance=g algorithm=a seed=0\n1.000000,199\n")
    assert main(["quality-time", a, "--quality", quality]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fastmis: quality must be within (0, 1]")


def test_quality_time_at_quality_one(tmp_path, capsys):
    a = write(tmp_path / "a.csv", "# instance=g algorithm=a seed=0\n1.000000,199\n2.000000,200\n")
    b = write(tmp_path / "b.csv", "# instance=g algorithm=b seed=0\n4.000000,199\n")
    assert main(["quality-time", a, b, "--quality", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("2.000000")
    assert lines[1].endswith("-")


def test_log_commands_name_the_file_and_line(tmp_path, capsys):
    good = write(tmp_path / "good.csv", "# instance=g algorithm=a seed=0\n1.000000,10\n")
    bad = write(tmp_path / "bad.csv", "# instance=g algorithm=b seed=0\n0.5\n")
    assert main(["speedup", good, bad]) == 1
    assert capsys.readouterr().err == (
        f"fastmis: {bad}:2: expected 'elapsed,size', got '0.5'\n")
    assert main(["quality-time", good, bad]) == 1
    assert f"{bad}:2: " in capsys.readouterr().err


def test_kernel_stats_command(tmp_path, capsys):
    graph = write(tmp_path / "p5.metis", P5_METIS)
    assert main(["kernel-stats", "--graph", graph]) == 0
    out = capsys.readouterr().out
    assert "pendant," in out and "kernel_n=0 kernel_m=0" in out


def test_kernel_stats_kermis_rules(tmp_path, capsys):
    graph = write(tmp_path / "p5.metis", P5_METIS)
    assert main(["kernel-stats", "--graph", graph, "--rules", "kermis"]) == 0
    out = capsys.readouterr().out
    assert "isolated," not in out
