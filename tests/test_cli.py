import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minq import build_index, cli, load_index, save_index

DATA = Path(__file__).parent / "data"
RHYME = DATA / "rhyme.txt"
GOLDEN = DATA / "golden_query.txt"

CAPTION_QUERY = "(hot | cold) & porridge & pease"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "minq", *args],
        capture_output=True,
        cwd=cwd,
    )


@pytest.fixture()
def rhyme_idx(tmp_path):
    idx = tmp_path / "rhyme.ivx"
    proc = run_cli("index", str(RHYME), "-o", str(idx))
    assert proc.returncode == 0, proc.stderr
    return idx


def test_index_reports_summary(tmp_path):
    idx = tmp_path / "out.ivx"
    proc = run_cli("index", str(RHYME), "-o", str(idx))
    assert proc.returncode == 0
    assert b"indexed 1 documents" in proc.stdout
    assert idx.exists()


def test_index_summary_is_one_line_whatever_the_output_path(tmp_path):
    idx = tmp_path / "two\nlines.ivx"
    proc = run_cli("index", str(RHYME), "-o", str(idx))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == f"indexed 1 documents, 13 terms -> {str(idx)!r}\n"
    assert idx.exists()


def test_query_golden_bytes(rhyme_idx):
    proc = run_cli("query", str(rhyme_idx), CAPTION_QUERY, "--snippets", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.read_bytes()


def test_unknown_term_zero_results_exit_zero(rhyme_idx):
    proc = run_cli("query", str(rhyme_idx), "unicorn & pease")
    assert proc.returncode == 0
    assert proc.stdout == b""


def test_syntax_error_exit_one(rhyme_idx):
    proc = run_cli("query", str(rhyme_idx), "a &")
    assert proc.returncode == 1
    assert b"query error" in proc.stderr


def test_missing_index_exit_two(tmp_path):
    proc = run_cli("query", str(tmp_path / "none.ivx"), "a")
    assert proc.returncode == 2
    assert proc.stderr


def test_malformed_index_exit_two(tmp_path):
    bad = tmp_path / "bad.ivx"
    bad.write_text("WHAT 1\n")
    proc = run_cli("query", str(bad), "a")
    assert proc.returncode == 2
    assert b"line 1" in proc.stderr


def test_unreadable_corpus_exit_two(tmp_path):
    proc = run_cli("index", str(tmp_path / "ghost.txt"), "-o", str(tmp_path / "o.ivx"))
    assert proc.returncode == 2


def test_top_limits_documents(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("ape bee ape bee")
    b.write_text("ape bee")
    idx = tmp_path / "idx.ivx"
    assert run_cli("index", str(a), str(b), "-o", str(idx)).returncode == 0
    proc = run_cli("query", str(idx), "ape & bee", "--top", "1")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("0\t")


def test_show_rho_lines(rhyme_idx):
    proc = run_cli("query", str(rhyme_idx), '"pease porridge"', "--show-rho")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    rho_lines = [l for l in lines if l.startswith("\trho\t")]
    # five phrase matches, read counts pinned by the concatenation chain
    assert rho_lines == [
        "\trho\t1\t1 1",
        "\trho\t2\t2 2",
        "\trho\t3\t3 3",
        "\trho\t4\t4 4",
        "\trho\t5\t5 5",
    ]


def test_snippets_read_source_at_query_time(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("ape bee cow")
    idx = tmp_path / "idx.ivx"
    assert run_cli("index", str(doc), "-o", str(idx)).returncode == 0
    doc.unlink()
    proc = run_cli("query", str(idx), "bee", "--snippets", "1")
    assert proc.returncode == 2


def test_non_decimal_width_exit_one(rhyme_idx):
    proc = run_cli("query", str(rhyme_idx), "pease~²")
    assert proc.returncode == 1
    assert proc.stderr.decode().startswith("minq: query error: offset 6:")


@pytest.mark.parametrize("flag", ["--top", "--snippets"])
@pytest.mark.parametrize("query", ["pease", "unicorn"])
def test_negative_count_exit_two(rhyme_idx, flag, query):
    proc = run_cli("query", str(rhyme_idx), query, flag, "-1")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("minq: ")
    assert "negative" in lines[0]


@pytest.fixture()
def two_doc_idx(tmp_path):
    """Doc 0 outranks doc 1 on 'ape & bee'."""
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("ape bee ape bee")
    b.write_text("ape bee")
    idx = tmp_path / "idx.ivx"
    assert run_cli("index", str(a), str(b), "-o", str(idx)).returncode == 0
    return idx, a, b


def test_stale_returned_source_exit_two(two_doc_idx):
    idx, a, _ = two_doc_idx
    a.write_text("ape bee")
    proc = run_cli("query", str(idx), "ape & bee", "--top", "1", "--snippets", "1")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("minq: stale source ")
    assert str(a) in lines[0]


def test_missing_source_outside_top_is_never_opened(two_doc_idx):
    idx, _, b = two_doc_idx
    b.unlink()
    proc = run_cli("query", str(idx), "ape & bee", "--top", "1", "--snippets", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "0\t3.0000\t[0..1] [1..2] [2..3]\n\t[0..1]\tape bee\n"


@pytest.mark.parametrize(
    "query",
    [
        "(" * 250 + "pease" + ")" * 250,
        "-".join(["pease"] * 1200),
        "pease~5" + "~5" * 1199,
    ],
    ids=["parentheses", "difference-chain", "width-chain"],
)
def test_too_deep_query_exit_one_without_traceback(rhyme_idx, query):
    proc = run_cli("query", str(rhyme_idx), query)
    assert proc.returncode == 1
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("minq: query error: offset ")
    assert "deeper than" in lines[0]


def test_index_path_with_newline_exit_two_and_no_file(tmp_path):
    doc = tmp_path / "two\nlines.txt"
    doc.write_text("ape bee")
    idx = tmp_path / "idx.ivx"
    proc = run_cli("index", str(doc), "-o", str(idx))
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("minq: document path ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [doc.name]


@pytest.fixture(scope="module")
def rhyme_index_file(tmp_path_factory):
    idx = tmp_path_factory.mktemp("fuzz") / "rhyme.ivx"
    save_index(build_index([(str(RHYME), RHYME.read_text())]), idx)
    return idx


# Half the queries alternate words with the other pieces, so that many parse
# and reach evaluation, snippets and read profiles.
WORDS = st.sampled_from(
    ["pease", "Porridge", "hot", "cold", "pot", "unicorn", "i\u0307stanbul", "12"]
)
OTHERS = st.sampled_from(
    ["&", "|", "<", "-", "(", ")", '"', "~", "~3", "~0", "0", "²", "İ", "\u0307",
     " ", "\t", "\n", " & ", " | ", " < ", " - ", "~12 "]
)
QUERY_TEXT = st.builds(
    lambda first, pairs: first + "".join(a + b for a, b in pairs),
    WORDS,
    st.lists(st.tuples(OTHERS, WORDS), max_size=5),
) | st.lists(OTHERS | WORDS, max_size=12).map("".join)


def run_main(argv):
    """``cli.main`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err):
    """Exit 0, 1 or 2; an error is one ``minq: `` stderr line and no stdout."""
    assert code in (0, 1, 2)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("minq: ")
        assert out == ""
    else:
        assert err == ""


@settings(max_examples=300, deadline=None)
@given(
    query=QUERY_TEXT,
    top=st.none() | st.integers(-2, 3),
    snippets=st.none() | st.integers(-2, 3),
    show_rho=st.booleans(),
)
def test_query_text_and_options_exit_0_1_or_2(rhyme_index_file, query, top, snippets, show_rho):
    argv = ["query", str(rhyme_index_file), query]
    if top is not None:
        argv += ["--top", str(top)]
    if snippets is not None:
        argv += ["--snippets", str(snippets)]
    if show_rho:
        argv.append("--show-rho")
    try:
        code, out, err = run_main(argv)
    except SystemExit as exc:
        # argparse takes a query starting with an option-like "-" as an
        # unknown option and exits 2 with its usage message
        assert exc.code == 2 and query.startswith("-")
        return
    assert_exit_contract(code, out, err)


# Bytes that matter to the index format: digits, the minus sign, the field
# separator, the record letters, line breaks (NEL both as a raw byte and
# UTF-8 encoded) and a byte that is never valid UTF-8.
INDEX_PIECES = st.sampled_from(
    [bytes([b]) for b in b"0123456789 \n\r\x85\xff-PTD"] + ["\x85".encode()]
)
INDEX_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "delete", "insert"]), st.integers(0, 1 << 16), INDEX_PIECES
    ),
    min_size=1,
    max_size=4,
)


def edit_bytes(data, edits):
    for kind, at, piece in edits:
        if kind == "insert":
            at %= len(data) + 1
            data = data[:at] + piece + data[at:]
        elif data:
            at %= len(data)
            data = data[:at] + (piece if kind == "replace" else b"") + data[at + 1 :]
    return data


@settings(max_examples=200, deadline=None)
@given(edits=INDEX_EDITS)
def test_mutated_index_file_exits_0_1_or_2(rhyme_index_file, edits):
    mutated = rhyme_index_file.with_name("mutated.ivx")
    mutated.write_bytes(edit_bytes(rhyme_index_file.read_bytes(), edits))
    argv = ["query", str(mutated), "pease & porridge", "--snippets", "2", "--show-rho"]
    assert_exit_contract(*run_main(argv))


SOURCES = st.sampled_from(["text", "missing", "directory", "undecodable", "line break"])
TARGETS = st.sampled_from(["new", "existing", "missing directory", "directory"])


@settings(max_examples=200, deadline=None)
@given(
    sources=st.lists(
        st.tuples(SOURCES, st.sampled_from("\n\r\x85\u2028"), st.text(max_size=20)),
        min_size=1,
        max_size=4,
    ),
    target=TARGETS,
    output_first=st.booleans(),
)
def test_index_argv_exits_0_or_2(sources, target, output_first):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        paths = []
        for n, (kind, line_break, text) in enumerate(sources):
            path = root / (f"doc{n}{line_break}.txt" if kind == "line break" else f"doc{n}.txt")
            if kind == "directory":
                path.mkdir()
            elif kind == "undecodable":
                path.write_bytes(b"ape \xff bee")
            elif kind != "missing":
                path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        output = {
            "new": root / "new.ivx",
            "existing": root / "old.ivx",
            "missing directory": root / "nowhere" / "new.ivx",
            "directory": root / "out",
        }[target]
        if target == "existing":
            output.write_bytes(b"previous index")
        elif target == "directory":
            output.mkdir()
        option = ["-o", str(output)]
        code, out, err = run_main(["index", *(option + paths if output_first else paths + option)])
        assert_exit_contract(code, out, err)
        valid = target in ("new", "existing") and all(kind == "text" for kind, _, _ in sources)
        assert (code == 0) == valid
        leftovers = [name for _, _, names in os.walk(root) for name in names if name.endswith(".tmp")]
        assert leftovers == []
        if valid:
            assert [doc.path for doc in load_index(output).docs] == paths
        elif target == "existing":
            assert output.read_bytes() == b"previous index"
