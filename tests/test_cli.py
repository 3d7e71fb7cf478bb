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

from helpers import ivx4_file, ivx4_streams, u32_planes, u32s_from_planes

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


@pytest.mark.parametrize("output", ["dir", "dir/", "new/", "."])
def test_index_output_naming_a_directory_exits_two_before_reading(tmp_path, output):
    # The source is missing: only a check made before reading it can name the output.
    (tmp_path / "dir").mkdir()
    proc = run_cli("index", "missing.txt", "-o", output, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"minq: {output!r} names a directory, not an index file\n"
    assert sorted(os.listdir(tmp_path)) == ["dir"] and os.listdir(tmp_path / "dir") == []


def test_source_path_utf8_cannot_encode_exits_two_before_reading(tmp_path):
    # On Linux a file name's byte \xff reaches argv as the lone surrogate
    # U+DCFF, which the index, storing paths as UTF-8, cannot hold. The
    # missing a.txt shows that no source is read first.
    name = os.fsdecode(b"f\xff.txt")
    (tmp_path / name).write_text("ape")
    proc = run_cli("index", "a.txt", name, "-o", "x.ivx", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"minq: {name!r}: path cannot be encoded as UTF-8\n"
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize(
    "output, parent", [("nowhere/new.ivx", "nowhere"), ("a.txt/x.ivx", "a.txt")]
)
def test_index_output_in_no_directory_exits_two_before_reading(tmp_path, output, parent):
    # A missing parent, or one that is a file: refused before the missing
    # source is read, naming the output as given.
    (tmp_path / "a.txt").write_text("ape")
    proc = run_cli("index", "missing.txt", "-o", output, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"minq: {output!r}: {parent!r} is not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["a.txt"]


@pytest.mark.parametrize("output", ["notes.txt", "./notes.txt", "link.txt"])
def test_index_output_that_is_a_source_exits_two_leaving_it(tmp_path, output):
    # The same file by another spelling or through a symbolic link too.
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"ape bee\n")
    (tmp_path / "link.txt").symlink_to("notes.txt")
    proc = run_cli("index", "notes.txt", "-o", output, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        f"minq: {output!r} is the source file 'notes.txt', not an index file\n"
    )
    assert notes.read_bytes() == b"ape bee\n"


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


def test_bad_query_exits_one_before_the_index_is_read(tmp_path):
    # The query is parsed first, so a missing or malformed index goes unread.
    bad = tmp_path / "bad.ivx"
    bad.write_text("WHAT 1\n")
    for idx in (tmp_path / "none.ivx", bad):
        proc = run_cli("query", str(idx), "a &")
        assert (proc.returncode, proc.stdout) == (1, b"")
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("minq: query error: ")


def test_index_of_a_directory_source_exits_two_naming_it(tmp_path):
    # Sources are read as snippets read them, without a buffered file
    # object; the error must still name the path.
    source = tmp_path / "dir.txt"
    source.mkdir()
    code, out, err = run_main(["index", str(source), "-o", str(tmp_path / "o.ivx")])
    assert (code, out) == (2, "")
    assert err == f"minq: [Errno 21] Is a directory: {str(source)!r}\n"
    assert not (tmp_path / "o.ivx").exists()



def refused_within(timeout, *args, cwd):
    """``minq`` in a subprocess that must exit 2 with one line, within ``timeout`` seconds."""
    proc = subprocess.run(
        [sys.executable, "-m", "minq", *args], capture_output=True, cwd=cwd, timeout=timeout
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    return proc.stderr.decode()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_index_of_a_fifo_or_device_source_exits_two_without_blocking(tmp_path):
    # Nothing writes to the FIFO: a blocking open or read would hang.
    os.mkfifo(tmp_path / "fifo.txt")
    err = refused_within(10, "index", "fifo.txt", "-o", "fifo.ivx", cwd=tmp_path)
    assert err == "minq: 'fifo.txt': not a regular file\n"
    err = refused_within(10, "index", os.devnull, "-o", "null.ivx", cwd=tmp_path)
    assert err == f"minq: {os.devnull!r}: not a regular file\n"
    assert not (tmp_path / "fifo.ivx").exists() and not (tmp_path / "null.ivx").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_a_printed_documents_source_swapped_for_a_fifo_exits_two(tmp_path):
    (tmp_path / "doc.txt").write_text("ape bee cow")
    assert run_cli("index", "doc.txt", "-o", "idx.ivx", cwd=tmp_path).returncode == 0
    (tmp_path / "doc.txt").unlink()
    os.mkfifo(tmp_path / "doc.txt")
    err = refused_within(10, "query", "idx.ivx", "bee", "--snippets", "1", cwd=tmp_path)
    assert err == "minq: 'doc.txt': not a regular file\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_an_index_path_that_is_no_regular_file_exits_two_without_blocking(tmp_path):
    # The index file is read as sources are: nothing writes to the FIFO.
    os.mkfifo(tmp_path / "idx.fifo")
    err = refused_within(10, "query", "idx.fifo", "a", cwd=tmp_path)
    assert err == "minq: 'idx.fifo': not a regular file\n"
    err = refused_within(10, "query", os.devnull, "a", cwd=tmp_path)
    assert err == f"minq: {os.devnull!r}: not a regular file\n"
    err = refused_within(10, "query", "none.ivx", "a", cwd=tmp_path)
    assert err == "minq: [Errno 2] No such file or directory: 'none.ivx'\n"
    (tmp_path / "dir.ivx").mkdir()
    err = refused_within(10, "query", "dir.ivx", "a", cwd=tmp_path)
    assert err == "minq: [Errno 21] Is a directory: 'dir.ivx'\n"


def test_stale_source_with_a_newline_in_its_path_is_one_line(tmp_path):
    doc = tmp_path / "a\nb.txt"
    doc.write_text("ape bee")
    assert run_cli("index", "a\nb.txt", "-o", "i.ivx", cwd=tmp_path).returncode == 0
    doc.write_text("ape cow")
    err = refused_within(10, "query", "i.ivx", "ape", "--snippets", "1", cwd=tmp_path)
    assert err == "minq: stale source 'a\\nb.txt': its text has changed; re-index it\n"

def test_malformed_index_exit_two(tmp_path):
    bad = tmp_path / "bad.ivx"
    bad.write_text("WHAT 1\n")
    proc = run_cli("query", str(bad), "a")
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        "minq: bad index file: byte 0: not an IVX4 index file (it starts b'WHAT 1\\n'); "
        "re-index it\n"
    )


def test_ivx2_index_exit_two_asking_to_reindex(tmp_path):
    # The previous binary format, here an empty index: its header alone.
    old = tmp_path / "old.ivx"
    old.write_bytes(b"IVX2" + bytes(12))
    proc = run_cli("query", str(old), "a")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == (
        "minq: bad index file: byte 0: not an IVX4 index file "
        "(it starts b'IVX2\\x00\\x00\\x00\\x00'); re-index it\n"
    )


def test_ivx3_index_exit_two_asking_to_reindex(tmp_path):
    # The previous binary format: an empty IVX3 index, its header and the
    # offsets column's width byte.
    old = tmp_path / "old.ivx"
    old.write_bytes(b"IVX3" + bytes(12) + b"\x01")
    proc = run_cli("query", str(old), "a")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == (
        "minq: bad index file: byte 0: not an IVX4 index file "
        "(it starts b'IVX3\\x00\\x00\\x00\\x00'); re-index it\n"
    )


def test_text_format_index_exit_two_with_one_line(rhyme_idx):
    # An index in the earlier text format is refused whole, asking for a
    # re-index, whatever it holds.
    rhyme_idx.write_text(f"IVX1 1\nD 0 37 {RHYME}\nT pease\nP 0 0 3 6 31 34\n")
    proc = run_cli("query", str(rhyme_idx), "pease")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("minq: bad index file: byte 0: not an IVX4 index file")
    assert lines[0].endswith("; re-index it")


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
    # One query per root shape: phrase (read counts pinned by the
    # concatenation chain), conjunction of terms, mixed, term, low-pass,
    # difference.
    expected = {
        '"pease porridge"': ["1 1", "2 2", "3 3", "4 4", "5 5"],
        "hot & cold": ["2 1", "2 2", "3 2", "3 3", "4 3"],
        CAPTION_QUERY: [
            "1 1 2", "1 2 2", "2 2 2", "2 2 3", "2 3 3", "3 3 3", "3 3 4",
            "3 4 4", "5 4 4", "5 4 5", "5 5 5", "6 5 5", "6 5 6",
        ],
        "pease": ["1", "2", "3", "4", "5"],
        '"pease porridge"~3': ["1", "2", "3", "4", "5"],
        '(pease | hot) - "porridge cold"': [
            "1 1", "2 1", "3 1", "4 2", "5 2", "6 2", "7 2", "8 2",
        ],
    }
    for query, rows in expected.items():
        proc = run_cli("query", str(rhyme_idx), query, "--show-rho")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        rho_lines = [l for l in lines if l.startswith("\trho\t")]
        assert rho_lines == [f"\trho\t{p}\t{row}" for p, row in enumerate(rows, 1)], query



def test_show_rho_lines_follow_each_printed_result(tmp_path):
    # Only the printed documents are profiled: each result line is followed
    # by its snippet lines, then its rho lines. The bytes are pinned.
    texts = [
        "Pease porridge hot, pease porridge cold,\npease porridge in the pot, nine days old.\n",
        "Cold porridge, hot pease; and hot pease porridge again.\n",
        "Some like it hot, some like it cold: pease porridge for all.\n",
    ]
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"{i}.txt")
        paths[-1].write_text(text)
    idx = tmp_path / "p.ivx"
    assert run_cli("index", *map(str, paths), "-o", str(idx)).returncode == 0
    expected = {
        (CAPTION_QUERY, "2"): [
            "0\t6.0000\t[0..2] [1..3] [2..4] [3..5] [4..6] [5..7]",
            "\t[0..2]\tpease porridge hot",
            "\t[3..5]\tpease porridge cold",
            *(f"\trho\t{p}\t{row}" for p, row in enumerate(
                ["1 1 2", "1 2 2", "2 2 2", "2 2 3", "2 3 3", "3 3 3"], 1)),
            "1\t2.0000\t[1..3] [5..7]",
            "\t[1..3]\tporridge hot pease",
            "\t[5..7]\thot pease porridge",
            "\trho\t1\t2 2 1",
            "\trho\t2\t4 2 2",
        ],
        ('"pease porridge" | hot', "1"): [
            "0\t4.0000\t[0..1] [2..2] [3..4] [6..7]",
            "\t[2..2]\thot",
            "\t[0..1]\tpease porridge",
            *(f"\trho\t{p}\t{row}" for p, row in enumerate(["1 1", "2 1", "2 2", "3 2"], 1)),
        ],
        ("porridge - cold", "2"): [
            "0\t3.0000\t[1..1] [4..4] [7..7]",
            "\t[1..1]\tporridge",
            "\t[4..4]\tporridge",
            "\trho\t1\t1 1",
            "\trho\t2\t2 1",
            "\trho\t3\t3 2",
            "1\t2.0000\t[1..1] [7..7]",
            "\t[1..1]\tporridge",
            "\t[7..7]\tporridge",
            "\trho\t1\t1 2",
            "\trho\t2\t2 2",
        ],
    }
    for (query, top), lines in expected.items():
        proc = run_cli("query", str(idx), query, "--top", top, "--snippets", "2", "--show-rho")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == "".join(f"{line}\n" for line in lines), query

def test_snippets_read_source_at_query_time(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("ape bee cow")
    idx = tmp_path / "idx.ivx"
    assert run_cli("index", str(doc), "-o", str(idx)).returncode == 0
    doc.unlink()
    proc = run_cli("query", str(idx), "bee", "--snippets", "1")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"minq: [Errno 2] No such file or directory: {str(doc)!r}\n"
    # A directory opens, and only reading it fails, with no file name: the
    # line must still name the path.
    doc.mkdir()
    proc = run_cli("query", str(idx), "bee", "--snippets", "1")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"minq: [Errno 21] Is a directory: {str(doc)!r}\n"


def test_non_decimal_width_exit_one(rhyme_idx):
    proc = run_cli("query", str(rhyme_idx), "pease~²")
    assert proc.returncode == 1
    assert proc.stderr.decode().startswith("minq: query error: offset 6:")


def test_width_past_the_int_digit_limit_exit_one(rhyme_idx):
    width = "9" * 5000
    proc = run_cli("query", str(rhyme_idx), "pease~" + width)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0 or limit >= len(width):
        assert proc.returncode == 0, proc.stderr  # the width parses
        return
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "minq: query error: offset 6: proximity width is too long (5000 digits)\n"
    )


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
    assert len(lines) == 1 and lines[0].startswith(f"minq: stale source {str(a)!r}: ")


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


def test_index_path_with_newline_round_trips(tmp_path):
    doc = tmp_path / "two\nlines.txt"
    doc.write_text("ape bee")
    idx = tmp_path / "idx.ivx"
    proc = run_cli("index", str(doc), "-o", str(idx))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("query", str(idx), "bee", "--snippets", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"0\t1.0000\t[1..1]\n\t[1..1]\tbee\n"


def test_source_with_two_words_swapped_is_stale(two_doc_idx):
    # Same words, same count, other order: only the content digest tells.
    idx, a, _ = two_doc_idx
    a.write_text("bee ape ape bee")
    proc = run_cli("query", str(idx), "ape & bee", "--top", "1", "--snippets", "1")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert lines == [f"minq: stale source {str(a)!r}: its text has changed; re-index it"]


def test_source_no_longer_utf8_is_stale(two_doc_idx):
    # The edit leaves bytes that do not decode: still a stale source, named.
    idx, a, _ = two_doc_idx
    a.write_bytes(b"ape \xff bee")
    proc = run_cli("query", str(idx), "ape & bee", "--top", "1", "--snippets", "1")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert lines == [f"minq: stale source {str(a)!r}: byte 4 is not UTF-8; re-index it"]


def test_truncated_index_exits_two_at_every_offset(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("ape bee ape")
    b.write_text("bee")
    idx = tmp_path / "idx.ivx"
    assert run_main(["index", str(a), str(b), "-o", str(idx)])[0] == 0
    data = idx.read_bytes()
    cut = tmp_path / "cut.ivx"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        code, out, err = run_main(["query", str(cut), "ape", "--snippets", "1"])
        assert code == 2, size
        assert_exit_contract(code, out, err)


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
    assert_exit_contract(*run_main(argv))


@pytest.mark.parametrize(
    "args,message",
    [
        (["a", "--top", "x"], "minq: argument --top: invalid int value: 'x'"),
        (["a", "--snippets"], "minq: argument --snippets: expected one argument"),
        (
            ["-hot"],
            "minq: argument -h/--help: ignored explicit argument 'ot' "
            "(to search for '-hot', put -- before it)",
        ),
        (
            ["--hot", "--top", "1"],
            "minq: the following arguments are required: query "
            "(to search for '--hot', put -- before it)",
        ),
        (["a", "b"], "minq: unrecognized arguments: b"),
        ([], "minq: the following arguments are required: query"),
    ],
)
def test_argv_errors_are_one_line_exit_two(rhyme_index_file, args, message):
    assert run_main(["query", str(rhyme_index_file), *args]) == (2, "", message + "\n")


def test_a_query_after_dashes_may_start_with_a_dash(rhyme_index_file):
    # After --, "-hot" is the query: its leading "-" is a syntax error.
    code, out, err = run_main(["query", str(rhyme_index_file), "--", "-hot"])
    assert (code, out) == (1, "")
    assert err.startswith("minq: query error: ")
    code, out, err = run_main(["query", str(rhyme_index_file), "--top", "1", "--", "hot"])
    assert (code, err) == (0, "")
    assert out.startswith("0\t")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["query", "-h"], ["index", "--help"]])
def test_help_prints_usage_and_exits_zero(argv):
    code, out, err = run_main(argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: minq")


def test_no_command_exits_two_with_one_line():
    assert run_main([]) == (2, "", "minq: the following arguments are required: command\n")
    code, out, err = run_main(["frob"])
    assert (code, out) == (2, "")
    assert err.startswith("minq: argument command: invalid choice: 'frob'")


# Binary edits: a byte set to any value, raised or lowered by a small power
# of two, deleted, or inserted.
INDEX_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert"]), st.integers(0, 1 << 16), st.integers(0, 255))
    | st.tuples(
        st.just("add"), st.integers(0, 1 << 16), st.sampled_from([-16, -4, -2, -1, 1, 2, 4, 16])
    )
    | st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.just(0)),
    min_size=1,
    max_size=4,
)


def edit_bytes(data, edits):
    data = bytearray(data)
    for kind, at, value in edits:
        if kind == "insert":
            data.insert(at % (len(data) + 1), value)
        elif data:
            at %= len(data)
            if kind == "delete":
                del data[at]
            else:
                data[at] = (data[at] + value) % 256 if kind == "add" else value
    return bytes(data)


def assert_bad_index_file(code, out, err):
    """Exit 2 with one ``minq: bad index file:`` line and nothing on stdout."""
    assert_exit_contract(code, out, err)
    assert code == 2 and err.startswith("minq: bad index file: "), err


@settings(max_examples=200, deadline=None)
@given(edits=INDEX_EDITS)
def test_mutated_index_file_exits_0_1_or_2(rhyme_index_file, edits):
    # The footer's CRC-32 covers every byte before it: an edit that leaves
    # the bytes unchanged loads, any other is a bad index file.
    data = rhyme_index_file.read_bytes()
    edited = edit_bytes(data, edits)
    mutated = rhyme_index_file.with_name("mutated.ivx")
    mutated.write_bytes(edited)
    argv = ["query", str(mutated), "pease & porridge", "--snippets", "2", "--show-rho"]
    if edited == data:
        assert_exit_contract(*run_main(argv))
    else:
        assert_bad_index_file(*run_main(argv))


def test_every_raised_byte_of_the_rhyme_index_is_a_bad_index_file(rhyme_index_file):
    # Each byte raised by 1 and by 2: a CRC-32 catches every error burst of
    # 32 bits or fewer, so no single-byte edit loads, let alone prints.
    data = rhyme_index_file.read_bytes()
    mutated = rhyme_index_file.with_name("raised.ivx")
    argv = ["query", str(mutated), CAPTION_QUERY, "--snippets", "3"]
    for at in range(len(data)):
        for delta in (1, 2):
            mutated.write_bytes(data[:at] + bytes([(data[at] + delta) % 256]) + data[at + 1 :])
            assert_bad_index_file(*run_main(argv))


@pytest.fixture()
def fifty_words(tmp_path):
    """An index of ``w10 ... w59`` and its source.

    The words are 4 bytes apart, so the sampled offsets are 0, 64, 128 and
    192, then the length 200: gaps 0, 64, 64, 64 and 8.
    """
    text = tmp_path / "w.txt"
    text.write_text(" ".join(f"w{i}" for i in range(10, 60)) + "\n")
    idx = tmp_path / "w.ivx"
    assert run_main(["index", str(text), "-o", str(idx)])[0] == 0
    return idx, text


OFFSETS = 2  # the sampled word offsets' stream, after the document table and paths


def test_a_raised_offset_gap_in_the_index_file_is_a_bad_index_file(fifty_words):
    # Raising one gap shifts every later offset by a word: each slice still
    # starts and ends at word starts and holds 16 words, but the wrong ones.
    # The edit is made inside the stream and the footer recomputed, so the
    # file loads; the source is intact, so the index file is to blame.
    idx, text = fifty_words
    argv = ["query", str(idx), "w26 & w30", "--snippets", "1"]
    assert run_main(argv) == (0, "0\t1.0000\t[16..20]\n\t[16..20]\tw26 w27 w28 w29 w30\n", "")
    header, streams = ivx4_streams(idx.read_bytes())
    gaps = u32s_from_planes(streams[OFFSETS])
    assert gaps[2] == 64  # the gap up to word 16's start
    gaps[2] += 4  # now word 17's
    streams[OFFSETS] = u32_planes(gaps)
    idx.write_bytes(ivx4_file(header, streams))
    assert run_main(argv) == (
        2,
        "",
        f"minq: bad index file: document 0: sampled word offsets do not match its source "
        f"{str(text)!r}; re-index it\n",
    )


def test_offsets_column_edits_print_the_same_words_or_exit_two(fifty_words):
    # Every byte of the inflated offsets stream raised by 1 to 8, resealed.
    idx, _ = fifty_words
    header, streams = ivx4_streams(idx.read_bytes())
    queries = [["w26 & w30", "--snippets", "1"], ["w11 | w58", "--snippets", "3"]]
    expected = [run_main(["query", str(idx), *query]) for query in queries]
    edited = idx.with_name("edited.ivx")
    column = streams[OFFSETS]
    assert len(column) == 4 * 5  # five gaps in four byte planes
    for at in range(len(column)):
        for delta in range(1, 9):
            streams[OFFSETS] = column[:at] + bytes([(column[at] + delta) % 256]) + column[at + 1 :]
            edited.write_bytes(ivx4_file(header, streams))
            for query, unedited in zip(queries, expected):
                code, out, err = run_main(["query", str(edited), *query])
                if code:
                    assert code == 2, (at, delta)
                    assert_exit_contract(code, out, err)
                else:
                    assert (code, out, err) == unedited, (at, delta)


def test_an_edited_digest_is_a_bad_index_file_not_a_stale_source(fifty_words):
    # The digest sits in the document table's stream. Any bit of that stream
    # flipped, as stored or before deflating, fails the footer's check, so
    # the intact source is never blamed.
    idx, _ = fifty_words
    data = idx.read_bytes()
    header, streams = ivx4_streams(data)
    argv = ["query", str(idx), "w26 & w30", "--snippets", "1"]
    frame = 4 + int.from_bytes(data[16:20], "little")  # the first, right after the header
    for at in range(16, 16 + frame):
        for bit in range(8):
            idx.write_bytes(data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1 :])
            assert_bad_index_file(*run_main(argv))
    flipped = bytes([streams[0][0] ^ 1]) + streams[0][1:]  # the first bit of the digest
    idx.write_bytes(ivx4_file(header, [flipped, *streams[1:]])[:-4] + data[-4:])
    code, out, err = run_main(argv)
    assert_bad_index_file(code, out, err)
    assert "footer says CRC-32" in err and "stale" not in err


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
        # A path with a line break is stored length-prefixed like any other.
        valid = target in ("new", "existing") and all(
            kind in ("text", "line break") for kind, _, _ in sources
        )
        assert (code == 0) == valid
        # An output that is a directory, or whose parent is not one, is
        # refused before any source is read; then sources are read in
        # order, and the first unreadable one is reported.
        bad = [n for n, (kind, _, _) in enumerate(sources) if kind not in ("text", "line break")]
        if target == "directory":
            assert err == f"minq: {str(output)!r} names a directory, not an index file\n"
        elif target == "missing directory":
            assert err == f"minq: {str(output)!r}: {str(output.parent)!r} is not a directory\n"
        elif bad and sources[bad[0]][0] == "undecodable":
            assert err == f"minq: {paths[bad[0]]!r}: byte 4 is not UTF-8\n"
        leftovers = [name for _, _, names in os.walk(root) for name in names if name.endswith(".tmp")]
        assert leftovers == []
        if valid:
            assert [doc.path for doc in load_index(output).docs] == paths
        elif target == "existing":
            assert output.read_bytes() == b"previous index"
