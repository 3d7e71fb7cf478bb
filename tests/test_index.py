import gc
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import minq.index as index_module
from minq import IndexFormatError, build_index, load_index, save_index, tokenize
from minq.index import words

from helpers import PEASE, PORRIDGE, TEXT_CHARS, reference_build, reference_tokenize

RHYME = Path(__file__).parent / "data" / "rhyme.txt"


def test_tokenize_examples():
    assert tokenize("Pease porridge hot!") == [
        ("pease", 0), ("porridge", 1), ("hot", 2)
    ]
    assert tokenize("") == []
    assert tokenize("a-b a") == [("a", 0), ("b", 1), ("a", 2)]


def test_tokenize_splits_underscore_and_numbers():
    assert tokenize("foo_bar 42") == [("foo", 0), ("bar", 1), ("42", 2)]


def test_rhyme_postings():
    index = build_index([(str(RHYME), RHYME.read_text())])
    assert index.positions("pease", 0) == list(PEASE)
    assert index.positions("porridge", 0) == list(PORRIDGE)
    assert index.positions("hot", 0) == [2, 17, 33]
    assert index.positions("cold", 0) == [5, 21, 36]
    assert index.positions("absent", 0) == []
    assert index.term_postings("hot") == {0: [2, 17, 33]}
    assert index.term_postings("absent") == {}
    assert index.term_docs("hot") == {0}
    assert index.word_count(0) == 37


def test_empty_corpus():
    index = build_index([])
    assert index.doc_count() == 0
    assert index.postings == {}


def random_corpus(rng, docs=4, vocab=("a", "b", "c", "dd", "eee")):
    out = []
    for d in range(docs):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 30))]
        out.append((f"doc{d}.txt", " ".join(words)))
    return out


def test_round_trip_identity(tmp_path):
    rng = random.Random(55)
    for trial in range(20):
        index = build_index(random_corpus(rng))
        target = tmp_path / f"idx{trial}.ivx"
        save_index(index, target)
        assert load_index(target) == index


def test_round_trip_empty(tmp_path):
    index = build_index([])
    target = tmp_path / "empty.ivx"
    save_index(index, target)
    assert load_index(target) == index


def test_path_with_spaces_round_trips(tmp_path):
    index = build_index([("dir with spaces/a doc.txt", "hello world")])
    target = tmp_path / "idx.ivx"
    save_index(index, target)
    assert load_index(target).docs[0].path == "dir with spaces/a doc.txt"


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
def test_path_with_line_break_rejected_before_writing(tmp_path, brk):
    # load_index splits the file with str.splitlines, so such a path would
    # save fine and then break every load of the index
    path = f"a{brk}b.txt"
    target = tmp_path / "idx.ivx"
    target.write_text("old contents")
    with pytest.raises(ValueError) as err:
        save_index(build_index([("fine.txt", "ape"), (path, "bee")]), target)
    assert repr(path) in str(err.value)
    assert target.read_text() == "old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["idx.ivx"]


def test_failed_save_leaves_old_file_and_no_temp(tmp_path):
    target = tmp_path / "idx.ivx"
    save_index(build_index([("a.txt", "ape bee")]), target)
    before = target.read_bytes()
    index = build_index([("b.txt", "cow")])
    index.postings["cow"][0] = None  # not iterable: the write fails midway
    with pytest.raises(TypeError):
        save_index(index, target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["idx.ivx"]


@pytest.mark.parametrize(
    "content,line",
    [
        ("", 1),
        ("NOPE 1\n", 1),
        ("IVX1 one\n", 1),
        ("IVX1 1\nD 5 3 x.txt\n", 2),
        ("IVX1 1\nD 0 3 x.txt\nP 0 1 2\n", 3),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 0 2 1\n", 4),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 0 9\n", 4),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 1 0\n", 4),
        ("IVX1 1\nD 0 3 x.txt\nZ what\n", 3),
        ("IVX1 2\nD 0 3 x.txt\n", 2),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP\n", 4),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 0\n", 4),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 0 -1 2\n", 4),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 0 1 3\n", 4),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 0 1\nP 0 2\n", 5),
        ("IVX1 1\nD 0 3 x.txt\nT \n", 3),
        ("IVX1 1\nD x 3 x.txt\n", 2),
        ("IVX1 1\nD 0 3 x.txt\nT a\nP 0 2 1 9\n", 4),
        ("IVX1 1\nD 0 -3 a.txt\n", 2),
        ("IVX1 -1\nD 0 3 x.txt\n", 1),
    ],
)
def test_malformed_files_report_line(tmp_path, content, line):
    target = tmp_path / "bad.ivx"
    target.write_text(content)
    with pytest.raises(IndexFormatError) as err:
        load_index(target)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)
    assert POSITION_FAULTS.get(content, "") in str(err.value)


def test_lines_past_the_first_block_keep_their_numbers(tmp_path, monkeypatch):
    # Blocks of a few lines each: lines still number from the file's start,
    # and a block cut never splits or merges a line.
    monkeypatch.setattr(index_module, "_BLOCK_CHARS", 16)
    index = build_index([("a.txt", "ape bee ape cow"), ("b.txt", "bee cow dog")])
    target = tmp_path / "idx.ivx"
    save_index(index, target)
    assert load_index(target) == index
    lines = target.read_text().splitlines()
    bad = 7
    assert lines[bad - 1].startswith("P ")
    lines[bad - 1] += " 99"
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError) as err:
        load_index(target)
    assert err.value.line == bad
    assert "beyond word count" in str(err.value)


# The loader checks a posting line's positions in one pass and rescans only
# a faulty line, so these pin which fault the rescan names: the first in line
# order, with an order fault before a range fault at the same position.
POSITION_FAULTS = {
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 2 1\n": "positions not strictly increasing",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 9\n": "position 9 beyond word count 3",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 -1 2\n": "positions not strictly increasing",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 1 3\n": "position 3 beyond word count 3",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 2 1 9\n": "positions not strictly increasing",
}


@pytest.mark.parametrize("enabled", [True, False])
def test_build_and_load_restore_collector_state(tmp_path, enabled):
    seen = []

    def documents():
        seen.append(gc.isenabled())
        yield "a.txt", "ape bee ape"

    target = tmp_path / "idx.ivx"
    bad = tmp_path / "bad.ivx"
    bad.write_text("IVX1 1\nD 0 3 x.txt\nT a\nP 0 1\nP 0 9\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        index = build_index(documents())
        assert gc.isenabled() is enabled
        save_index(index, target)
        assert load_index(target) == index
        assert gc.isenabled() is enabled
        with pytest.raises(IndexFormatError):
            load_index(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


# The tokenizer's characters of interest, plus any other encodable one.
_TEXT = st.text(st.sampled_from(TEXT_CHARS) | st.characters(codec="utf-8"), max_size=60)
_PATH = st.text(st.characters(codec="utf-8"), max_size=12).filter(
    lambda p: p.splitlines() in ([], [p])
)


@given(_TEXT)
def test_tokenizers_equal_the_per_match_reference(text):
    expected = reference_tokenize(text)
    assert tokenize(text) == expected
    assert words(text) == [term for term, _ in expected]


@given(st.lists(st.tuples(_PATH, _TEXT), max_size=5))
def test_build_equals_the_per_token_reference_and_round_trips(documents):
    index = build_index(documents)
    reference = reference_build(documents)
    assert index == reference
    with tempfile.TemporaryDirectory() as directory:
        target, expected = Path(directory) / "idx.ivx", Path(directory) / "ref.ivx"
        save_index(index, target)
        save_index(reference, expected)
        assert target.read_bytes() == expected.read_bytes()
        assert load_index(target) == index


def test_missing_file_surfaces_os_error(tmp_path):
    with pytest.raises(OSError):
        load_index(tmp_path / "nowhere.ivx")
