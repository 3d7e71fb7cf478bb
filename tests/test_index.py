import gc
import hashlib
import random
import struct
import tempfile
import tracemalloc
from operator import lt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import minq.index as index_module
from minq import IndexFormatError, build_index, load_index, save_index, tokenize
from minq.index import TermPostings, run, words

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
    assert index.term_postings("hot") == TermPostings([0], [0, 3], [2, 17, 33])
    assert index.term_postings("absent") == TermPostings([], [0], [])
    assert index.term_docs("hot") == [0]
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
    # The text format held one document per line and refused such paths
    # before writing. IVX3 stores every path length-prefixed, so any path
    # round-trips and the old file is replaced.
    path = f"a{brk}b.txt"
    target = tmp_path / "idx.ivx"
    target.write_text("old contents")
    index = build_index([("fine.txt", "ape"), (path, "bee")])
    save_index(index, target)
    assert load_index(target) == index
    assert [p.name for p in tmp_path.iterdir()] == ["idx.ivx"]


def test_failed_save_leaves_old_file_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "idx.ivx"
    save_index(build_index([("a.txt", "ape bee")]), target)
    before = target.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(index_module.os, "replace", refuse)
    with pytest.raises(OSError):
        save_index(build_index([("b.txt", "cow")]), target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["idx.ivx"]
    monkeypatch.undo()

    # Terms' columns are written as they are packed: a failure after two
    # terms' columns are in the temporary file still leaves no trace.
    pack = index_module._term_columns
    calls = []

    def fail_third(postings):
        calls.append(postings)
        if len(calls) == 3:
            raise OSError("disk full")
        return pack(postings)

    monkeypatch.setattr(index_module, "_term_columns", fail_third)
    with pytest.raises(OSError, match="disk full"):
        save_index(build_index([("c.txt", "ape bee cow dog")]), target)
    assert len(calls) == 3
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["idx.ivx"]


def assert_one_object_per_number(*columns):
    """Equal ints in the columns are one object; returns how many were above the cache."""
    held = {}
    for column in columns:
        for value in column:
            assert held.setdefault(value, value) is value, value
    return sum(value > 256 for value in held)


def test_indexes_hold_one_int_object_per_number(tmp_path):
    # Two documents of 600 words put cow and dog at the same positions above
    # 256 (cow at 280 in x.txt, dog at 280 in y.txt) and start both terms'
    # second runs at 300; 256 more documents take document ids and run
    # starts past the small ints that Python caches anyway.
    documents = [("x.txt", "cow dog " * 300), ("y.txt", "dog cow " * 300)]
    documents += [(f"{k}.txt", "cow dog") for k in range(256)]
    built = build_index(documents)
    target = tmp_path / "idx.ivx"
    save_index(built, target)
    loaded = load_index(target)
    assert loaded == built
    for index in (built, loaded):
        cow, dog = index.term_postings("cow"), index.term_postings("dog")
        assert cow.positions[140] == dog.positions[440] == 280
        assert assert_one_object_per_number(cow.positions, dog.positions) == 599 - 256
        assert assert_one_object_per_number(cow.docs, dog.docs) == 257 - 256
        assert assert_one_object_per_number(cow.positions, dog.positions, cow.docs, dog.docs) == (
            599 - 256
        )
        # Run starts come from the same table, built or loaded.
        assert cow.starts[1] == dog.starts[1] == 300
        assert assert_one_object_per_number(
            cow.starts, dog.starts, cow.positions, dog.positions, cow.docs, dog.docs
        ) == 856 - 256


def test_postings_layout(tmp_path):
    # Per term: its documents as a strictly increasing list, the same built
    # and loaded, with one run start per document plus the end; the run
    # number is the index in that list, so no postings hold a dict.
    documents = random_corpus(random.Random(23), docs=12) + [(str(RHYME), RHYME.read_text())]
    built = build_index(documents)
    save_index(built, tmp_path / "idx.ivx")
    loaded = load_index(tmp_path / "idx.ivx")
    assert built.postings.keys() == loaded.postings.keys()
    for term, held in built.postings.items():
        for postings in (held, loaded.postings[term]):
            assert type(postings) is TermPostings
            assert [type(part) for part in postings] == [list, list, list]
            assert all(type(value) is int for part in postings for value in part)
            assert postings.docs == held.docs
            assert all(map(lt, postings.docs, postings.docs[1:]))
            assert len(postings.docs) + 1 == len(postings.starts)


_TYPES = {1: "B", 2: "H", 4: "I"}


def ivx3(docs, terms, total=None, doc_count=None, offsets=None):
    """IVX3 bytes put together field by field, for files save_index never writes.

    ``docs`` holds (word count, path bytes) pairs; ``terms`` holds (term
    bytes, the three column widths, doc-id gaps, counts, position gaps);
    ``offsets`` is the offsets column's (width, gaps), by default a first
    gap of 0 and then gaps of 1 for each document. A width other than 1, 2
    or 4 is written as it is, over one-byte values.
    """
    if offsets is None:
        offsets = (1, [gap for words, _ in docs for gap in [0] + [1] * -(-words // 16)])

    def column(width, values):
        return struct.pack(f"<{len(values)}{_TYPES.get(width, 'B')}", *values)

    header = (
        len(docs) if doc_count is None else doc_count,
        len(terms),
        sum(words for words, _ in docs) if total is None else total,
    )
    parts = [b"IVX3", column(4, header)]
    parts += [column(4, [words for words, _ in docs]), column(4, [len(path) for _, path in docs])]
    parts += [bytes(16) * len(docs), *(path for _, path in docs)]
    parts += [bytes([offsets[0]]), column(*offsets)]
    parts += [column(4, [len(term) for term, *_ in terms])]
    parts += [column(4, [len(doc_gaps) for _, _, doc_gaps, _, _ in terms])]
    parts += [column(4, [len(gaps) for *_, gaps in terms])]
    parts += [bytes(widths[k] for _, widths, *_ in terms) for k in range(3)]
    parts += [term for term, *_ in terms]
    for _, widths, *columns in terms:
        parts += [column(width, values) for width, values in zip(widths, columns)]
    return b"".join(parts)


def one_doc(*terms, **fields):
    """One three-word document, x.txt, holding ``terms``; by default a at 1 and 2."""
    return ivx3([(3, b"x.txt")], terms or [(b"a", (1, 1, 1), [1], [2], [2, 1])], **fields)


TWO_DOCS = [(3, b"x.txt"), (3, b"y.txt")]
VALID = one_doc()
# One document that claims 2**20 words in 64 KiB: its sampled offsets are
# one byte each. save_index spends a byte or more on every word.
MILLION_WORDS = ivx3([(1 << 20, b"x.txt")], [])

# Name -> (file bytes, what the error must say). The header is 16 bytes,
# and one document's table 4 + 4 + 16 bytes plus its path: the offsets
# column of x.txt starts at byte 45 with its width.
MALFORMED = {
    "empty file": (b"", "byte 0: not an IVX3 index file"),
    "bad magic": (b"NOPE" + VALID[4:], "byte 0: not an IVX3 index file"),
    "short header": (VALID[:6], "byte 0: file ends inside the header"),
    "document count past the end": (
        one_doc(doc_count=0xFFFFFFFF), "byte 16: file ends inside the document word counts"
    ),
    "more documents than the file holds": (
        ivx3([(3, b"x.txt")], [], doc_count=2),
        "byte 32: file ends inside the document digests",
    ),
    "word total mismatch": (one_doc(total=4), "byte 12: header says 4 words, documents hold 3"),
    "more words than the file has bytes": (
        MILLION_WORDS,
        f"byte 12: header says 1048576 words, more than the file's {len(MILLION_WORDS)} bytes",
    ),
    "path not UTF-8": (ivx3([(3, b"\xff.txt")], []), "byte 40: document paths not UTF-8"),
    "bad offset column width": (
        one_doc(offsets=(3, [0, 1])), "byte 45: offset column width not 1, 2 or 4"
    ),
    "truncated offsets": (
        ivx3([(17, b"x.txt")], [], offsets=(1, [0, 1])),
        "byte 46: file ends inside the sampled word offsets",
    ),
    "zero offset gap after a first word": (
        ivx3([(17, b"x.txt")], [], offsets=(1, [0, 0, 5])),
        "byte 47: document 0: sampled word offsets not increasing",
    ),
    "sampled offset at the text's length": (
        ivx3([(3, b"x.txt"), (17, b"y.txt")], [], offsets=(1, [2, 5, 0, 4, 0])),
        "byte 79: document 1: a sampled word offset at or past its text's length",
    ),
    "bad column width": (one_doc((b"a", (3, 1, 1), [1], [2], [2, 1])), "column width not 1, 2 or 4"),
    "empty term": (one_doc((b"", (1, 1, 1), [1], [2], [2, 1])), "empty term"),
    "unsorted terms": (
        one_doc((b"b", (1, 1, 1), [1], [1], [2]), (b"a", (1, 1, 1), [1], [1], [3])),
        "term 'a': duplicate or out of order",
    ),
    "duplicate terms": (
        one_doc((b"a", (1, 1, 1), [1], [1], [2]), (b"a", (1, 1, 1), [1], [1], [3])),
        "term 'a': duplicate or out of order",
    ),
    "no documents": (one_doc((b"a", (1, 1, 1), [], [], [])), "term 'a': no documents"),
    "unknown document": (
        one_doc((b"a", (1, 1, 1), [6], [1], [1])), "term 'a': unknown document id 5"
    ),
    "zero document gap": (
        ivx3(TWO_DOCS, [(b"a", (1, 1, 1), [1, 0], [1, 1], [2, 1])]),
        "term 'a': document ids not strictly increasing",
    ),
    "zero count": (
        one_doc((b"a", (1, 1, 1), [1], [0], [])), "term 'a': a document with no positions"
    ),
    "zero position gap": (
        one_doc((b"a", (1, 1, 1), [1], [2], [2, 0])), "term 'a': positions not strictly increasing"
    ),
    "count mismatch": (
        one_doc((b"a", (1, 1, 1), [1], [3], [2, 1])),
        "term 'a': position counts sum to 3, term table says 2",
    ),
    "position past its document's words": (
        one_doc((b"a", (1, 1, 1), [1], [2], [2, 2])),
        "term 'a': a position lies outside its document",
    ),
    # Each document's first position gap counts from -1, so 0 is position -1.
    "position before its document's first word": (
        ivx3(TWO_DOCS, [(b"a", (1, 1, 1), [2], [1], [0])]),
        "term 'a': positions not strictly increasing",
    ),
    "position in a later document": (
        ivx3(TWO_DOCS, [(b"a", (1, 1, 1), [1], [2], [2, 3])]),
        "term 'a': a position lies outside its document",
    ),
    "truncated postings": (VALID[:-1], f"byte {len(VALID) - 1}: file ends inside the postings"),
    "trailing bytes": (VALID + b"\0", f"byte {len(VALID)}: 1 trailing bytes"),
}

# The binary fault that stands for each malformed text file below.
COUNTERPARTS = {
    "": "empty file",
    "NOPE 1\n": "bad magic",
    "IVX1 one\n": "short header",
    "IVX1 1\nD 5 3 x.txt\n": "unknown document",
    "IVX1 1\nD 0 3 x.txt\nP 0 1 2\n": "trailing bytes",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 2 1\n": "zero position gap",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 9\n": "position past its document's words",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 1 0\n": "unknown document",
    "IVX1 1\nD 0 3 x.txt\nZ what\n": "bad column width",
    "IVX1 2\nD 0 3 x.txt\n": "more documents than the file holds",
    "IVX1 1\nD 0 3 x.txt\nT a\nP\n": "no documents",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0\n": "zero count",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 -1 2\n": "position before its document's first word",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 1 3\n": "position past its document's words",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 1\nP 0 2\n": "zero document gap",
    "IVX1 1\nD 0 3 x.txt\nT \n": "empty term",
    "IVX1 1\nD x 3 x.txt\n": "path not UTF-8",
    "IVX1 1\nD 0 3 x.txt\nT a\nP 0 2 1 9\n": "position in a later document",
    "IVX1 1\nD 0 -3 a.txt\n": "word total mismatch",
    "IVX1 -1\nD 0 3 x.txt\n": "document count past the end",
}


def assert_refused(target, data, fault):
    target.write_bytes(data)
    with pytest.raises(IndexFormatError) as err:
        load_index(target)
    assert fault in str(err.value)
    assert len(str(err.value).splitlines()) == 1


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
    # The text format's malformed files, each with the line that held its
    # fault. Text, well-formed or not, is refused at its first byte; the
    # binary counterpart of each fault is refused naming a byte or a term.
    assert 1 <= line <= content.count("\n") + 1
    target = tmp_path / "bad.ivx"
    assert_refused(target, content.encode(), "byte 0: not an IVX3 index file")
    assert_refused(target, *MALFORMED[COUNTERPARTS[content]])


@pytest.mark.parametrize("name", sorted(set(MALFORMED) - set(COUNTERPARTS.values())))
def test_malformed_ivx2_names_the_fault(tmp_path, name):
    assert_refused(tmp_path / "bad.ivx", *MALFORMED[name])


def test_word_total_past_the_file_is_refused_in_little_memory(tmp_path):
    # The loader's table of ints is sized from the word counts, so a file
    # must not claim more words than it has bytes: a million here would
    # take the load's peak to about 50 MB.
    target = tmp_path / "big.ivx"
    target.write_bytes(MILLION_WORDS)
    assert len(MILLION_WORDS) < 70_000
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError, match="more than the file's"):
            load_index(target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_hand_made_file_loads(tmp_path):
    # The field-by-field writer above agrees with load_index on a good file.
    target = tmp_path / "ok.ivx"
    target.write_bytes(VALID)
    index = load_index(target)
    assert [(doc.path, doc.word_count) for doc in index.docs] == [("x.txt", 3)]
    assert index.positions("a", 0) == [1, 2]


def test_two_document_index_bytes(tmp_path):
    # Pins the layout and the byte order: every number is little-endian.
    target = tmp_path / "idx.ivx"
    save_index(build_index([("a.txt", "ape bee ape"), ("b.txt", "bee")]), target)
    # BLAKE2b-128 of the bytes and then the sampled offsets as little-endian
    # u64s, personalised with the word count.
    digest = lambda text, n, offsets: hashlib.blake2b(
        text + b"".join(o.to_bytes(8, "little") for o in offsets),
        digest_size=16,
        person=n.to_bytes(16, "little"),
    ).digest()
    assert target.read_bytes() == b"".join([
        b"IVX3", bytes.fromhex("02000000 02000000 04000000"),  # docs, terms, words
        bytes.fromhex("03000000 01000000"),  # word counts
        bytes.fromhex("05000000 05000000"),  # path lengths
        digest(b"ape bee ape", 3, [0, 11]), digest(b"bee", 1, [0, 3]),
        b"a.txt", b"b.txt",
        bytes.fromhex("01 000b 0003"),  # offsets: width, then word 0 at 0 and the length
        bytes.fromhex("03000000 03000000"),  # term lengths
        bytes.fromhex("01000000 02000000"),  # documents per term
        bytes.fromhex("02000000 02000000"),  # positions per term
        bytes.fromhex("0101 0101 0101"),  # widths of doc gaps, counts, position gaps
        b"ape", b"bee",
        bytes.fromhex("01 02 0102"),  # ape: doc 0, two positions, at 0 and 2
        bytes.fromhex("0101 0101 0201"),  # bee: docs 0 and 1, at 1 and 0 in each
    ])


def test_wide_columns_round_trip(tmp_path):
    # Counts and gaps past one and two bytes take two- and four-byte columns.
    # Positions count from each document's start, so a position gap is wide
    # only inside one document: mid's 300 words apart in b, rare's 70,000 in
    # c. Across documents (rare from a to d) gaps stay narrow.
    index = build_index([
        ("a.txt", "rare"),
        ("b.txt", "mid " + "pad " * 299 + "mid"),
        ("c.txt", "mid " + "filler " * 69999 + "rare"),
        ("d.txt", " " * 70000 + "rare"),
    ])
    target = tmp_path / "idx.ivx"
    save_index(index, target)
    assert load_index(target) == index
    # The width columns sit just before the terms: doc gaps, then counts,
    # then position gaps, each for filler, mid, pad and rare.
    data = target.read_bytes()
    widths = data.index(b"fillermidpadrare") - 3 * 4
    assert data[widths : widths + 12] == bytes([1] * 4 + [4, 1, 2, 1] + [1, 2, 1, 4])
    # d's first word starts 70,000 characters in: the offsets column, after
    # the paths, is four bytes wide.
    assert data[data.index(b"d.txt") + 5] == 4


@pytest.mark.parametrize("enabled", [True, False])
def test_set_up_leaves_the_collector_alone(tmp_path, monkeypatch, enabled):
    # The cyclic collector is process-wide: set-up must not switch it, even
    # for a while, whichever state it finds.
    def switched():
        raise AssertionError("the cyclic collector was switched")

    target = tmp_path / "idx.ivx"
    bad = tmp_path / "bad.ivx"
    bad.write_bytes(MALFORMED["position in a later document"][0])
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(gc, "disable", switched)
            patched.setattr(gc, "enable", switched)
            index = build_index([("a.txt", "ape bee ape")])
            assert gc.isenabled() is enabled
            save_index(index, target)
            assert gc.isenabled() is enabled
            assert load_index(target) == index
            assert gc.isenabled() is enabled
            with pytest.raises(IndexFormatError):
                load_index(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# The tokenizer's characters of interest, plus any other encodable one.
_TEXT = st.text(st.sampled_from(TEXT_CHARS) | st.characters(codec="utf-8"), max_size=60)
_PATH = st.text(st.characters(codec="utf-8"), max_size=12)


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


_VOCAB = ("ape", "bee", "cow")


@given(
    st.lists(st.lists(st.sampled_from(_VOCAB), max_size=12), max_size=8),
    st.lists(st.integers(-2, 10), max_size=12),
)
def test_lookups_equal_a_brute_force_reference(corpus, candidates):
    # On the built and the loaded index, for ids held, absent, before a
    # term's first document and past its last. Every example runs both ways
    # of run_lengths: a dict over the term's documents (all ids at once)
    # and a bisection per candidate (one id at a time, against a term in two
    # documents or more).
    built = build_index((f"d{k}.txt", " ".join(found)) for k, found in enumerate(corpus))
    with tempfile.TemporaryDirectory() as directory:
        target = Path(directory) / "idx.ivx"
        save_index(built, target)
        loaded = load_index(target)
    ids = list(range(-2, len(corpus) + 2))
    for index in (built, loaded):
        for term in (*_VOCAB, "absent"):
            where = {d: [p for p, w in enumerate(ws) if w == term] for d, ws in enumerate(corpus)}
            expected = [where.get(d, []) for d in ids]
            assert index.term_docs(term) == [d for d, found in where.items() if found]
            postings = index.term_postings(term)
            assert [index.positions(term, d) for d in ids] == expected
            assert [list(run(postings, d)) for d in ids] == [list(zip(p, p)) for p in expected]
            assert index.run_lengths(term, ids) == list(map(len, expected))
            assert [index.run_lengths(term, [d]) for d in ids] == [[len(p)] for p in expected]
            lengths = [len(where.get(d, [])) for d in candidates]
            assert index.run_lengths(term, candidates) == lengths


def test_missing_file_surfaces_os_error(tmp_path):
    with pytest.raises(OSError):
        load_index(tmp_path / "nowhere.ivx")
