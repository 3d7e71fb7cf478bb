import gc
import hashlib
import random
import struct
import tempfile
import tracemalloc
import zlib
from array import array
from operator import lt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import minq.index as index_module
from minq import IndexFormatError, build_index, load_index, save_index, tokenize
from minq.index import TermPostings, run, words

from helpers import (
    PEASE,
    PORRIDGE,
    TEXT_CHARS,
    ivx4_frame,
    ivx4_file,
    ivx4_sealed,
    ivx4_streams,
    reference_build,
    reference_tokenize,
    u32_planes,
    u32s,
)

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
    assert index.term_postings("hot") == TermPostings(u32s([0]), u32s([0, 3]), u32s([2, 17, 33]))
    assert index.term_postings("absent") == TermPostings(u32s(), u32s([0]), u32s())
    assert index.term_docs("hot") == u32s([0])
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
    # before writing. IVX4 stores every path length-prefixed, so any path
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

    # Streams are written as they are deflated: a failure after two streams
    # are in the temporary file still leaves no trace.
    deflate = index_module._deflated
    calls = []

    def fail_third(pieces):
        calls.append(pieces)
        if len(calls) == 3:
            raise OSError("disk full")
        return deflate(pieces)

    monkeypatch.setattr(index_module, "_deflated", fail_third)
    with pytest.raises(OSError, match="disk full"):
        save_index(build_index([("c.txt", "ape bee cow dog")]), target)
    assert len(calls) == 3
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["idx.ivx"]


def test_postings_columns_are_u32_arrays_the_collector_never_walks(tmp_path):
    # Every column of every term, built and loaded, is an array of 4-byte
    # unsigned ints: no int object per number, and no number among what the
    # cyclic collector visits. CPython tracks an array (gc.is_tracked says
    # so), but its only referent is its type, so a collection visits one
    # object per column. Two
    # documents of 600 words and 256 more take positions, document ids and
    # run starts past one byte.
    documents = [("x.txt", "cow dog " * 300), ("y.txt", "dog cow " * 300)]
    documents += [(f"{k}.txt", "cow dog") for k in range(256)]
    built = build_index(documents)
    target = tmp_path / "idx.ivx"
    save_index(built, target)
    loaded = load_index(target)
    assert loaded == built
    for index in (built, loaded):
        cow = index.term_postings("cow")
        assert (cow.positions[140], cow.starts[1], cow.docs[-1]) == (280, 300, 257)
        for postings in (*index.postings.values(), index.term_postings("absent")):
            for column in postings:
                assert type(column) is array and column.typecode in "IL"
                assert column.itemsize == 4
                assert all(isinstance(held, type) for held in gc.get_referents(column))


def test_postings_layout(tmp_path):
    # Per term: its documents strictly increasing, the same built
    # and loaded, with one run start per document plus the end; the run
    # number is the index in that array, so no postings hold a dict.
    documents = random_corpus(random.Random(23), docs=12) + [(str(RHYME), RHYME.read_text())]
    built = build_index(documents)
    save_index(built, tmp_path / "idx.ivx")
    loaded = load_index(tmp_path / "idx.ivx")
    assert built.postings.keys() == loaded.postings.keys()
    for term, held in built.postings.items():
        for postings in (held, loaded.postings[term]):
            assert type(postings) is TermPostings
            assert postings.docs == held.docs
            assert all(map(lt, postings.docs, postings.docs[1:]))
            assert len(postings.docs) + 1 == len(postings.starts)


def ivx4(
    docs, terms, total=None, doc_count=None, offsets=None, inflated=(), deflated=(), frames=None
):
    """IVX4 bytes put together field by field, for files save_index never writes.

    ``docs`` holds (word count, path bytes) pairs; ``terms`` holds (term
    bytes, doc-id gaps, counts, position gaps); ``offsets`` is the offsets
    stream's gaps, by default a first gap of 0 and then gaps of 1 for each
    document. ``inflated`` and ``deflated`` map a stream's number (0 to 7,
    in file order) to an edit of its bytes before and after deflating, and
    ``frames`` edits the framed streams together. The footer is computed
    last, so every fault after it is reached.
    """
    if offsets is None:
        offsets = [gap for words, _ in docs for gap in [0] + [1] * -(-words // 16)]
    header = struct.pack(
        "<4sIII",
        b"IVX4",
        len(docs) if doc_count is None else doc_count,
        len(terms),
        sum(words for words, _ in docs) if total is None else total,
    )
    streams = [
        bytes(16) * len(docs)
        + u32_planes([words for words, _ in docs] + [len(path) for _, path in docs]),
        b"".join(path for _, path in docs),
        u32_planes(offsets),
        u32_planes(
            [len(term) for term, *_ in terms]
            + [len(doc_gaps) for _, doc_gaps, _, _ in terms]
            + [len(gaps) for *_, gaps in terms]
        ),
        b"".join(term for term, *_ in terms),
        *(u32_planes([v for term in terms for v in term[k]]) for k in (1, 2, 3)),
    ]
    inflated, deflated = dict(inflated), dict(deflated)
    packed = [
        deflated.get(k, bytes)(zlib.compress(inflated.get(k, bytes)(stream), 1))
        for k, stream in enumerate(streams)
    ]
    body = b"".join(map(ivx4_frame, packed))
    return ivx4_sealed(header + (frames(body) if frames else body))


# x.txt of three words, "b a a": a at 1 and 2, b at 0.
A_AND_B = [(b"a", [1], [2], [2, 1]), (b"b", [1], [1], [1])]


def one_doc(*terms, **fields):
    """One three-word document, x.txt, holding ``terms``; by default a and b as above."""
    return ivx4([(3, b"x.txt")], list(terms) or A_AND_B, **fields)


def every_word(*word_counts):
    """Term a at every word of documents of these word counts, each holding a word."""
    return [(b"a", [1] * len(word_counts), list(word_counts), [1] * sum(word_counts))]


TWO_DOCS = [(1, b"x.txt"), (1, b"y.txt")]
VALID = one_doc()
# One document that claims 2**20 words in a few hundred bytes: its sampled
# offsets, 65,537 gaps of 0 and 1, deflate to almost nothing.
MILLION_WORDS = ivx4([(1 << 20, b"x.txt")], [])
FOOTER = len(VALID) - 4

# Name -> (file bytes, what the error must say). The header is 16 bytes,
# and the document table's stream starts at byte 16. Offsets past it
# depend on what zlib makes of the streams before, so only the header's
# and the footer's are named here.
MALFORMED = {
    "empty file": (b"", "byte 0: not an IVX4 index file"),
    "bad magic": (b"NOPE" + VALID[4:], "byte 0: not an IVX4 index file"),
    "short header": (VALID[:6], "byte 0: file ends inside the header"),
    "no room for the footer": (VALID[:18], "byte 16: file ends inside the footer"),
    "wrong footer": (
        VALID[:-1] + bytes([VALID[-1] ^ 1]), f"byte {FOOTER}: footer says CRC-32 "
    ),
    "edited stream byte": (
        VALID[:24] + bytes([VALID[24] ^ 0x80]) + VALID[25:], f"byte {FOOTER}: footer says CRC-32 "
    ),
    "document count past the end": (
        one_doc(doc_count=0xFFFFFFFF),
        "byte 16: the document table stream holds 24 of its 103079215080 bytes",
    ),
    "more documents than the file holds": (
        ivx4([(3, b"x.txt")], [], doc_count=2),
        "byte 16: the document table stream holds 24 of its 48 bytes",
    ),
    "word total mismatch": (one_doc(total=4), "byte 12: header says 4 words, documents hold 3"),
    "more words than the file has bytes": (
        MILLION_WORDS, "byte 12: header says 1048576 words, term position counts sum to 0"
    ),
    "path not UTF-8": (ivx4([(3, b"\xff.txt")], A_AND_B), "document paths not UTF-8"),
    "truncated offsets": (
        ivx4([(17, b"x.txt")], every_word(17), offsets=[0, 1]),
        "the sampled word offsets stream holds 8 of its 12 bytes",
    ),
    "zero offset gap after a first word": (
        ivx4([(17, b"x.txt")], every_word(17), offsets=[0, 0, 5]),
        "document 0: sampled word offsets not increasing",
    ),
    "sampled offset at the text's length": (
        ivx4([(3, b"x.txt"), (17, b"y.txt")], every_word(3, 17), offsets=[2, 5, 0, 4, 0]),
        "document 1: a sampled word offset at or past its text's length",
    ),
    "empty term": (one_doc((b"", [1], [3], [1, 1, 1])), "empty term"),
    "unsorted terms": (
        one_doc((b"b", [1], [1], [1]), (b"a", [1], [2], [2, 1])),
        "term 'a': duplicate or out of order",
    ),
    "duplicate terms": (
        one_doc((b"a", [1], [1], [1]), (b"a", [1], [2], [2, 1])),
        "term 'a': duplicate or out of order",
    ),
    "no documents": (one_doc((b"a", [], [], [1, 1, 1])), "term 'a': no documents"),
    "unknown document": (
        one_doc((b"a", [6], [3], [1, 1, 1])), "term 'a': unknown document id 5"
    ),
    "zero document gap": (
        ivx4(TWO_DOCS, [(b"a", [1, 0], [1, 1], [1, 1])]),
        "term 'a': document ids not strictly increasing",
    ),
    "zero count": (
        one_doc((b"a", [1], [0], [1, 1, 1])), "term 'a': a document with no positions"
    ),
    "zero position gap": (
        one_doc((b"a", [1], [3], [1, 1, 0])), "term 'a': positions not strictly increasing"
    ),
    "count mismatch": (
        one_doc((b"a", [1], [4], [1, 1, 1])),
        "term 'a': position counts sum to 4, term table says 3",
    ),
    # Run starts are u32s: a sum past them is refused as a count mismatch.
    "count sum past 2**32": (
        ivx4(TWO_DOCS, [(b"a", [1, 1], [0xFFFFFFFF, 3], [1, 1])]),
        "term 'a': position counts sum to 4294967298, term table says 2",
    ),
    "position past its document's words": (
        one_doc((b"a", [1], [3], [1, 1, 2])),
        "term 'a': a position lies outside its document",
    ),
    # Each document's first position gap counts from -1, so 0 is position -1.
    "position before its document's first word": (
        ivx4([(1, b"x.txt")], [(b"a", [1], [1], [0])]),
        "term 'a': positions not strictly increasing",
    ),
    "position in a later document": (
        ivx4(TWO_DOCS, [(b"a", [1], [2], [1, 1])]),
        "term 'a': a position lies outside its document",
    ),
    # The last stream's deflated bytes lose their last byte; its frame
    # says so, and the footer is recomputed.
    "truncated postings": (
        one_doc(deflated={7: lambda packed: packed[:-1]}), "the position gaps stream is cut short"
    ),
    "trailing bytes": (
        one_doc(frames=lambda body: body + b"\0"), f"byte {FOOTER}: 1 trailing bytes"
    ),
    "stream past the footer": (
        one_doc(frames=lambda body: body[:-1]), "file ends inside the position gaps stream"
    ),
    "stream not zlib": (
        one_doc(deflated={0: lambda packed: b"\xff" + packed[1:]}),
        "byte 16: the document table stream does not inflate",
    ),
    "short stream": (
        one_doc(inflated={4: lambda raw: raw[:-1]}), "the terms stream holds 1 of its 2 bytes"
    ),
    "stream past its counts": (
        one_doc(inflated={1: lambda raw: raw + b"!"}),
        "the document paths stream inflates past its 5 bytes",
    ),
    "bytes after a stream's end": (
        one_doc(deflated={4: lambda packed: packed + b"\0"}),
        "1 bytes follow the end of the terms stream",
    ),
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
    "IVX1 1\nD 0 3 x.txt\nZ what\n": "stream not zlib",
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
    assert_refused(target, content.encode(), "byte 0: not an IVX4 index file")
    assert_refused(target, *MALFORMED[COUNTERPARTS[content]])


@pytest.mark.parametrize("name", sorted(set(MALFORMED) - set(COUNTERPARTS.values())))
def test_malformed_ivx2_names_the_fault(tmp_path, name):
    assert_refused(tmp_path / "bad.ivx", *MALFORMED[name])


def test_word_total_past_the_file_is_refused_in_little_memory(tmp_path):
    # The loader's table of ints is sized from the word counts, so a file
    # must not claim more words than its streams hold: a million here would
    # take the load's peak to about 50 MB. Every word is one position of
    # one term, so the term table's counts must sum to the header's total.
    target = tmp_path / "big.ivx"
    target.write_bytes(MILLION_WORDS)
    assert len(MILLION_WORDS) < 70_000
    tracemalloc.start()
    try:
        with pytest.raises(IndexFormatError, match="term position counts sum to 0"):
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
    # Pins the layout and the byte order: every number is little-endian,
    # and a stream of numbers holds them as byte planes, lowest byte first.
    # The deflated bytes are not pinned (zlib builds differ), only the
    # framing: each stream is a u32 length and then that many bytes of one
    # zlib stream, and the footer is the CRC-32 of all before it.
    target = tmp_path / "idx.ivx"
    save_index(build_index([("a.txt", "ape bee ape"), ("b.txt", "bee")]), target)
    header, streams = ivx4_streams(target.read_bytes())
    # BLAKE2b-128 of the bytes and then the sampled offsets as little-endian
    # u64s, personalised with the word count.
    digest = lambda text, n, offsets: hashlib.blake2b(
        text + b"".join(o.to_bytes(8, "little") for o in offsets),
        digest_size=16,
        person=n.to_bytes(16, "little"),
    ).digest()
    assert header == b"IVX4" + bytes.fromhex("02000000 02000000 04000000")  # docs, terms, words
    assert streams == [
        # the digests, then word counts 3 and 1 and path lengths 5 and 5:
        # their low bytes, then the three higher planes
        digest(b"ape bee ape", 3, [0, 11]) + digest(b"bee", 1, [0, 3])
        + bytes.fromhex("03010505 00000000 00000000 00000000"),
        b"a.txtb.txt",
        bytes.fromhex("000b0003") + bytes(12),  # offsets: word 0 at 0, then the length
        bytes.fromhex("030301020202") + bytes(18),  # term lengths, documents, positions
        b"apebee",
        bytes.fromhex("010101") + bytes(9),  # doc-id gaps: ape in 0, bee in 0 and 1
        bytes.fromhex("020101") + bytes(9),  # positions per document
        bytes.fromhex("01020201") + bytes(12),  # ape at 0 and 2, bee at 1 and at 0
    ]


def test_rhyme_index_digest(tmp_path):
    # The whole file, pinned through its inflated streams: the deflated
    # bytes depend on the zlib build, the inflated ones only on minq.
    target = tmp_path / "rhyme.ivx"
    save_index(build_index([("rhyme.txt", RHYME.read_text(encoding="utf-8"))]), target)
    header, streams = ivx4_streams(target.read_bytes())
    assert hashlib.sha256(header + b"".join(streams)).hexdigest() == (
        "44ca654214569507056282b24acd1d10268acf1c38db2e3e0e06b5c42618ffb6"
    )


def test_wide_columns_round_trip(tmp_path):
    # Counts and gaps past one and two bytes fill the higher byte planes.
    # Positions count from each document's start, so a position gap is wide
    # only inside one document: mid's 300 words apart in b, rare's 70,000 in
    # c, whose 70,002 positions also take the position gaps past one block
    # of 65,536 numbers. d's first word starts 70,000 characters in.
    index = build_index([
        ("a.txt", "rare"),
        ("b.txt", "mid " + "pad " * 299 + "mid"),
        ("c.txt", "mid " + "filler " * 69999 + "rare"),
        ("d.txt", " " * 70000 + "rare"),
    ])
    target = tmp_path / "idx.ivx"
    save_index(index, target)
    assert load_index(target) == index


@given(st.lists(st.sampled_from([0, 1, 255, 256, 1 << 16, 1 << 24, (1 << 32) - 1]), max_size=12))
def test_the_first_zero_of_a_column_is_found_at_a_number(values):
    # The loader finds a 0 as four zero bytes at a multiple of 4: zero bytes
    # across two numbers, as in 1 then 256, are no 0.
    column = memoryview(bytearray(struct.pack(f"={len(values)}I", *values))).cast("I")
    assert index_module._zero_at(column) == (values.index(0) if 0 in values else -1)


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
            assert index.term_docs(term) == u32s(d for d, found in where.items() if found)
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


_EDITED = build_index(
    [("a.txt", "ape bee ape cow " * 5), ("b.txt", "bee dog " * 20), ("c.txt", "")]
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(
            # a stream (the postings' three most often), or the header
            st.sampled_from([*range(9), 5, 6, 7, 7, 7]),
            st.integers(0, 1 << 16),
            st.sampled_from(["add", "delete", "insert"]),
            st.sampled_from([1, 2, 16, 128, 254, 255]),  # 254 and 255 lower a byte
        ),
        min_size=1,
        max_size=3,
    )
)
def test_resealed_edits_load_whole_or_are_refused(edits):
    # The footer hides every raw edit from the checks behind it, so here the
    # streams are edited inflated, deflated again and the footer recomputed.
    # The loader must then refuse the file or give a well-formed index.
    with tempfile.TemporaryDirectory() as directory:
        target = Path(directory) / "idx.ivx"
        save_index(_EDITED, target)
        header, streams = ivx4_streams(target.read_bytes())
        parts = [bytearray(part) for part in (*streams, header)]
        for part, at, kind, value in edits:
            edited = parts[part]
            at %= len(edited) + 1
            if kind == "insert":
                edited.insert(at, value)
            elif at < len(edited):
                if kind == "delete":
                    del edited[at]
                else:
                    edited[at] = (edited[at] + value) % 256
        *streams, header = map(bytes, parts)
        target.write_bytes(ivx4_file(header[:16].ljust(16, b"\0"), streams))
        try:
            index = load_index(target)
        except IndexFormatError as exc:
            assert len(str(exc).splitlines()) == 1
            return
    for docs, starts, positions in index.postings.values():
        assert docs and all(map(lt, docs, docs[1:])) and docs[-1] < index.doc_count()
        assert starts[0] == 0 and len(starts) == len(docs) + 1 and starts[-1] == len(positions)
        for doc, start, stop in zip(docs, starts, starts[1:]):
            run = positions[start:stop]
            assert run and run[0] >= 0 and all(map(lt, run, run[1:]))
            assert run[-1] < index.word_count(doc)
