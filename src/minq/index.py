"""Positional inverted index, in memory and on disk as compressed columns.

Documents are plain text; tokenization case-folds the text and splits it on
any run of non-alphanumeric characters, numbering words from 0. Two
splitters share one word pattern: :func:`words` splits query words and
phrases and snippet windows, and :func:`_sampled_words` (a capturing split
that also gives each word's start) splits a document for the build and for
the recheck of a changed source. The tests keep them equal by comparing
the build with a reference built one pattern match at a time.

In memory each term has one :class:`TermPostings` of three lists. Its
``docs`` list holds the documents holding the term, in increasing order;
a document's run number ``e`` is its index there. Its ``positions`` list
holds the term's document-local positions, document after document, and
its ``starts`` list where each run begins, plus the list's length at the
end, so run ``e`` is ``positions[starts[e]:starts[e + 1]]``. Only this
module reads that layout: :func:`run` (a query leaf's pairs) and
:meth:`PositionalIndex.positions` (a list) find ``e`` by one C bisection
of ``docs`` and slice the run out (the empty slice at ``starts[e]`` for
a document without the term), and :meth:`PositionalIndex.run_lengths`
measures runs without slicing them. Built and loaded indexes share this
layout, plus a document table of source path, word count, content digest
and sampled word offsets (see below). Both hold one int object per
number: document ids, positions and run starts come from one table,
``numbers[k] == k``. By :func:`sys.getsizeof` over the postings dict,
its term strings, tuples, lists and distinct ints (64-bit CPython 3.11,
seed 7), the loaded search-short benchmark postings take 25.8 MB and the
built ones 25.6 MB, search-long's 14.6 MB and 14.2 MB. Once built (or
loaded) an index is never mutated by queries, so it can be shared freely
across threads. Building, saving and loading leave the cyclic garbage
collector as they find it: it is process-wide, so pausing it would pause
it for every thread. An index holds no reference cycles, so reference
counting alone frees a dropped one.

On disk the index is IVX4, a binary file of a header, eight streams and
a footer. Every number is an unsigned little-endian integer:

    header      b"IVX4", u32 doc count D, u32 term count T, u32 total words
    streams     each a u32 byte length, then that many bytes of one zlib
                stream (level 1); once inflated they hold, in order:
      document table    the D 16-byte digests, then u32s: the D word
                        counts, then the D path byte lengths
      document paths    the D paths (UTF-8, concatenated)
      sampled word offsets
                        u32s: per document, its sampled word offsets and
                        its folded text's length, as gaps
      term table        u32s: the T term byte lengths, then the T document
                        counts, then the T position counts
      terms             the T terms (UTF-8, sorted, concatenated)
      document id gaps  u32s: per term, in term order, its doc-id gaps
      run lengths       u32s: per term, its position count per document
      position gaps     u32s: per term, its position gaps
    footer      u32 CRC-32 of every byte before it

A stream's u32s are stored in blocks of 65,536 numbers (the last one
shorter), each block as its four byte planes: the lowest byte of each of
its numbers, then the next byte of each, and so on (the byte shuffle of
Blosc). Gaps and counts are mostly small, so the higher planes are long
runs of zeros that deflate to almost nothing, and one width serves every
number. The inflated size of each stream follows from the header and the
streams before it, so only the deflated size is stored.

Positions are numbered per document, from 0. A gap is the difference from
the previous value, so every gap is at least 1: a term's first doc-id gap
is counted from -1, and the first position gap of each of its documents
from -1 too. A document's sampled offsets are the starts of its words 0,
K, 2K, ... (K = :data:`OFFSET_STRIDE`) in its case-folded text, followed
by that text's length; there are ``ceil(n / K) + 1`` of them for a
document of n words, and its first gap is counted from 0. The digest is a
16-byte BLAKE2b of the document's text encoded as UTF-8 (for ``minq
index``, the source file's bytes) followed by its sampled offsets as u64s,
personalised with its word count as 16 bytes (all little-endian), so a
match certifies the text, the count and the offsets at once. Files in an
earlier format (IVX1 text, IVX2, IVX3) fail to load at their first bytes.

Loading checks the footer before it inflates anything, so a file changed
anywhere after it was saved is refused whole: a CRC-32 catches every
error burst of 32 bits or fewer, so every edit of one byte. It then
inflates each stream to the size the counts before it give, and no
further, and refuses one that holds fewer bytes, more, or is followed by
more. Each check of the postings runs once per column over all terms,
as C-level passes (zero gaps, count sums, each run's last position
against its document's words), and a failed one inflates its stream
again to name the term; any file the loader accepts is a well-formed
index. Every word of every document is one position of one term, so the
term table's position counts must sum to the header's word total, which
is checked before the offsets are decoded. The table of ints is sized
from the word counts, so it stays proportional to what the streams hold:
every 16 words of a document took a sampled offset. Each postings stream
is inflated a block of numbers at a time, four bytes a number, while the
lists are built from it, so no column is ever held whole.

A save makes and deflates one stream at a time, a block of numbers at a
time, writes each stream as soon as it is deflated, and replaces the file
whole (temporary file, then rename), so a reader never sees a partial
index and a failed save leaves the old one in place. The file is not
fsynced: a power loss just after a save can still lose it.

Snippets read a document's words back from its source
(:func:`document_words`). The source is read once, its digest checked,
and only the slices of its text around the snippets split, found through
the sampled word offsets that the digest certifies; a slice that does not
hold its words raises :class:`IndexFormatError`. A source that is missing
raises :class:`OSError`, and one that is not a regular file
:class:`ValueError`, without blocking; one that is no longer UTF-8, or
whose word count or digest no longer matches the index, raises
:class:`StaleSourceError`, unless the offsets recomputed from its text
give the recorded digest: then the index's offsets record was edited,
and :class:`IndexFormatError` names the document. Such an edit loads only
if the footer was recomputed after it; the footer catches any other. :func:`load_index` and
``minq index`` read the index file and the sources through the same
reader (:func:`read_source`). Messages quote a source path with ``repr``,
so one holding a newline stays on one line.
"""

import contextlib
import hashlib
import os
import re
import stat
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
from operator import le, lt, setitem, sub
from typing import NamedTuple

_WORD = re.compile(r"[^\W_]+")
_SPLIT = re.compile(f"({_WORD.pattern})")  # separators and words, alternating

OFFSET_STRIDE = 16  # a document keeps the start of every 16th word

_HEADER = struct.Struct("<4sIII")
_U32 = struct.Struct("<I")  # a stream's byte length, and the footer
_MAGIC = b"IVX4"
_STREAMS = (
    "document table", "document paths", "sampled word offsets", "term table", "terms",
    "document id gaps", "run lengths", "position gaps",
)
_BLOCK = 1 << 16  # numbers per block of byte planes
_CHUNK = 1 << 16  # deflated bytes fed to zlib at a time
_LEVEL = 1  # zlib's fastest: level 6 saves search-short's index 5% smaller, 26% slower
_DIGEST_SIZE = 16
_ZERO = bytes(4)  # a u32 of 0
_LIMIT = 1 << 32  # every stored number is below this
_TYPECODE = "I" if array("I").itemsize == 4 else "L"
_SWAP = sys.byteorder == "big"


class IndexFormatError(ValueError):
    """An index file failed to load; the message names a byte offset or a term."""


class StaleSourceError(ValueError):
    """A source file no longer holds the text the index was built from."""


def words(text: str) -> list[str]:
    """Case-folded words in text order; a word is a run of letters and digits.

    The text is folded before it is split. :meth:`str.casefold` maps one
    character at a time (``lower`` picks the Greek final sigma by context),
    so a word folds alike alone in a query and inside a document.
    """
    return _WORD.findall(text.casefold())


def tokenize(text: str):
    """Case-folded (term, position) pairs; words are alphanumeric runs."""
    return list(zip(words(text), count()))


def source_digest(data: bytes, word_count: int, offsets: array) -> bytes:
    """The digest the index keeps of a document's UTF-8 bytes, word count and offsets."""
    person = word_count.to_bytes(16, "little")  # a match certifies the count too
    digest = hashlib.blake2b(data, digest_size=_DIGEST_SIZE, person=person)
    if _SWAP:  # the array("Q") of sampled offsets is hashed as little-endian u64s
        offsets = array("Q", offsets)
        offsets.byteswap()
    digest.update(offsets)
    return digest.digest()


@dataclass
class DocInfo:
    path: str
    word_count: int
    digest: bytes
    offsets: array  # sampled word starts in the folded text, then its length


class TermPostings(NamedTuple):
    """One term's postings, laid out as the module docstring says. Read only."""

    docs: list[int]
    starts: list[int]
    positions: list[int]


_ABSENT = TermPostings([], [0], [])


def run(postings: TermPostings, doc_id: int):
    """The term's positions in the document as ``(p, p)`` pairs; empty if absent.

    A query plan binds ``postings`` once per query, so a leaf costs one
    Python call per document. The run is read as stored, unchecked: the
    loader checks every run's order, and :func:`build_index` writes them
    in order.
    """
    docs, starts, positions = postings
    e = bisect_left(docs, doc_id)
    stop = starts[e + 1] if e < len(docs) and docs[e] == doc_id else starts[e]
    found = positions[starts[e] : stop]
    return zip(found, found)


class PositionalIndex:
    def __init__(self, docs: list[DocInfo], postings: dict[str, TermPostings]):
        self.docs = docs
        self.postings = postings

    def doc_count(self) -> int:
        return len(self.docs)

    def word_count(self, doc_id: int) -> int:
        return self.docs[doc_id].word_count

    def term_postings(self, term: str) -> TermPostings:
        """The term's postings; empty when absent. Read only."""
        return self.postings.get(term, _ABSENT)

    def positions(self, term: str, doc_id: int) -> list[int]:
        """A new list of the term's positions in the document; empty when absent."""
        docs, starts, positions = self.term_postings(term)
        e = bisect_left(docs, doc_id)
        stop = starts[e + 1] if e < len(docs) and docs[e] == doc_id else starts[e]
        return positions[starts[e] : stop]

    def run_lengths(self, term: str, docs: list[int]) -> list[int]:
        """Per document of ``docs``, the term's number of positions there."""
        held, starts, _ = self.term_postings(term)
        n = len(held)
        if n <= len(docs):  # a dict over the term's documents, one get per candidate
            lengths = dict(zip(held, map(sub, islice(starts, 1, None), starts)))
            return list(map(lengths.get, docs, repeat(0)))
        found = zip(map(bisect_left, repeat(held), docs), docs)  # one bisection per candidate
        return [starts[e + 1] - starts[e] if e < n and held[e] == d else 0 for e, d in found]

    def term_docs(self, term: str) -> list[int]:
        """The term's documents, in increasing order. Read only."""
        return self.term_postings(term).docs

    def __eq__(self, other):
        return (
            isinstance(other, PositionalIndex)
            and self.docs == other.docs
            and self.postings == other.postings
        )


def build_index(documents) -> PositionalIndex:
    """Index an iterable of (path, text) pairs in order."""
    docs, postings = [], {}
    numbers = []  # numbers[k] == k: document ids, positions and run starts share these ints
    for path, text in documents:
        terms, offsets = _sampled_words(text)
        numbers += range(len(numbers), max(len(terms), len(docs) + 1))
        doc_id = numbers[len(docs)]
        digest = source_digest(text.encode("utf-8"), len(terms), offsets)
        docs.append(DocInfo(path, len(terms), digest, offsets))
        grouped = {}
        for pos, term in zip(numbers, terms):
            grouped.setdefault(term, []).append(pos)
        for term, found in grouped.items():
            held = postings.get(term)
            if held is None:
                held = postings[term] = TermPostings([], [0], [])
            ids, starts, positions = held
            ids.append(doc_id)
            starts.append(len(found))  # a run length until every document is in
            positions += found
    longest = max((len(held.positions) for held in postings.values()), default=0)
    numbers += range(len(numbers), longest + 1)
    number = numbers.__getitem__
    for held in postings.values():
        held.starts[:] = map(number, accumulate(held.starts))
    return PositionalIndex(docs, postings)


def _sampled_words(text: str) -> tuple[list[str], array]:
    """The text's words, as :func:`words` splits them, and its sampled word offsets."""
    folded = text.casefold()
    parts = _SPLIT.split(folded)
    # Word k is parts[2k + 1], so it starts where parts[:2k + 1] end.
    ends = accumulate(map(len, parts))
    offsets = array("Q", islice(ends, 0, len(parts) - 1, 2 * OFFSET_STRIDE))
    offsets.append(len(folded))
    return parts[1::2], offsets


def _slices(column, lengths):
    """Consecutive pieces of ``column``, ``lengths[k]`` items each, one iterator per piece.

    Each piece must be used up before the next is taken; all of it runs in C.
    """
    return map(islice, repeat(iter(column)), lengths)


def _run_sums(steps, lengths):
    """Running sums of ``steps`` that start over at each run of ``lengths`` steps."""
    return map(accumulate, _slices(steps, lengths))


def _planes(values):
    """``values`` as little-endian u32s, each block of :data:`_BLOCK` as its four byte planes.

    A plane holds one byte of each number of its block, lowest byte first.
    """
    values = iter(values)
    while block := array(_TYPECODE, islice(values, _BLOCK)):
        if _SWAP:
            block.byteswap()
        raw = block.tobytes()
        yield from (raw[k::4] for k in range(4))


def _deflated(pieces) -> list[bytes]:
    """The concatenated ``pieces`` as one zlib stream, after its u32 byte length."""
    deflate = zlib.compressobj(_LEVEL)
    packed = [*map(deflate.compress, pieces), deflate.flush()]
    return [_U32.pack(sum(map(len, packed))), *packed]


def _position_gaps(postings: TermPostings):
    """A term's position gaps, each document's first counted from -1."""
    _, starts, positions = postings
    before = [-1, *positions]
    deque(map(setitem, repeat(before), starts[:-1], repeat(-1)), maxlen=0)
    return map(sub, positions, before)


def save_index(index: PositionalIndex, path) -> None:
    """Write ``index`` to ``path``, replacing it whole or leaving it as it was.

    Only the size check runs before the file is opened. The index is
    written under a temporary name in the same directory, each stream as
    soon as it is deflated, and renamed into place. Raises
    :class:`ValueError` for an index of 2**32 or more words, which IVX4
    cannot count.
    """
    total = sum(doc.word_count for doc in index.docs)
    if total >= _LIMIT:
        raise ValueError("index too large for IVX4: 2**32 words or more")
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, "xb") as out:
            _write(index, total, out)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise


def _write(index: PositionalIndex, total: int, out) -> None:
    """The IVX4 bytes of ``index``, which holds ``total`` words, into ``out``."""
    header = _HEADER.pack(_MAGIC, len(index.docs), len(index.postings), total)
    crc = 0
    for chunk in chain([header], chain.from_iterable(map(_deflated, _streams(index)))):
        crc = zlib.crc32(chunk, crc)
        out.write(chunk)
    out.write(_U32.pack(crc))


def _streams(index: PositionalIndex):
    """The contents of each stream, in file order, as iterables of byte strings."""
    docs = index.docs
    paths = [doc.path.encode("utf-8") for doc in docs]
    word_counts = (doc.word_count for doc in docs)
    digests = b"".join(doc.digest for doc in docs)
    yield chain([digests], _planes(chain(word_counts, map(len, paths))))
    yield [b"".join(paths)]
    yield _planes(chain.from_iterable(map(sub, d.offsets, chain((0,), d.offsets)) for d in docs))
    terms = sorted(index.postings)
    names = [term.encode("utf-8") for term in terms]
    held = [index.postings[term] for term in terms]
    doc_counts = (len(postings.docs) for postings in held)
    sizes = (len(postings.positions) for postings in held)
    yield _planes(chain(map(len, names), doc_counts, sizes))
    yield [b"".join(names)]
    yield _planes(chain.from_iterable(map(sub, ids, chain((-1,), ids)) for ids, _, _ in held))
    yield _planes(_run_lengths(postings.starts for postings in held))
    yield _planes(chain.from_iterable(map(_position_gaps, held)))


def _plane_sizes(count: int):
    """The byte size of each plane of a stream of ``count`` u32s, in order."""
    for at in range(0, count, _BLOCK):
        yield from repeat(min(_BLOCK, count - at), 4)


def _unshuffled(planes):
    """Each block's u32s, from its four byte planes, as a read-only view.

    The next block's first plane is taken before a block is given out, so
    the checks at the end of the planes run before the last block is used.
    """
    low = next(planes, None)
    while low is not None:
        block = bytearray(4 * len(low))
        for k, plane in enumerate((low, next(planes), next(planes), next(planes))):
            block[3 - k if _SWAP else k :: 4] = plane
        low = next(planes, None)
        yield memoryview(block).cast(_TYPECODE)


class _Stream(NamedTuple):
    """One stream of an index file: where its frame starts, its deflated bytes, its name."""

    start: int
    packed: memoryview
    what: str

    def fail(self, message: str) -> IndexFormatError:
        return IndexFormatError(f"byte {self.start}: {message}")

    def inflate(self, size: int, pieces=None):
        """The stream's ``size`` bytes, in pieces of the sizes ``pieces`` gives, by default one.

        Each piece is inflated when it is asked for, from deflated bytes fed
        to zlib :data:`_CHUNK` at a time, and never past the stream's
        ``size``; the checks of the stream's end run once the last piece is
        taken.
        """
        what, held, packed = self.what, 0, self.packed
        chunks = (packed[at : at + _CHUNK] for at in range(0, len(packed), _CHUNK))
        inflater = zlib.decompressobj()

        def more(limit):
            """Up to ``limit`` more bytes; none at the end of the stream or its input."""
            while not inflater.eof:
                data = inflater.unconsumed_tail or next(chunks, None)
                if data is None:
                    break
                if found := inflater.decompress(data, limit):
                    return found
            return b""

        try:
            for piece_size in [size] if pieces is None else pieces:
                piece = b""
                while len(piece) < piece_size and (found := more(piece_size - len(piece))):
                    piece += found
                held += len(piece)
                if len(piece) < piece_size:
                    break
                yield piece
            else:
                held += len(more(1))  # a byte more shows a stream too long
        except zlib.error as exc:
            raise self.fail(f"the {what} stream does not inflate: {exc}") from None
        if held > size:
            raise self.fail(f"the {what} stream inflates past its {size} bytes")
        if not inflater.eof:
            raise self.fail(f"the {what} stream is cut short")
        if held < size:
            raise self.fail(f"the {what} stream holds {held} of its {size} bytes")
        if extra := len(inflater.unused_data) + sum(map(len, chunks)):
            raise self.fail(f"{extra} bytes follow the end of the {what} stream")

    def blocks(self, count: int):
        """The stream's ``count`` u32s, a block of :data:`_BLOCK` at a time."""
        return _unshuffled(self.inflate(4 * count, _plane_sizes(count)))

    def numbers(self, count: int) -> list[int]:
        """The stream's ``count`` u32s, as a list."""
        return list(chain.from_iterable(self.blocks(count)))

    def strings(self, sizes: list[int]) -> list[str]:
        """The stream's ``len(sizes)`` UTF-8 strings of the given byte sizes."""
        (raw,) = self.inflate(sum(sizes))
        stops = list(accumulate(sizes, initial=0))
        try:
            return list(map(bytes.decode, map(raw.__getitem__, map(slice, stops, stops[1:]))))
        except UnicodeDecodeError:
            raise self.fail(f"{self.what} not UTF-8") from None


class _Reader:
    """Bounds-checked reads from an index file's bytes, front to back."""

    def __init__(self, data: bytes):
        self.data = data
        self.at = 0
        self.end = len(data)

    def fail(self, message: str, at: int | None = None) -> IndexFormatError:
        return IndexFormatError(f"byte {self.at if at is None else at}: {message}")

    def take(self, size: int, what: str) -> int:
        """Start of the next ``size`` bytes, which hold ``what``."""
        start, self.at = self.at, self.at + size
        if self.at > self.end:
            raise self.fail(f"file ends inside the {what}", start)
        return start

    def seal(self) -> None:
        """Check the footer, the CRC-32 of every byte before it, and end reads there."""
        self.end -= _U32.size
        if self.end < self.at:
            raise self.fail("file ends inside the footer", self.at)
        (stored,) = _U32.unpack_from(self.data, self.end)
        found = zlib.crc32(memoryview(self.data)[: self.end])
        if found != stored:
            raise self.fail(
                f"footer says CRC-32 {stored:08x}, the bytes before it give {found:08x}", self.end
            )

    def streams(self) -> list[_Stream]:
        """Each stream, up to the footer."""
        streams = []
        for what in _STREAMS:
            start = self.take(_U32.size, f"{what} stream's length")
            (size,) = _U32.unpack_from(self.data, start)
            packed = memoryview(self.data)[self.take(size, f"{what} stream") : self.at]
            streams.append(_Stream(start, packed, what))
        if self.at < self.end:
            raise self.fail(f"{self.end - self.at} trailing bytes")
        return streams


def load_index(path) -> PositionalIndex:
    """Read an IVX4 file; :class:`IndexFormatError` if it is not a well-formed one.

    The file is read by :func:`read_source`, so a FIFO or a device is refused.
    """
    docs, terms, doc_counts, sizes, streams = _tables(read_source(path))
    return PositionalIndex(docs, _postings(docs, terms, doc_counts, sizes, *streams))


def _tables(data: bytes):
    """The documents, the terms, their counts and the three postings streams of a file."""
    read = _Reader(data)
    if data[:4] != _MAGIC:
        raise read.fail(f"not an IVX4 index file (it starts {data[:8]!r})")
    _, doc_count, term_count, total = _HEADER.unpack_from(data, read.take(_HEADER.size, "header"))
    read.seal()
    table, paths, offsets, term_table, names, *postings = read.streams()

    size = _DIGEST_SIZE * doc_count
    pieces = table.inflate(size + 8 * doc_count, chain([size], _plane_sizes(2 * doc_count)))
    raw = next(pieces)
    numbers = list(chain.from_iterable(_unshuffled(pieces)))
    word_counts, path_sizes = numbers[:doc_count], numbers[doc_count:]
    digests = [raw[k : k + _DIGEST_SIZE] for k in range(0, len(raw), _DIGEST_SIZE)]
    paths = paths.strings(path_sizes)
    if sum(word_counts) != total:
        raise read.fail(f"header says {total} words, documents hold {sum(word_counts)}", 12)

    numbers = term_table.numbers(3 * term_count)
    term_sizes = numbers[:term_count]
    doc_counts = numbers[term_count : 2 * term_count]
    sizes = numbers[2 * term_count :]
    # Each word of each document is one position of one term. Checked
    # before the offsets are decoded, so a file claiming more words than
    # its streams hold is refused before anything is sized from its counts.
    if sum(sizes) != total:
        raise read.fail(f"header says {total} words, term position counts sum to {sum(sizes)}", 12)
    if 0 in term_sizes:
        raise names.fail("empty term")
    terms = names.strings(term_sizes)
    if not all(map(lt, terms, islice(terms, 1, None))):
        later = next(b for a, b in zip(terms, terms[1:]) if a >= b)
        raise IndexFormatError(f"term {later!r}: duplicate or out of order")
    docs = list(map(DocInfo, paths, word_counts, digests, _offsets(offsets, word_counts)))
    return docs, terms, doc_counts, sizes, postings


def _zero_at(column: memoryview) -> int:
    """The index of the first 0 in a column of u32s, or -1.

    A 0 is four zero bytes at a multiple of 4: one C-level search finds
    it, plus one more for each run of four zero bytes across two numbers.
    """
    data = column.obj
    at = data.find(_ZERO)
    while at > 0 and at % 4:
        at = data.find(_ZERO, at + 1)
    return at if at < 0 else at // 4


def _postings(docs, terms, doc_counts, sizes, doc_gaps, counts, gaps):
    """Each term's :class:`TermPostings`, from the three postings streams.

    Each stream (doc-id gaps, run lengths, position gaps) is inflated a
    block at a time while the lists are built from it, so no column is
    ever held whole, and each check covers the whole column at once. A
    failed check inflates the stream again to name the term.
    """

    def column(stream, lengths, problem):
        """The stream's u32s as one iterator, term t holding ``lengths[t]``; a 0 is ``problem``.

        Each call inflates the stream anew, a block at a time.
        """

        def blocks():
            at = 0
            for block in stream.blocks(sum(lengths)):
                if (k := _zero_at(block)) >= 0:
                    term = terms[bisect_right(list(accumulate(lengths)), at + k)]
                    raise IndexFormatError(f"term {term!r}: {problem}")
                at += len(block)
                yield block

        return chain.from_iterable(blocks())

    if 0 in doc_counts:
        raise IndexFormatError(f"term {terms[doc_counts.index(0)]!r}: no documents")
    # Every int kept below is taken from one table, one object per number.
    # Its size is bounded by what the streams held: each document took 24
    # bytes of the document table, and every 16 of its words a sampled
    # offset; the term table's position counts sum to those words.
    word_counts = [doc.word_count for doc in docs]
    numbers = list(range(max(len(docs), max(sizes, default=0), max(word_counts, default=0)) + 1))
    # Doc ids and positions are sums of gaps counted from -1: these give s - 1
    # for a sum s, or IndexError past the last document or the table's end.
    doc_id = [-1, *numbers[: len(docs)]].__getitem__
    less_one = [-1, *numbers].__getitem__

    doc_gap_column = partial(column, doc_gaps, doc_counts, "document ids not strictly increasing")
    count_column = partial(column, counts, doc_counts, "a document with no positions")
    gap_column = partial(column, gaps, sizes, "positions not strictly increasing")
    try:
        ids = list(map(list, map(map, repeat(doc_id), _run_sums(doc_gap_column(), doc_counts))))
    except IndexError:
        sums = list(map(sum, _slices(doc_gap_column(), doc_counts)))
        t = next(t for t, found in enumerate(sums) if found > len(docs))
        raise IndexFormatError(f"term {terms[t]!r}: unknown document id {sums[t] - 1}") from None
    try:
        starts = map(partial(accumulate, initial=0), _slices(count_column(), doc_counts))
        starts = list(map(list, map(map, repeat(numbers.__getitem__), starts)))
        sums = [ends[-1] for ends in starts]
    except IndexError:  # a sum past the table is past its term's position count too
        sums = list(map(sum, _slices(count_column(), doc_counts)))
    if sums != sizes:
        t = next(t for t, (found, m) in enumerate(zip(sums, sizes)) if found != m)
        raise IndexFormatError(
            f"term {terms[t]!r}: position counts sum to {sums[t]}, term table says {sizes[t]}"
        )
    try:
        runs = _run_sums(gap_column(), _run_lengths(starts))  # one per (term, document)
        positions = map(chain.from_iterable, _slices(runs, doc_counts))
        positions = list(map(list, map(map, repeat(less_one), positions)))
    except IndexError:
        ends = map(sum, _slices(gap_column(), _run_lengths(starts)))
        raise _position_fault(terms, ids, map(sub, ends, repeat(1)), word_counts) from None

    def lasts():
        """Each run's last position, term after term."""
        return chain.from_iterable(
            map(held.__getitem__, map(less_one, islice(ends, 1, None)))
            for held, ends in zip(positions, starts)
        )

    if not all(map(lt, lasts(), map(word_counts.__getitem__, chain.from_iterable(ids)))):
        raise _position_fault(terms, ids, lasts(), word_counts)
    return dict(zip(terms, map(TermPostings, ids, starts, positions)))


def _run_lengths(starts):
    """Each run's length, term after term, from the terms' run starts."""
    return chain.from_iterable(map(sub, islice(ends, 1, None), ends) for ends in starts)


def _position_fault(terms, ids, lasts, word_counts) -> IndexFormatError:
    """The fault of the first term with a run whose last position is past its document's words."""
    for term, held in zip(terms, ids):
        if not all(map(lt, islice(lasts, len(held)), map(word_counts.__getitem__, held))):
            return IndexFormatError(f"term {term!r}: a position lies outside its document")
    raise AssertionError("every run ends inside its document")


def _offsets(stream: _Stream, word_counts: list[int]) -> list[array]:
    """Each document's sampled word offsets, from their stream."""
    sampled = [-(-n // OFFSET_STRIDE) + 1 for n in word_counts]
    bounds = list(accumulate(sampled, initial=0))
    gaps = stream.numbers(bounds[-1])
    firsts = bounds[:-1]
    zeros = gaps.count(0)  # only a document's first offset may equal the one before
    if zeros and zeros != list(map(gaps.__getitem__, firsts)).count(0):
        doc = next(d for d in range(len(firsts)) if 0 in gaps[bounds[d] + 1 : bounds[d + 1]])
        k = gaps.index(0, bounds[doc] + 1)
        if k + 1 == bounds[doc + 1]:
            problem = "a sampled word offset at or past its text's length"
        else:
            problem = "sampled word offsets not increasing"
        raise stream.fail(f"document {doc}: {problem}")
    return list(map(array, repeat("Q"), _run_sums(gaps, sampled)))


def document_words(index, doc_id: int, *, spans) -> list[list[str]]:
    """The words of a document in each half-open ``(start, stop)`` span, from its source.

    A span that ends past the document's word count raises
    :class:`ValueError` before the source is read. The file is read once
    and its digest, of its bytes with the indexed word count and sampled
    word offsets, checked before any word is split. On a match the words
    come from :func:`_window_words` alone, split only from the slices of
    the text between the certified offsets around each span.

    Raises :class:`StaleSourceError` if the file's bytes are no longer
    UTF-8, or its word count or digest differs from the indexed one, since
    positions would then point at the wrong words. On a digest mismatch
    the offsets are recomputed from the text as :func:`build_index` does;
    if the digest matches with those, the source is intact and the index's
    offsets record was edited: :class:`IndexFormatError`, naming the
    document. So a bad offset never shows wrong words.
    """
    doc = index.docs[doc_id]
    count = doc.word_count
    for start, stop in spans:
        if stop > count:
            raise ValueError(
                f"document {doc_id}: span ({start}, {stop}) ends past its {count} words"
            )
    data = read_source(doc.path)
    changed = source_digest(data, count, doc.offsets) != doc.digest
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StaleSourceError(
            f"stale source {doc.path!r}: byte {exc.start} is not UTF-8; re-index it"
        ) from None
    if not changed:
        return _window_words(text, count, doc.offsets, spans, f"document {doc_id}")
    found, offsets = _sampled_words(text)
    if len(found) != count:
        raise StaleSourceError(
            f"stale source {doc.path!r}: {len(found)} words, index has {count}; re-index it"
        )
    if source_digest(data, count, offsets) == doc.digest:
        raise IndexFormatError(
            f"document {doc_id}: sampled word offsets do not match its source {doc.path!r}"
        )
    raise StaleSourceError(f"stale source {doc.path!r}: its text has changed; re-index it")


def _window_words(text: str, count: int, offsets, spans, name="document") -> list[list[str]]:
    """Each span's words, split from between its enclosing sampled offsets.

    The spans end at or before word ``count``. The text is case-folded
    whole first when its folding changes its length, since the offsets
    index the folded text. A match of the digest certifies the offsets,
    the count and the text together, so each slice holds exactly its
    words; one that does not (a record whose digest was recomputed over
    inconsistent offsets or count) raises :class:`IndexFormatError`, naming
    ``name``.
    """
    if offsets[-1] != len(text):  # folding changes the length: offsets index the folded text
        text = text.casefold()
    found = []
    for start, stop in spans:
        first, last = start // OFFSET_STRIDE, -(-stop // OFFSET_STRIDE)
        split = words(text[offsets[first] : offsets[last]])
        skip = first * OFFSET_STRIDE
        if len(split) != min(last * OFFSET_STRIDE, count) - skip:
            raise IndexFormatError(
                f"{name}: its word count and sampled word offsets do not fit its text"
            )
        found.append(split[start - skip : stop - skip])
    return found


def read_source(path) -> bytes:
    """The bytes of a regular file, without a buffered file object; errors name ``path``.

    Every file minq reads comes through here: the index file, the sources
    of ``minq index`` and the sources of snippets. The file is opened
    without blocking, so a FIFO or a device is refused (:class:`ValueError`)
    instead of waiting for a writer or reading forever; a directory fails
    its read (:class:`IsADirectoryError`).
    """
    path = os.fspath(path)  # errors name a pathlib path as its string
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        info = os.fstat(fd)
        if not (stat.S_ISREG(info.st_mode) or stat.S_ISDIR(info.st_mode)):
            raise ValueError(f"{path!r}: not a regular file")
        data = os.read(fd, info.st_size + 1)  # all of it in one call, unless it changes
        if len(data) != info.st_size:  # a short read, or the file grew: read to the end
            data += b"".join(iter(partial(os.read, fd, 1 << 16), b""))
        return data
    except OSError as exc:  # os.read on a directory names no file, unlike open()
        exc.filename = path
        raise
    finally:
        os.close(fd)
