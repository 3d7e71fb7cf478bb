"""Positional inverted index, in memory and on disk as per-term columns.

Documents are plain text; tokenization case-folds the text and splits it on
any run of non-alphanumeric characters, numbering words from 0 (:func:`words`
is the one splitter, also used for query words and phrases and snippets).

In memory each term has one :class:`TermPostings` of three parts. Its
``positions`` list holds the term's document-local positions, document
after document. Its ``starts`` list holds where each document's run
begins, plus the list's length at the end. Its ``entries`` dict maps each
document holding the term, in increasing order, to the number ``e`` of its
run, which is ``positions[starts[e]:starts[e + 1]]``. Only this module
reads that layout: :func:`run` (a query leaf's pairs) and
:meth:`PositionalIndex.positions` (a list) look a run up, one dict get
and one list slice, both done in C (``e = -1`` for a document without the
term gives the empty slice ``positions[len:0]``), and
:meth:`PositionalIndex.run_lengths` measures runs without slicing them.
Built and loaded indexes share this layout, plus a document table of
source path, word count, content digest and sampled word offsets (see
below). Both hold one int object per number: document ids, run numbers
and positions (and, once loaded, run starts) come from one table,
``numbers[k] == k``. By :func:`sys.getsizeof` over its dicts, lists,
tuples and ints (64-bit CPython 3.11), that took the loaded search-short
benchmark index from 69.3 MB to 42.7 MB and search-long's from 29.6 MB
to 17.1 MB. Once built (or loaded) an index is never mutated by queries,
so it can be shared freely across threads. Building, saving and loading
pause the cyclic garbage collector, which is process-wide, and restore
the state they found; other threads meanwhile run without cyclic
collection. The pause is safe because an index holds no reference
cycles, and it pays: otherwise collections triggered by set-up's
allocations walk every object already built.

On disk the index is IVX3, a binary file. Every number is an unsigned
little-endian integer; ``u32[n]`` is a column of n four-byte ones:

    header      b"IVX3", u32 doc count D, u32 term count T, u32 total words
    doc table   u32[D] word counts, u32[D] path byte lengths,
                D 16-byte digests, the D paths (UTF-8, concatenated)
    offsets     u8 column width, then per document its sampled word
                offsets and its folded text's length, as gaps
    term table  u32[T] term byte lengths, u32[T] document counts,
                u32[T] position counts, three u8[T] column widths,
                the T terms (UTF-8, sorted, concatenated)
    postings    per term, in term order: its doc-id gaps, its position
                count per document, its position gaps

Positions are numbered per document, from 0. A gap is the difference from
the previous value, so every gap is at least 1: a term's first doc-id gap
is counted from -1, and the first position gap of each of its documents
from -1 too. A document's sampled offsets are the starts of its words 0,
K, 2K, ... (K = :data:`OFFSET_STRIDE`) in its case-folded text, followed
by that text's length; there are ``ceil(n / K) + 1`` of them for a
document of n words, and its first gap is counted from 0. Each of a
term's three columns, and the offsets column, takes the narrowest width
of 1, 2 or 4 bytes that holds its largest value, as the matching width
says. The digest is a 16-byte BLAKE2b of the document's text encoded as
UTF-8 (for ``minq index``, the source file's bytes) followed by its
sampled offsets as u64s, personalised with its word count as 16 bytes
(all little-endian), so a match certifies the text, the count and the
offsets at once. Files in an earlier format (IVX1 text, IVX2) fail to load
at their first bytes.

Loading checks every column with C-level passes, so any file it accepts
is a well-formed index, and it does Python-level work per term, not per
document of a term. Its table of ints is sized from counts the file has
been checked to hold, and a header word total above the file's length is
refused, so the table stays proportional to the file. A save writes each
term's columns as it packs them and replaces the file whole (temporary
file, then rename), so a reader never sees a partial index and a failed
save leaves the old one in place. The file is not fsynced: a power loss
just after a save can still lose it.

Snippets read a document's words back from its source
(:func:`document_words`). The source is read once, its digest checked,
and only the slices of its text around the snippets split, found through
the sampled word offsets that the digest certifies. One that is missing
raises :class:`OSError`, and one that is not a regular file
:class:`ValueError`, without blocking; one that is no longer UTF-8, or
whose word count or digest no longer matches the index, raises
:class:`StaleSourceError`, unless the offsets recomputed from its text
give the recorded digest: then the index's offsets record was edited,
and :class:`IndexFormatError` names the document. ``minq index`` reads
its sources through the same reader (:func:`read_source`).
"""

import contextlib
import gc
import hashlib
import os
import re
import stat
import struct
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
from operator import add, lt, mul, setitem, sub
from typing import NamedTuple

_WORD = re.compile(r"[^\W_]+")
_SPLIT = re.compile(f"({_WORD.pattern})")  # separators and words, alternating

OFFSET_STRIDE = 16  # a document keeps the start of every 16th word

_HEADER = struct.Struct("<4sIII")
_MAGIC = b"IVX3"
_DIGEST_SIZE = 16
_LIMIT = 1 << 32  # every stored number is below this
_TYPECODES = {1: "B", 2: "H", 4: "I" if array("I").itemsize == 4 else "L"}
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

    entries: dict[int, int]
    starts: list[int]
    positions: list[int]


_ABSENT = TermPostings({}, [0], [])


def run(postings: TermPostings, doc_id: int):
    """The term's positions in the document as ``(p, p)`` pairs; empty if absent.

    A query plan binds ``postings`` once per query, so a leaf costs one
    Python call per document. The run is read as stored, unchecked: the
    loader checks every run's order, and :func:`build_index` writes them
    in order.
    """
    entries, starts, positions = postings
    e = entries.get(doc_id, -1)
    found = positions[starts[e] : starts[e + 1]]
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
        entries, starts, positions = self.term_postings(term)
        e = entries.get(doc_id, -1)
        return positions[starts[e] : starts[e + 1]]

    def run_lengths(self, term: str, docs: list[int]) -> list[int]:
        """Per document of ``docs``, the term's number of positions there."""
        entries, starts, _ = self.term_postings(term)
        runs = map(entries.get, docs, repeat(-1))
        return [starts[e + 1] - starts[e] if e >= 0 else 0 for e in runs]

    def term_docs(self, term: str) -> set[int]:
        return set(self.term_postings(term).entries)

    def __eq__(self, other):
        return (
            isinstance(other, PositionalIndex)
            and self.docs == other.docs
            and self.postings == other.postings
        )


@contextlib.contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off, then restore the state found.

    Why this is safe and pays is in the module docstring.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def build_index(documents) -> PositionalIndex:
    """Index an iterable of (path, text) pairs in order."""
    docs, postings = [], {}
    numbers = []  # numbers[k] == k: document ids, run numbers and positions share these ints
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
                held = postings[term] = TermPostings({}, [0], [])
            entries, starts, positions = held
            entries[doc_id] = numbers[len(entries)]
            positions += found
            starts.append(len(positions))
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


def _run_sums(steps: list[int], lengths):
    """Running sums of ``steps`` that start over at each run, one iterator per run.

    Run e is the next ``lengths[e]`` steps, so a run of gaps gives the
    values it encodes; all of it runs in C.
    """
    return map(accumulate, map(islice, repeat(iter(steps)), lengths))


def _u32s(values) -> bytes:
    column = array(_TYPECODES[4], values)
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _packed(values: list[int]) -> tuple[int, bytes]:
    """(width, bytes): ``values`` little-endian in the narrowest width that holds them."""
    raw = _u32s(values)
    if raw[2::4].strip(b"\0") or raw[3::4].strip(b"\0"):
        return 4, raw
    if raw[1::4].strip(b"\0"):
        return 2, memoryview(raw).cast("H")[::2].tobytes()
    return 1, raw[::4]


def _term_columns(postings: TermPostings):
    """One term's three packed columns."""
    entries, starts, positions = postings
    docs = list(entries)
    before = [-1, *positions]
    deque(map(setitem, repeat(before), starts[:-1], repeat(-1)), maxlen=0)  # runs count from -1
    gaps = list(map(sub, positions, before))
    return (
        _packed(list(map(sub, docs, chain((-1,), docs)))),
        _packed(list(map(sub, islice(starts, 1, None), starts))),
        _packed(gaps),
    )


@_collector_paused()
def save_index(index: PositionalIndex, path) -> None:
    """Write ``index`` to ``path``, replacing it whole or leaving it as it was.

    Only the size check runs before the file is opened. The index is
    written under a temporary name in the same directory, each term's
    columns as soon as they are packed, and renamed into place; the
    column widths, known only then, are patched in last. Raises
    :class:`ValueError` for an index of 2**32 or more words, which IVX3
    cannot count.
    """
    total = sum(doc.word_count for doc in index.docs)
    if total >= _LIMIT:
        raise ValueError("index too large for IVX3: 2**32 words or more")
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
    """The IVX3 bytes of ``index``, which holds ``total`` words, into ``out``."""
    docs = index.docs
    paths = [doc.path.encode("utf-8") for doc in docs]
    offset_gaps = []
    for doc in docs:
        offset_gaps += map(sub, doc.offsets, chain((0,), doc.offsets))
    offset_width, offsets = _packed(offset_gaps)
    terms = sorted(index.postings)
    names = [term.encode("utf-8") for term in terms]
    held = [index.postings[term] for term in terms]
    out.writelines([
        _HEADER.pack(_MAGIC, len(docs), len(terms), total),
        _u32s(doc.word_count for doc in docs),
        _u32s(map(len, paths)),
        *(doc.digest for doc in docs),
        *paths,
        bytes([offset_width]),
        offsets,
        _u32s(map(len, names)),
        _u32s(len(postings.entries) for postings in held),
        _u32s(len(postings.positions) for postings in held),
    ])
    widths_at = out.tell()
    out.write(bytes(3 * len(terms)))  # patched below, once every column is packed
    out.writelines(names)
    widths = [bytearray(), bytearray(), bytearray()]
    for postings in held:
        for column_widths, (width, packed) in zip(widths, _term_columns(postings)):
            column_widths.append(width)
            out.write(packed)
    out.seek(widths_at)
    out.writelines(widths)


def _column(data: bytes, start: int, count: int, width: int) -> list[int]:
    if width == 1:
        return list(data[start : start + count])
    column = array(_TYPECODES[width], data[start : start + count * width])
    if _SWAP:
        column.byteswap()
    return column.tolist()


class _Reader:
    """Bounds-checked reads from an index file's bytes, front to back."""

    def __init__(self, data: bytes):
        self.data = data
        self.at = 0

    def fail(self, message: str, at: int | None = None) -> IndexFormatError:
        return IndexFormatError(f"byte {self.at if at is None else at}: {message}")

    def take(self, size: int, what: str) -> int:
        """Start of the next ``size`` bytes, which hold ``what``."""
        start, self.at = self.at, self.at + size
        if self.at > len(self.data):
            raise self.fail(f"file ends inside the {what}", start)
        return start

    def column(self, count: int, width: int, what: str) -> list[int]:
        return _column(self.data, self.take(count * width, what), count, width)

    def pieces(self, sizes: list[int], what: str) -> list[bytes]:
        """``len(sizes)`` consecutive byte strings of the given sizes."""
        stops = list(accumulate(sizes, initial=self.take(sum(sizes), what)))
        return list(map(self.data.__getitem__, map(slice, stops, islice(stops, 1, None))))

    def strings(self, sizes: list[int], what: str) -> list[str]:
        start = self.at
        try:
            return list(map(bytes.decode, self.pieces(sizes, what)))
        except UnicodeDecodeError:
            raise self.fail(f"{what} not UTF-8", start) from None


@_collector_paused()
def load_index(path) -> PositionalIndex:
    """Read an IVX3 file; :class:`IndexFormatError` if it is not a well-formed one."""
    with open(path, "rb") as src:
        data = src.read()
    read = _Reader(data)
    if data[:4] != _MAGIC:
        raise read.fail(f"not an IVX3 index file (it starts {data[:8]!r})")
    _, doc_count, term_count, total = _HEADER.unpack_from(data, read.take(_HEADER.size, "header"))
    word_counts = read.column(doc_count, 4, "document word counts")
    path_sizes = read.column(doc_count, 4, "document path lengths")
    digests = read.pieces([_DIGEST_SIZE] * doc_count, "document digests")
    paths = read.strings(path_sizes, "document paths")
    if sum(word_counts) != total:
        raise read.fail(f"header says {total} words, documents hold {sum(word_counts)}", 12)
    if total > len(data):  # save_index stores every word as a position of a byte or more
        raise read.fail(f"header says {total} words, more than the file's {len(data)} bytes", 12)
    offsets = _offsets(read, word_counts)
    docs = list(map(DocInfo, paths, word_counts, digests, offsets))

    term_sizes = read.column(term_count, 4, "term lengths")
    doc_counts = read.column(term_count, 4, "term document counts")
    sizes = read.column(term_count, 4, "term position counts")
    widths = [read.column(term_count, 1, "column widths") for _ in range(3)]
    if not set(chain.from_iterable(widths)) <= _TYPECODES.keys():
        raise read.fail("column width not 1, 2 or 4", read.at - 3 * term_count)
    if 0 in term_sizes:
        raise read.fail("empty term", read.at)
    terms = read.strings(term_sizes, "terms")
    if not all(map(lt, terms, islice(terms, 1, None))):
        later = next(b for a, b in zip(terms, terms[1:]) if a >= b)
        raise IndexFormatError(f"term {later!r}: duplicate or out of order")
    at = read.at
    end = at + sum(map(mul, doc_counts, map(add, *widths[:2]))) + sum(map(mul, sizes, widths[2]))
    if end > len(data):
        raise read.fail("file ends inside the postings", len(data))
    if end < len(data):
        raise read.fail(f"{len(data) - end} trailing bytes", end)

    # Every int kept below is taken from one table, one object per number.
    # Its size is bounded by the file's: each document took 24 bytes or
    # more, each of a term's sizes[t] positions a byte or more, and the
    # word total is at most the file's length.
    numbers = list(range(max(doc_count, max(sizes, default=0), max(word_counts, default=0)) + 1))
    number = numbers.__getitem__
    # Doc ids and positions are sums of gaps counted from -1: these give s - 1
    # for a sum s, or IndexError past the last document or every document's words.
    doc_id = [-1, *numbers[:doc_count]].__getitem__
    less_one = [-1, *numbers].__getitem__
    postings = {}
    for term, n, m, dw, cw, pw in zip(terms, doc_counts, sizes, *widths):
        doc_gaps = _column(data, at, n, dw)
        at += n * dw
        counts = _column(data, at, n, cw)
        at += n * cw
        gaps = _column(data, at, m, pw)
        at += m * pw
        if not n or 0 in doc_gaps or 0 in counts or 0 in gaps or sum(counts) != m:
            raise _fault(term, n, doc_gaps, counts, gaps, m)
        try:
            doc_ids = list(map(doc_id, accumulate(doc_gaps)))
        except IndexError:
            last = sum(doc_gaps) - 1
            raise IndexFormatError(f"term {term!r}: unknown document id {last}") from None
        starts = list(map(number, accumulate(counts, initial=0)))
        sums = chain((0,), chain.from_iterable(_run_sums(gaps, counts)))  # 0 gives a leading -1
        try:
            positions = list(map(less_one, sums))  # positions[k + 1] is the k-th
            lasts = map(positions.__getitem__, islice(starts, 1, None))
            inside = all(map(lt, lasts, map(word_counts.__getitem__, doc_ids)))
        except IndexError:
            inside = False
        if not inside:
            raise IndexFormatError(f"term {term!r}: a position lies outside its document")
        del positions[0]
        postings[term] = TermPostings(dict(zip(doc_ids, numbers)), starts, positions)
    return PositionalIndex(docs, postings)


def _offsets(read: _Reader, word_counts: list[int]) -> list[array]:
    """Each document's sampled word offsets, from the column after the doc table."""
    (width,) = read.column(1, 1, "offset column width")
    if width not in _TYPECODES:
        raise read.fail("offset column width not 1, 2 or 4", read.at - 1)
    sampled = [-(-n // OFFSET_STRIDE) + 1 for n in word_counts]
    bounds = list(accumulate(sampled, initial=0))
    at = read.at
    gaps = read.column(bounds[-1], width, "sampled word offsets")
    firsts = bounds[:-1]
    zeros = gaps.count(0)  # only a document's first offset may equal the one before
    if zeros and zeros != list(map(gaps.__getitem__, firsts)).count(0):
        doc = next(d for d in range(len(firsts)) if 0 in gaps[bounds[d] + 1 : bounds[d + 1]])
        k = gaps.index(0, bounds[doc] + 1)
        if k + 1 == bounds[doc + 1]:
            problem = "a sampled word offset at or past its text's length"
        else:
            problem = "sampled word offsets not increasing"
        raise read.fail(f"document {doc}: {problem}", at + k * width)
    return list(map(array, repeat("Q"), _run_sums(gaps, sampled)))


def _fault(term, n, doc_gaps, counts, gaps, m) -> IndexFormatError:
    """The error for a term that failed the checks on its columns alone."""
    if not n:
        problem = "no documents"
    elif 0 in doc_gaps:
        problem = "document ids not strictly increasing"
    elif 0 in counts:
        problem = "a document with no positions"
    elif 0 in gaps:
        problem = "positions not strictly increasing"
    else:
        problem = f"position counts sum to {sum(counts)}, term table says {m}"
    return IndexFormatError(f"term {term!r}: {problem}")


def document_words(index, doc_id: int, *, spans) -> list[list[str]]:
    """The words of a document in each half-open ``(start, stop)`` span, from its source.

    The file is read once and its digest, of its bytes with the indexed
    word count and sampled word offsets, checked before any word is split.
    On a match the offsets are certified, and each span's words are split
    only from the slice of the text between the offsets around it; the
    text is case-folded whole first when its folding changes its length,
    since the offsets index the folded text. A span past the word count,
    or a slice that does not hold the expected number of words, voids them
    (only a record whose digest was recomputed by hand gets there): the
    whole text is then split and its word count checked, as it is on a
    digest mismatch, so a source with fewer words than a span needs never
    yields a short list.

    Raises :class:`StaleSourceError` if the file's bytes are no longer
    UTF-8, or its word count or digest differs from the indexed one, since
    positions would then point at the wrong words. On a digest mismatch
    the offsets are recomputed from the text as :func:`build_index` does;
    if the digest matches with those, the source is intact and the index's
    offsets record was edited: :class:`IndexFormatError`, naming the
    document. So a bad offset never shows wrong words.
    """
    doc = index.docs[doc_id]
    data = read_source(doc.path)
    count = doc.word_count
    changed = source_digest(data, count, doc.offsets) != doc.digest
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StaleSourceError(
            f"stale source {doc.path}: byte {exc.start} is not UTF-8; re-index it"
        ) from None
    if not changed:
        found = _window_words(text, count, doc.offsets, spans)
        if found is not None:
            return found
    found, offsets = _sampled_words(text)
    if len(found) != count:
        raise StaleSourceError(
            f"stale source {doc.path}: {len(found)} words, index has {count}; re-index it"
        )
    if changed:
        if source_digest(data, count, offsets) == doc.digest:
            raise IndexFormatError(
                f"document {doc_id}: sampled word offsets do not match its source {doc.path}"
            )
        raise StaleSourceError(f"stale source {doc.path}: its text has changed; re-index it")
    return [found[start:stop] for start, stop in spans]


def _window_words(text: str, count: int, offsets, spans) -> list[list[str]] | None:
    """Each span's words, split from between its enclosing sampled offsets.

    The digest certifies the offsets, so a slice holds exactly its words.
    None if a span ends past word ``count`` or a slice holds a wrong number
    of words, which only a record whose digest was recomputed by hand can.
    """
    if offsets[-1] != len(text):  # folding changes the length: offsets index the folded text
        text = text.casefold()
    found = []
    for start, stop in spans:
        if stop > count:
            return None
        first, last = start // OFFSET_STRIDE, -(-stop // OFFSET_STRIDE)
        split = words(text[offsets[first] : offsets[last]])
        skip = first * OFFSET_STRIDE
        if len(split) != min(last * OFFSET_STRIDE, count) - skip:
            return None
        found.append(split[start - skip : stop - skip])
    return found


def read_source(path) -> bytes:
    """The bytes of a regular file, without a buffered file object; errors name ``path``.

    The file is opened without blocking, so a FIFO or a device is refused
    (:class:`ValueError`) instead of waiting for a writer or reading
    forever; a directory fails its read (:class:`IsADirectoryError`).
    """
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
