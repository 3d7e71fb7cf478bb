"""Positional inverted index with a line-oriented text persistence format.

Documents are plain text; tokenization case-folds the text and splits it on
any run of non-alphanumeric characters, numbering words from 0 (:func:`words`
is the one splitter, also used for query words and phrases and snippets). The index maps
each term to per-document strictly increasing position lists, plus a
document table of source path and word count. Once built (or loaded) an
index is never mutated by queries, so it can be shared freely across
threads. Building and loading pause the cyclic garbage collector, which is
process-wide, and restore the state they found; other threads meanwhile
run without cyclic collection. The pause is safe because an index holds
no reference cycles, and it pays: otherwise collections triggered by
set-up's allocations walk every list already built.

The on-disk format is diffable text, fixed so golden files stay bit-exact:

    IVX1 <doc count>
    D <doc id> <word count> <path>
    ...
    T <term>
    P <doc id> <pos> <pos> ...
    ...

Terms are sorted, and posting lines within a term come in document order.
A save replaces the file whole (temporary file, then rename), so a reader
never sees a partial index and a failed save leaves the old one in place.
The file is not fsynced: a power loss just after a save can still lose it.
"""

import contextlib
import gc
import os
import re
from dataclasses import dataclass
from itertools import chain, count, islice
from operator import lt

_WORD = re.compile(r"[^\W_]+")

_MAGIC = "IVX1"

# load_index splits the text it has read into blocks of whole lines of about
# this many characters, so only one block's line strings are alive at once.
_BLOCK_CHARS = 1 << 20


class IndexFormatError(ValueError):
    """An index file failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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


@dataclass
class DocInfo:
    path: str
    word_count: int


class PositionalIndex:
    def __init__(self):
        self.docs: list[DocInfo] = []
        self.postings: dict[str, dict[int, list[int]]] = {}

    def add_document(self, path: str, text: str) -> int:
        doc_id = len(self.docs)
        terms = words(text)
        self.docs.append(DocInfo(path=path, word_count=len(terms)))
        grouped = {}
        for pos, term in enumerate(terms):
            grouped.setdefault(term, []).append(pos)
        postings = self.postings
        for term, positions in grouped.items():
            postings.setdefault(term, {})[doc_id] = positions
        return doc_id

    def doc_count(self) -> int:
        return len(self.docs)

    def word_count(self, doc_id: int) -> int:
        return self.docs[doc_id].word_count

    def term_postings(self, term: str) -> dict[int, list[int]]:
        """Document id -> positions of term; empty when absent. Read only."""
        return self.postings.get(term, {})

    def positions(self, term: str, doc_id: int) -> list[int]:
        """Positions of term in document; empty when absent."""
        return self.term_postings(term).get(doc_id, [])

    def term_docs(self, term: str) -> set[int]:
        return set(self.term_postings(term))

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
    index = PositionalIndex()
    for path, text in documents:
        index.add_document(path, text)
    return index


def save_index(index: PositionalIndex, path) -> None:
    r"""Write ``index`` to ``path``, replacing it whole or leaving it as it was.

    The file is written under a temporary name in the same directory and
    renamed into place. A document path that :meth:`str.splitlines` would
    break (``\n``, ``\r``, ``\x85``, ``\u2028``, ...) cannot be stored in
    its one-line ``D`` record, so it raises :class:`ValueError` before
    anything is written.
    """
    for doc in index.docs:
        if doc.path.splitlines() not in ([], [doc.path]):
            raise ValueError(f"document path {doc.path!r} contains a line break")
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as out:
            out.write(f"{_MAGIC} {index.doc_count()}\n")
            for doc_id, doc in enumerate(index.docs):
                out.write(f"D {doc_id} {doc.word_count} {doc.path}\n")
            for term in sorted(index.postings):
                out.write(f"T {term}\n")
                docs = index.postings[term]
                for doc_id in sorted(docs):
                    positions = " ".join(str(p) for p in docs[doc_id])
                    out.write(f"P {doc_id} {positions}\n")
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise


def _line_blocks(text):
    """``text.splitlines()``, one block of whole lines at a time.

    Each block but the last ends just after a ``\n``, which ends a line
    whatever precedes it, so the blocks' lines are exactly the text's.
    """
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _BLOCK_CHARS - 1)
        cut = end if cut < 0 else cut + 1
        yield text[start:cut].splitlines()
        start = cut


@_collector_paused()
def load_index(path) -> PositionalIndex:
    index = PositionalIndex()
    with open(path, "r", encoding="utf-8") as src:
        blocks = _line_blocks(src.read())
    lines = next(blocks, [])
    if not lines:
        raise IndexFormatError(1, "missing header")
    header = lines[0].split()
    if len(header) != 2 or header[0] != _MAGIC:
        raise IndexFormatError(1, f"bad header {lines[0]!r}")
    try:
        doc_count = int(header[1])
    except ValueError:
        raise IndexFormatError(1, f"bad document count {header[1]!r}") from None
    if doc_count < 0:
        raise IndexFormatError(1, f"negative document count {doc_count}")
    records = chain.from_iterable(chain([islice(lines, 1, None)], blocks))
    del lines  # the first block goes once its records are read
    docs, postings = index.docs, index.postings
    term_docs = None  # the current term's postings, None before the first T
    number = 1
    for number, line in enumerate(records, start=2):
        kind, _, rest = line.partition(" ")
        if kind == "P":
            if term_docs is None:
                raise IndexFormatError(number, "postings before any term")
            try:
                values = list(map(int, rest.split()))
            except ValueError:
                raise IndexFormatError(number, f"bad posting fields {rest!r}") from None
            if len(values) < 2:
                raise IndexFormatError(number, "posting line needs doc id and positions")
            doc_id, positions = values[0], values[1:]
            if not 0 <= doc_id < len(docs):
                raise IndexFormatError(number, f"unknown document id {doc_id}")
            if doc_id in term_docs:
                raise IndexFormatError(number, f"duplicate postings for doc {doc_id}")
            limit = docs[doc_id].word_count
            if not (
                positions[0] >= 0
                and positions[-1] < limit
                and all(map(lt, positions, positions[1:]))
            ):
                # Rescan to name the first fault in line order.
                for prev, cur in zip([-1] + positions, positions):
                    if cur <= prev:
                        raise IndexFormatError(number, "positions not strictly increasing")
                    if cur >= limit:
                        raise IndexFormatError(number, f"position {cur} beyond word count {limit}")
            term_docs[doc_id] = positions
        elif kind == "T":
            if not rest:
                raise IndexFormatError(number, "empty term")
            if rest in postings:
                raise IndexFormatError(number, f"duplicate term {rest!r}")
            term_docs = postings[rest] = {}
        elif kind == "D":
            fields = rest.split(" ", 2)
            if len(fields) != 3:
                raise IndexFormatError(number, "document line needs id, count, path")
            try:
                doc_id, word_count = int(fields[0]), int(fields[1])
            except ValueError:
                raise IndexFormatError(number, f"bad document fields {rest!r}") from None
            if doc_id != len(docs):
                raise IndexFormatError(number, f"document id {doc_id} out of order")
            if word_count < 0:
                raise IndexFormatError(number, f"negative word count {word_count}")
            docs.append(DocInfo(path=fields[2], word_count=word_count))
        else:
            raise IndexFormatError(number, f"unknown record {line!r}")
    if len(index.docs) != doc_count:
        raise IndexFormatError(
            number, f"header promised {doc_count} documents, found {len(index.docs)}"
        )
    return index
