"""Command-line front end: build an index, query it.

    minq index <paths...> -o <indexfile>
    minq query <indexfile> "<query>" [--top N] [--snippets K] [--show-rho]

Query results go to stdout as tab-separated lines, one per matching
document in descending score order:

    <doc id> TAB <score> TAB <witness intervals>

followed, when requested, by indented snippet lines (interval, words) and
read-profile lines (output number, reads per input of the root operator).
Snippets and profiles are made only for the printed documents, so the
source files of other matches are never opened; a profile evaluates the
document once more, through :func:`minq.engine.evaluate_with_profile`. A
printed document's source is read back as
:func:`minq.index.document_words` describes: once, its digest (of its
bytes, word count and sampled word offsets) checked, and split only around
the snippet windows.

Exit status: 0 on success (matches or not), 1 on a query syntax error, 2 on
I/O or index-format trouble. The query is parsed before the index is read,
so a bad query exits 1 even when the index file is missing or malformed.
Exit 2 also covers a negative ``--top`` or ``--snippets`` (rejected before
evaluation, whether or not anything matches), an output path of ``minq
index`` that names a directory, whose parent is not a directory, or that
is one of the sources (the same file, through a link or not), or a source
path that cannot be encoded as UTF-8 (each refused before any source is
read), a source to index that cannot be read (missing, a directory,
or not a regular file: a FIFO or a device is refused without waiting on
it) or is not UTF-8 (its path and the offset of the first bad byte are
named), and a printed document whose source file is missing, not a
regular file, no longer UTF-8, or no longer matches its indexed word
count and digest. When the source's own word offsets give the recorded
digest, the index file's offsets record was edited, and the error is a
bad index file's. These errors print one ``minq: ...`` line on stderr; a
bad index file's line ends ``; re-index it``.

``minq index`` reads and decodes its sources one at a time as it builds
the index, so it holds one source text at a time; a bad source stops the
build before the output is opened, leaving an existing index as it was.
"""

import argparse
import os
import sys

from .engine import evaluate_with_profile, search
from .index import IndexFormatError, build_index, load_index, read_source, save_index
from .query import QuerySyntaxError, parse_query


def _decoded_source(path) -> tuple[str, str]:
    """``(path, text)`` of a UTF-8 source; the error names its first bad byte."""
    data = read_source(path)
    try:
        return path, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path!r}: byte {exc.start} is not UTF-8") from None


def _cmd_index(args) -> int:
    if os.path.isdir(args.output) or not os.path.basename(args.output):
        raise ValueError(f"{args.output!r} names a directory, not an index file")
    parent = os.path.dirname(args.output) or os.curdir
    if not os.path.isdir(parent):
        raise ValueError(f"{args.output!r}: {parent!r} is not a directory")
    for path in args.paths:
        try:
            path.encode("utf-8")  # the index stores paths as UTF-8
        except UnicodeEncodeError:
            raise ValueError(f"{path!r}: path cannot be encoded as UTF-8") from None
    try:
        output = os.stat(args.output)
    except OSError:
        output = None  # nothing there to overwrite
    if output is not None:
        for path in args.paths:
            try:
                source = os.stat(path)
            except OSError:
                continue  # read_source names it
            if os.path.samestat(source, output):  # a link to the source counts too
                raise ValueError(f"{args.output!r} is the source file {path!r}, not an index file")
    index = build_index(map(_decoded_source, args.paths))  # one text held at a time
    save_index(index, args.output)
    print(
        f"indexed {index.doc_count()} documents, "
        f"{len(index.postings)} terms -> {args.output!r}"
    )
    return 0


def _cmd_query(args) -> int:
    ast = parse_query(args.query)
    index = load_index(args.indexfile)
    results = search(index, ast, top=args.top, snippet_count=args.snippets)
    out = sys.stdout
    for result in results:
        witnesses = " ".join(repr(iv) for iv in result.witnesses)
        out.write(f"{result.doc_id}\t{result.score:.4f}\t{witnesses}\n")
        for window, words in result.snippets:
            out.write(f"\t{window!r}\t{' '.join(words)}\n")
        if args.show_rho:
            _, profile = evaluate_with_profile(ast, index, result.doc_id)
            for p, row in enumerate(profile.rho, start=1):
                counts = " ".join(str(r) for r in row)
                out.write(f"\trho\t{p}\t{counts}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="minq", description="Minimal-interval proximity search."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    index_cmd = commands.add_parser("index", help="index plain-text files")
    index_cmd.add_argument("paths", nargs="+", help="one document per file")
    index_cmd.add_argument("-o", "--output", required=True, help="index file to write")

    query_cmd = commands.add_parser("query", help="run a query against an index")
    query_cmd.add_argument("indexfile")
    query_cmd.add_argument("query")
    query_cmd.add_argument("--top", type=int, default=None, help="keep best N documents")
    query_cmd.add_argument(
        "--snippets", type=int, default=0, metavar="K", help="extract up to K snippets"
    )
    query_cmd.add_argument(
        "--show-rho",
        action="store_true",
        help="print per-output read counts of the root operator",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "index":
            return _cmd_index(args)
        return _cmd_query(args)
    except QuerySyntaxError as exc:
        print(f"minq: query error: {exc}", file=sys.stderr)
        return 1
    except IndexFormatError as exc:
        print(f"minq: bad index file: {exc}; re-index it", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"minq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
