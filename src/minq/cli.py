"""Command-line front end: build an index, query it.

    minq index <paths...> -o <indexfile>
    minq query <indexfile> "<query>" [--top N] [--snippets K] [--show-rho]

Query results go to stdout as tab-separated lines, one per matching
document in descending score order:

    <doc id> TAB <score> TAB <witness intervals>

followed, when requested, by indented snippet lines (interval, words) and
read-profile lines (output number, reads per input of the root operator).
Snippets are extracted only for the printed documents; the source files of
other matches are never opened.

Exit status: 0 on success (matches or not), 1 on a query syntax error, 2 on
I/O or index-format trouble. Exit 2 also covers a negative ``--top`` or
``--snippets`` (rejected before evaluation, whether or not anything
matches) and a printed document whose source file is missing or no longer
matches its indexed word count. These errors print one ``minq: ...`` line
on stderr.
"""

import argparse
import sys

from .engine import search
from .index import IndexFormatError, build_index, load_index, save_index
from .query import QuerySyntaxError, parse_query


def _cmd_index(args) -> int:
    documents = []
    for path in args.paths:
        with open(path, "r", encoding="utf-8") as src:
            documents.append((path, src.read()))
    index = build_index(documents)
    save_index(index, args.output)
    print(
        f"indexed {index.doc_count()} documents, "
        f"{len(index.postings)} terms -> {args.output!r}"
    )
    return 0


def _cmd_query(args) -> int:
    index = load_index(args.indexfile)
    ast = parse_query(args.query)
    results = search(
        index,
        ast,
        top=args.top,
        snippet_count=args.snippets,
        with_profile=args.show_rho,
    )
    out = sys.stdout
    for result in results:
        witnesses = " ".join(repr(iv) for iv in result.witnesses)
        out.write(f"{result.doc_id}\t{result.score:.4f}\t{witnesses}\n")
        for window, words in result.snippets:
            out.write(f"\t{window!r}\t{' '.join(words)}\n")
        if result.profile is not None:
            for p, row in enumerate(result.profile.rho, start=1):
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
        print(f"minq: bad index file: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"minq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
