import copy
import gc
import io
import itertools
import pickle
import random
import re
import subprocess
import sys
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minq import (
    And,
    Block,
    CountingStream,
    Interval,
    LowPass,
    Minus,
    Or,
    OrderedAnd,
    QuerySyntaxError,
    StaleSourceError,
    Term,
    and_span,
    block,
    build_index,
    candidate_docs,
    cli,
    compile_query,
    difference,
    evaluate,
    evaluate_with_profile,
    load_index,
    lowpass,
    materialize,
    or_merge,
    oracle_and,
    oracle_block,
    oracle_difference,
    oracle_lowpass,
    oracle_or,
    oracle_ordered_and,
    ordered_and,
    parse_query,
    rank,
    save_index,
    search,
    snippets,
)

import minq.engine as engine
import minq.index as index_module
from helpers import (
    RHYME_ANTICHAIN,
    CountedIterator,
    check_all_empty,
    check_any_empty,
    check_minuend_empty,
    singletons,
    star_compose,
)
from minq.index import DocInfo, IndexFormatError, source_digest, words
from minq.query import MAX_DEPTH

iv = lambda l, r: Interval(l, r)

RHYME = Path(__file__).parent / "data" / "rhyme.txt"


@pytest.fixture(scope="module")
def rhyme_index():
    return build_index([(str(RHYME), RHYME.read_text())])


def oracle_eval(ast, index, doc_id):
    """Bottom-up composition of the reference semantics."""
    if isinstance(ast, Term):
        return singletons(index.positions(ast.term, doc_id))
    if isinstance(ast, Or):
        return oracle_or([oracle_eval(c, index, doc_id) for c in ast.children])
    if isinstance(ast, And):
        return oracle_and([oracle_eval(c, index, doc_id) for c in ast.children])
    if isinstance(ast, Block):
        return oracle_block([oracle_eval(c, index, doc_id) for c in ast.children])
    if isinstance(ast, OrderedAnd):
        return oracle_ordered_and(
            [oracle_eval(c, index, doc_id) for c in ast.children]
        )
    if isinstance(ast, LowPass):
        return oracle_lowpass(oracle_eval(ast.child, index, doc_id), ast.k)
    if isinstance(ast, Minus):
        return oracle_difference(
            oracle_eval(ast.minuend, index, doc_id),
            oracle_eval(ast.subtrahend, index, doc_id),
        )
    raise TypeError(ast)


def test_caption_query_witnesses(rhyme_index):
    ast = parse_query("(hot | cold) & porridge & pease")
    assert evaluate(ast, rhyme_index, 0) == RHYME_ANTICHAIN


def test_term_query(rhyme_index):
    assert evaluate(Term("pease"), rhyme_index, 0) == singletons((0, 3, 6, 31, 34))


def test_absent_terms_evaluate_empty(rhyme_index):
    ast = parse_query("pease & unicorn")
    assert evaluate(ast, rhyme_index, 0) == []


def test_candidate_docs():
    index = build_index(
        [("a.txt", "ape bee cow"), ("b.txt", "bee cow"), ("c.txt", "cow dog")]
    )
    assert candidate_docs(Term("bee"), index) == [0, 1]
    assert candidate_docs(parse_query("ape & dog"), index) == []
    assert candidate_docs(parse_query("ape - dog"), index) == [0]
    assert candidate_docs(parse_query("ape | dog"), index) == [0, 2]
    assert candidate_docs(parse_query("(bee & cow)~2"), index) == [0, 1]


def random_ast(rng, vocab, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        return Term(rng.choice(vocab))
    kind = rng.randrange(6)
    arity = rng.randint(1, 3)
    children = tuple(random_ast(rng, vocab, depth + 1) for _ in range(arity))
    if kind == 0:
        return Or(children)
    if kind == 1:
        return And(children)
    if kind == 2:
        return Block(children)
    if kind == 3:
        return OrderedAnd(children)
    if kind == 4:
        return LowPass(children[0], rng.randint(1, 6))
    return Minus(children[0], children[-1])


def test_evaluate_matches_oracle_composition_on_random_corpora():
    rng = random.Random(808)
    vocab = ["a", "b", "c", "d"]
    for _ in range(30):
        corpus = [
            (f"d{i}.txt", " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 25))))
            for i in range(4)
        ]
        index = build_index(corpus)
        for _ in range(12):
            ast = random_ast(rng, vocab)
            for doc_id in range(index.doc_count()):
                expected = oracle_eval(ast, index, doc_id)
                assert evaluate(ast, index, doc_id) == expected
                stream = compile_query(ast, index, doc_id)
                assert materialize(stream) == expected
                assert stream.next() is None and stream.next() is None


@pytest.mark.parametrize(
    "deep,shallow",
    [
        ("(" * MAX_DEPTH + "pease" + ")" * MAX_DEPTH, "pease"),
        ("-".join(["pease"] + ["hot"] * MAX_DEPTH), "pease - hot"),
        ('"pease porridge"' + "~5" * (MAX_DEPTH - 1), '"pease porridge"'),
    ],
)
def test_queries_at_the_depth_limit_evaluate(rhyme_index, deep, shallow):
    ast = parse_query(deep)
    assert evaluate(ast, rhyme_index, 0) == oracle_eval(ast, rhyme_index, 0)
    expected = search(rhyme_index, parse_query(shallow))
    assert expected
    assert search(rhyme_index, ast) == expected


def node_types(ast):
    if isinstance(ast, Term):
        return {Term}
    if isinstance(ast, LowPass):
        children = (ast.child,)
    elif isinstance(ast, Minus):
        children = (ast.minuend, ast.subtrahend)
    else:
        children = ast.children
    return {type(ast)}.union(*map(node_types, children))


def test_query_of_every_node_type_at_the_depth_limit(rhyme_index, tmp_path):
    # Each wrap adds its operator and, if any, its parentheses as levels.
    wraps = [
        (2, lambda q: f'({q} | "porridge hot")'),
        (2, lambda q: f"({q} & pease)"),
        (2, lambda q: f"(pease < {q})"),
        (1, lambda q: f"{q}~40"),
        (2, lambda q: f"({q} - cold)"),
    ]
    text, depth = '"pease porridge"', 1
    for cycle in itertools.count():
        if depth == MAX_DEPTH:
            break
        levels, wrap = wraps[cycle % len(wraps)]
        if depth + levels > MAX_DEPTH:
            levels, wrap = wraps[3]
        text, depth = wrap(text), depth + levels
    with pytest.raises(QuerySyntaxError, match="deeper than"):
        parse_query(f"{text}~40")
    ast = parse_query(text)
    assert node_types(ast) == {Term, Or, And, Block, OrderedAnd, LowPass, Minus}
    expected = oracle_eval(ast, rhyme_index, 0)
    assert expected
    assert evaluate(ast, rhyme_index, 0) == expected
    assert [r.witnesses for r in search(rhyme_index, ast)] == [expected]
    assert evaluate_with_profile(ast, rhyme_index, 0)[0] == expected
    idx = tmp_path / "rhyme.ivx"
    save_index(rhyme_index, str(idx))
    proc = subprocess.run(
        [sys.executable, "-m", "minq", "query", str(idx), text, "--show-rho"],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"0\t")


def test_candidate_docs_is_sound():
    rng = random.Random(909)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(20):
        corpus = [
            (f"d{i}.txt", " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 20))))
            for i in range(5)
        ]
        index = build_index(corpus)
        for _ in range(10):
            ast = random_ast(rng, vocab)
            allowed = set(candidate_docs(ast, index))
            for doc_id in range(index.doc_count()):
                if doc_id not in allowed:
                    assert evaluate(ast, index, doc_id) == []


def test_snippets_rhyme():
    assert snippets(RHYME_ANTICHAIN, 3) == [
        iv(0, 2), iv(3, 5), iv(31, 33)
    ]


def test_snippets_tie_breaks_leftmost():
    assert snippets([iv(0, 2), iv(1, 3)], 1) == [iv(0, 2)]


def test_snippets_empty_and_validation():
    assert snippets([], 2) == []
    with pytest.raises(ValueError):
        snippets([], 0)


def test_snippets_are_nonoverlapping_members():
    rng = random.Random(31337)
    from helpers import random_antichain

    for _ in range(200):
        witnesses = random_antichain(rng)
        k = rng.randint(1, 4)
        chosen = snippets(witnesses, k)
        assert len(chosen) <= k
        assert all(c in witnesses for c in chosen)
        for a in chosen:
            for b in chosen:
                if a is not b:
                    assert a.right < b.left or b.right < a.left


def test_rank_examples():
    assert rank([iv(0, 3)]) == 1.0
    assert rank([iv(0, 15)]) == 0.5
    assert rank([]) == 0.0


def test_rank_properties():
    witnesses = [iv(0, 2), iv(4, 20), iv(30, 30)]
    shuffled = [witnesses[2], witnesses[0], witnesses[1]]
    assert rank(witnesses) == rank(shuffled)
    assert rank(witnesses) > rank(witnesses[:2])


def test_search_orders_by_score(rhyme_index):
    index = build_index(
        [
            ("one.txt", "ape bee"),
            ("two.txt", "ape cow bee ape bee"),
            ("three.txt", "cow"),
        ]
    )
    results = search(index, parse_query("ape & bee"))
    assert [r.doc_id for r in results] == [1, 0]
    assert results[0].score > results[1].score
    top1 = search(index, parse_query("ape & bee"), top=1)
    assert [r.doc_id for r in top1] == [1]


def test_search_snippets_extract_words(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text("one two three four five")
    index = build_index([(str(doc), doc.read_text())])
    results = search(index, parse_query('"two three"'), snippet_count=2)
    assert results[0].snippets == [(iv(1, 2), ["two", "three"])]


def test_query_words_find_what_documents_index(tmp_path):
    # İ folds to i plus a combining dot, which splits the word in two, and
    # an apostrophe splits a contraction: the query must split the same way.
    doc = tmp_path / "doc.txt"
    doc.write_text("İstanbul. Don't panic", encoding="utf-8")
    index = build_index([(str(doc), doc.read_text(encoding="utf-8"))])
    for query, window, text in [
        ("İstanbul", iv(0, 1), ["i", "stanbul"]),
        ("i\u0307stanbul", iv(0, 1), ["i", "stanbul"]),
        ("don't", iv(2, 3), ["don", "t"]),
        ("DON'T & panic", iv(2, 4), ["don", "t", "panic"]),
    ]:
        (result,) = search(index, parse_query(query), snippet_count=1)
        assert result.witnesses == [window]
        assert result.snippets == [(window, text)]


def test_search_leaves_no_reference_cycles(tmp_path):
    # With the collector off, anything a query leaves in a cycle stays
    # allocated; a cycle through the index would also keep a dropped index.
    texts = ["pease porridge hot pease porridge cold", "cold porridge nine days old pease"]
    documents = []
    for i, text in enumerate(texts):
        path = tmp_path / f"{i}.txt"
        path.write_text(text)
        documents.append((str(path), text))
    index = build_index(documents)
    query = "pease | porridge & hot | \"porridge hot\" | (pease < porridge) | pease~3 | cold - nine"
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ast = parse_query(query)
        assert search(index, ast, top=1, snippet_count=2)
        assert all(evaluate_with_profile(ast, index, doc_id)[1].rho for doc_id in (0, 1))
        dropped = weakref.ref(index)
        del index
        assert dropped() is None
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_evaluate_with_profile_matches_plain(rhyme_index):
    ast = parse_query("(hot | cold) & porridge & pease")
    witnesses, prof = evaluate_with_profile(ast, rhyme_index, 0)
    assert witnesses == RHYME_ANTICHAIN
    assert prof.m == 3
    assert len(prof.rho) == len(witnesses)
    assert all(len(row) == 3 for row in prof.rho)


def test_evaluate_with_profile_term_root(rhyme_index):
    witnesses, prof = evaluate_with_profile(Term("pease"), rhyme_index, 0)
    assert witnesses == singletons((0, 3, 6, 31, 34))
    assert prof.rho == [(1,), (2,), (3,), (4,), (5,)]


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_results_and_profiles_copy_and_pickle(rhyme_index, clone):
    # Results and profiles can cross a process boundary, typed as they were.
    ast = parse_query("(hot | cold) & porridge & pease")
    results = search(rhyme_index, ast, snippet_count=2)
    assert results and results[0].snippets
    _, prof = evaluate_with_profile(ast, rhyme_index, 0)
    copied = clone(results)
    assert copied == results
    for result in copied:
        assert all(type(w) is Interval for w in result.witnesses)
        assert all(type(window) is Interval for window, _ in result.snippets)
    copied = clone(prof)
    assert copied == prof
    assert all(type(w) is Interval for w in copied.outputs)


def star_operands(ast):
    """Operand nodes of ``ast`` and its operator behind an emptiness check."""
    if isinstance(ast, Or):
        return ast.children, star_compose(check_all_empty, or_merge)
    if isinstance(ast, And):
        return ast.children, star_compose(check_any_empty, and_span)
    if isinstance(ast, Block):
        return ast.children, star_compose(check_any_empty, block)
    if isinstance(ast, OrderedAnd):
        return ast.children, star_compose(check_any_empty, ordered_and)
    if isinstance(ast, LowPass):
        return (ast.child,), star_compose(
            check_any_empty, lambda streams: lowpass(streams[0], ast.k)
        )
    if isinstance(ast, Minus):
        return (ast.minuend, ast.subtrahend), star_compose(
            check_minuend_empty, lambda streams: difference(streams[0], streams[1])
        )
    raise TypeError(ast)


def star_compile(ast, index, doc_id):
    """Reference compile with an emptiness check in front of every operator."""
    if isinstance(ast, Term):
        return engine.from_positions(index.positions(ast.term, doc_id))
    operands, operator = star_operands(ast)
    return operator([star_compile(node, index, doc_id) for node in operands])


def star_profile(ast, index, doc_id):
    """Root rho rows of :func:`star_compile`'s tree."""
    if isinstance(ast, Term):
        counters = [CountingStream(star_compile(ast, index, doc_id))]
        out = counters[0]
    else:
        operands, operator = star_operands(ast)
        counters = [CountingStream(star_compile(n, index, doc_id)) for n in operands]
        out = operator(counters)
    rows = []
    while out.next() is not None:
        rows.append(tuple(c.reads for c in counters))
    return rows


def count_position_reads(index, leaves):
    """Make ``index``'s position lists, found or not, register counted iterators."""

    class Positions(list):
        counted = False

        def __iter__(self):
            # A term is read as zip(run, run); the first iterator is read
            # first, so it alone makes the leaf's reads.
            if self.counted:
                return list.__iter__(self)
            self.counted = True
            return CountedIterator(self, leaves)

    class Run(list):
        def tolist(self):
            return Positions(self)

    class Runs(list):
        # The engine takes each document's positions as a slice of the term's
        # array, made a list by tolist().
        def __getitem__(self, where):
            return Run(super().__getitem__(where))

    real = index.term_postings
    index.term_postings = lambda term: real(term)._replace(positions=Runs(real(term).positions))


def test_emptiness_checks_left_out_change_no_read(monkeypatch):
    # The engine composes no check; for every node type the outputs, root rho
    # rows and per-leaf reads must be those of a tree with the check in front
    # of every operator. Leaves are counted in creation order: the reference
    # tree's through from_positions, the engine's, profiled roots included,
    # through their position lists, each read as zip(run, run).
    leaves = []
    real = engine.from_positions

    def counted_leaf(positions):
        # A slice is a plain list, so the order check counts no read.
        leaves.append(CountingStream(real(positions[:])))
        return leaves[-1]

    def leaf_reads(run):
        leaves.clear()
        result = run()
        return result, [leaf.reads for leaf in leaves]

    monkeypatch.setattr(engine, "from_positions", counted_leaf)
    rng = random.Random(4711)
    vocab = ["a", "b", "c", "d"]
    roots = set()
    for _ in range(25):
        corpus = [
            (f"d{i}.txt", " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 25))))
            for i in range(4)
        ]
        index = build_index(corpus)
        count_position_reads(index, leaves)
        for _ in range(12):
            ast = random_ast(rng, vocab + ["absent"])
            roots.add(type(ast))
            for doc_id in range(index.doc_count()):
                expected = leaf_reads(
                    lambda: materialize(star_compile(ast, index, doc_id))
                )
                assert leaf_reads(lambda: evaluate(ast, index, doc_id)) == expected
                expected_rho = leaf_reads(lambda: star_profile(ast, index, doc_id))
                (witnesses, prof), reads = leaf_reads(
                    lambda: evaluate_with_profile(ast, index, doc_id)
                )
                assert witnesses == expected[0]
                assert (prof.rho, reads) == expected_rho
    assert roots == {Term, Or, And, Block, OrderedAnd, LowPass, Minus}


def test_engine_looks_up_its_collaborators_when_called(rhyme_index, monkeypatch):
    # Tracing rebinds these module globals, so every name must stay bound
    # in the engine; star_compose is a None placeholder. Search plans the
    # query once and runs every node as its pair generator, and a profile
    # runs the same plan, so none of these names is called.
    calls = Counter()
    names = (
        "or_merge", "and_span", "block", "ordered_and", "lowpass", "difference",
        "from_positions", "star_compose", "compile_query",
    )
    for name in names:
        real = getattr(engine, name)

        def proxy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(engine, name, proxy)
    ast = parse_query('("pease porridge" | hot & cold | pease < hot)~12 - unicorn')
    assert search(rhyme_index, ast)
    assert calls == {}
    assert evaluate_with_profile(ast, rhyme_index, 0)[1].rho
    assert calls == {}


def result_key(result):
    return (result.doc_id, result.score, result.witnesses, result.snippets)


def test_top_cut_equals_full_search_prefix_and_reads_only_returned(tmp_path, monkeypatch):
    rng = random.Random(2024)
    vocab = ["a", "b", "c", "d", "e"]
    corpus = []
    for i in range(12):
        path = tmp_path / f"d{i}.txt"
        path.write_text(" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30))))
        corpus.append((str(path), path.read_text()))
    index = build_index(corpus)
    opened = []
    real = engine.document_words

    def counting(index, doc_id, *, spans):
        opened.append(doc_id)
        return real(index, doc_id, spans=spans)

    monkeypatch.setattr(engine, "document_words", counting)
    for _ in range(60):
        ast = random_ast(rng, vocab)
        s = rng.randint(0, 3)
        full = search(index, ast, snippet_count=s)
        for k in (0, 1, 3, len(full), len(full) + 2):
            opened.clear()
            cut = search(index, ast, top=k, snippet_count=s)
            assert [result_key(r) for r in cut] == [result_key(r) for r in full[:k]]
            assert opened == ([r.doc_id for r in cut] if s else [])


# Characters whose case folding or word class is easy to get wrong: ß folds to
# two letters, İ to i plus a combining dot (not a word character), ﬁ to two
# letters, the combining mark U+0345 to a letter; other combining marks and _
# split words, digits do not.
TRICKY = st.sampled_from(list("ßİﬁ\u0345\u0301\u0307_07.,'- \n") + ["ape", "Bee", "ÉCLAIR"])
TEXTS = st.lists(st.one_of(TRICKY, st.characters(blacklist_categories=("Cs",)))).map("".join)


# Documents of TEXTS pieces with a word between each two, so that spans
# cross sampled offsets; a tail makes some fold to a longer text (ß, İ, ﬁ)
# or turn a non-word character into a word character (U+0345).
DOCUMENTS = st.tuples(
    st.lists(TEXTS, max_size=50).map(" w ".join), st.sampled_from(["", "ß", "İ", "ﬁ", "\u0345"])
).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(text=DOCUMENTS, data=st.data())
def test_document_words_are_the_slice_of_the_whole_text(tmp_path_factory, text, data):
    full = words(text)
    ends = st.integers(0, max(len(full) - 1, 0))
    pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=4 if full else 0), label="pairs")
    spans = sorted((min(pair), max(pair) + 1) for pair in pairs)
    expected = [full[start:stop] for start, stop in spans]
    path = tmp_path_factory.getbasetemp() / "slice.txt"
    path.write_bytes(text.encode("utf-8"))
    index = build_index([(str(path), text)])
    # Split from the sampled offsets, with no fall-back to the whole text.
    assert index_module._window_words(text, len(full), index.docs[0].offsets, spans) == expected
    assert engine.document_words(index, 0, spans=spans) == expected


def test_a_shifted_sampled_offset_shows_no_wrong_words(tmp_path):
    # Each stored offset, the folded length included, moved a little either
    # way: the digest covers the offsets, and the source is intact, so the
    # index must be called bad; the words must never come out wrong.
    rng = random.Random(1717)
    vocab = ["x", "ape", "yyyyyyyy", "ß", "İz", "w_w", "ﬁn", "\u0345", "7"]
    seps = [" ", ", ", "\n", " -- ", "\u0301 "]
    for trial in range(12):
        path = tmp_path / f"t{trial}.txt"
        text = "".join(rng.choice(vocab) + rng.choice(seps) for _ in range(rng.randint(1, 70)))
        if trial % 2:
            text = text.replace("ß", "s").replace("İ", "I").replace("ﬁ", "f")
        path.write_text(text)
        index = build_index([(str(path), text)])
        full = words(text)
        spans = [(k, k + 1) for k in range(len(full))] + [(0, len(full))]
        offsets = index.docs[0].offsets
        for k in range(len(offsets)):
            for shift in (-3, -2, -1, 1, 2, 3):
                if offsets[k] + shift < 0:
                    continue
                index.docs[0].offsets = shifted = offsets[:]
                shifted[k] += shift
                for span in spans:
                    with pytest.raises(IndexFormatError, match="^document 0: sampled word offsets"):
                        engine.document_words(index, 0, spans=[span])


def test_document_words_of_a_source_longer_than_two_reads(tmp_path):
    # The source is read 64 KiB at a time; this one ends inside a third read.
    text = " ".join(f"w{i % 997}ß" for i in range(30_000)) + "\n"
    data = text.encode("utf-8")
    assert len(data) > 2 << 16 and len(data) % (1 << 16)
    doc = tmp_path / "long.txt"
    doc.write_bytes(data)
    index = build_index([(str(doc), text)])
    full = words(text)
    n = len(full)
    spans = [(0, 3), (5, 40), (n - 40, n - 5), (n - 3, n), (2, n - 2)]
    assert engine.document_words(index, 0, spans=spans) == [full[a:b] for a, b in spans]


def test_snippets_near_the_end_or_in_both_halves_are_slices(tmp_path, monkeypatch):
    # Long documents with the query's words planted in their last quarter, or
    # at both ends, so that snippets lie near the end or far apart.
    rng = random.Random(1515)
    filler = ["x", "yyyyyyyyyyyy", "ß", "İz", "w_w", "ﬁn", "\u0345", "7"]
    seps = [" ", ", ", "\n", " -- ", "\u0301 "]
    served = []
    real = index_module._window_words
    monkeypatch.setattr(
        index_module, "_window_words", lambda *args: served.append(real(*args)) or served[-1]
    )
    for trial in range(20):
        corpus = []
        for i in range(4):
            n = rng.randint(200, 600)
            tokens = [rng.choice(filler) for _ in range(n)]
            tail = range(3 * n // 4, n)
            head = tail if i % 2 else range(n // 4)
            for spot in rng.sample(head, 2) + rng.sample(tail, 2):
                tokens[spot] = rng.choice(["ape", "bee"])
            path = tmp_path / f"t{trial}-{i}.txt"
            path.write_text("".join(t + rng.choice(seps) for t in tokens))
            corpus.append((str(path), path.read_text()))
        index = build_index(corpus)
        for query in ("ape & bee", "ape | bee", "ape < bee", "(ape & bee)~40"):
            for result in search(index, parse_query(query), top=rng.choice([None, 2]),
                                 snippet_count=rng.randint(1, 4)):
                source = words(corpus[result.doc_id][1])
                for window, found in result.snippets:
                    assert found == source[window.left : window.right + 1]
    # Every one was split from the sampled offsets, none from the whole text.
    assert served and None not in served


def test_snippet_words_are_slices_of_the_whole_source(tmp_path):
    # Words of uneven length throw off the prefix estimate both ways.
    rng = random.Random(1414)
    vocab = ["a", "b", "ccccccccccccccc", "ß", "İd", "e_e", "ﬁx"]
    seps = [" ", ", ", "\n", " -- ", "\u0301 "]
    for trial in range(30):
        corpus = []
        for i in range(5):
            path = tmp_path / f"t{trial}-{i}.txt"
            n = rng.randint(0, 120)
            path.write_text("".join(rng.choice(vocab) + rng.choice(seps) for _ in range(n)))
            corpus.append((str(path), path.read_text()))
        index = build_index(corpus)
        for _ in range(10):
            ast = random_ast(rng, ["a", "b", "ccccccccccccccc", "ss", "fix", "e"])
            for result in search(index, ast, top=rng.choice([None, 2]),
                                 snippet_count=rng.randint(1, 4)):
                source = words(corpus[result.doc_id][1])
                for window, found in result.snippets:
                    assert found == source[window.left : window.right + 1]


def test_snippet_word_cut_by_the_first_prefix_is_read_whole(tmp_path):
    # 1,000 short words after a long one put the first estimated cut inside it.
    long = "pneumonoultramicroscopicsilicovolcanoconiosis"
    doc = tmp_path / "doc.txt"
    doc.write_text(f"ape {long} " + "b " * 1000)
    index = build_index([(str(doc), doc.read_text())])
    assert engine.document_words(index, 0, spans=[(0, 2)]) == [["ape", long]]
    (result,) = search(index, parse_query(f"ape & {long}"), snippet_count=1)
    assert result.snippets == [(iv(0, 1), ["ape", long])]


def stale_run(index_path, query, *options):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["query", str(index_path), query, *options])
    return code, err.getvalue()


def test_edit_after_the_last_snippet_window_is_stale(tmp_path):
    doc = tmp_path / "doc.txt"
    text = "ape bee " + "cat " * 100 + "dog"
    doc.write_text(text)
    idx = tmp_path / "idx.ivx"
    save_index(build_index([(str(doc), text)]), idx)
    assert stale_run(idx, "ape & bee", "--snippets", "1") == (0, "")
    doc.write_text(text[:-3] + "eel")
    assert stale_run(idx, "ape & bee", "--snippets", "1") == (
        2, f"minq: stale source {str(doc)!r}: its text has changed; re-index it\n"
    )


def test_window_past_a_matching_sources_last_word_is_a_bad_record(tmp_path):
    # The digest matches the file, but the index counts more words than it
    # holds: a window slice comes up short, and the index file is blamed.
    doc = tmp_path / "doc.txt"
    doc.write_text("ape bee")
    index = build_index([(str(doc), "ape bee ape bee")])
    offsets = index.docs[0].offsets
    index.docs[0] = DocInfo(str(doc), 4, source_digest(b"ape bee", 4, offsets), offsets)
    message = "document 0: its word count and sampled word offsets do not fit its text"
    with pytest.raises(IndexFormatError) as caught:
        search(index, parse_query("ape & bee"), snippet_count=3)
    assert str(caught.value) == message
    for stop in (3, 4):
        with pytest.raises(IndexFormatError, match=f"^{re.escape(message)}$"):
            engine.document_words(index, 0, spans=[(0, stop)])
    # A span past the word count is the caller's error, found before any read.
    doc.unlink()
    past_the_end = r"^document 0: span \(0, 9\) ends past its 4 words$"
    with pytest.raises(ValueError, match=past_the_end) as past:
        engine.document_words(index, 0, spans=[(0, 9)])
    assert past.type is ValueError
    doc.write_text("ape bee")
    idx = tmp_path / "idx.ivx"
    save_index(index, idx)
    assert stale_run(idx, "ape & bee", "--snippets", "3") == (
        2, f"minq: bad index file: {message}; re-index it\n"
    )


def test_edited_word_count_with_the_old_digest_is_stale(tmp_path):
    # The digest covers the word count: the suffix holding the window would
    # otherwise be numbered from the wrong count and show the wrong words.
    doc = tmp_path / "doc.txt"
    text = "cat " * 100 + "ape bee " + "cat " * 10
    doc.write_text(text)
    index = build_index([(str(doc), text)])
    digest = index.docs[0].digest
    for count in (107, 117):
        offsets = build_index([("", "w " * count)]).docs[0].offsets  # as many as count needs
        index.docs[0] = DocInfo(str(doc), count, digest, offsets)
        message = f"stale source {str(doc)!r}: 112 words, index has {count}; re-index it"
        with pytest.raises(StaleSourceError, match=re.escape(message)):
            search(index, parse_query("ape & bee"), snippet_count=1)
    # Through an index file the load refuses it first: every word of a
    # document is one position of a term, and these 117 words hold 112.
    idx = tmp_path / "idx.ivx"
    save_index(index, idx)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["query", str(idx), "ape & bee", "--snippets", "1"])
    message = "byte 12: header says 117 words, term position counts sum to 112"
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", f"minq: bad index file: {message}; re-index it\n"
    )


def test_search_rejects_negative_counts_before_evaluating(monkeypatch):
    index = build_index([("missing.txt", "ape bee")])
    monkeypatch.setattr(engine, "candidate_docs", lambda *args: pytest.fail("evaluated"))
    for kwargs in ({"top": -1}, {"snippet_count": -1}):
        with pytest.raises(ValueError, match="negative"):
            search(index, parse_query("ape"), **kwargs)


def test_score_bounds_hold_on_random_corpora():
    # For every candidate document: bound >= witness count >= score, and a
    # term's bound is exact.
    rng = random.Random(1313)
    vocab = ["a", "b", "c", "d"]
    roots = set()
    for _ in range(40):
        corpus = [
            (f"d{i}.txt", " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30))))
            for i in range(6)
        ]
        index = build_index(corpus)
        for _ in range(15):
            ast = random_ast(rng, vocab + ["absent"])
            roots.add(type(ast))
            docs = candidate_docs(ast, index)
            bounds = engine.score_bounds(ast, index, docs)
            assert len(bounds) == len(docs)
            for doc_id, bound in zip(docs, bounds):
                witnesses = evaluate(ast, index, doc_id)
                assert bound >= len(witnesses) >= rank(witnesses)
                if isinstance(ast, Term):
                    assert bound == len(witnesses)
    assert roots == {Term, Or, And, Block, OrderedAnd, LowPass, Minus}


def test_one_run_lookup_agrees_with_the_text(tmp_path):
    # positions, a term's pair leaf, its score bound and the leaves of a
    # node over two terms all read a run from minq.index; on every (term,
    # document) of built and loaded indexes, absent terms and documents
    # included, each must give the positions counted from the text.
    rng = random.Random(2718)
    vocab = ["a", "b", "c"]
    two_terms = [
        (lambda x, y: Or((x, y)), lambda x, y: oracle_or([x, y])),
        (lambda x, y: And((x, y)), lambda x, y: oracle_and([x, y])),
        (lambda x, y: Block((x, y)), lambda x, y: oracle_block([x, y])),
        (lambda x, y: OrderedAnd((x, y)), lambda x, y: oracle_ordered_and([x, y])),
        (Minus, oracle_difference),
    ]
    for trial in range(8):
        texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 20))) for _ in range(4)]
        docs = range(len(texts) + 2)  # the last two are absent
        truth = {
            t: [[k for k, w in enumerate(words(text)) if w == t] for text in texts] + [[], []]
            for t in vocab + ["absent"]
        }
        built = build_index([(f"d{i}.txt", text) for i, text in enumerate(texts)])
        path = tmp_path / f"t{trial}.ivx"
        save_index(built, path)
        for index in (built, load_index(path)):
            for t, runs in truth.items():
                for d in docs:
                    assert index.positions(t, d) == runs[d]
                    assert evaluate(Term(t), index, d) == singletons(runs[d])
                    assert engine.score_bounds(Term(t), index, [d]) == [len(runs[d])]
                    for t2, runs2 in truth.items():
                        for node, oracle in two_terms:
                            witnesses = evaluate(node(Term(t), Term(t2)), index, d)
                            assert witnesses == oracle(singletons(runs[d]), singletons(runs2[d]))


def test_top_search_is_exact_on_ties(tmp_path):
    # Few words and short documents give many equal scores, so the doc-id
    # tie-break decides which documents make the cut.
    rng = random.Random(77)
    vocab = ["a", "b", "c"]
    corpus = []
    for i in range(30):
        path = tmp_path / f"d{i}.txt"
        path.write_text(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
        corpus.append((str(path), path.read_text()))
    index = build_index(corpus)
    ties = 0
    for _ in range(80):
        ast = random_ast(rng, vocab + ["absent"])
        s = rng.randint(0, 2)
        full = search(index, ast, snippet_count=s)
        ties += len(full) - len({r.score for r in full})
        for k in (0, 1, 3, len(full), len(full) + 2):
            cut = search(index, ast, top=k, snippet_count=s)
            assert [result_key(r) for r in cut] == [result_key(r) for r in full[:k]]
    assert ties > 100


def test_top_search_evaluates_fewer_documents(tmp_path, monkeypatch):
    # A built corpus where a few documents repeat the words: with a cut, the
    # search stops once the rest cannot enter it; without, it evaluates all.
    corpus = [(f"d{i}.txt", "ape bee cow " * (5 if i % 10 == 0 else 1)) for i in range(40)]
    index = build_index(corpus)
    evaluated = []
    real = engine.plan

    def counting(node, index):
        make = real(node, index)
        if node is not ast:  # an operand's plan, made while planning the query
            return make

        def counted(doc_id):
            evaluated.append(doc_id)
            return make(doc_id)

        return counted

    monkeypatch.setattr(engine, "plan", counting)
    for query in ("ape | bee", "ape & cow", '"ape bee"', "ape - cow"):
        ast = parse_query(query)
        docs = candidate_docs(ast, index)
        full = search(index, ast)
        assert sorted(evaluated) == docs
        evaluated.clear()
        assert search(index, ast, top=3) == full[:3]
        assert 0 < len(evaluated) < len(docs)
        evaluated.clear()
