import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

from minq import (
    And,
    Block,
    CountingStream,
    Interval,
    LowPass,
    Minus,
    Or,
    OrderedAnd,
    Term,
    and_span,
    block,
    build_index,
    candidate_docs,
    difference,
    evaluate,
    evaluate_with_profile,
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
    search,
    snippets,
)

import minq.engine as engine
from helpers import (
    RHYME_ANTICHAIN,
    CountedIterator,
    check_all_empty,
    check_any_empty,
    check_minuend_empty,
    singletons,
    star_compose,
)
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
                assert evaluate(ast, index, doc_id) == oracle_eval(ast, index, doc_id)


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
        assert search(index, ast, with_profile=True)
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
        def __iter__(self):
            return CountedIterator(self, leaves)

    class Docs(dict):
        def get(self, doc_id, default=None):
            return Positions(super().get(doc_id, default))

    real = index.term_postings
    index.term_postings = lambda term: Docs(real(term))


def test_emptiness_checks_left_out_change_no_read(monkeypatch):
    # The engine composes no check; for every node type the outputs, root rho
    # rows and per-leaf reads must be those of a tree with the check in front
    # of every operator. Leaves are counted in creation order: operator
    # leaves through from_positions, kernel leaves through their iterators.
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
    # Tracing rebinds these module globals; a table that captured them at
    # import time would bypass the rebound names. The engine's star_compose
    # is a None placeholder that the benchmark tracer still rebinds, so the
    # name must stay, and it is never called. Search plans the query once
    # and runs the term-only nodes (the phrase, "hot & cold", "pease < hot")
    # as int kernels, so only the mixed nodes and the one term under them
    # go through these names, and compile_query is not called.
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
    assert calls == {"or_merge": 1, "lowpass": 1, "difference": 1, "from_positions": 1}
    assert calls["star_compose"] == calls["compile_query"] == 0


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

    def counting(index, doc_id):
        opened.append(doc_id)
        return real(index, doc_id)

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


def test_search_rejects_negative_counts_before_evaluating(monkeypatch):
    index = build_index([("missing.txt", "ape bee")])
    monkeypatch.setattr(engine, "candidate_docs", lambda *args: pytest.fail("evaluated"))
    for kwargs in ({"top": -1}, {"snippet_count": -1}):
        with pytest.raises(ValueError, match="negative"):
            search(index, parse_query("ape"), **kwargs)
