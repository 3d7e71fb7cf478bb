"""Seeded synthetic inputs: vocabulary, Zipf corpora and query mixes.

Everything here is a pure function of its arguments, so the same seed
always yields the same corpus and the same queries. Word frequencies follow
Zipf's law over vocabulary ranks, and shorter words get the higher ranks.

A query mix is built in two steps. Its *shape* comes from a fixed,
seed-independent generator: classes, operand counts, widths, popularity and
the frequency rank of every term. Leaves are placeholders (``#rank`` for a
vocabulary rank, ``!i`` for the i-th absent word), and every phrase is
planted once into the corpus at a fixed document slot and position. The
seed then picks the words and the documents, and :func:`fill` turns shapes
into queries over them. Runs on different seeds thus measure the same mix
over different text.
"""

import itertools
import random

from minq.query import And, Block, LowPass, Minus, Or, OrderedAnd, Term

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_ACCENTED = "éèüöåøñç"

VOCAB_SIZE = 20000
ABSENT_WORDS = 200

# Frequency rank bands (1-based, inclusive) that query terms come from.
HEAD = (1, 100)
TORSO = (101, 2000)
TAIL = (2001, VOCAB_SIZE)

SHORT_CLASSES = ("or", "and", "phrase", "ordered", "near", "difference", "rare", "absent")
NESTED_OPS = ("or", "and", "phrase", "ordered", "near", "difference")


def _word(rng):
    letters = []
    for _ in range(rng.randint(2, 4)):
        letters.append(rng.choice(_CONSONANTS))
        letters.append(rng.choice(_VOWELS))
    if rng.random() < 0.1:
        letters[rng.randrange(len(letters))] = rng.choice(_ACCENTED)
    return "".join(letters)


def vocabulary(seed, size=VOCAB_SIZE, absent=ABSENT_WORDS):
    """``size`` distinct words in rank order, plus ``absent`` unused ones.

    About a tenth of the words carry one accented (non-ASCII) letter. Ranks
    go to shorter (UTF-8) words first, so the bytes per word of text do not
    depend on the seed's luck with the head terms.
    """
    rng = random.Random(f"{seed}:vocabulary")
    seen = set()
    words = []
    while len(words) < size + absent:
        w = _word(rng)
        if w not in seen:
            seen.add(w)
            words.append(w)
    vocab = sorted(words[:size], key=lambda w: len(w.encode("utf-8")))
    return vocab, words[size:]


class Corpus:
    """Documents as word lists (already lowercase) and their source texts."""

    def __init__(self, vocab, absent, docs, texts):
        self.vocab = vocab
        self.absent = absent
        self.docs = docs
        self.texts = texts

    def words(self):
        return sum(len(d) for d in self.docs)

    def input_bytes(self):
        return sum(len(t.encode("utf-8")) for t in self.texts)


def _render(rng, words):
    """Source text for a word list: sentences, capitals, punctuation."""
    parts = []
    start = True
    for w in words:
        parts.append(w.capitalize() if start else w)
        start = False
        r = rng.random()
        if r < 0.06:
            parts.append(". " if rng.random() < 0.8 else ".\n")
            start = True
        elif r < 0.12:
            parts.append(", ")
        else:
            parts.append(" ")
    return "".join(parts).rstrip() + "\n"


def _slot(u, n):
    """Index below ``n`` for a uniform draw ``u`` in [0, 1)."""
    return int(u * n)


def make_corpus(seed, doc_count, min_words, max_words, plants=()):
    """Zipf-distributed documents with lengths uniform in the given range.

    ``plants`` are ``(ranks, u, v)`` phrases written over the words of
    document slot ``u`` at position slot ``v`` before the text is rendered.
    """
    vocab, absent = vocabulary(seed)
    cum = list(itertools.accumulate(1.0 / r for r in range(1, len(vocab) + 1)))
    rng = random.Random(f"{seed}:corpus:{doc_count}:{min_words}:{max_words}")
    docs = [rng.choices(vocab, cum_weights=cum, k=rng.randint(min_words, max_words))
            for _ in range(doc_count)]
    for ranks, u, v in plants:
        doc = docs[_slot(u, doc_count)]
        at = _slot(v, len(doc) - len(ranks) + 1)
        doc[at : at + len(ranks)] = [vocab[r - 1] for r in ranks]
    texts = [_render(rng, words) for words in docs]
    return Corpus(vocab, absent, docs, texts)


class Shaper:
    """Seed-independent query shapes over placeholder leaves."""

    def __init__(self, name):
        self.rng = random.Random(name)
        self.plants = []

    def term(self, band):
        lo, hi = band
        return Term(f"#{lo + _slot(self.rng.random(), hi - lo + 1)}")

    def torso_or_tail(self):
        return self.term(TORSO if self.rng.random() < 0.6 else TAIL)

    def absent(self):
        return Term(f"!{_slot(self.rng.random(), ABSENT_WORDS)}")

    def phrase(self, length):
        """A phrase of torso/tail words, planted once into the corpus."""
        leaves = tuple(self.torso_or_tail() for _ in range(length))
        ranks = tuple(int(t.term[1:]) for t in leaves)
        self.plants.append((ranks, self.rng.random(), self.rng.random()))
        return Block(leaves)


def fill(node, corpus):
    """The query ``node`` with placeholders replaced by the corpus's words."""
    if isinstance(node, Term):
        kind, number = node.term[0], int(node.term[1:])
        return Term(corpus.vocab[number - 1] if kind == "#" else corpus.absent[number])
    if isinstance(node, LowPass):
        return LowPass(fill(node.child, corpus), node.k)
    if isinstance(node, Minus):
        return Minus(fill(node.minuend, corpus), fill(node.subtrahend, corpus))
    return type(node)(tuple(fill(c, corpus) for c in node.children))


def query_text(node):
    """Query text that parses back to exactly ``node``."""

    def operand(child):
        text = query_text(child)
        return text if isinstance(child, Term) else f"({text})"

    if isinstance(node, Term):
        return node.term
    if isinstance(node, Block):
        return '"' + " ".join(c.term for c in node.children) + '"'
    if isinstance(node, Or):
        return " | ".join(operand(c) for c in node.children)
    if isinstance(node, And):
        return " & ".join(operand(c) for c in node.children)
    if isinstance(node, OrderedAnd):
        return " < ".join(operand(c) for c in node.children)
    if isinstance(node, LowPass):
        return f"{operand(node.child)}~{node.k}"
    if isinstance(node, Minus):
        return f"{operand(node.minuend)} - {operand(node.subtrahend)}"
    raise TypeError(f"not a query node: {node!r}")


def _short_shape(shaper, cls, head):
    """One query of class ``cls``; ``head`` swaps one operand for a head term."""
    rng = shaper.rng

    def operands(n, term):
        children = [term() for _ in range(n)]
        if head:
            children[rng.randrange(n)] = shaper.term(HEAD)
        return tuple(children)

    torso = lambda: shaper.term(TORSO)
    if cls == "or":
        return Or(operands(rng.randint(2, 3), shaper.torso_or_tail))
    if cls == "and":
        return And(operands(rng.randint(2, 3), torso))
    if cls == "phrase":
        return shaper.phrase(rng.randint(2, 3))
    if cls == "ordered":
        return OrderedAnd(operands(2, torso))
    if cls == "near":
        return LowPass(And(operands(2, torso)), rng.randint(4, 16))
    if cls == "difference":
        return Minus(*operands(2, torso))
    if cls == "rare":
        return shaper.term(TAIL)
    if cls == "absent":
        shape = rng.randrange(3)
        if shape == 0:
            return shaper.absent()
        if shape == 1:
            return And((shaper.torso_or_tail(), shaper.absent()))
        return Or((shaper.absent(), shaper.term(TAIL)))
    raise ValueError(f"unknown query class {cls!r}")


def short_pool(per_class, head_per_class):
    """``per_class`` (class, shape) pairs of every class, plants and strata.

    Exactly ``head_per_class`` queries of each class that has operands to
    swap carry one head term. The strata group pool indices by class and
    by whether the query has a head term.
    """
    shaper = Shaper(f"short-pool:{per_class}:{head_per_class}")
    pool = []
    strata = []
    for cls in SHORT_CLASSES:
        heads = 0 if cls in ("phrase", "rare", "absent") else head_per_class
        start = len(pool)
        for i in range(per_class):
            pool.append((cls, _short_shape(shaper, cls, i < heads)))
        strata += [s for s in (range(start, start + heads), range(start + heads, len(pool))) if s]
    return pool, shaper.plants, strata


def zipf_order(strata, length, exponent):
    """Pool indices with Zipf repeats, stratified so every prefix has the same mix.

    Strata take turns in proportion to their sizes (smooth weighted round
    robin); within a stratum, indices are drawn with Zipf popularity over a
    shuffled ranking. The expensive head-term queries are thus spread evenly
    over the stream, and a batch of any length has the same mix.
    """
    rng = random.Random(f"zipf-order:{length}:{exponent}")
    draws = []
    for members in strata:
        ranking = list(members)
        rng.shuffle(ranking)
        cum = list(itertools.accumulate(1.0 / r**exponent for r in range(1, len(ranking) + 1)))
        draws.append(iter(rng.choices(ranking, cum_weights=cum, k=length)))
    sizes = [len(m) for m in strata]
    total = sum(sizes)
    credit = [0] * len(strata)
    order = []
    for _ in range(length):
        for i, size in enumerate(sizes):
            credit[i] += size
        turn = credit.index(max(credit))
        credit[turn] -= total
        order.append(next(draws[turn]))
    return order


def repeat_share(keys):
    """Share of entries that repeat an earlier entry."""
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def nested_shape(rng, leaves, op, term, phrase):
    """A random tree with exactly ``leaves`` leaves, rooted at ``op``.

    ``term()`` makes a leaf and ``phrase(n)`` an n-word phrase; phrases
    longer than four words become conjunctions instead.
    """
    if leaves == 1:
        return term()
    if op == "phrase" and leaves <= 4:
        return phrase(leaves)
    if op == "near":
        child = nested_shape(rng, leaves, rng.choice(("and", "ordered", "or")), term, phrase)
        return LowPass(child, rng.randint(2, 40) * leaves)
    if op == "difference":
        left = rng.randint(1, leaves - 1)
        return Minus(
            nested_shape(rng, left, rng.choice(NESTED_OPS), term, phrase),
            nested_shape(rng, leaves - left, rng.choice(NESTED_OPS), term, phrase),
        )
    arity = rng.randint(2, min(leaves, 4))
    cuts = sorted(rng.sample(range(1, leaves), arity - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
    children = tuple(nested_shape(rng, s, rng.choice(NESTED_OPS), term, phrase) for s in sizes)
    return {"or": Or, "ordered": OrderedAnd}.get(op, And)(children)


def nested_shapes(rng, count, max_leaves, term, phrase):
    """``count`` distinct (root op, shape) pairs of 2..max_leaves leaves, roots in turn."""
    seen = set()
    shapes = []
    for op in itertools.cycle(NESTED_OPS):
        if len(shapes) == count:
            return shapes
        while True:
            shape = nested_shape(rng, rng.randint(2, max_leaves), op, term, phrase)
            if shape not in seen:
                seen.add(shape)
                shapes.append((op, shape))
                break


def long_queries(count):
    """Distinct nested shapes of 2-16 leaves, mostly torso terms, and plants."""
    shaper = Shaper(f"long-queries:{count}")
    term = lambda: shaper.term(TORSO if shaper.rng.random() < 0.85 else HEAD)
    return nested_shapes(shaper.rng, count, 16, term, shaper.phrase), shaper.plants
