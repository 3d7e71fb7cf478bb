"""The workloads and the metrics each run reports.

A run generates its corpus and queries from the seed, writes the corpus as
source files into a private work directory inside the checkout, checks a
seeded sample of query shapes against the oracles and the CLI, and then
measures for about the requested number of seconds in rounds: each round
builds and loads the index through the program (set-up) and makes one pass,
a closed loop with one client, over the same fixed batch of queries. The
untraced run reports the end-to-end metrics; the traced run reports the
per-layer ones, replays its first pass untraced to price the tracing, and
compares digests.
"""

import contextlib
import gc
import io
import os
import random
import resource
import shutil
import statistics
import time
import types
from collections import Counter
from dataclasses import dataclass

import check
import gen
from tracer import OPERATORS, Tracer

from minq import cli
from minq.engine import candidate_docs, evaluate, search
from minq.index import build_index, load_index, save_index
from minq.intervals import Interval
from minq.query import Block, Term, parse_query

_clock = time.perf_counter

INDEX = "index.ivx"

# name: (unit, better). The end-to-end set is what an untraced run reports.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "query_ms_p50": ("ms", "lower"),
    "query_ms_p90": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "postings_per_s": ("1/s", "higher"),
    "index_s": ("s", "lower"),
    "index_bytes_per_input_byte": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "index.tokenize_s": ("s", "lower"),
    "index.build_s": ("s", "lower"),
    "index.save_s": ("s", "lower"),
    "index.save_bytes": ("bytes", "lower"),
    "index.load_s": ("s", "lower"),
    "index.load_share": ("ratio", "lower"),
    "query.parse_us": ("us", "lower"),
    "engine.candidates_us": ("us", "lower"),
    "engine.candidate_docs": ("count", "lower"),
    "engine.useful_doc_ratio": ("ratio", "higher"),
    "engine.eval_us_per_doc": ("us", "lower"),
    "engine.rank_us": ("us", "lower"),
    "engine.snippet_ms": ("ms", "lower"),
    "engine.source_bytes_read": ("bytes", "lower"),
    "engine.snippet_kept_ratio": ("ratio", "higher"),
    "streams.leaf_reads": ("count", "lower"),
    "streams.leaf_us_per_read": ("us", "lower"),
    "streams.star_self_us": ("us", "lower"),
    "streams.wrapper_share": ("ratio", "lower"),
    **{
        f"operators.{op}.{field}": (unit, "lower")
        for op in OPERATORS
        for field, unit in (("reads", "count"), ("outputs", "count"),
                            ("self_us", "us"), ("us_per_read", "us"))
    },
    "queue.mutations": ("count", "lower"),
    "queue.comparisons": ("count", "lower"),
    "queue.comparisons_per_mutation": ("ratio", "lower"),
    "queue.mutations_per_read": ("ratio", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "trace.overhead_ms_p50": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Spec:
    name: str
    docs: int
    min_words: int
    max_words: int
    batch: int  # queries per pass; the digest covers the first pass
    top: int | None
    snippets: int
    queries: str  # "zipf-pool" or "nested"
    pool: int = 0  # distinct queries the Zipf repeats draw from
    head_per_class: int = 0


SPECS = {
    "search-short": Spec("search-short", 5000, 40, 300, batch=400,
                         top=10, snippets=3, queries="zipf-pool", pool=1200, head_per_class=8),
    "search-long": Spec("search-long", 16, 28000, 32000, batch=600,
                        top=None, snippets=0, queries="nested"),
}

ZIPF_EXPONENT = 0.5

# Size of the side corpus and query sample checked against the oracles.
ORACLE_DOCS = 40
ORACLE_QUERIES = 60

# How many of the side corpus queries also run through ``minq query``.
CLI_QUERIES = 12

# Rounds a run makes at least, however short its --seconds.
MIN_ROUNDS = 2

# Shares of --seconds a traced run spends on traced rounds and on the
# bare-operator shadow; its per-layer metrics need fewer samples than the
# end-to-end ones.
TRACED_SHARE = 0.4
SHADOW_SHARE = 0.1


def query_mix(spec):
    """The spec's seed-independent batch of (key, class, shape), and phrase plants.

    Equal keys are repeats of one query: ``search-short`` draws its batch
    with Zipf repeats from a pool, ``search-long`` has distinct queries.
    """
    if spec.queries == "nested":
        shapes, plants = gen.long_queries(spec.batch)
        order = range(len(shapes))
    else:
        shapes, plants, strata = gen.short_pool(spec.pool // len(gen.SHORT_CLASSES),
                                                spec.head_per_class)
        order = gen.zipf_order(strata, spec.batch, ZIPF_EXPONENT)
    return [(key, *shapes[key]) for key in order], plants


def fill_batch(mix, corpus):
    """The (key, class, ast) triples of ``mix`` over the corpus's words."""
    return [(key, cls, gen.fill(shape, corpus)) for key, cls, shape in mix]


def _quantile(values, q):
    """The q-quantile (0 < q < 1) by the exclusive method, or the only value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


class Queries:
    """The samples of the passes over one query batch, and their digests."""

    def __init__(self):
        self.samples = []
        self.digest = check.Digest()
        self.prefix = None

    def add(self, text, formatted, sample, prefix_length):
        self.digest.add(text, formatted)
        self.samples.append(sample)
        if len(self.samples) == prefix_length:
            self.prefix = self.digest.hexdigest()

    def latencies_ms(self):
        """Per batch position, the mean latency of its passes in ms.

        Averaging a query over passes spread across the run averages the
        speed swings of a shared host, where one pass alone would land on
        a single fast or slow spell.
        """
        by_position = {}
        for s in self.samples:
            by_position.setdefault(s["pos"], []).append(s["s"] * 1000)
        return [statistics.fmean(times) for times in by_position.values()]


class Run:
    """State of one workload run inside its work directory."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.attempted = 0
        self.failures = []
        self.mix, plants = query_mix(spec)
        self.corpus = gen.make_corpus(seed, spec.docs, spec.min_words, spec.max_words, plants)
        self.paths = [f"d/{i:05d}.txt" for i in range(spec.docs)]
        self.seen = {}
        self.index_times, self.setup_times, self.setup_counters = [], [], []
        self.passes = 0

    def fail(self, message):
        """Record a problem with the operation counted last in ``attempted``."""
        self.failures.append((self.attempted, message))

    @property
    def failed(self):
        return len({op for op, _ in self.failures})

    def write_sources(self):
        os.makedirs("d", exist_ok=True)
        for path, text in zip(self.paths, self.corpus.texts):
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)

    # -- set-up ---------------------------------------------------------

    def setup_once(self, main, load, tracer=None):
        """Index through the CLI and load the result; one set-up repetition."""
        if tracer:
            tracer.begin(f"setup-{len(self.setup_times)}")
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = _clock()
            code = main(["index", *self.paths, "-o", INDEX])
            t1 = _clock()
        index = load(INDEX)
        t2 = _clock()
        if code != 0:
            raise RuntimeError(f"minq index exited {code}")
        self.index_times.append(t1 - t0)
        self.setup_times.append(t2 - t0)
        if tracer:
            self.setup_counters.append(tracer.finish())
        return index

    def rounds(self, queries, api, main, load, batch, seconds, tracer=None):
        """Rounds of one set-up and one pass over ``batch``, for about ``seconds``.

        A new round starts while the rounds so far predict that at least
        half of it fits in ``seconds``, so runs last ``seconds`` on average;
        there are at least ``MIN_ROUNDS``. Each pass runs on the index its
        own set-up loaded. Interleaving spreads set-up and query samples
        over the whole run, so a slow spell of the machine does not land on
        one metric alone.
        """
        start = _clock()
        rep = 0
        while rep < MIN_ROUNDS or (_clock() - start) * (rep + 0.5) / rep <= seconds:
            index = None  # the previous round's index must not burden this build
            index = self.setup_once(main, load, tracer)
            # Untimed: the loaded index settles into the oldest generation
            # here, not in full collections that land on a few queries.
            gc.collect()
            self.run_pass(queries, api, index, batch, rep, tracer)
            rep += 1
        self.passes = rep
        return index

    # -- oracle check ---------------------------------------------------

    def oracle_check(self):
        """Compare search, bare operators and oracles on a small side corpus."""
        rng = random.Random(f"{self.seed}:oracle")
        words = self.corpus.vocab[100:108]
        docs = [[rng.choice(words) for _ in range(rng.randint(8, 30))]
                for _ in range(ORACLE_DOCS)]
        os.makedirs("side", exist_ok=True)
        documents = []
        for i, doc in enumerate(docs):
            path = f"side/{i:03d}.txt"
            text = " ".join(doc) + "\n"
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
            documents.append((path, text))
        save_index(build_index(documents), "side.ivx")
        index = load_index("side.ivx")
        term = lambda: Term(rng.choice(words))
        phrase = lambda n: Block(tuple(term() for _ in range(n)))
        texts = []
        for _, ast in gen.nested_shapes(rng, ORACLE_QUERIES, 5, term, phrase):
            self.attempted += 1
            text = gen.query_text(ast)
            try:
                results = search(index, parse_query(text), snippet_count=3)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                self.fail(f"oracle {text!r}: {type(exc).__name__}: {exc}")
                continue
            got = {r.doc_id: r.witnesses for r in results}
            terms = check.terms_of(ast)
            for doc_id, doc in enumerate(docs):
                positions = check.positions_by_term(doc, terms)
                want = check.oracle_witnesses(ast, positions)
                lists = {t: [Interval(p, p) for p in ps] for t, ps in positions.items()}
                if got.get(doc_id, []) != want:
                    self.fail(f"oracle {text!r} doc {doc_id}: {got.get(doc_id)} != {want}")
                elif check.bare_witnesses(ast, lists) != want:
                    self.fail(f"oracle {text!r} doc {doc_id}: bare operators differ")
            for error in check.result_errors(results, ast, docs, None, 3):
                self.fail(f"oracle {text!r}: {error}")
            if len(texts) < CLI_QUERIES:
                texts.append(text)
        self.cli_check(index, texts)

    def cli_check(self, index, texts):
        """``minq query`` must print exactly the in-process results, formatted."""
        for text in texts:
            self.attempted += 1
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(["query", "side.ivx", text, "--top", "10", "--snippets", "3"])
                want = check.format_results(search(index, parse_query(text), top=10,
                                                   snippet_count=3))
            except Exception as exc:  # counted as a failed operation
                self.fail(f"cli {text!r}: {type(exc).__name__}: {exc}")
                continue
            if code != 0:
                self.fail(f"cli {text!r}: minq query exited {code}")
            elif out.getvalue() != want:
                self.fail(f"cli {text!r}: stdout differs from the in-process results")

    # -- queries --------------------------------------------------------

    def check_results(self, text, ast, results):
        for error in check.result_errors(results, ast, self.corpus.docs, self.spec.top,
                                         self.spec.snippets):
            self.fail(f"{text!r}: {error}")
        if results and self.spec.max_words <= 1000:
            r = results[0]
            positions = check.positions_by_term(self.corpus.docs[r.doc_id], check.terms_of(ast))
            if check.oracle_witnesses(ast, positions) != r.witnesses:
                self.fail(f"{text!r} doc {r.doc_id}: witnesses differ from the oracle")

    def first_seen(self, key, ast, index, results):
        """Properties and checked reference output of a query, computed once.

        The first results of a query are checked; its repeats, in the same
        pass or a later one, must print the same.
        """
        if key not in self.seen:
            docs = candidate_docs(ast, index)
            postings = sum(len(index.positions(t, d)) for t in check.terms_of(ast) for d in docs)
            self.check_results(gen.query_text(ast), ast, results)
            self.seen[key] = (len(docs), postings, check.format_results(results),
                              any(r.snippets for r in results))
        return self.seen[key]

    def run_pass(self, queries, api, index, items, rep, tracer=None):
        """Closed loop, one query at a time, over ``items``; pass ``rep`` of the run.

        Every output is compared with the reference for its query; the
        first ``batch`` outputs, the first pass, make the prefix digest.
        """
        spec = self.spec
        for pos, item in enumerate(items):
            key, cls, ast = item
            text = gen.query_text(ast)
            self.attempted += 1
            if tracer:
                tracer.begin(self.attempted)
            try:
                t0 = _clock()
                parsed = api.parse_query(text)
                results = api.search(index, parsed, top=spec.top, snippet_count=spec.snippets)
                dt = _clock() - t0
            except Exception as exc:  # counted as a failed operation
                self.fail(f"{text!r}: {type(exc).__name__}: {exc}")
                continue
            finally:
                counters = tracer.finish() if tracer else None
            if parsed != ast:
                self.fail(f"{text!r} parsed to {parsed!r}")
            formatted = check.format_results(results)
            candidates, postings, reference, with_snippets = self.first_seen(
                key, ast, index, results)
            if formatted != reference:
                self.fail(f"{text!r}: output differs from its first run")
            queries.add(text, formatted, {
                "key": key, "cls": cls, "ast": ast, "s": dt, "pos": pos, "pass": rep,
                "candidates": candidates, "postings": postings,
                "with_snippets": with_snippets, "counters": counters,
            }, spec.batch)

    # -- bare-operator shadow -------------------------------------------

    def shadow(self, index, samples, budget):
        """Seconds in ``evaluate`` and in bare operators over the same documents."""
        t_eval = t_bare = 0.0
        start = _clock()
        seen = set()
        for s in samples:
            if seen and _clock() - start >= budget:
                break
            if s["key"] in seen:
                continue
            seen.add(s["key"])
            ast = s["ast"]
            terms = check.terms_of(ast)
            for doc_id in candidate_docs(ast, index):
                lists = {t: [Interval(p, p) for p in index.positions(t, doc_id)] for t in terms}
                self.attempted += 1
                try:
                    t0 = _clock()
                    staged = evaluate(ast, index, doc_id)
                    t1 = _clock()
                    bare = check.bare_witnesses(ast, lists)
                    t2 = _clock()
                except Exception as exc:  # counted as a failed operation
                    self.fail(f"{gen.query_text(ast)!r} doc {doc_id}: {type(exc).__name__}: {exc}")
                    continue
                t_eval += t1 - t0
                t_bare += t2 - t1
                if staged != bare:
                    self.fail(f"{gen.query_text(ast)!r} doc {doc_id}: bare operators differ")
        return t_eval, t_bare

    # -- reports --------------------------------------------------------

    def properties(self, samples, index_bytes):
        n = len(samples)
        cands = [s["candidates"] for s in samples]
        posts = [s["postings"] for s in samples]
        return {
            "queries": n,
            "passes": self.passes,
            "class_shares": {c: round(k / n, 4) for c, k in sorted(Counter(s["cls"] for s in samples).items())},
            "repeat_share": round(gen.repeat_share([s["key"] for s in samples]), 4),
            "candidate_docs_p50": _quantile(cands, 0.5),
            "candidate_docs_p90": _quantile(cands, 0.9),
            "postings_p50": _quantile(posts, 0.5),
            "postings_p90": _quantile(posts, 0.9),
            "with_snippets_share": round(sum(s["with_snippets"] for s in samples) / n, 4),
            "corpus_docs": len(self.corpus.docs),
            "corpus_words": self.corpus.words(),
            "input_bytes": self.corpus.input_bytes(),
            "index_bytes": index_bytes,
        }


def _e2e(run, queries, index_bytes):
    samples = queries.samples
    ms = queries.latencies_ms()
    total = sum(s["s"] for s in samples)
    n = f"n={len(ms)} queries, mean of {run.passes} passes each"
    reps = f"median of {len(run.setup_times)}"
    return {
        "setup_s": (statistics.median(run.setup_times), reps),
        "query_ms_p50": (_quantile(ms, 0.5), n),
        "query_ms_p90": (_quantile(ms, 0.9), n),
        "queries_per_s": (len(samples) / total, f"n={len(samples)}"),
        "postings_per_s": (sum(s["postings"] for s in samples) / total, f"n={len(samples)}"),
        # A mean, not a median: over a handful of calls spread across the
        # run it averages the machine's fast and slow spells.
        "index_s": (statistics.fmean(run.index_times), f"mean of {len(run.index_times)}"),
        "index_bytes_per_input_byte": (index_bytes / run.corpus.input_bytes(), "n=1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "n=1"),
    }


def _per_layer(run, tokenize_s, samples, prefix, replayed, shadow, index_bytes):
    total = Counter()
    for s in samples:
        total.update(s["counters"])
    nq = len(samples)
    per_q = lambda key, scale=1.0: total[key] / nq * scale
    ratio = lambda a, b: a / b if b else 0.0
    traced_p50 = _quantile([s["s"] * 1000 for s in prefix], 0.5)
    plain_p50 = _quantile([s["s"] * 1000 for s in replayed], 0.5)
    setup_median = lambda key: statistics.median(c[key] for c in run.setup_counters)
    load_s = setup_median("index.load.busy")
    t_eval, t_bare = shadow
    metrics = {
        "index.tokenize_s": tokenize_s,
        "index.build_s": setup_median("index.build.busy"),
        "index.save_s": setup_median("index.save.busy"),
        "index.save_bytes": index_bytes,
        "index.load_s": load_s,
        "index.load_share": load_s / (load_s + plain_p50 / 1000),
        "query.parse_us": per_q("query.parse.busy", 1e6),
        "engine.candidates_us": per_q("engine.candidate_docs.busy", 1e6),
        "engine.candidate_docs": per_q("engine.evaluate.pulls"),
        "engine.useful_doc_ratio": ratio(total["engine.evaluate.extra"], total["engine.evaluate.pulls"]),
        "engine.eval_us_per_doc": ratio(total["engine.evaluate.busy"], total["engine.evaluate.pulls"]) * 1e6,
        "engine.rank_us": per_q("engine.rank.busy", 1e6),
        "engine.snippet_ms": (total["engine.snippets.busy"] + total["engine.document_words.busy"]) / nq * 1e3,
        "engine.source_bytes_read": per_q("engine.document_words.extra"),
        "engine.snippet_kept_ratio": ratio(total["engine.search.extra"], total["engine.snippets.pulls"]),
        "streams.leaf_reads": per_q("streams.leaf.pulls"),
        "streams.leaf_us_per_read": ratio(total["streams.leaf.self"], total["streams.leaf.pulls"]) * 1e6,
        "streams.star_self_us": (total["streams.star.self"] + total["streams.replay.self"]) / nq * 1e6,
        "streams.wrapper_share": ratio(t_eval - t_bare, t_eval),
        "queue.mutations": per_q("queue.mutations"),
        "queue.comparisons": per_q("queue.comparisons"),
        "queue.comparisons_per_mutation": ratio(total["queue.comparisons"], total["queue.mutations"]),
        "queue.mutations_per_read": ratio(total["queue.mutations"], total["queue.reads"]),
        "cli.self_ms": setup_median("cli.main.self") * 1e3,
        "trace.overhead_ms_p50": traced_p50 - plain_p50,
        "trace.overhead_share": ratio(traced_p50 - plain_p50, plain_p50),
    }
    for op in OPERATORS:
        key = f"operators.{op}"
        metrics[f"{key}.reads"] = per_q(f"{key}.reads")
        metrics[f"{key}.outputs"] = per_q(f"{key}.outputs")
        metrics[f"{key}.self_us"] = per_q(f"{key}.self", 1e6)
        metrics[f"{key}.us_per_read"] = ratio(total[f"{key}.self"], total[f"{key}.reads"]) * 1e6
    return {name: (metrics[name], "") for name in PER_LAYER}


_PLAIN = types.SimpleNamespace(parse_query=parse_query, search=search)


def run_workload(spec, seed, seconds, trace, workdir, spans_path=None):
    """One run of ``spec`` in ``workdir``, which is removed afterwards.

    Returns metrics, digest, operation counts, failures and workload
    properties; a traced run also writes its spans to ``spans_path``.
    """
    home = os.getcwd()
    os.makedirs(workdir)
    os.chdir(workdir)
    tracer = Tracer() if trace else None
    try:
        run = Run(spec, seed)
        run.write_sources()
        run.oracle_check()
        # The program's collector should not have to walk the benchmark's corpus.
        gc.collect()
        gc.freeze()
        batch = fill_batch(run.mix, run.corpus)
        timed = Queries()
        if not trace:
            run.rounds(timed, _PLAIN, cli.main, load_index, batch, seconds)
            index_bytes = os.path.getsize(INDEX)
            metrics = _e2e(run, timed, index_bytes)
        else:
            with tracer.install() as api:
                tracer.begin("tokenize")
                t0 = _clock()
                for text in run.corpus.texts:
                    api.tokenize(text)
                tokenize_s = _clock() - t0
                tracer.finish()
                main = tracer.call("cli.main", cli.main)
                index = run.rounds(timed, api, main, api.load_index, batch,
                                   TRACED_SHARE * seconds, tracer)
            prefix = timed.samples[: spec.batch]
            replay = Queries()
            again = [(s["key"], s["cls"], s["ast"]) for s in prefix]
            run.run_pass(replay, _PLAIN, index, again, 0)
            if replay.digest.hexdigest() != (timed.prefix or timed.digest.hexdigest()):
                run.fail("traced and untraced passes over the same queries differ")
            shadow = run.shadow(index, timed.samples, SHADOW_SHARE * seconds)
            index_bytes = os.path.getsize(INDEX)
            metrics = _per_layer(run, tokenize_s, timed.samples, prefix, replay.samples,
                                 shadow, index_bytes)
        return {
            "metrics": metrics,
            "digest": timed.prefix or timed.digest.hexdigest(),
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": [message for _, message in run.failures],
            "properties": run.properties([s for s in timed.samples if s["pass"] == 0],
                                         index_bytes),
        }
    finally:
        gc.unfreeze()
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None and spans_path:
            tracer.write(spans_path)
