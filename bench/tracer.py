"""Span tracing from outside the program, by rebinding module globals.

``minq.engine`` and ``minq.cli`` look their collaborators up as module
globals at call time, so swapping those names for pass-through proxies
traces every call and every stream pull without touching the package.
Function proxies record one span per call; stream proxies record one span
per stream instance, accumulating the time of every ``next()`` into it.

Self time is a span's busy time minus the busy time of spans that ran
while it was on the stack. Spans are grouped by query id, summarised into
per-query counters when the query ends, and kept in memory (up to a cap)
until :meth:`Tracer.write` dumps them.
"""

import contextlib
import json
import os
import time
from collections import Counter

from minq import cli, engine, index as index_module
from minq.streams import IntervalStream

_clock = time.perf_counter

KEEP_SPANS = 100_000  # span records held for the file; later ones are only counted

OPERATORS = ("or_merge", "and_span", "block", "ordered_and", "lowpass", "difference")
_ENGINE_CALLS = ("candidate_docs", "evaluate", "rank", "snippets", "document_words")
_CLI_CALLS = {
    "load_index": "index.load",
    "parse_query": "query.parse",
    "search": "engine.search",
    "build_index": "index.build",
    "save_index": "index.save",
}


class Span:
    """One call, or one stream instance with all its pulls."""

    __slots__ = (
        "id", "name", "qid", "parent", "start", "end", "busy", "child",
        "pulls", "outputs", "inputs", "op", "extra",
    )

    def __init__(self, id, name, qid):
        self.id = id
        self.name = name
        self.qid = qid
        self.parent = None
        self.start = self.end = None
        self.busy = self.child = 0.0
        self.pulls = self.outputs = self.extra = 0
        self.inputs = ()
        self.op = None

    def record(self):
        return {
            "id": self.id, "name": self.name, "qid": self.qid,
            "parent": self.parent, "start": self.start, "end": self.end,
            "busy": self.busy, "self": self.busy - self.child,
            "pulls": self.pulls, "outputs": self.outputs,
        }


class TracedStream(IntervalStream):
    """Times every pull of ``inner`` into one span."""

    __slots__ = ("_inner", "span", "_tracer")

    def __init__(self, inner, span, tracer):
        self._inner = inner
        self.span = span
        self._tracer = tracer

    def next(self):
        span = self.span
        stack = self._tracer.stack
        caller = stack[-1] if stack else None
        if span.start is None:
            span.parent = caller.id if caller else None
        stack.append(span)
        t0 = _clock()
        item = self._inner.next()
        dt = _clock() - t0
        stack.pop()
        if span.start is None:
            span.start = t0
        span.end = t0 + dt
        span.busy += dt
        span.pulls += 1
        if item is not None:
            span.outputs += 1
        if caller is not None:
            caller.child += dt
        return item


class Tracer:
    """Collects spans; :meth:`install` points the program at the proxies."""

    def __init__(self):
        self.stack = []
        self.qid = 0
        self.kept = []
        self.dropped = 0
        self._spans = []
        self._next_id = 0

    def _span(self, name):
        span = Span(self._next_id, name, self.qid)
        self._next_id += 1
        self._spans.append(span)
        return span

    def stream(self, name, inner):
        return TracedStream(inner, self._span(name), self)

    def call(self, name, fn, extra=None):
        """Proxy for ``fn`` recording one span per call.

        ``extra(result, args)`` may return a count stored on the span.
        """

        def proxy(*args, **kwargs):
            stack = self.stack
            caller = stack[-1] if stack else None
            span = self._span(name)
            span.parent = caller.id if caller else None
            stack.append(span)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                span.start, span.end, span.busy, span.pulls = t0, t0 + dt, dt, 1
                if caller is not None:
                    caller.child += dt
            if extra is not None:
                t1 = _clock()
                span.extra = extra(result, args)
                if caller is not None:
                    caller.child += _clock() - t1
            return result

        return proxy

    def _operator(self, name, factory):
        def proxy(*args, **kwargs):
            inputs = []

            def wrap(arg):
                if isinstance(arg, IntervalStream):
                    stream = self.stream("streams.replay", arg)
                    inputs.append(stream.span)
                    return stream
                if isinstance(arg, list):
                    return [wrap(a) for a in arg]
                return arg

            inner = factory(*[wrap(a) for a in args], **kwargs)
            stream = self.stream(f"operators.{name}", inner)
            stream.span.inputs = tuple(inputs)
            stream.span.op = inner
            return stream

        return proxy

    def _star_compose(self, real):
        def proxy(check, main):
            composed = real(check, main)
            return lambda streams: self.stream("streams.star", composed(streams))

        return proxy

    def _compile(self, real):
        by_node = {}

        def proxy(ast, index, doc_id):
            node = type(ast).__name__
            if node not in by_node:
                by_node[node] = self.call(f"engine.compile.{node}", real)
            return by_node[node](ast, index, doc_id)

        return proxy

    @contextlib.contextmanager
    def install(self):
        """Rebind the globals of ``minq.engine`` and ``minq.cli``; restore on exit."""
        saved = []

        def rebind(module, name, value):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)

        def source_bytes(_result, args):
            index, doc_id = args
            return os.path.getsize(index.docs[doc_id].path)

        for name in OPERATORS:
            rebind(engine, name, self._operator(name, getattr(engine, name)))
        rebind(engine, "from_positions",
               lambda positions, real=engine.from_positions:
               self.stream("streams.leaf", real(positions)))
        rebind(engine, "star_compose", self._star_compose(engine.star_compose))
        rebind(engine, "compile_query", self._compile(engine.compile_query))
        extras = {"document_words": source_bytes, "evaluate": lambda ws, _args: int(bool(ws))}
        for name in _ENGINE_CALLS:
            extra = extras.get(name)
            rebind(engine, name, self.call(f"engine.{name}", getattr(engine, name), extra))
        kept = lambda results, _args: sum(1 for r in results if r.snippets)
        for name, span_name in _CLI_CALLS.items():
            extra = kept if name == "search" else None
            rebind(cli, name, self.call(span_name, getattr(cli, name), extra))
        try:
            yield TracedApi(self)
        finally:
            for module, name, value in reversed(saved):
                setattr(module, name, value)

    def begin(self, qid):
        self.qid = qid

    def finish(self):
        """Close the current query: its counters, its spans moved to the kept set."""
        spans, self._spans = self._spans, []
        counters = summarize(spans)
        for span in spans:
            if len(self.kept) < KEEP_SPANS:
                self.kept.append(span.record())
            else:
                self.dropped += 1
        return counters

    def discard(self):
        """Drop spans recorded since the last :meth:`finish`."""
        self._spans = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for record in self.kept:
                out.write(json.dumps(record) + "\n")
            out.write(json.dumps({"dropped": self.dropped}) + "\n")


class TracedApi:
    """The entry points the benchmark itself calls, routed through the proxies."""

    def __init__(self, tracer):
        self.parse_query = cli.parse_query
        self.search = cli.search
        self.load_index = cli.load_index
        self.tokenize = tracer.call("index.tokenize", index_module.tokenize)


def summarize(spans):
    """Counters of one query: busy/self seconds, pulls, reads, queue work."""
    c = Counter()
    for span in spans:
        name = span.name
        c[name + ".busy"] += span.busy
        c[name + ".self"] += span.busy - span.child
        c[name + ".pulls"] += span.pulls
        c[name + ".outputs"] += span.outputs
        c[name + ".extra"] += span.extra
        if span.inputs:
            c[name + ".reads"] += sum(s.pulls for s in span.inputs)
        queue = getattr(span.op, "queue", None)
        if queue is not None:
            c["queue.mutations"] += queue.mutations
            c["queue.comparisons"] += queue.comparisons
            c["queue.reads"] += sum(s.pulls for s in span.inputs)
    return c
