"""Layer spans recorded from outside the program.

Tracing replaces module attributes of ``rankpl`` with timing wrappers and
puts them back afterwards; nothing in the library changes.  A span is
``[name, start, end, parent, request]``: ``parent`` indexes the span that
was open when it started (-1 for a root), and every span of one request
carries that request's number.  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import rankpl.cli
import rankpl.engine
import rankpl.evaluator
import rankpl.parser
from rankpl.ranking import Valuation


def count_nodes(tree) -> int:
    """Syntax nodes in a tree: every dataclass instance reachable from it."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return count


class _TracedStream:
    """The outcome stream with every ``next()`` recorded as a span."""

    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.begin("engine.stream")
        try:
            outcome = next(self._stream)
        finally:
            self._tracer.end()
        self._tracer.counts["engine.outcomes"] += 1
        return outcome

    @property
    def failed(self):
        return self._stream.failed


class Tracer:
    """Spans and counters of one traced pass.  ``install`` wraps the library
    functions, ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._trees = []
        self._restore = []

    # -- spans ------------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.request])

    def end(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span.  A call nested directly in a span of the
        same name (parse_define_value under parse_input_file) joins it."""
        if self._stack and self.spans[self._stack[-1]][0] == name:
            return fn(*args, **kwargs)
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def finish_request(self):
        """Close the current request: count the nodes of what desugar built
        (outside every span) and number the next request."""
        for tree in self._trees:
            self.counts["syntax.desugar_nodes"] += count_nodes(tree)
        self._trees.clear()
        self.request += 1

    # -- wrappers ---------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

            return traced

        return make

    def _tokenize(self, fn):
        def traced(source):
            tokens = self.call("parser.tokenize", fn, source)
            self.counts["parser.tokens"] += len(tokens)
            self.counts["parser.chars"] += len(source)
            return tokens

        return traced

    def _desugar(self, fn):
        def traced(*args, **kwargs):
            tree = self.call("syntax.desugar", fn, *args, **kwargs)
            self._trees.append(tree)
            return tree

        return traced

    def _expand(self, fn):
        def traced(*args, **kwargs):
            self.counts["syntax.expand_calls"] += 1
            return self.call("syntax.expand", fn, *args, **kwargs)

        return traced

    def _enumerate(self, fn):
        def traced(*args, **kwargs):
            return _TracedStream(fn(*args, **kwargs), self)

        return traced

    def _assign(self, fn):
        counts = self.counts

        def counted(*args):
            counts["ranking.assign_calls"] += 1
            return fn(*args)

        return counted

    def install(self):
        cli, parser = rankpl.cli, rankpl.parser
        self._patch(cli, "parse_program", self._span("parser.parse"))
        self._patch(cli, "parse_input_file", self._span("cli.inputs"))
        self._patch(cli, "parse_define_value", self._span("cli.inputs"))
        self._patch(cli, "binding_prelude", self._span("cli.prelude"))
        self._patch(cli, "enumerate_outcomes", self._enumerate)
        self._patch(parser, "tokenize", self._tokenize)
        for module in (rankpl.engine, rankpl.evaluator):
            self._patch(module, "desugar", self._desugar)
            self._patch(module, "expand_observe_j", self._expand)
            self._patch(module, "expand_observe_l", self._expand)
        self._patch(Valuation, "assign", self._assign)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-layer figures ------------------------------------------------------

    def layers(self, output_lines: int, outcome_lines: int) -> dict:
        """Per-layer metrics over every span recorded so far.  A layer's self
        time is its spans' time minus what their direct children cover."""
        total = defaultdict(float)
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                covered[self.spans[parent][0]] += end - start
        parse_s = total["parser.parse"]
        outcomes = self.counts["engine.outcomes"]
        return {
            "engine.stream_s": total["engine.stream"],
            "engine.self_s": total["engine.stream"] - covered["engine.stream"],
            "engine.outcomes": outcomes,
            "engine.kept_ratio": outcome_lines / outcomes if outcomes else 0.0,
            "syntax.expand_calls": self.counts["syntax.expand_calls"],
            "syntax.desugar_s": total["syntax.desugar"],
            "syntax.desugar_nodes": self.counts["syntax.desugar_nodes"],
            "ranking.assign_calls": self.counts["ranking.assign_calls"],
            "parser.parse_s": parse_s,
            "parser.tokenize_s": total["parser.tokenize"],
            "parser.tokens_per_s": self.counts["parser.tokens"] / parse_s if parse_s else 0.0,
            "parser.chars_per_s": self.counts["parser.chars"] / parse_s if parse_s else 0.0,
            "cli.self_s": total["cli.main"] - covered["cli.main"],
            "cli.inputs_s": total["cli.inputs"],
            "cli.prelude_s": total["cli.prelude"],
            "cli.output_lines": output_lines,
            "evaluator.self_s": total["evaluator.run_program"]
            - covered["evaluator.run_program"],
        }
