"""Span tracing of mvlogic's public functions, from outside the package.

Installing the tracer rebinds each traced function in every loaded
``mvlogic`` module that holds it (and in the ``SUITES`` table), so calls
made through any import path are recorded; uninstalling restores the
originals.  A span is a list ``[name, parent, start, end, busy, extra]``
kept in memory until the run writes it out:

* ``parent`` is the index of the enclosing span, or -1;
* ``busy`` is the span's own running time.  It equals ``end - start``
  except for generators (``enumerate_models``), whose span runs from the
  first to the last ``next`` while ``busy`` sums the time spent inside
  them, since the consumer's work happens between those calls;
* ``extra`` is a count: nodes of the grounded formula for ``ground``,
  models yielded for ``enumerate_models``.

A recursive call of a traced function (``eval_prop`` calls itself
through its module global) is folded into the outer span.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (span name, module path, attribute); the first module defines it.
TRACED = (
    ("semantics.is_taut_prop", "mvlogic.semantics", "is_taut_prop"),
    ("semantics.enumerate_models", "mvlogic.semantics", "enumerate_models"),
    ("semantics.eval_fo", "mvlogic.semantics", "eval_fo"),
    ("semantics.eval_prop", "mvlogic.semantics", "eval_prop"),
    ("grounding.ground", "mvlogic.grounding", "ground"),
    ("reductions.model_plus", "mvlogic.reductions", "model_plus"),
    ("reductions.wnm_star", "mvlogic.reductions", "wnm_star"),
    ("search.find_countermodel", "mvlogic.search", "find_countermodel"),
    ("search.verify_certificate", "mvlogic.search", "verify_certificate"),
    ("search.certificate_to_text", "mvlogic.search", "certificate_to_text"),
    ("search.certificate_from_text", "mvlogic.search", "certificate_from_text"),
    ("chains.chain_from_text", "mvlogic.chains", "chain_from_text"),
    ("formulas.parse", "mvlogic.formulas", "parse"),
)
GENERATORS = {"semantics.enumerate_models"}


def count_nodes(phi) -> int:
    """Nodes of an mvlogic formula, read through its fields."""
    total = 0
    stack = [phi]
    while stack:
        node = stack.pop()
        total += 1
        for field in ("left", "right", "sub", "body"):
            child = getattr(node, field, None)
            if child is not None:
                stack.append(child)
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[4] = span[3] - span[2]
                stack.pop()
            if extra is not None:
                span[5] = extra(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0]
            spans.append(span)
            index = len(spans) - 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    t0 = perf_counter()
                    if not span[2]:
                        span[2] = t0
                    stack.append(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[3] = perf_counter()
                        span[4] += span[3] - t0
                    span[5] += 1
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn
        return traced

    def _wrappers(self):
        import mvlogic.reductions as reductions
        import mvlogic.suites as suites

        out = []
        for name, module, attr in TRACED:
            fn = getattr(sys.modules[module], attr)
            if name in GENERATORS:
                out.append((fn, self._wrap_generator(name, fn)))
            else:
                extra = (lambda g: count_nodes(g.formula)) if attr == "ground" else None
                out.append((fn, self._wrap(name, fn, extra)))
        for suite_name, fn in suites.SUITES.items():
            out.append((fn, self._wrap("suites." + suite_name, fn)))
        translate = reductions.GodelFragment.translate_model
        out.append((translate, self._wrap("reductions.translate_model", translate)))
        return out

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever mvlogic holds it."""
        import mvlogic.reductions as reductions
        import mvlogic.suites as suites

        targets = {id(fn): wrapped for fn, wrapped in self._wrappers()}
        holders = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "mvlogic" or name.startswith("mvlogic.")
        ]
        holders += [suites.SUITES, reductions.GodelFragment]
        for holder in holders:
            items = holder.items() if isinstance(holder, dict) else vars(holder).items()
            for key, value in list(items):
                wrapped = targets.get(id(value))
                if wrapped is not None:
                    self._bindings.append((holder, key, value, wrapped))
        self._apply(install=True)

    def uninstall(self) -> None:
        self._apply(install=False)
        self._bindings.clear()

    def _apply(self, install: bool) -> None:
        for holder, key, original, wrapped in self._bindings:
            value = wrapped if install else original
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    def mark(self) -> int:
        return len(self.spans)


def write_spans(path: str, spans) -> None:
    """Write spans as JSON, one span per line, names as indices."""
    names = sorted({s[0] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    with open(path, "w") as handle:
        handle.write('{"fields": ["id", "name", "parent", "start", "end", "busy", "count"],\n')
        handle.write(' "names": ' + json.dumps(names) + ',\n "spans": [\n')
        for i, s in enumerate(spans):
            sep = ",\n" if i + 1 < len(spans) else "\n"
            handle.write(f"[{i},{code[s[0]]},{s[1]},{s[2]:.9f},{s[3]:.9f},{s[4]:.9f},{s[5]}]{sep}")
        handle.write("]}\n")


def read_spans(path: str, offset: int) -> list[list]:
    """Spans written by write_spans, re-based so that parents still
    point inside a list in which they start `offset` spans in."""
    with open(path) as handle:
        data = json.load(handle)
    names = data["names"]
    return [
        [names[name], parent + offset if parent >= 0 else -1, start, end, busy, count]
        for _, name, parent, start, end, busy, count in data["spans"]
    ]


def layer_totals(spans, lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Per-layer sums over spans[lo:hi]: calls, seconds, counts and
    self time (own busy time minus the busy time of direct children)."""
    hi = len(spans) if hi is None else hi
    child_busy: dict[int, float] = {}
    for i in range(lo, hi):
        parent = spans[i][1]
        if parent >= 0:
            child_busy[parent] = child_busy.get(parent, 0.0) + spans[i][4]
    out: dict[str, float] = {}
    for i in range(lo, hi):
        name, _, _, _, busy, extra = spans[i]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".s"] = out.get(name + ".s", 0.0) + busy
        out[name + ".count"] = out.get(name + ".count", 0) + extra
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + busy - child_busy.get(i, 0.0)
    return out
