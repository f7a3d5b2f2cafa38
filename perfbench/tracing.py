"""Spans and call counters for the traced run.

Spans are recorded only around the layer calls the benchmark itself makes.
Counters come from counting wrappers that `Counters.install` puts on the
package's classes and module functions and `Counters.remove` takes off
again; nothing in the package is edited.
"""

from __future__ import annotations

import weakref
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Keeps spans in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self, first: int = 0):
        """(name, self seconds, total seconds) of spans[first:]: a span's self
        time is its duration minus the durations of its direct children."""
        child = Counter()
        for name, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        return [(name, end - start - child[first + i], end - start)
                for i, (name, start, end, _, _) in enumerate(self.spans[first:])]

    def to_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


class Counters:
    """Counting wrappers on the package, installed for the traced run only.

    `coproducts_computed` and `restricted_built` count first requests for a
    key; the wrappers keep their own key sets per cache or analysis object,
    so calls served from the package's caches are told apart from outside.
    """

    def __init__(self, pkg, tracer: Tracer):
        self.pkg = pkg
        self.tracer = tracer
        self.n = Counter()
        self._saved = []

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        pkg, n, tracer = self.pkg, self.n, self.tracer
        coproduct_keys = weakref.WeakKeyDictionary()
        restricted_keys = weakref.WeakKeyDictionary()

        def contains(original):
            def wrapped(sub, other):
                n["contains"] += 1
                return original(sub, other)
            return wrapped

        def from_vectors(original):
            func = original.__func__

            def wrapped(cls, *args, **kwargs):
                n["from_vectors"] += 1
                return func(cls, *args, **kwargs)
            return classmethod(wrapped)

        def coproduct(original):
            def wrapped(cache, x, y):
                n["coproduct_calls"] += 1
                keys = coproduct_keys.setdefault(cache, set())
                key = (x.key(), y.key())
                if key not in keys:
                    keys.add(key)
                    n["coproducts_computed"] += 1
                return original(cache, x, y)
            return wrapped

        def restricted(original):
            def wrapped(a, l_sub):
                keys = restricted_keys.setdefault(a, set())
                key = l_sub.key()
                if key in keys:
                    return original(a, l_sub)
                keys.add(key)
                n["restricted_built"] += 1
                with tracer.span("coprime.restricted"):
                    return original(a, l_sub)
            return wrapped

        def tested(counter):
            def make(original):
                def wrapped(*args, **kwargs):
                    for sub in original(*args, **kwargs):
                        n[counter] += 1
                        yield sub
                return wrapped
            return make

        def lattice_built(original):
            def wrapped(m, *args, **kwargs):
                lat = original(m, *args, **kwargs)
                n["lattice_elements"] += len(lat.elements)
                n["lattice_fi"] += sum(lat.fi_mask)
                if lat.certified:
                    n["lattice_exhaustive_elements"] += len(lat.elements)
                return lat
            return wrapped

        def ideals_built(original):
            def wrapped(*args, **kwargs):
                found = original(*args, **kwargs)
                n["right_ideals"] += len(found)
                return found
            return wrapped

        self._patch(pkg.Subspace, "contains", contains)
        self._patch(pkg.Subspace, "from_vectors", from_vectors)
        self._patch(pkg.CoproductCache, "coproduct", coproduct)
        self._patch(pkg.InstanceAnalysis, "restricted", restricted)
        self._patch(pkg.lattice, "enumerate_subspaces", tested("lattice_tested"))
        self._patch(pkg.endo, "enumerate_subspaces", tested("ideal_tested"))
        self._patch(pkg.analysis, "enumerate_lattice", lattice_built)
        # Every module that calls enumerate_ideals holds its own reference
        # (lattice.predicates imports it from endo at call time).
        for module in (pkg.analysis, pkg.coprime, pkg.endo):
            self._patch(module, "enumerate_ideals", ideals_built)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
