"""Spans recorded around public isoflow callables, from outside the library.

The tracer replaces a public function wherever an isoflow module has bound
it by name (``from .grids import masked_exchange_matrix`` binds it in
``isoflow.solver`` too), so a call is traced whichever module makes it.
Only public names are wrapped: refactors of private helpers cannot break it.
Spans stay in memory until :meth:`Tracer.dump`.
"""

import functools
import inspect
import json
import os
import time


class Span:
    __slots__ = ("name", "run", "parent", "start", "end", "counts")

    def __init__(self, name, run, parent, start):
        self.name = name
        self.run = run
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, run id.

    ``run`` is set by the caller between operations; every span opened
    afterwards carries it. A ``counts(arguments, result)`` hook attaches
    counts to a span after its end time is taken.
    """

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.run, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def patch_function(self, modules, name, fn, counts=None):
        """Replace ``fn`` in every module that binds it."""
        traced = self._wrap(name, fn, counts)
        found = False
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, traced)
                    found = True
        if not found:
            raise LookupError(f"no isoflow module binds {name}")

    def patch_method(self, cls, attr, name, counts=None):
        fn = vars(cls)[attr]
        self._patched.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(name, fn, counts))

    def uninstall(self):
        for obj, attr, fn in reversed(self._patched):
            setattr(obj, attr, fn)
        self._patched.clear()

    # -- queries -------------------------------------------------------------

    def children(self):
        """Child span indices per span index."""
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_time(self, i, kids):
        """Duration minus the part covered by child spans (calls nest and
        run one at a time, so children never overlap)."""
        return self.spans[i].duration - sum(self.spans[k].duration for k in kids[i])

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "run": s.run,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, "counts": s.counts}) + "\n")
