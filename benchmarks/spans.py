"""Span tracing of qmfslab from outside the package.

``Tracer.install`` replaces every public module-level function of the
qmfslab layers with a recording wrapper, at every binding a caller can
resolve: the defining module, copies made by ``from ... import ...`` in
other modules and in the package namespace, and module-level dict
registries such as ``models.BUILDERS``.  ``uninstall`` restores the
original objects.  The program itself is not modified.

Spans are kept in memory.  Self times are derived by sweeping span
boundaries: each instant of a traced operation is charged to the
innermost active spans, split evenly when worker threads run several at
once, so the self times of one operation add up to its wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import types
from collections import defaultdict

LAYERS = (
    "phase_space", "models", "conditional", "fock", "koopman", "spins",
    "circuits", "cli",
)
ROOT = "bench.op"


class Span:
    __slots__ = ("name", "parent", "op", "attrs", "start", "end", "error",
                 "bookkeeping")

    def __init__(self, name, parent, op, attrs):
        self.name = name
        self.parent = parent
        self.op = op
        self.attrs = attrs
        self.start = self.end = self.bookkeeping = 0.0
        self.error = False


class Tracer:
    """Records spans around the public functions of the qmfslab layers.

    ``attr_fns`` maps a qualified name such as
    ``"conditional.simulate_batch"`` to a function of the bound call
    arguments returning a dict of span attributes (work counts).
    """

    def __init__(self, package, attr_fns=None):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.attr_fns = attr_fns or {}
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span was caused by whatever the
            # submitting (main) thread is running
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, self.op, attrs)
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span, stack

    def _wrap(self, name, fn):
        attr_fn = self.attr_fns.get(name)
        sig = inspect.signature(fn) if attr_fn else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            attrs = None
            if attr_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = attr_fn(bound.arguments)
            span, stack = tracer._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                # time this wrapper spent outside the wrapped call
                span.bookkeeping = (span.start - entered
                                    + time.perf_counter() - span.end)

        return wrapper

    def public_functions(self):
        """{original function: qualified name} for every layer."""
        found = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[obj] = f"{layer}.{attr}"
        return found

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(name, fn)
                    for fn, name in self.public_functions().items()}
        for mod in (self.package, *self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if (isinstance(value, types.FunctionType)
                                and value in wrappers):
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[value]

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches = []

    def root(self, op_id):
        """Context manager for the benchmark's own span around one operation."""
        return _RootSpan(self, op_id)

    def dump(self, path, pass_of_op):
        """Write the spans as JSON lines (times relative to the first span)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": index.get(id(s.parent)),
                    "op": s.op,
                    "pass": pass_of_op.get(s.op),
                    "error": s.error,
                    "attrs": s.attrs,
                }) + "\n")


class _RootSpan:
    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        self.tracer.op = self.op_id
        self.span, self.stack = self.tracer._open(ROOT, None)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.end = time.perf_counter()
        self.span.error = exc_type is not None
        self.stack.pop()
        self.tracer.op = None
        return False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict:
    """Self time of every span: {id(span): seconds}.

    Between consecutive span boundaries the elapsed time goes to the
    active spans that have no active child, split evenly among them.
    """
    events = []
    for s in spans:
        events.append((s.start, 1, id(s), s))
        events.append((s.end, 0, id(s), s))
    events.sort(key=lambda e: (e[0], e[1]))
    own = {id(s): 0.0 for s in spans}
    active = set()
    leaves = set()
    open_children = defaultdict(int)
    prev = None
    for t, is_start, key, span in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        prev = t
        parent = id(span.parent) if span.parent is not None else None
        if is_start:
            active.add(key)
            leaves.add(key)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(key)
            leaves.discard(key)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own
