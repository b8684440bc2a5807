"""Outside-in tracer: wraps coeffmod's functions and methods without editing them.

Every function bound in a coeffmod module namespace is replaced by one
wrapper per function object, in every namespace that binds it (so
`chains.module_power` and `graded.module_power` record the same span name),
and methods are wrapped on their class.  Dunder methods other than __init__
are left alone: they are hashing, ordering and context-manager protocol, not
layer boundaries.  Functions reached only through containers built at import
time (the CLI's command table) run unwrapped; their callees are still traced.

Spans are kept in memory as parallel arrays (name id, start ns, end ns,
parent span, operation id, raised flag) and analysed after the run:
self time is a span's duration minus the durations of its direct children,
and the inclusive time `s` of a name counts only its outermost spans, so
recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("coeffmod", "coeffmod.chains", "coeffmod.cli", "coeffmod.errors", "coeffmod.graded",
           "coeffmod.hilbert", "coeffmod.linalg", "coeffmod.modops", "coeffmod.poly")


def span_name(fn):
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.current_op = -1
        self.accepted_inserts = 0
        self.rref_cells = 0
        self._stack = [-1]
        self._patched = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn):
        name = span_name(fn)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, op, raised, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self.raised, self._stack,
        )
        clock = time.perf_counter_ns
        tracer = self
        hook = {"linalg.SpanBuilder.insert": self._count_insert, "linalg.rref": self._count_cells}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            raised.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_insert(self, args, result):
        if result is True:
            self.accepted_inserts += 1

    def _count_cells(self, args, result):
        self.rref_cells += args[0].nrows * args[0].ncols

    def install(self):
        wrappers = {}

        def wrapped(fn):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            return wrappers[fn]

        for modname in MODULES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__.startswith("coeffmod"):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped(value))
                elif inspect.isclass(value) and value.__module__ == modname:
                    for mattr, member in list(vars(value).items()):
                        if mattr.startswith("__") and mattr != "__init__":
                            continue
                        if inspect.isfunction(member):
                            replacement = wrapped(member)
                        elif isinstance(member, (classmethod, staticmethod)):
                            replacement = type(member)(wrapped(member.__func__))
                        else:
                            continue
                        self._patched.append((value, mattr, member))
                        setattr(value, mattr, replacement)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- spans --------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, in the order they were entered.  The arrays
        are views of the tracer's buffers: take them after the last span."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path, spans):
        np.savez(path, names=np.array(self.names), **spans)


def span_times(spans):
    """Per-span duration, self time and an outermost-of-its-name flag (ns)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    selfs = dur - child
    outer = np.ones(len(dur), dtype=bool)
    names = spans["name"]
    for nid in np.unique(names):
        idx = np.nonzero(names == nid)[0]  # entry order, so starts ascend
        ends = spans["end"][idx]
        reach = np.maximum.accumulate(ends)
        outer[idx[1:]] = spans["start"][idx[1:]] >= reach[:-1]
    return dur, selfs, outer


class SpanStats:
    """Calls, self time and outermost inclusive time per span name."""

    def __init__(self, names, spans):
        self.names = list(names)
        self.spans = spans
        dur, selfs, outer = span_times(spans)
        count = len(self.names)
        ids = spans["name"]
        self.calls = np.bincount(ids, minlength=count)
        self.self_ns = np.zeros(count, dtype=np.int64)
        np.add.at(self.self_ns, ids, selfs)
        self.incl_ns = np.zeros(count, dtype=np.int64)
        np.add.at(self.incl_ns, ids[outer], dur[outer])
        self.raised = np.bincount(ids, weights=spans["raised"], minlength=count)
        self._index = {n: i for i, n in enumerate(self.names)}

    def _get(self, table, name):
        i = self._index.get(name)
        return 0 if i is None else int(table[i])

    def count(self, name):
        return self._get(self.calls, name)

    def self_s(self, name):
        return self._get(self.self_ns, name) / 1e9

    def s(self, name):
        return self._get(self.incl_ns, name) / 1e9

    def raised_count(self, name):
        return self._get(self.raised, name)

    def child_calls(self, name, parent_name):
        """Spans of `name` whose direct parent is a span of `parent_name`."""
        i, j = self._index.get(name), self._index.get(parent_name)
        if i is None or j is None:
            return 0
        ids, parent = self.spans["name"], self.spans["parent"]
        mine = np.nonzero(ids == i)[0]
        parents = parent[mine]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(ids[parents] == j))
