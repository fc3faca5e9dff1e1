"""Span tracer for the traced run.

It wraps the public functions of residua's modules, and a few class
methods, from outside the program: every module attribute bound to a
wrapped function is rebound to the wrapper, because the modules import
each other's functions by name.  Each call records a span (name, start,
end, parent) in flat arrays; self time is a span's duration minus the
durations of its direct children, which never overlap in this
single-threaded process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

MODULES = ("lattice", "residual", "laws", "topology", "testbed", "generators", "cli")

# Class methods that carry the work on their own, outside any wrapped
# module function.  Spans are named <module>.<method>, or
# <module>.<Class>.<method> where the module also has a function of that
# name.
METHODS = {
    ("lattice", "FinitePoset"): ("verify_axioms",),
    ("lattice", "FiniteLattice"): ("meet_of_set", "join_of_set"),
    ("testbed", "OrdinalCoframe"): (
        "profile",
        "isolated_oracle",
        "subspace_isolation_sweep",
        "characterization_predicates",
        "check_s1s2_above",
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.checked = 0
        self.profile_calls = 0
        self.profile_keys: set = set()
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, namer=None, after=None):
        """Wrapper recording one span per call; ``namer(args)`` may pick the
        span name per call and ``after(args, result)`` sees the result."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid if namer is None else namer(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- hooks for the counters ---------------------------------------------

    def _law_name(self, args, kwargs):
        law = args[1] if len(args) > 1 else kwargs["law"]
        return self.name_id(f"laws.run_law.{law.value}")

    def _law_done(self, args, kwargs, report):
        self.checked += report.checked

    def _profile_done(self, args, kwargs, profile):
        self.profile_calls += 1
        self.profile_keys.add((id(args[0]), args[1]))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"residua.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "laws.run_law":
                    wrappers[obj] = self.wrap(obj, name, namer=self._law_name, after=self._law_done)
                elif name == "residual.residual_profile":
                    wrappers[obj] = self.wrap(obj, name, after=self._profile_done)
                else:
                    wrappers[obj] = self.wrap(obj, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "residua" or mod_name.startswith("residua.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for (short, cls_name), methods in METHODS.items():
            mod = modules[short]
            cls = getattr(mod, cls_name)
            for attr in methods:
                fn = cls.__dict__[attr]
                clash = inspect.isfunction(vars(mod).get(attr))
                name = f"{short}.{cls_name}.{attr}" if clash else f"{short}.{attr}"
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def aggregate(self) -> dict:
        """{name: (calls, self seconds)} over all recorded spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
        return {self.names[k]: (calls[k], self_s[k]) for k in range(len(self.names))}

    def write(self, path_prefix: str) -> None:
        """Spans as four native-endian arrays (name id, parent index, start,
        end) in ``<prefix>.bin``, with names and layout in ``<prefix>.json``."""
        os.makedirs(os.path.dirname(path_prefix), exist_ok=True)
        with open(path_prefix + ".bin", "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
        with open(path_prefix + ".json", "w") as f:
            json.dump(
                {
                    "spans": len(self.start),
                    "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                    "names": self.names,
                },
                f,
            )
