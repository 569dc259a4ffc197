"""Spans and counters around the calls into each ``preassoc`` module.

The tracer lives entirely in the benchmark: it rebinds names in the
package's module namespaces to timing wrappers and restores them on exit, so
no file of the package changes.  What it wraps:

* every public function that some package module imports from another one
  (each binding, including the defining module's own, so intra-module calls
  of such a function are timed too), plus the functions in ``EXTRA_TARGETS``;
* the per-property checkers: the values of ``checks.CHECKERS`` and the
  ``check_*`` functions that other modules import, named ``checks.<property>``;
* ``core.TableFn`` construction (its ``__init__``), named ``core.TableFn``.

Spans are kept in memory as (name, start, end, parent index, item id) and
self time (duration minus the durations of direct children) is aggregated
while they close.  All spans are strictly nested because the workload runs
in one thread; a generator contributes one span per ``next`` call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter

#: Functions traced at their defining module although no other module imports them.
EXTRA_TARGETS = (
    ("enumeration", "epsilon_standard_at"),
    ("enumeration", "equivalence_sweep"),
    ("enumeration", "all_associative_extensions"),
    ("factorize", "build_from_f1_h2"),
    ("serialization", "loads_function"),
)

PACKAGE = "preassoc"


class Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Records spans while ``enabled``; use as a context manager to patch."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []
        self.stats = {}
        self.item = -1
        self.enabled = True
        self._stack = []  # [span index, child seconds, name, start, parent index]
        self._undo = []

    # -- span recording ---------------------------------------------------

    def stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0, name, perf_counter(), parent])
        self.spans.append(None)

    def exit(self):
        end = perf_counter()
        index, child, name, start, parent = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.item)
        self.stat(name).self_s += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def parent_name(self):
        return self._stack[-1][2] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, on_result=None, on_error=None):
        stat = self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stat.calls += 1
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(stat, exc)
                raise
            finally:
                self.exit()
            if on_result is not None:
                on_result(stat, args, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        stat = self.stat(name)

        def iterate(gen):
            while True:
                self.enter(name)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                stat.add("yielded")
                yield value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stat.calls += 1
            return iterate(fn(*args, **kwargs))

        return traced

    def wrap_checker(self, name, fn, form_default=None):
        """A checker span named by property; ``form_default`` marks A/P dispatchers."""

        @functools.wraps(fn)
        def traced(fn_arg, *args, **kwargs):
            if not self.enabled:
                return fn(fn_arg, *args, **kwargs)
            prop = name
            if form_default is not None:
                form = args[0] if args else kwargs.get("form", form_default)
                prop = f"{name}_{form}"
            full = f"checks.{prop}"
            stat = self.stat(full)
            stat.calls += 1
            self.enter(full)
            try:
                verdict = fn(fn_arg, *args, **kwargs)
            finally:
                self.exit()
            stat.add("cases", verdict.cases_checked)
            stat.add("verdicts")
            stat.add("holds", 1 if verdict.holds else 0)
            return verdict

        return traced

    # -- patching ---------------------------------------------------------

    def _modules(self):
        prefix = PACKAGE + "."
        return {
            name[len(prefix):]: module
            for name, module in sorted(sys.modules.items())
            if name.startswith(prefix) and module is not None
        }

    def _targets(self, modules):
        """Public package functions imported across modules, plus EXTRA_TARGETS."""
        targets = {}
        for modname, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(PACKAGE + ".") or value.__name__ != attr:
                    continue
                home = home[len(PACKAGE) + 1:]
                if home != modname:
                    targets[value] = f"{home}.{attr}"
        for modname, attr in EXTRA_TARGETS:
            value = getattr(modules[modname], attr)
            targets[value] = f"{modname}.{attr}"
        return targets

    def _replacement(self, name, fn):
        mods = self.mods
        if name.startswith("checks.check_"):
            prop = name[len("checks.check_"):]
            if prop in ("associative", "preassociative"):
                default = inspect.signature(fn).parameters["form"].default
                return self.wrap_checker(prop, fn, form_default=default)
            if prop in mods.checks.PROPERTY_NAMES:
                return self.wrap_checker(prop, fn)
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(name, fn)
        hooks = {}
        if name == "enumeration.binary_associative":
            hooks["on_result"] = lambda st, a, r: st.add("true", 1 if r else 0)
        elif name in ("serialization.dumps_function", "serialization.dumps_function_compact"):
            hooks["on_result"] = lambda st, a, r: st.add("bytes", len(r.encode("utf-8")))
        elif name == "serialization.loads_function":
            hooks["on_result"] = lambda st, a, r: st.add("bytes", len(a[0].encode("utf-8")))
        elif name == "factorize.factorize":
            hooks["on_error"] = _count_error(mods.errors.PreconditionError, "precondition_failed")
        elif name == "factorize.extend_unary_binary":
            # the (unary, binary) pairs all_associative_extensions tries
            ext = self.stat("enumeration.all_associative_extensions")
            wrapped = self.wrap(
                name, fn, on_error=_count_error(mods.errors.ConditionError, "condition_failed")
            )

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.enabled and self.parent_name() == "enumeration.all_associative_extensions":
                    ext.add("tried")
                return wrapped(*args, **kwargs)

            return counted
        return self.wrap(name, fn, **hooks)

    def __enter__(self):
        modules = self._modules()
        targets = self._targets(modules)
        replacements = {}
        for modname, module in modules.items():
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value not in targets:
                    continue
                name = targets[value]
                if modname == "checks" and name.startswith("checks.check_"):
                    continue  # CHECKERS and its lambdas reach these; wrapped below
                if value not in replacements:
                    replacements[value] = self._replacement(name, value)
                self._undo.append((module, attr, value))
                setattr(module, attr, replacements[value])
        checkers = self.mods.checks.CHECKERS
        for prop, fn in list(checkers.items()):
            self._undo.append((checkers, prop, fn))
            checkers[prop] = self.wrap_checker(prop, fn)
        table_fn = self.mods.core.TableFn
        self._undo.append((table_fn, "__init__", table_fn.__init__))
        table_fn.__init__ = self.wrap("core.TableFn", table_fn.__init__)
        return self

    def __exit__(self, *exc):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()
        return False

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        """Write every span as one JSON line: name, start, end, parent, item."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _count_error(error_type, key):
    def on_error(stat, exc):
        if isinstance(exc, error_type):
            stat.add(key)

    return on_error
