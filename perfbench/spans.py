"""Spans around calls into doublepack's public functions, recorded from
outside the package.

``Tracer.install`` rebinds every public function (no leading underscore) of
the seven library modules to a wrapper, in every loaded ``doublepack`` module
that holds a reference to it.  Calls the library makes to its own public functions (``solve_radii``
calling ``layout``, ``roundtrip`` calling ``disc_operator``) are therefore
traced too, and nest under the caller's span.  ``uninstall`` restores the
original bindings, so untraced passes run the unmodified program.

Spans are kept in memory as ``[name, start, end, parent, job, failed]`` rows
(``parent`` is the index of the enclosing span, -1 at the top) and written
out once, at the end of the run.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("tilings", "maps", "packing", "render", "potential", "continuum",
          "transfer")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._job = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._job, False]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        return row

    def _close(self, row):
        row[2] = time.perf_counter()
        self._stack.pop()

    def run_job(self, name, job_id, fn):
        """Run ``fn`` under a top-level ``bench.<name>`` span."""
        self._job = job_id
        row = self._open(f"bench.{name}")
        try:
            return fn()
        except BaseException:
            row[5] = True
            raise
        finally:
            self._close(row)
            self._job = -1

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                row[5] = True
                raise
            finally:
                self._close(row)
        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        import doublepack  # noqa: F401  (loads every submodule)

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"doublepack.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "doublepack" and not modname.startswith("doublepack."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in originals:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)])

    def uninstall(self):
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def layer_totals(self):
        """Per ``<module>.<function>``: calls, busy seconds (sum of span
        time), self seconds (span time minus the time its child spans cover)
        and failed calls, over the library spans only."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            if name.startswith("bench."):
                continue
            t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0, "failed": 0})
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child_time[i]
            t["failed"] += int(failed)
        return totals

    def dump(self, origin):
        """Spans as JSON-ready rows, times in seconds since ``origin``."""
        return [[name, start - origin, end - origin, parent, job, failed]
                for name, start, end, parent, job, failed in self.spans]
