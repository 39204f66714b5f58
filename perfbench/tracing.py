"""Per-layer tracing from the benchmark's side of the calls.

``Tracer.install`` replaces every public callable of the traced
``spineflow`` modules with a timing wrapper: module functions at every
module binding (``equivalence`` imports ``iter_isomorphisms_tagged`` by
name, ``cli`` imports ``spec_equivalent``, and so on), and the
constructor and public methods of each public class on the class
itself.  Generator functions are timed across every resumption.
``Tracer.uninstall`` puts every original object back.  Nothing under
``src/`` changes, and an untraced run never creates a ``Tracer``.

Every timed interval is a span with a name, a start, an end and the
span open when it began.  Spans are kept in memory (up to
``max_spans``; later ones still count toward the totals) and written
out by ``write_spans``.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import array
import enum
import functools
import gzip
import inspect
import sys
import time

#: counted as "calls of X made while Y is running"
NESTED_CALLS = (
    ("fatgraph.FatGraph", "fatgraph.enumerate_spines"),
    ("fatgraph.iter_isomorphisms_tagged", "equivalence.spec_equivalent"),
    ("equivalence.spec_equivalent", "census.spec_census"),
)
#: counted from return values
RESULT_COUNTS = {
    "equivalence.spec_equivalent": ("hits", lambda result: result is not None),
    "flowgraph.periodic_words": ("words", len),
}


class Tracer:
    def __init__(self, package, module_names, max_spans: int = 500_000):
        self.package = package
        self.module_names = module_names
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.yielded: list[int] = []
        self.self_time: list[float] = []
        self.counts: dict[str, int] = {}
        self._depth: list[int] = []
        self._nested = {}
        # open spans: [name id, start, child time, span index]
        self._stack: list[list] = []
        self.span_count = 0
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.yielded, self._depth):
                table.append(0)
            self.self_time.append(0.0)
        return self._ids[name]

    def _call(self, nid: int) -> None:
        self.calls[nid] += 1
        for ancestor, key in self._nested.get(nid, ()):
            if self._depth[ancestor]:
                self.counts[key] = self.counts.get(key, 0) + 1

    def _open(self, nid: int) -> None:
        index = -1
        if self.span_count < self.max_spans:
            index = self.span_count
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        self.span_count += 1
        self._depth[nid] += 1
        frame = [nid, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()

    def _close(self) -> None:
        end = time.perf_counter()
        nid, start, child, index = self._stack.pop()
        duration = end - start
        self.self_time[nid] += duration - child
        self._depth[nid] -= 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    # -- wrappers ------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        nid = self._id(name)
        counted = RESULT_COUNTS.get(name)
        key = f"{name}.{counted[0]}" if counted else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._call(nid)
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counted:
                self.counts[key] = self.counts.get(key, 0) + int(counted[1](result))
            return result
        return wrapper

    def _wrap_generator(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._call(nid)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    self.yielded[nid] += 1
                    yield item
            finally:
                inner.close()
        return wrapper

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_function(name, fn)

    # -- installation --------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if n == prefix or n.startswith(prefix + ".")]

    def install(self) -> None:
        for child, ancestor in NESTED_CALLS:
            key = f"{child}@{ancestor}"
            self._nested.setdefault(self._id(child), []).append(
                (self._id(ancestor), key))
        bindings = self._modules()
        for short in self.module_names:
            module = sys.modules[f"{self.package.__name__}.{short}"]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(f"{short}.{attr}", obj)
                elif inspect.isfunction(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    for owner in bindings:
                        for name, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, name, wrapper)

    def _install_class(self, name: str, cls) -> None:
        if issubclass(cls, enum.Enum):
            return
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                label = name
            elif attr.startswith("_"):
                continue
            else:
                label = f"{name}.{attr}"
            if isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(label, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(label, member))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_s(self, name: str) -> float:
        return self.self_time[self._ids[name]] if name in self._ids else 0.0

    def yielded_by(self, name: str) -> int:
        return self.yielded[self._ids[name]] if name in self._ids else 0

    def write_spans(self, path) -> None:
        """Gzipped text, one line per kept span: name, parent span index
        (-1 for none), start and end in seconds."""
        kept = min(self.span_count, self.max_spans)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(f"# spans {self.span_count} kept {kept}\n")
            for i in range(kept):
                handle.write(f"{self.names[self.span_name[i]]}\t"
                             f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t"
                             f"{self.span_end[i]:.9f}\n")
