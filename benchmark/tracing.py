"""Span tracing around calls into cmrs, from the benchmark's side only.

Spans are recorded at each layer boundary the benchmark can reach without
editing the program:

* its own calls (``config.load``, ``config.build_model``,
  ``allocation.allocate``, ``allocation.breakdown_scan``, ``cli.write_csv``,
  ``transforms.diagonal``);
* the names ``allocate`` looks up at call time, patched for the duration of a
  traced call (``cmrs.allocation.scheme_nodes``, ``invert_values`` and
  ``AtomicTransformRemainder.values_at``) and ``cmrs.models.complex_solve``;
* the model's callables, swapped in a copy made by ``dataclasses.replace``.

A name that no longer exists is reported as absent instead of failing.  A
span is (id, parent id, name, start, end); spans stay in memory and are
written out at the end.  Self time is a span's duration minus the part its
direct children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute path, span name), patched while a traced call runs
PATCHES = (
    ("cmrs.allocation", "scheme_nodes", "inversion.scheme_nodes"),
    ("cmrs.allocation", "invert_values", "inversion.invert_values"),
    ("cmrs.allocation", "AtomicTransformRemainder.values_at", "allocation.values_at"),
    ("cmrs.models", "complex_solve", "models.complex_solve"),
)
# (model field, span name)
MODEL_CALLABLES = (
    ("aggregate_transform", "models.aggregate"),
    ("batch_allocation_transform", "models.batch"),
    ("allocation_transform", "models.allocation"),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.name_of = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.errors: dict[int, str] = {}
        self.cells = 0  # columns handed to invert_values
        self.absent: set[str] = set()
        self._stack = [0]
        self._next = 1

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        ids, parents, name_of = self.ids, self.parents, self.name_of
        starts, ends, errors = self.starts, self.ends, self.errors

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[sid] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                name_of.append(nid)
                starts.append(t0)
                ends.append(t1)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def mark(self) -> int:
        """Position to summarize from: spans recorded after it."""
        return len(self.ids)

    def summary(self, since: int = 0) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) and self seconds, and
        errors by exception name, over spans recorded after ``since``."""
        child = defaultdict(float)
        for k in range(since, len(self.ids)):
            child[self.parents[k]] += self.ends[k] - self.starts[k]
        out: dict[str, dict] = {}
        for k in range(since, len(self.ids)):
            row = out.setdefault(
                self.names[self.name_of[k]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": Counter()},
            )
            dur = self.ends[k] - self.starts[k]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child.get(self.ids[k], 0.0)
            err = self.errors.get(self.ids[k])
            if err:
                row["errors"][err] += 1
        return out

    def drop_before(self, since: int) -> None:
        """Forget spans recorded before ``since`` (keeps memory flat)."""
        for arr in (self.ids, self.parents, self.name_of, self.starts, self.ends):
            del arr[:since]

    def write(self, path: str, header: dict) -> int:
        """Write the spans in memory as gzip-compressed lines
        ``id parent name start_ns end_ns [error]`` after a JSON header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "absent": sorted(self.absent)}) + "\n")
            for k in range(len(self.ids)):
                sid = self.ids[k]
                line = (
                    f"{sid} {self.parents[k]} {self.names[self.name_of[k]]} "
                    f"{int(self.starts[k] * 1e9)} {int(self.ends[k] * 1e9)}"
                )
                err = self.errors.get(sid)
                fh.write(f"{line} {err}\n" if err else line + "\n")
        return len(self.ids)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + dotted ``path``, or
    None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    return (owner, attr) if present else None


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Swap the internal names ``allocate`` and the models look up for traced
    wrappers, and restore them on exit."""
    saved = []
    try:
        for module, path, name in PATCHES:
            found = _resolve(module, path)
            if found is None:
                tracer.absent.add(name)
                continue
            owner, attr = found
            orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            fn = tracer.wrap(name, orig)
            if name == "inversion.invert_values":
                fn = _counting_cells(tracer, fn)
            setattr(owner, attr, fn)
            saved.append((owner, attr, orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _counting_cells(tracer: Tracer, fn):
    def counted(values, *args, **kwargs):
        shape = getattr(values, "shape", None)
        tracer.cells += shape[1] if shape and len(shape) == 2 else 0
        return fn(values, *args, **kwargs)

    return counted


def traced_model(tracer: Tracer, model):
    """Copy of ``model`` whose transform callables record spans."""
    names = {f.name for f in dataclasses.fields(model)}
    swaps = {}
    for attr, name in MODEL_CALLABLES:
        fn = getattr(model, attr, None) if attr in names else None
        if fn is None:
            tracer.absent.add(name)
            continue
        swaps[attr] = tracer.wrap(name, fn)
    return dataclasses.replace(model, **swaps)
