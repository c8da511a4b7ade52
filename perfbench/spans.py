"""Span recorder for the traced run.

``Tracer.install`` wraps the public functions of each ruinlab module, plus
the ``sample_n`` methods of the laws and the ``path_log_weight`` methods of
the tilting pairs, and replaces every module attribute that is bound to an
original, so calls through ``from .x import f`` bindings are seen too
(``theta_of_r`` in ``tilts``, ``expectation`` in ``lundberg`` and ``tilts``,
the estimators and root finders in ``cli``). ``restore`` puts the originals
back. Each call records one span: name, start, end, parent span and a count
(draws for ``sample_n``, claims for ``path_log_weight``). Spans stay in
memory until ``save``; self time and counts are derived from them.

Spans assume one thread: the traced pass runs with ``workers=1``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("laws", "model", "lundberg", "tilts", "engine", "tables")


def _sample_count(args) -> int:
    return int(args[2])  # (self, rng, n)


def _weight_count(args) -> int:
    return int(np.size(args[1]))  # (self, x, w)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.count = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, span: str, fn, count=None):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        sid = self._name_ids[span]
        stack, clock = self._stack, time.perf_counter_ns
        name, start, end, parent, counts = self.name, self.start, self.end, self.parent, self.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1])
            counts.append(count(args) if count is not None else 0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, cli: bool = False) -> None:
        """Wrap the library's public functions at every module that binds them."""
        # cli first: a module imported after install would bind the wrappers
        from ruinlab import cli, laws, tilts

        modules = [m for n, m in sys.modules.items() if n == "ruinlab" or n.startswith("ruinlab.")]
        targets = []
        for layer in LAYERS:
            mod = sys.modules[f"ruinlab.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets.append((f"{layer}.{attr}", fn))
        if cli:
            targets.append(("cli.main", cli.main))
        for span, fn in targets:
            wrapped = self._wrap(span, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)
        for cls in _subclasses(laws.PositiveLaw):
            if "sample_n" in vars(cls):
                span = f"laws.sample_n.{cls.__name__}"
                self._patch(cls, "sample_n", self._wrap(span, vars(cls)["sample_n"], _sample_count))
        for cls in _subclasses(tilts.TiltingPair):
            if "path_log_weight" in vars(cls):
                wrapped = self._wrap("tilts.path_log_weight", vars(cls)["path_log_weight"],
                                     _weight_count)
                self._patch(cls, "path_log_weight", wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "count": np.array(self.count, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _subclasses(cls) -> list:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


class SpanStats:
    """Self times, counts and parent relations of a finished trace."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.count = a["count"]
        self.dur = (a["end"] - a["start"]) / 1e9
        has_parent = self.parent >= 0
        child_time = np.zeros(len(self.dur))
        np.add.at(child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_s = self.dur - child_time

    def _by_name(self, pred, ids: np.ndarray) -> np.ndarray:
        ok = np.array([pred(n) for n in self.names] + [False], dtype=bool)
        return ok[ids]

    def mask(self, pred) -> np.ndarray:
        """Spans whose name satisfies ``pred``."""
        return self._by_name(pred, self.name)

    def parent_mask(self, pred) -> np.ndarray:
        """Spans whose parent's name satisfies ``pred`` (roots never do)."""
        ids = np.where(self.parent >= 0, self.name[np.maximum(self.parent, 0)], len(self.names))
        return self._by_name(pred, ids)

    def outer_s(self, span: str) -> float:
        """Inclusive seconds in ``span``, not counting its direct self-recursion."""
        m = self.mask(lambda n: n == span) & ~self.parent_mask(lambda n: n == span)
        return float(self.dur[m].sum())
