"""Spans around the public functions of each sepsets layer, for traced rounds.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper, in every sepsets module that binds it (``from .x import
f`` makes a binding per importing module), plus ``PowerSeries.__mul__`` and
``PowerSeries.coeff``.  Generator functions are timed per ``next()``.  A
call made while the same function's span is open (recursion) runs
unwrapped inside it.  ``Tracer.remove`` puts every original back.

Self time of a span is its duration minus the durations of the spans that
opened inside it.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = {
    "cli": ("sepsets.cli",),
    "audit": ("sepsets.audit",),
    "oracle": ("sepsets.oracle", "sepsets._purecount", "sepsets._fastcount"),
    "counting": ("sepsets.counting",),
    "series": ("sepsets.series",),
    "omega_phi": ("sepsets.omega_phi",),
    "binomials": ("sepsets.binomials",),
}
_METHODS = (("sepsets.series", "PowerSeries", ("__mul__", "coeff")),)
# entry points whose EnumerationCapError counts as a cap error
_CAP_KEYS = ("sepsets.oracle.count_brute", "sepsets.oracle.list_brute")
_MARK = "_sepsets_bench_span"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [key, start, child seconds, label]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.yields: dict[str, int] = {}
        self.labelled: dict[str, float] = {}
        self.cap_errors = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from sepsets.oracle import EnumerationCapError

        self._cap_error = EnumerationCapError
        holders = [mod for name, mod in sorted(sys.modules.items())
                   if name == "sepsets" or name.startswith("sepsets.")]
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = sys.modules.get(modname)
                if mod is None:
                    continue
                for name, fn in sorted(vars(mod).items()):
                    if (name.startswith("_") or isinstance(fn, type) or not callable(fn)
                            or getattr(fn, "__module__", None) != modname):
                        continue
                    key = f"{modname}.{name}"
                    wrapper = self._wrap(fn, key)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is fn:
                                self._set(holder, attr, wrapper)
        for modname, clsname, names in _METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for name in names:
                key = f"{modname}.{clsname}.{name}"
                self._set(cls, name, self._wrap(vars(cls)[name], key))

    def _set(self, holder, attr: str, wrapper) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def remove(self) -> None:
        """Restore every original binding and check none of ours is left."""
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)
        for name, mod in list(sys.modules.items()):
            if name == "sepsets" or name.startswith("sepsets."):
                left = [a for a, v in vars(mod).items() if hasattr(v, _MARK)]
                if left:
                    raise RuntimeError(f"span wrappers left in {name}: {left}")

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, key: str):
        stack = self.stack
        calls = self.calls
        calls[key] = 0
        self.self_s[key] = 0.0
        self.yields[key] = 0
        close = self._close
        counts_caps = key in _CAP_KEYS
        labels = key == "sepsets.audit.run_audit"

        if inspect.isgeneratorfunction(fn):
            tracer = self

            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == key:
                    return fn(*args, **kwargs)
                calls[key] += 1
                return _GeneratorSpans(tracer, key, fn(*args, **kwargs), counts_caps)
        else:
            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == key:
                    return fn(*args, **kwargs)
                calls[key] += 1
                frame = [key, 0.0, 0.0,
                         f"audit.identity.{args[0].value}.s" if labels else None]
                stack.append(frame)
                frame[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    if counts_caps and isinstance(exc, self._cap_error):
                        self.cap_errors += 1
                    raise
                finally:
                    close(frame)

        setattr(wrapper, _MARK, key)
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _close(self, frame: list) -> None:
        duration = perf_counter() - frame[1]
        stack = self.stack
        stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3] is not None:
            self.labelled[frame[3]] = self.labelled.get(frame[3], 0.0) + duration

    def counters(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "yields": self.yields,
            "labelled": self.labelled,
            "cap_errors": self.cap_errors,
        }


class _GeneratorSpans:
    """Iterator proxy that opens one span per ``next()``."""

    __slots__ = ("tracer", "key", "gen", "counts_caps")

    def __init__(self, tracer: Tracer, key: str, gen, counts_caps: bool) -> None:
        self.tracer = tracer
        self.key = key
        self.gen = gen
        self.counts_caps = counts_caps

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = [self.key, 0.0, 0.0, None]
        tracer.stack.append(frame)
        frame[1] = perf_counter()
        try:
            value = next(self.gen)
        except Exception as exc:
            if self.counts_caps and isinstance(exc, tracer._cap_error):
                tracer.cap_errors += 1
            raise
        finally:
            tracer._close(frame)
        tracer.yields[self.key] += 1
        return value


def layer_of(key: str) -> str:
    modname = key.rsplit(".", 1)[0]
    if modname.endswith(".PowerSeries"):
        modname = modname.rsplit(".", 1)[0]
    for layer, modnames in LAYERS.items():
        if modname in modnames:
            return layer
    raise KeyError(key)
