"""Spans recorded from outside binframes, around calls into its layers.

While a Tracer is installed, the functions listed in LAYERS are replaced,
in every binframes module namespace that holds them, by wrappers that
time each call. Nothing under src/ changes. Spans are aggregated in memory
per (layer, function): calls, inclusive time and self time, where self time
is the span's duration minus the time its child spans cover. A wrapper can
also keep the arguments of each call, so that the same calls can be timed
again later with tracing off (see replay).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# The package modules are the layers. Public functions of each module are
# traced; the listed private names are entry points the benchmark reports
# on. _subtree_task is never wrapped: the pool pickles it by name. Hot
# helpers such as gf2._parity are left alone so tracing stays cheap.
LAYERS = ("gf2", "frames", "equivalence", "enumeration", "cli")
PRIVATE_ENTRY_POINTS = {
    "equivalence": ("_min_lex_form",),
    "enumeration": ("_search", "_outer_masks", "_pair_suffix_counts",
                    "_complemented_classes", "_iter_encodings"),
}
METHODS = {
    "gf2": (("BinMatrix", "transpose"), ("BinMatrix", "is_symmetric")),
    "frames": (("Frame", "from_encodings"), ("Frame", "analysis_matrix")),
    "equivalence": (("CanonicalKey", "from_bits"),),
}
# The pool path is _iter_encodings with more than one worker; its time in
# the parent process is time spent waiting on workers.
POOL_FUNCTION = "_iter_encodings"


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span aggregates keyed by (layer, function name).

    capture maps a function name to a list that receives (args, kwargs) of
    every call while the tracer is installed; only names present in it are
    captured.
    """

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], Stat] = {}
        self.capture: dict[str, list] = {}
        # each open span: [layer, name, start_ns, child_ns]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, layer: str, name: str) -> None:
        self._stack.append([layer, name, time.perf_counter_ns(), 0])

    def _exit(self, count: bool = True) -> None:
        end = time.perf_counter_ns()
        layer, name, start, child = self._stack.pop()
        dur = end - start
        st = self.stats.get((layer, name))
        if st is None:
            st = self.stats[(layer, name)] = Stat()
        if count:
            st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Span for one benchmark operation; its self time is the benchmark's
        own. Library calls made outside any root are not traced."""
        self._enter("bench", name)
        try:
            yield
        finally:
            self._exit()

    # -- aggregates -------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (layer, _), st in self.stats.items():
            out[layer] = out.get(layer, 0.0) + st.self_ns / 1e9
        return out

    def total_s(self, layer: str, name: str) -> float:
        st = self.stats.get((layer, name))
        return st.total_ns / 1e9 if st else 0.0

    def calls(self, layer: str, name: str) -> int:
        st = self.stats.get((layer, name))
        return st.calls if st else 0

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer._stack:
                    return (yield from fn(*args, **kwargs))
                lay = layer
                if name == POOL_FUNCTION and _workers(fn, args, kwargs) > 1:
                    lay = "pool"
                tracer._keep(name, args, kwargs)
                gen = fn(*args, **kwargs)
                first = True
                try:
                    while True:
                        tracer._enter(lay, name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            tracer._exit(first)
                            return
                        except BaseException:
                            tracer._exit(first)
                            raise
                        tracer._exit(first)
                        first = False
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer._keep(name, args, kwargs)
            tracer._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    def _keep(self, name: str, args: tuple, kwargs: dict) -> None:
        box = self.capture.get(name)
        if box is not None:
            box.append((args, kwargs))

    def install(self) -> None:
        """Replace every traced function in every binframes namespace."""
        modules = [importlib.import_module("binframes")] + [
            importlib.import_module(f"binframes.{m}") for m in LAYERS]
        for layer in LAYERS:
            mod = importlib.import_module(f"binframes.{layer}")
            for name, fn in _traced_functions(mod, layer):
                wrapped = self._wrap(layer, name, fn)
                for ns in modules:
                    if ns.__dict__.get(name) is fn:
                        self._patch(ns, name, wrapped)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(
                        self._wrap(layer, meth, raw.__func__)))
                elif inspect.isfunction(raw):
                    self._patch(cls, meth, self._wrap(layer, meth, raw))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _traced_functions(mod, layer: str) -> Iterator[tuple[str, Callable]]:
    private = PRIVATE_ENTRY_POINTS.get(layer, ())
    for name, fn in vars(mod).items():
        if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
            continue
        if not name.startswith("_") or name in private:
            yield name, fn


def _workers(fn: Callable, args: tuple, kwargs: dict) -> int:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments.get("workers", 1))


def missing_entry_points() -> list[str]:
    """Traced private names that binframes no longer defines."""
    out = []
    for layer, names in PRIVATE_ENTRY_POINTS.items():
        mod = importlib.import_module(f"binframes.{layer}")
        out += [f"{layer}.{n}" for n in names if not hasattr(mod, n)]
    return out


def replay(fn: Callable, calls: list, min_seconds: float = 0.05,
           max_rounds: int = 50) -> Optional[float]:
    """Mean seconds per call of fn over the captured calls, tracing off.

    The captured list is timed as a whole, repeated until min_seconds have
    passed, so each call's cost is measured without span overhead. Calls
    refused with a ValueError (binframes' refusals) count as made. None
    when nothing was captured.
    """
    if not calls:
        return None
    rounds = 0
    elapsed = 0.0
    while rounds < max_rounds and (rounds == 0 or elapsed < min_seconds):
        t0 = time.perf_counter()
        for args, kwargs in calls:
            try:
                fn(*args, **kwargs)
            except ValueError:       # the refusals the captured call also met
                pass
        elapsed += time.perf_counter() - t0
        rounds += 1
    return elapsed / (rounds * len(calls))
