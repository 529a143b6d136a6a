"""Host-clock spans around the layers' public functions, from outside.

The traced run installs a timing wrapper around every function named in
:data:`LAYER_MAP`, rebinding each module attribute under ``repro`` that
holds the original (``repro.fft.convolution``, ``repro.fft.spectra``,
``repro.hw.device``, ``repro.core.distillation`` and
``repro.core.transform`` all import private copies) and each class
attribute for methods.  Generators -- the chunked convolution and the
lazy mask streams -- are timed per ``next()``, because calling a
generator function does no work.

A span's *self time* is its duration minus the spans nested inside it;
summed per layer, the self times partition the traced host time.  Counts
(``calls``, FFT ``planes``) include only a layer's outermost span, so
``rfft2`` calling ``rfft2_batch`` counts once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: layer -> (module, "function" or "Class.method") targets it owns.
LAYER_MAP = {
    "fft": [
        ("repro.fft.fft2d", "rfft2_batch"),
        ("repro.fft.fft2d", "irfft2_batch"),
        ("repro.fft.fft2d", "fft2_batch"),
        ("repro.fft.fft2d", "ifft2_batch"),
        ("repro.fft.fft2d", "fft2"),
        ("repro.fft.fft2d", "ifft2"),
    ],
    "conv": [
        ("repro.fft.convolution", "fft_circular_convolve2d_chunks"),
        ("repro.fft.convolution", "fft_circular_convolve2d"),
        ("repro.fft.convolution", "fft_circular_convolve2d_batch"),
    ],
    "masking": [
        ("repro.core.masking", "MaskSpec.iter_chunks"),
        ("repro.core.masking", "MaskSpec.apply_chunks"),
    ],
    "distill": [("repro.core.distillation", "ConvolutionDistiller.fit")],
    "fleet": [("repro.core.fleet", "FleetExecutor.run")],
    "serve": [("repro.serve.loop", "ExplanationService.process")],
}

#: The fft wrappers whose input is a (..., M, N) batch of planes.
_BATCH_FFTS = {"rfft2_batch", "irfft2_batch", "fft2_batch", "ifft2_batch"}


class TracingError(RuntimeError):
    """The traced run cannot vouch for its own numbers."""


class LayerClock:
    """Span stack plus per-layer self time and outermost-call counts."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [layer, start, nested seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.wrapper_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, layer: str, target: str, call: bool = True) -> bool:
        """Open a span; returns whether it is the layer's outermost.

        ``call=False`` marks a generator's ``next()``, which is timed
        but not counted as a call.
        """
        if call:
            self.wrapper_calls[target] += 1
        outermost = self._depth[layer] == 0
        if outermost and call:
            self.calls[layer] += 1
        self._depth[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0])
        return outermost

    def exit(self) -> None:
        layer, start, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        self._depth[layer] -= 1
        self.self_seconds[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed


def _resolve(module_name: str, target: str):
    """(owner, attribute, original function) for one map entry."""
    owner = importlib.import_module(module_name)
    *path, attribute = target.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, owner.__dict__[attribute]


def _timed_iterator(clock: LayerClock, layer: str, target: str, iterator):
    """Re-yield ``iterator``, timing each ``next()`` as a span."""
    while True:
        outermost = clock.enter(layer, target, call=False)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            clock.exit()
        if outermost:
            clock.counts[f"{layer}.items"] += 1
        yield item


def _make_wrapper(clock: LayerClock, layer: str, target: str, original):
    name = target.rsplit(".", 1)[-1]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        outermost = clock.enter(layer, target)
        try:
            result = original(*args, **kwargs)
        finally:
            clock.exit()
        if outermost and layer == "fft":
            shape = getattr(args[0], "shape", ())
            planes = 1
            if name in _BATCH_FFTS:
                for extent in shape[:-2]:
                    planes *= int(extent)
            clock.counts["fft.planes"] += planes
        elif outermost and layer == "fleet":
            clock.counts["fleet.pairs"] += len(result.results)
            clock.counts["fleet.waves"] += result.num_waves
        if inspect.isgenerator(result):
            return _timed_iterator(clock, layer, target, result)
        return result

    return wrapper


class InstalledWrappers:
    """Every wrapper of :data:`LAYER_MAP`, bound at every import site.

    Use as a context manager: the originals are restored on exit, so
    untraced runs in the same process stay untouched.
    """

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self.sites: dict[str, list[str]] = defaultdict(list)
        self._undo: list[tuple] = []

    def __enter__(self) -> "InstalledWrappers":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self) -> None:
        originals = {}
        for layer, targets in LAYER_MAP.items():
            for module_name, target in targets:
                try:
                    owner, attribute, original = _resolve(module_name, target)
                except (AttributeError, KeyError, ImportError) as error:
                    raise TracingError(f"cannot wrap {target}: {error!r}") from error
                wrapper = _make_wrapper(self.clock, layer, target, original)
                if inspect.isclass(owner):
                    self._rebind(owner, attribute, original, wrapper, target)
                else:
                    originals[id(original)] = (original, wrapper, target)
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and value is entry[0]:
                    self._rebind(module, attribute, value, entry[1], entry[2])

    def _rebind(self, owner, attribute, original, wrapper, target) -> None:
        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))
        where = (
            f"{owner.__module__}.{owner.__name__}" if inspect.isclass(owner)
            else owner.__name__
        )
        self.sites[target].append(f"{where}.{attribute}")

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
