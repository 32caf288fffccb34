"""Span tracing of the tijepa package, installed from outside it.

`Tracer.install` wraps every public function and method of each tijepa
module (plus a few named private hot spots) in place, so nothing under
`src/` changes. A wrapper found under several names (a module-level function
re-imported elsewhere, or `encode` and its `__call__` alias) is one wrapper.
Names that a later refactor removes are simply not wrapped; the metrics that
need them are then reported as absent.

Every traced call opens a frame. Frames of the `numerics` module run about
50k times per step, so they only feed running totals; all other frames are
also kept as spans (name, start, end, parent span, step interval, tag).
Self time is a frame's duration minus its children's. Time is split into
step intervals at each optimizer-step return, so the self times of all
frames in an interval add up to the interval exactly.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import pkgutil
import time
import types
from collections import defaultdict

import numpy as np

# Private names worth a frame of their own: the per-op finiteness check and
# the tape-recording helper, whose call count is the op-call count.
PRIVATE_TARGETS = {"numerics._check_finite", "numerics._record"}

# Methods that the package binds under two names when the class is created.
ALIASES = {"__call__"}

# The function whose return ends an optimizer step.
STEP_FUNCTION = "trainer.adamw_step"


def _content_key(value) -> bytes:
    arr = np.ascontiguousarray(np.asarray(value))
    return hashlib.blake2b(arr.tobytes() + str(arr.shape).encode(), digest_size=16).digest()


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def package_modules(package):
    # `__main__` is skipped: importing it runs the command line
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if not info.name.startswith("_")]


def rebind(modules, replace) -> None:
    """Point every module-level name bound to a key of ``replace`` at its value,
    including the copies that `from x import f` made in other modules."""
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in replace:
                setattr(module, attr, replace[obj])


def install_step_clock(package, stamps: list) -> None:
    """The untraced run's only wrapper: append a timestamp when a step returns."""
    modules = package_modules(package)
    module_name, attr = STEP_FUNCTION.split(".")
    step = getattr(importlib.import_module(f"{package.__name__}.{module_name}"), attr, None)
    if step is None:
        return  # no timestamps: the step checks fail and say why
    perf = time.perf_counter

    @functools.wraps(step)
    def timed(*args, **kwargs):
        result = step(*args, **kwargs)
        stamps.append(perf())
        return result

    rebind(modules, {step: timed})


class Tracer:
    """Frames, spans and counters of the traced calls in one process."""

    def __init__(self):
        self.on = False
        # open frames: [name, start, start of the current interval's part,
        # children's time in that part, span index or -1, interval at start]
        self.stack = []
        self.spans = []          # (name, start, end, parent span, interval, tag)
        self.depth = defaultdict(int)
        self.incl = defaultdict(float)   # canonical name (and name#tag) -> seconds
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.raised = defaultdict(int)
        self.interval = 0
        self.interval_start = 0.0
        self.interval_full = False
        self.cur_self = defaultdict(float)
        # one entry per closed interval: (full, start, end, loop owner, self by name)
        self.intervals = []
        self.boundaries = []
        self.wrapped = set()
        self._seen_text = set()
        self._seen_image = set()
        self._fusion_kind = {}

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        modules = package_modules(package)
        short = {m.__name__: m.__name__.rsplit(".", 1)[1] for m in modules}
        replace = {}
        for module in modules:
            prefix = short[module.__name__]
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    name = f"{prefix}.{attr}"
                    if not attr.startswith("_") or name in PRIVATE_TARGETS:
                        replace[obj] = self._wrap(obj, name, name)
                elif (isinstance(obj, type) and obj.__module__ == module.__name__
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, f"{prefix}.{attr}")
        rebind(modules, replace)

    def _wrap_class(self, cls, qualname: str) -> None:
        names_by_fn = defaultdict(list)
        for attr, obj in vars(cls).items():
            fn = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
            if not isinstance(fn, types.FunctionType):
                continue
            if attr.startswith("_") and attr not in ALIASES:
                continue
            names_by_fn[fn].append(attr)
        for fn, attrs in names_by_fn.items():
            # an alias pair is one method: name it after its public spelling
            public = [a for a in attrs if a not in ALIASES]
            name = f"{qualname}.{public[0] if public else attrs[0]}"
            wrapper = self._wrap(fn, name, self._canonical_for(cls, qualname, attrs))
            for attr in attrs:
                obj = vars(cls)[attr]
                if isinstance(obj, classmethod):
                    setattr(cls, attr, classmethod(wrapper))
                elif isinstance(obj, staticmethod):
                    setattr(cls, attr, staticmethod(wrapper))
                else:
                    setattr(cls, attr, wrapper)

    @staticmethod
    def _canonical_for(cls, qualname, attrs):
        # A separately defined __call__ that forwards to encode/predict counts
        # as the same method, so a refactor between the two keeps the metric.
        if attrs == ["__call__"]:
            for partner in ("encode", "predict"):
                if partner in vars(cls):
                    return f"{qualname}.{partner}"
        public = [a for a in attrs if a not in ALIASES]
        return f"{qualname}.{public[0] if public else attrs[0]}"

    def _wrap(self, fn, name, canonical):
        self.wrapped.add(name)
        keep_span = not name.startswith("numerics.") or name == "numerics.backward"
        before = {
            "encoders.TextEncoder.encode": self._before_text,
            "encoders.ImageEncoder.encode": self._before_image,
            "core.FusionModule.__call__": self._before_fusion,
            "numerics.backward": self._before_backward,
        }.get(canonical)
        after = {
            STEP_FUNCTION: self._after_step,
            "trainer.save_checkpoint": self._after_save,
        }.get(canonical)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            outer = tracer.depth[canonical] == 0
            tag = tracer.hook(before, canonical, args, kwargs) if outer else None
            tracer.depth[canonical] += 1
            frame = tracer.open(name, keep_span, perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[canonical] += 1
                raise
            finally:
                tracer.depth[canonical] -= 1
                end = perf()
                tracer.close(frame, canonical, outer, tag, end)
            tracer.hook(after, canonical, args, kwargs, end)
            return result

        return wrapper

    def hook(self, fn, canonical, *args):
        """Run a measuring hook; if a refactor broke its assumptions, note it
        (its metrics are then left out) and let the program go on."""
        if fn is None:
            return None
        try:
            return fn(*args)
        except Exception:  # the hook measures; it must never fail the program
            self.counts[f"hook_error.{canonical}"] += 1
            return None

    # -- frames --------------------------------------------------------------

    def open(self, name, keep_span, now):
        stack = self.stack
        if not stack:
            self._start_interval(now, full=False)
        span_index = -1
        if keep_span:
            span_index = len(self.spans)
            self.spans.append(None)  # filled on close, so children follow parents
        frame = [name, now, now, 0.0, span_index, self.interval]
        stack.append(frame)
        return frame

    def close(self, frame, canonical, outer, tag, end):
        stack = self.stack
        stack.pop()
        name, start, seg_start, child, span_index, interval = frame
        self.cur_self[name] += (end - seg_start) - child
        if stack:
            stack[-1][3] += end - seg_start
        if outer:
            self.calls[canonical] += 1
            self.incl[canonical] += end - start
            if tag is not None:
                self.calls[f"{canonical}#{tag}"] += 1
                self.incl[f"{canonical}#{tag}"] += end - start
            if name == "eval_head.pooled_representation" and self.depth["eval_head.finetune"]:
                self.incl["eval_head.features_in_finetune"] += end - start
        if span_index >= 0:
            parent = next((f[4] for f in reversed(stack) if f[4] >= 0), -1)
            self.spans[span_index] = (name, start, end, parent, interval, tag)
        if not stack:
            self._end_interval(end, owner=None, full=False)

    def _start_interval(self, now, full):
        self.interval += 1
        self.interval_start = now
        self.interval_full = full
        self.cur_self = defaultdict(float)

    def _end_interval(self, now, owner, full):
        self.intervals.append((full, self.interval_start, now, owner, dict(self.cur_self)))

    def _after_step(self, args, kwargs, end):
        # Charge every open frame (the training loop and the CLI call) with its
        # self time up to the step boundary, then start the next interval.
        stack = self.stack
        for i in range(len(stack) - 1, -1, -1):
            frame = stack[i]
            covered = end - frame[2]
            self.cur_self[frame[0]] += covered - frame[3]
            if i:
                stack[i - 1][3] += covered
        for frame in stack:
            frame[2] = end
            frame[3] = 0.0
        self.boundaries.append(end)
        self._end_interval(end, owner=stack[-1][0] if stack else None,
                           full=self.interval_full)
        self._start_interval(end, full=True)

    # -- hooks ---------------------------------------------------------------

    def _before_text(self, args, kwargs):
        key = _content_key(_arg(args, kwargs, 1, "token_ids"))
        if key in self._seen_text:
            self.counts["repeat.text"] += 1
        self._seen_text.add(key)
        return None

    def _before_image(self, args, kwargs):
        if _arg(args, kwargs, 2, "visible") is not None:
            return "ctx"
        key = _content_key(_arg(args, kwargs, 1, "image"))
        if key in self._seen_image:
            self.counts["repeat.image_full"] += 1
        self._seen_image.add(key)
        return "full"

    def _before_fusion(self, args, kwargs):
        module = args[0]
        kind = self._fusion_kind.get(id(module))
        if kind is None:
            trainable = any(p.requires_grad for p in module.named_parameters().values())
            kind = self._fusion_kind[id(module)] = "online" if trainable else "target"
        return kind

    def _before_backward(self, args, kwargs):
        from tijepa import numerics

        active_tape = numerics.active_tape
        tape = getattr(active_tape, "__wrapped__", active_tape)()
        entries = getattr(tape, "entries", tape)
        self.counts["tape_records"] += len(entries)
        for entry in entries:
            op = getattr(entry, "op", None)
            if op is None and isinstance(entry, tuple) and entry and isinstance(entry[0], str):
                op = entry[0]
            self.counts[f"tape_records.{op}"] += 1
        return None

    def _after_save(self, args, kwargs, end):
        path = _arg(args, kwargs, 1, "path")
        self.counts["ckpt_bytes"] += os.path.getsize(path)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Totals for run.py to merge across processes (all times in seconds)."""
        full = [iv for iv in self.intervals if iv[0]]
        module_self_full = defaultdict(float)
        module_self_all = defaultdict(float)
        for full_flag, _start, _end, _owner, by_name in self.intervals:
            for name, seconds in by_name.items():
                module_self_all[name.split(".")[0]] += seconds
                if full_flag:
                    module_self_full[name.split(".")[0]] += seconds
        # self times in an interval must add up to its length; a gap means a
        # frame escaped the accounting
        gap = max((abs(sum(by_name.values()) - (end - start))
                   for _f, start, end, _o, by_name in self.intervals), default=0.0)
        return {
            "wrapped": sorted(self.wrapped),
            "incl": dict(self.incl),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "raised": dict(self.raised),
            "steps": len(self.boundaries),
            "interval_s": [end - start for _f, start, end, _o, _b in full],
            "step_self_s": sum(by_name.get(owner, 0.0) for _f, _s, _e, owner, by_name in full),
            "module_self_full_s": dict(module_self_full),
            "module_self_all_s": dict(module_self_all),
            "max_sum_gap_s": gap,
        }

    def span_records(self):
        # "step" is the id of the step interval the span started in
        return [dict(zip(("name", "start", "end", "parent", "step", "tag"), span))
                for span in self.spans if span is not None]
