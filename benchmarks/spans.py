"""Span tracing of ``ebr``'s public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules at
every place it is bound: ``forward_clip`` lives in ``ebr.forward`` but is
also imported into ``ebr.eb``, ``ebr.gradients``, ``ebr.synth`` and the
package namespace, and each of those names is swapped for the same
wrapper. ``uninstall`` puts the originals back. A wrapper records one span
(id, parent id, unit of work, name, start, end and a few counters) in
memory; nothing is written until ``write``.

A function's self time is its span's duration minus the durations of its
direct child spans. Calls the package makes to its own private helpers are
not spans, so their time stays with the nearest public caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time

MODULES = ("forward", "eb", "gradients", "grounding", "synth", "tensorfile", "model", "render", "cli")

MODES = ("EB", "cEB", "EB-R", "cEB-R", "BP", "BP-R")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _nbytes(x):
    return int(getattr(x, "nbytes", 0))


# name -> f(args, kwargs, result) -> (bytes, frames, mode)
ANNOTATE = {
    "forward.im2col": lambda a, k, r: (_nbytes(r[0]), 0, ""),
    "forward.forward_clip": lambda a, k, r: (0, _arg(a, k, 1, "clip").length, ""),
    "eb.run_saliency": lambda a, k, r: (0, _arg(a, k, 1, "clip").length, _arg(a, k, 3, "mode")),
    "tensorfile.load_tensor": lambda a, k, r: (_nbytes(r), 0, ""),
    "tensorfile.save_tensor": lambda a, k, r: (_nbytes(_arg(a, k, 0, "t")), 0, ""),
    "render.write_ppm": lambda a, k, r: (_nbytes(_arg(a, k, 1, "rgb")), 0, ""),
}


def public_functions(package) -> dict:
    """'module.name' -> function for every public function the traced modules define."""
    out = {}
    for mod_name in MODULES:
        mod = getattr(package, mod_name, None)
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{mod_name}.{name}"] = obj
    return out


class Tracer:
    def __init__(self, package):
        self.package = package
        self.functions = public_functions(package)
        self.spans = []  # (id, parent, unit, name, t0, t1, bytes, frames, mode)
        self.unit = -1
        self._stack = [0]
        self._next_id = 1
        self._installed = []  # (module, attribute, original)
        self.sites: dict = {}  # 'module.name' -> modules it was bound in

    def _wrap(self, key, fn):
        annotate = ANNOTATE.get(key)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            extra = (0, 0, "")
            if annotate:
                try:
                    extra = annotate(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature costs the counter, not the call
            spans.append((sid, parent, self.unit, key, t0, t1, *extra))
            return result

        return wrapper

    def install(self) -> None:
        """Swap every binding of every public function for its wrapper."""
        originals = {id(fn): key for key, fn in self.functions.items()}
        wrappers = {key: self._wrap(key, fn) for key, fn in self.functions.items()}
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                key = originals.get(id(value))
                if key is not None and value is self.functions[key]:
                    self._installed.append((mod, attr, value))
                    self.sites.setdefault(key, set()).add(mod_name)
                    setattr(mod, attr, wrappers[key])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id\tparent\tunit\tname\tstart_s\tend_s\tbytes\tframes\tmode\n")
            for s in self.spans:
                f.write("\t".join(str(v) for v in s) + "\n")

    # ------------------------------------------------------------------
    # aggregation

    def summarize(self, units: int) -> dict:
        """Per-name totals per unit of work: calls, ms, self_ms, bytes, frames,
        plus per-mode query latencies and col2im time by calling span."""
        names = {s[0]: s[3] for s in self.spans}
        child_time: dict = {}
        for s in self.spans:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
        agg: dict = {}
        per_mode: dict = {m: [] for m in MODES}
        col2im_by_parent: dict = {}
        for sid, parent, _unit, name, t0, t1, nbytes, frames, mode in self.spans:
            a = agg.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "bytes": 0, "frames": 0})
            dur = t1 - t0
            a["calls"] += 1
            a["ms"] += dur * 1e3
            a["self_ms"] += (dur - child_time.get(sid, 0.0)) * 1e3
            a["bytes"] += nbytes
            a["frames"] += frames
            if name == "eb.run_saliency" and mode in per_mode:
                per_mode[mode].append(dur * 1e3)
            if name == "forward.col2im":
                caller = names.get(parent, "none")
                col2im_by_parent[caller] = col2im_by_parent.get(caller, 0.0) + dur * 1e3
        per_unit = {
            name: {k: v / units for k, v in a.items()} for name, a in agg.items()
        }
        return {
            "per_unit": per_unit,
            "raw": agg,
            "mode_p50_ms": {m: (statistics.median(v) if v else 0.0) for m, v in per_mode.items()},
            "mode_samples": {m: len(v) for m, v in per_mode.items()},
            "col2im_by_parent_ms": {k: v / units for k, v in col2im_by_parent.items()},
        }
