"""In-memory span recorder that times calls into choreswap from outside.

Timing wrappers are installed by rebinding names in the ``choreswap.*``
module namespaces, so calls made from inside the package are timed too:
names one module imported from another, and ``run_framework``'s call-time
``from .fairness import efx_factor``. Nothing under ``src/`` is edited.

Spans are kept in flat arrays (name id, parent id, start, end) and written
out only when the run ends. A span's self time is its duration minus the
durations of its direct children; everything runs on one thread, so
children never overlap.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ROOT = -1
OP = "op"
PACKAGE = "choreswap"

# (qualified span name, original function, result hook or None). A hook
# sees (tracer, args, result) after a call returns and bumps counters.
Probe = Tuple[str, Callable, Optional[Callable]]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Dict[str, int] = {}
        self.active = False
        self._stack: List[int] = []
        self._bindings: List[tuple] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else ROOT)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, k: int = 1):
        self.counters[key] = self.counters.get(key, 0) + k

    @contextmanager
    def op(self):
        """Root span of one benchmark op; probes record only inside it."""
        sid = self.open(OP)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.close(sid)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, probes: Iterable[Probe]):
        """Rebind every name in the package's modules that refers to a
        probed function, wherever it was imported to."""
        wrappers = {id(fn): (fn, self._wrap(name, fn, hook)) for name, fn, hook in probes}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def restore(self):
        while self._bindings:
            mod, attr, value = self._bindings.pop()
            setattr(mod, attr, value)

    @contextmanager
    def installed(self, probes: Iterable[Probe]):
        try:
            self.install(probes)
            yield self
        finally:
            self.restore()

    def self_ns(self) -> List[int]:
        """Per-span duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for sid, parent in enumerate(self.parent):
            if parent != ROOT:
                out[parent] -= own[sid]
        return out

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """Span name -> (calls, total self time in ns)."""
        calls = [0] * len(self.names)
        self_total = [0] * len(self.names)
        for nid, ns in zip(self.name_id, self.self_ns()):
            calls[nid] += 1
            self_total[nid] += ns
        return {name: (calls[i], self_total[i]) for i, name in enumerate(self.names)}

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            for sid in range(len(self.start)):
                out.writerow(
                    [sid, self.parent[sid], self.names[self.name_id[sid]],
                     self.start[sid], self.end[sid]]
                )
