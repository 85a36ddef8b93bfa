"""Spans around calls into the program's layers, recorded from outside it.

The tracer wraps the public functions listed in ``LAYER_FUNCTIONS`` by
rebinding every module-level name in ``permutangle`` that refers to them, so
calls between the program's own modules are caught too. Each span keeps its
name, start, end, parent span, item id and thread. Spans stay in compact
in-memory arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import threading
import time
from array import array
from collections import defaultdict

#: Traced functions, as <module>.<function> of the permutangle package.
LAYER_FUNCTIONS = (
    "qstate.substream", "qstate.haar_random_pure", "qstate.reduce", "qstate.mix",
    "permutations.partial_transpose", "permutations.link_transform",
    "matkernel.determinant", "matkernel.eig_hermitian", "matkernel.singular_values",
    "measures.concurrence", "measures.negativity", "measures.r12", "measures.three_tangle",
    "families.make_state", "families.closed_form_measures", "families.boundary_curve",
    "experiments.build_record", "experiments.scatter", "experiments.perturbation_campaign",
    "experiments.separable_campaign", "experiments.figure_dataset",
    "experiments.read_records_csv", "experiments.verify", "experiments.records_csv_bytes",
    "experiments.records_to_json", "experiments.records_from_json",
    "cli.run",
)

#: Traced name -> how many records a call handled, from (args, result).
RECORD_COUNTS = {
    "experiments.read_records_csv": lambda args, result: len(result),
    "experiments.records_from_json": lambda args, result: len(result),
    "experiments.verify": lambda args, result: result.total,
    "experiments.records_csv_bytes": lambda args, result: len(args[0]),
    "experiments.records_to_json": lambda args, result: len(args[0]),
    "experiments.scatter": lambda args, result: len(result),
    "experiments.perturbation_campaign": lambda args, result: len(result),
    "experiments.separable_campaign": lambda args, result: len(result),
}


class Tracer:
    """Records spans; a span's parent is the innermost open span of its thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.thread = array("q")
        self.count = array("q")
        self.current_item = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.name)

    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            name_id = self._name_ids.setdefault(name, len(self.names))
            if name_id == len(self.names):
                self.names.append(name)
            idx = len(self.name)
            self.name.append(name_id)
            self.start.append(time.perf_counter_ns())
            self.end.append(0)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.current_item)
            self.thread.append(threading.get_ident())
            self.count.append(1)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counter = RECORD_COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.count[idx] = counter(args, result)
                return result
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every permutangle module global that names a layer function."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "permutangle"]
        saved = []
        for name in LAYER_FUNCTIONS:
            module, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"permutangle.{module}"], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, original in saved:
                setattr(mod, key, original)

    def _main_spans(self):
        main = threading.main_thread().ident
        return (idx for idx in range(len(self.name)) if self.thread[idx] == main)

    def self_times(self) -> dict[str, list[int]]:
        """Name -> [calls, records, self ns] over main-thread spans.

        Self time is the span's duration minus that of its direct children.
        Pool threads wait for the interpreter lock inside their spans, so
        their spans are kept in the output file but not used here.
        """
        child_ns = defaultdict(int)
        for idx in range(len(self.name)):
            p = self.parent[idx]
            if p >= 0:
                child_ns[p] += self.end[idx] - self.start[idx]
        out: dict[str, list[int]] = {}
        for idx in self._main_spans():
            entry = out.setdefault(self.names[self.name[idx]], [0, 0, 0])
            entry[0] += 1
            entry[1] += self.count[idx]
            entry[2] += self.end[idx] - self.start[idx] - child_ns[idx]
        return out

    def durations(self, *names: str, parent: str | None = None) -> int:
        """Summed main-thread duration of the named spans, optionally only
        those whose parent span has the given name."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        parent_id = self._name_ids.get(parent, -2) if parent else None
        total = 0
        for idx in self._main_spans():
            if self.name[idx] not in ids:
                continue
            if parent_id is not None:
                p = self.parent[idx]
                if p < 0 or self.name[p] != parent_id:
                    continue
            total += self.end[idx] - self.start[idx]
        return total

    def write(self, path) -> None:
        """Spans as gzipped CSV: id,name,start_ns,end_ns,parent,item,thread,records."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id,name,start_ns,end_ns,parent,item,thread,records\n")
            for idx in range(len(self.name)):
                fh.write(
                    f"{idx},{self.names[self.name[idx]]},{self.start[idx]},{self.end[idx]},"
                    f"{self.parent[idx]},{self.item[idx]},{self.thread[idx]},{self.count[idx]}\n"
                )
