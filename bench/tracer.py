"""Spans around photonprep's public functions, recorded from outside the package.

Several modules import functions by name (``herald`` and ``postselect`` hold
their own ``takagi``, ``verify`` holds ``normalize``), so a wrapper is
installed at every module attribute that holds the function, not only in
the defining module. Wrappers are swapped in for one op at a time and
removed again, so untraced ops and the checks run the original functions.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, functions: list[str]):
        """``functions`` are names like ``fock.permanent``, relative to photonprep.

        A name the package no longer defines is listed in ``missing`` and
        not traced.
        """
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id, ryser terms)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "photonprep"]
        for qualname in functions:
            module_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules.get("photonprep." + module_name), attr, None)
            if original is None:
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts_terms = name == "fock.permanent"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                # Ryser sums 2^n - 1 subsets of an n x n argument
                terms = (1 << len(args[0] if args else kwargs["M"])) - 1 if counts_terms else 0
                spans[idx] = (name, start, end, parent, self._op, terms)

        return wrapper

    def install(self, op: int) -> None:
        self._op = op
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive ms, self ms and Ryser terms, summed
        over all traced ops. ``herald.identity_check`` is the permanent time
        whose parent span is ``synthesize_herald``."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "ryser_terms": 0})
        for idx, (name, start, end, parent, _, terms) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child_s[idx]) * 1e3
            entry["ryser_terms"] += terms
            if name == "fock.permanent" and parent >= 0 and self.spans[parent][0] == "herald.synthesize_herald":
                totals["herald.identity_check"]["ms"] += (end - start) * 1e3
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
