"""Spans around calls into cobcheck's public functions.

The child process installs a Recorder before it runs a scenario.  Each
traced function is replaced in every ``cobcheck`` module namespace that
holds it, so ``spectra.composite_is_zero`` and
``abgroup.composite_is_zero`` are both covered.  Spans stay in memory as
``[name, start_ns, end_ns, parent]`` and are written out once the
scenario is done; ``self_times`` turns them into counts and self times
(span minus child spans) in the parent process.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of every traced function; spans are named "module.attribute".
TRACED = (
    ("spectra", "solve_floer"),
    ("spectra", "turn_page"),
    ("abgroup", "composite_is_zero"),
    ("abgroup", "homology_at"),
    ("abgroup", "hom_matrix_space"),
    ("abgroup", "hom_images"),
    ("abgroup", "smith_normal_form"),
    ("exactness", "certify_nonexistence"),
    ("exactness", "check_feasibility"),
    ("exactness", "build_cobordism_sequences"),
    ("graded", "coefficient_change"),
    ("topology", "homology"),
    ("cli", "parse_scenario"),
    ("cli", "run"),
)
RENDER = "cli.render"


class Recorder:
    """Wraps the traced functions; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.leaves = 0
        self.problems: set = set()
        self.infeasible = 0

    def _wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _on_solve(self, args, tree) -> None:
        self.leaves += len(tree.leaves)

    def _on_check(self, args, verdict) -> None:
        self.problems.add(args[0])
        self.infeasible += not verdict.feasible

    def install(self) -> None:
        hooks = {"spectra.solve_floer": self._on_solve,
                 "exactness.check_feasibility": self._on_check}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cobcheck" or key.startswith("cobcheck."))]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            original = getattr(sys.modules[f"cobcheck.{mod_name}"], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        report_cls = sys.modules["cobcheck.cli"].RunReport
        self._restore.append((report_cls, "text", report_cls.text))
        report_cls.text = self._wrap(RENDER, report_cls.text)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (call count, total self time in seconds)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, _), inner in zip(spans, child_ns):
        acc = out.setdefault(name, [0, 0])
        acc[0] += 1
        acc[1] += end - start - inner
    return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}
