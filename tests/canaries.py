"""Canary solves: catalog products and tables too slow for tier 1, each a
soundness and regression check on the branch solver.  Every case runs in
its own process, so the peak RSS it logs is its own, under its own
timeout, and fails on any leaf count but its pinned one or when it does
not finish.

    python tests/canaries.py            # every case
    python tests/canaries.py NAME ...   # the named ones

Each case logs one line: its leaves, the pages built (the window search's
included where the case uses the smallest window), the turns started,
the interval checks, the times what a turn reads of the turn before is
worked out (``_Layout.after``, once per pair of layouts), the calls and
seconds of the rank flow (``_Flow``, built and solved), the seconds and
the peak RSS.  Only the leaf count is a gate.  The counts are taken by
wrapping ``BigradedPage.__init__``, ``_interval_check``,
``_CarriedParts.__init__``, ``_worst_case_run`` and ``_Flow``'s
``__init__`` and ``values`` in the case's process.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, label, factors or the free rank of each row of a table, column
# step, entry bound, window or None for the smallest, leaves, timeout in
# seconds)
CASES = [
    # the torsion-heavy products (about 2-3 s): 6 pages (8 while the
    # worst-case run built a page per turn) and 1,003 interval checks
    # (1,196 with a node memo per plan instead of per component layout,
    # 2,434 while the last turn checked every class instead of those its
    # lookup finds); 9 after computations (17 once per pair of plans)
    ("rp2-rp7-s4", "RP^2 x RP^7 at step 4", (("rp", 2), ("rp", 7)), 4, 1, None, 2, 120),
    # a root turn that keeps 385,792 branches, each decided on the last
    # turn without a page (about 6-8 s): 14 pages (15 while the worst-case
    # run built a page per turn) and 8,378 checks (10,426 while the flow
    # packed the positions of blocks that certify no degree, 44,538 with a
    # node memo per plan instead of per component layout, 71,619 while the
    # last turn checked every class); 82 after computations and about 33 MB
    # peak RSS (1,945 and 40 MB once per pair of plans, 57 MB with a node
    # memo per plan)
    ("s1-rp3-s2-w3", "S^1 x RP^3 at step 2, window 3", (("sphere", 1), ("rp", 3)), 2, 1, 3,
     12, 120),
    # a middle turn, one that is not the last, started by 2,048 branches
    # that share its node memo (about 3 s): 11 pages, 4 of them the window
    # search's (17 and 8 while the worst-case run built a page per turn),
    # 153,089 turns started and 649 checks (682 while the last turn
    # checked every class instead of those its lookup finds, 2,065 pages
    # while a middle turn built its page, and 790 checks when exact tuple
    # keys rode beside the packed bounds)
    ("s2-rp4-s2", "S^2 x RP^4 at step 2", (("sphere", 2), ("rp", 4)), 2, 1, None, 5, 120),
    # the slowest decided product of the catalog survey (about 2.5-3 s):
    # what a turn reads of the turn before is worked out 145 times, once
    # per pair of layouts, and it peaks at about 38 MB RSS (16,641 times,
    # once per pair of plans, at about 3.6 s and 75 MB)
    ("s3-rp3-s2", "S^3 x RP^3 at step 2", (("sphere", 3), ("rp", 3)), 2, 1, None, 12, 120),
    # a wide window (about 0.6 s, 76 MB peak RSS): the flow falls apart
    # into 3,199 blocks of two degrees each, all of one shape and so of one
    # memo, and takes about 0.05 s, against 0.9 s of 1.4 s while it was
    # solved as one state over its 6,401 capped positions, a state that
    # grows with the window
    ("rp7-s4-b4-w1600", "RP^7 at step 4, entry bound 4, window 1600", (("rp", 7),), 4, 4, 1600,
     1, 60),
    # a flow with one block of 18 capped positions and 7 certified degrees
    # (about 2 s, 0.5 s of it in the flow, 66 MB peak RSS): 30,944 calls
    # and 15,472 block solves, against 139,248 calls and 4.9-5.0 s of 7.3 s
    # at 79 MB while the flow was one state that packed every capped
    # position
    ("rows-0-4-z-s2-w3", "rows 0-4 all Z at step 2, window 3", {q: 1 for q in range(5)}, 2, 1,
     3, 3, 120),
]


def run_case(name: str) -> int:
    """Solve the case ``name`` in this process and print its line; 1 when
    its leaf count is not the pinned one."""
    from cobcheck import spectra
    from cobcheck.abgroup import FgAbGroup
    from cobcheck.graded import GradedGroup
    from cobcheck.topology import Product, RealProjective, Sphere, homology

    _, label, factors, step, bound, window, leaves, _ = next(case for case in CASES
                                                             if case[0] == name)
    counts = dict.fromkeys(("pages", "turns", "checks", "flow calls"), 0)
    flow_seconds = 0.0

    def counting(key, method):
        def counted(obj, *args, **kwargs):
            counts[key] += 1
            return method(obj, *args, **kwargs)
        return counted

    spectra.BigradedPage.__init__ = counting("pages", spectra.BigradedPage.__init__)
    spectra._CarriedParts.__init__ = counting("turns", spectra._CarriedParts.__init__)
    interval_check, worst_case_run, runs = spectra._interval_check, spectra._worst_case_run, []

    def counted_check(*args):
        check = interval_check(*args)

        def call(*state):
            counts["checks"] += 1
            return check(*state)
        return call

    def timed(method):
        def call(flow, *args):
            nonlocal flow_seconds
            start = time.perf_counter()
            try:
                return method(flow, *args)
            finally:
                flow_seconds += time.perf_counter() - start
        return call

    spectra._interval_check = counted_check
    spectra._worst_case_run = lambda first: runs.append(worst_case_run(first)) or runs[-1]
    spectra._Flow.__init__ = timed(spectra._Flow.__init__)
    spectra._Flow.values = timed(counting("flow calls", spectra._Flow.values))
    if isinstance(factors, dict):
        h = GradedGroup.from_dict({q: FgAbGroup(rank) for q, rank in factors.items()})
    else:
        spaces = [{"rp": RealProjective, "sphere": Sphere}[kind](n) for kind, n in factors]
        h = homology(spaces[0] if len(spaces) == 1 else Product(*spaces))
    start = time.perf_counter()
    tree = spectra.solve_floer(h, step, entry_bound=bound,
                               col_span=window or spectra._smallest_window(h, step))
    seconds = time.perf_counter() - start
    # the solve's run is the last one built, after the window search's
    after = sum(len(layout._after) for layout in runs[-1].layouts.values())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{label}: {len(tree.leaves)} leaves, {counts['pages']} pages, "
          f"{counts['turns']} turns started, {counts['checks']} interval checks, "
          f"{after} after computations, {counts['flow calls']} flow calls, "
          f"{flow_seconds:.2f} s in the flow, {seconds:.1f} s, {peak:.1f} MB peak RSS", flush=True)
    return 0 if len(tree.leaves) == leaves else 1


def main(names: list[str]) -> int:
    chosen = [case for case in CASES if not names or case[0] in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown case among {names}")
        return 1
    failed = []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, label, *_, leaves, timeout in chosen:
        try:
            code = subprocess.run([sys.executable, __file__, "--case", name], env=env,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            print(f"{label}: no result within {timeout} s", flush=True)
            code = None
        if code != 0:
            failed.append(name)
            if code is not None:
                print(f"{label}: expected {leaves} leaves (exit {code})", flush=True)
    print(f"{len(chosen) - len(failed)} of {len(chosen)} canaries kept their leaves")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        sys.exit(run_case(sys.argv[2]))
    sys.exit(main(sys.argv[1:]))
