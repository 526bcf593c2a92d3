"""Mutation gate: each theorem the solver's speed rests on is broken on
purpose, in a temporary copy of the repository, and a named fast subset
of the tier-1 tests must then fail.

    python tests/mutants.py            # every mutation
    python tests/mutants.py NAME ...   # the named ones

Each mutation replaces one exact piece of source text, which must occur
exactly once.  The subsets are first run on the unmutated copy, where
they must pass.  The script exits 1 when a mutation survives (its subset
still passes), no longer applies, or an unmutated subset fails: a
surviving mutation is a gap in the tests, not a fault in the code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACTNESS = "src/cobcheck/exactness.py"
SPECTRA = "src/cobcheck/spectra.py"
REFERENCE = "tests/test_exactness.py::test_verdicts_match_the_propagation_reference"
T3_MEMO = ["tests/test_spectra.py::test_t3_checks_each_distinct_node_input_once",
           "tests/test_spectra.py::test_children_are_the_classes_checked_one_at_a_time"]
TORSION = ["tests/test_spectra.py::test_pruning_keeps_the_leaves_of_a_search_without_pruning",
           "tests/test_spectra.py::test_pruning_keeps_the_leaves_of_pinned_degrees"]
HAND_DERIVED = ["tests/test_spectra.py::test_two_stage_turning_hand_derived"]
PACKED_MEET = "tests/test_properties.py::test_the_packed_meet_is_the_meet_of_each_field"
LOOKUP = ["tests/test_spectra.py::test_children_are_the_classes_checked_one_at_a_time[rp7-s4-w4]"]
ORBIT = ["tests/test_properties.py::test_canonical_homs_of_pinned_spaces",
         "tests/test_spectra.py::test_orbit_rule_keeps_the_classes_of_the_flagship_chain"]
ABGROUP = "src/cobcheck/abgroup.py"
FLOW = ["tests/test_properties.py::test_flow_values_match_a_product_over_every_k",
        "tests/test_spectra.py::test_the_flow_gives_what_the_whole_flow_gives_on_every_call"]
PRODUCT = ["tests/test_spectra.py::test_component_classes_match_product_enumeration"]
CORPUS = ["tests/test_corpus.py::test_corpus_report_pinned"]

# (name, file, source text, its mutation, the tests that must fail)
MUTATIONS = [
    ("witness-greatest-x", EXACTNESS,
     "x = (common & -common).bit_length() - 1",
     "x = common.bit_length() - 1",
     [REFERENCE]),
    ("witness-masks-or", EXACTNESS,
     "common &= sum(1 << x",
     "common |= sum(1 << x",
     [REFERENCE]),
    ("pruning-drops-last-reads", EXACTNESS,
     "needed, kept = {attempts[last][0], *reads(last)}, []",
     "needed, kept = {attempts[last][0]}, []",
     [REFERENCE]),
    ("memo-key-without-flow-pack", SPECTRA,
     "        if i == last and flow is not None:\n            key += (packs[i],)\n",
     "",
     T3_MEMO),
    ("non-final-d_p-in-lower-end", SPECTRA,
     "else (lo, hi + packed)",
     "else (lo + (packed & ~lens.ones), hi + packed)",
     TORSION),
    ("d_p-without-free-rank", SPECTRA,
     "free + sum(free + sum(not d % p",
     "free + sum(sum(not d % p",
     TORSION),
    ("meet-smaller-lower-end", SPECTRA,
     "lo = y ^ (x ^ y) & ge - (ge >> width)",
     "lo = x ^ (x ^ y) & ge - (ge >> width)",
     [PACKED_MEET]),
    ("meet-free-rank-only", SPECTRA,
     "return seen if bound[0] == seen[0] else None",
     "return seen if bound[0] & self.ones == seen[0] & self.ones else None",
     [PACKED_MEET]),
    ("pins-without-d_p", SPECTRA,
     "[grp and (lens.packed(grp),) * 2 for grp in pinned]",
     "[grp and (grp.free_rank,) * 2 for grp in pinned]",
     TORSION),
    ("last-turn-field-by-prime", SPECTRA,
     "fields.setdefault(p ** e, len(fields) + 1)",
     "fields.setdefault(p, len(fields) + 1)",
     ["tests/test_properties.py::test_the_last_turn_packing_is_additive_and_injective"]),
    ("carried-live-bits-keep-zeros", SPECTRA,
     "live_next &= ~zero_bits[cls.zeros]",
     "live_next &= ~0",
     # a stale live bit reads a zero result where a page entry was, so it
     # adds work (the pinned check count) and keeps the leaves
     ["tests/test_spectra.py::test_t3_checks_each_distinct_node_input_once"]),
    ("last-turn-without-carried-parts", SPECTRA,
     "for j, at in turn.carries[k]:",
     "for j, at in ():",
     HAND_DERIVED),
    ("node-key-without-kept-parts", SPECTRA,
     "key = (i, id(classes), state, kept_parts[i + 1])",
     "key = (i, id(classes), state)",
     HAND_DERIVED),
    ("lookup-remainder-without-kept-parts", SPECTRA,
     "needed = tuple(state[deg % 2][0] - lo\n",
     "needed = tuple(state[deg % 2][0]\n",
     LOOKUP),
    ("placed-results-one-column-off", SPECTRA,
     "((p + base, q), grp)",
     "((p + base + 2, q), grp)",
     HAND_DERIVED),
    ("live-bits-only-for-the-last-turn", SPECTRA,
     "for r in list(arrows)[1:]",
     "for r in list(arrows)[-1:]",
     # a middle turn's window ends get no bit, so they read as live after
     # a class zeroes them, and a lookup keeps a run arrow the page lacks
     ["tests/test_properties.py::"
      "test_run_plans_match_plans_of_a_full_scan_when_only_the_unresolved_set_differs",
      "tests/test_properties.py::test_plans_found_by_live_bits_match_a_scan_of_the_run"]),
    ("memo-shared-across-flows", SPECTRA,
     "layout.memos.setdefault((self.plan.flow, lens), {})",
     "layout.memos.setdefault(lens, {})",
     ["tests/test_spectra.py::test_turns_share_a_node_memo_exactly_when_they_share_its_key"]),
    # a turn also carries an earlier result whose position one of its own
    # components touches: that entry then counts twice on its degree, as a
    # carried result and in the component's class, so the check bounds a
    # group the branch does not have
    ("after-carries-touched-positions", SPECTRA,
     "if pos not in touched and (found := where.get(deg := sum(pos))):",
     "if (found := where.get(deg := sum(pos))):",
     ["tests/test_spectra.py::test_pinning_a_leaf_gives_exactly_that_leaf[rp7-s4-w4]"]),
    # a block's memo is keyed by its positions' free ranks alone: a page
    # whose degree sums differ reads the values of an earlier page
    ("flow-block-memo-without-sums", SPECTRA,
     "found = memo.get(key := ranks | sums << mask.bit_length())",
     "found = memo.get(key := ranks)",
     FLOW),
    # a degree is linked only to the source ends of its arrows, which lie
    # on it, not to their target ends on the degree below: an arrow's two
    # ends fall in two blocks
    ("flow-blocks-linked-by-sources-only", SPECTRA,
     "reached.update(sum(pos) for ends in out_of.get(deg, ()) for pos in ends)",
     "reached.update(sum(pos) for ends in out_of.get(deg, ()) for pos in ends[:1])",
     FLOW),
    # the certified degrees with no capped position get no block: the flow
    # no longer asks the degrees of one parity to agree there
    ("flow-drops-degree-only-blocks", SPECTRA,
     "        blocks += [lone for parity in (0, 1)\n"
     "                   if (lone := [deg for deg in sorted(degrees - at.keys()) "
     "if deg % 2 == parity])]\n",
     "",
     FLOW[:1]),
    # a turn's start is cut only when its check fails, not when its exact
    # bounds are a leaf already found: such a turn is still searched, and
    # one with no component hands on a branch the reference cuts
    ("search-start-skips-found-cut", SPECTRA,
     "    if state is None or state[0] and state[1] and (state[0][0], state[1][0]) in cut:\n",
     "    if state is None:\n",
     T3_MEMO[1:]),
    # the node pass sums the untouched parts and the earlier classes'
    # parts once per node, but leaves out the first earlier component's:
    # each class of the node is checked against too small a bound
    ("node-prefix-drops-an-earlier-part", SPECTRA,
     "            for c, rel in at[:-1]:\n",
     "            for c, rel in at[1:-1]:\n",
     T3_MEMO[1:]),
    # a hom's row key leaves out the relation columns: rows of targets of
    # different orders that agree up to sign fall in one row class, and
    # two homs with different cokernels share a facts record and a mask
    ("row-key-without-relations", ABGROUP,
     "for v in (value + relation for value in values))",
     "for v in (value for value in values))",
     ["tests/test_properties.py::test_cokernels_and_images_match_each_hom"]),
    # a class representative keeps its zero homs too: its differentials
    # list maps that vanish
    ("class-reps-keep-zero-homs", SPECTRA,
     "for arrow, space, h in zip(arrows, spaces, chosen) if h))",
     "for arrow, space, h in zip(arrows, spaces, chosen)))",
     PRODUCT),
    # the solve's direct sums are keyed by degree, not by the groups on
    # the degree's antidiagonal: every later leaf reads the first leaf's
    # abutment there
    ("certified-sums-by-degree", SPECTRA,
     "total = sums.get(key := tuple(grps))",
     "total = sums.get(key := deg)",
     CORPUS),
    # the orbit rule keeps each column's larger sign, or sorts a block's
    # columns descending: the mask misses orbit minima, so the search
    # misses first representatives
    ("orbit-sign-keeps-larger", ABGROUP,
     "minimal = [sign <= upright",
     "minimal = [sign >= upright",
     ORBIT),
    ("orbit-columns-descending", ABGROUP,
     "sum(map(list.__getitem__, offsets, combo))",
     "sum(map(list.__getitem__, offsets, combo[::-1]))",
     ORBIT),
]


def _pytest(root: Path, tests: list[str]) -> int:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--no-header", "-o", "addopts=", *tests],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _copy(into: Path) -> None:
    for part in ("src", "tests", "perfbench/corpus", "pyproject.toml"):
        source, target = ROOT / part, into / part
        if source.is_dir():
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, target)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTATIONS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutation among {names}")
        return 1
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy(root)
        subsets = sorted({test for *_, tests in chosen for test in tests})
        if _pytest(root, subsets) != 0:
            print("the unmutated subsets do not pass")
            return 1
        for name, path, old, new, tests in chosen:
            source = (root / path).read_text()
            if source.count(old) != 1:
                failed.append(name)
                print(f"{name}: no longer applies to {path}")
                continue
            (root / path).write_text(source.replace(old, new))
            try:
                code = _pytest(root, tests)
            finally:
                (root / path).write_text(source)
            killed = code == 1  # tests ran and some failed
            print(f"{name}: {'killed' if killed else f'not killed (pytest exit {code})'}")
            if not killed:
                failed.append(name)
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutations killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
