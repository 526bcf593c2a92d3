"""Scenario corpus generator for the cobcheck benchmark.

Every workload is a list of scenario documents built from a seed.  The
program under test only ever receives these generated JSON documents.
The seed changes names, run order and which end meets which
intersection, but never the multiset of work in a corpus, so runs on
different seeds measure the same amount of computation.

Usage:

    python3 perfbench/corpus.py --seed 0 --out perfbench/corpus

writes one directory per workload holding the scenario files and a
``manifest.json`` that records why the workload and each scenario were
chosen and each scenario's expected outcome.  ``perfbench/corpus`` holds
the output for seed 0.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGSHIP = ROOT / "src" / "cobcheck" / "data" / "paper_cp7.json"
GOLDEN = ROOT / "src" / "cobcheck" / "data" / "golden" / "paper_cp7_report.txt"

# Expected outcome of a scenario that the seed code cannot decide within
# the per-scenario time limit.  A later change that decides it within the
# limit is scored as decided (exit 0 with a verified report).
LIMIT = "time-limit"

WORKLOADS = {
    "flagship-sweep": (
        "the paper's CP^7 result over entry_bound 2-6 x window 2,4,8: almost all "
        "time is the differential enumerator (spectra/abgroup), exactness is tiny"),
    "catalog-tables": (
        "branch tables with no claims, probe RP^7: page turning, torsion-heavy "
        "homology and limit cases, no exactness at all"),
    "claims-fanout": (
        "4-7 ends mirroring the flagship theorem: certify_nonexistence dominates "
        "and mixes witnesses and infeasibility certificates"),
}

# Intersection spaces for the fan-out ends.  At step 4 and bound 4 the
# first two give two spectral-sequence branches each, the last two one.
TWO_BRANCH = {
    "RP^3 x S^3": {"product": [{"rp": 3}, {"sphere": 3}]},
    "RP^3 x RP^3": {"product": [{"rp": 3}, {"rp": 3}]},
}
ONE_BRANCH = {
    "RP^3 x S^1": {"product": [{"rp": 3}, "circle"]},
    "RP^3": {"rp": 3},
}

T2 = {"product": ["circle", "circle"]}
T3 = {"product": ["circle", "circle", "circle"]}


def _entry(sid: str, doc: dict, why: str, expect, golden: bool = False) -> dict:
    return {"id": sid, "doc": doc, "why": why, "expect": expect, "golden": golden}


def flagship_sweep(rng: random.Random) -> list[dict]:
    """The bundled flagship at every grid point.  The documents are kept
    verbatim apart from entry_bound and window, so the bound-4 window-2
    point is the golden report byte for byte; the seed sets the order."""
    base = json.loads(FLAGSHIP.read_text(encoding="utf-8"))
    out = []
    for bound in range(2, 7):
        for window in (2, 4, 8):
            doc = copy.deepcopy(base)
            doc["entry_bound"] = bound
            doc["window"] = window
            golden = (bound, window) == (base["entry_bound"], base["window"])
            why = ("golden flagship report" if golden else
                   f"flagship enumerator cost at bound {bound}, window {window}")
            out.append(_entry(f"cp7-b{bound}-w{window}", doc, why, 10, golden))
    rng.shuffle(out)
    return out


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct Lagrangian names; they only change the report text."""
    return rng.sample([f"{a}{b}" for a in "KLMNPQ" for b in range(10)], count)


def _table(rng: random.Random, name: str, inter: dict, end_space: dict,
           end_maslov: int, bound: int, window: int) -> dict:
    """A branch-table scenario: probe RP^7 (N = 8) against one end."""
    probe, end = _names(rng, 2)
    pair = [probe, end] if rng.random() < 0.5 else [end, probe]
    return {
        "schema": 1,
        "name": name,
        "spaces": {},
        "lagrangians": [
            {"name": probe, "space": {"rp": 7}, "ambient": 7, "maslov": 8},
            {"name": end, "space": end_space, "ambient": 7, "maslov": end_maslov},
        ],
        "intersections": [{"pair": pair, "clean": True, "connected": True,
                           "space": inter}],
        "claims": [],
        "probe": probe,
        "grading": -2,
        "entry_bound": bound,
        "window": window,
    }


def catalog_tables(rng: random.Random) -> list[dict]:
    rp7 = {"rp": 7}
    s2s2 = {"product": [{"sphere": 2}, {"sphere": 2}]}
    rp3rp3 = TWO_BRANCH["RP^3 x RP^3"]
    rp3s1 = ONE_BRANCH["RP^3 x S^1"]
    specs = [
        ("t2-s2-b1", T2, T2, 2, 1, 2, 0, "T^2 at step 2, bound 1: 3 leaves"),
        ("t2-s2-b2", T2, T2, 2, 2, 2, 0, "T^2 at step 2, bound 2: 8 leaves"),
        ("t2-s2-b4", T2, T2, 2, 4, 2, 0,
         "T^2 at step 2, bound 4: 24 leaves, the most trace rendering (hom_images)"),
        ("rp7-s4-w2", rp7, rp7, 4, 4, 2, 0,
         "RP^7 at step 4, window 2: the page-turn case at the smallest window"),
        ("rp7-s4-w4", rp7, rp7, 4, 4, 4, 0,
         "RP^7 at step 4, window 4: 258 page turns, turn_page outweighs the enumerator"),
        ("rp3rp3-s4", rp3rp3, rp3rp3, 4, 4, 2, 0,
         "RP^3 x RP^3 at step 4: torsion-heavy Smith normal forms"),
        ("s2s2-s4", s2s2, s2s2, 4, 4, 2, 0, "S^2 x S^2 at step 4: free groups only"),
        ("rp3s1-s4", rp3s1, rp3s1, 4, 4, 2, 0, "RP^3 x S^1 at step 4: mixed free and torsion"),
        ("rp7-s4-b1", rp7, rp7, 4, 1, 2, 2,
         "RP^7 at step 4, bound 1: no consistent branch, the named solver limit (exit 2)"),
        ("t3-s2-b1", T3, T3, 2, 1, 2, LIMIT,
         "T^3 at step 2, bound 1: runs past the time limit; undecided until the "
         "enumerator is a chain search"),
    ]
    out = [_entry(sid, _table(rng, sid, inter, space, maslov, bound, window), why, expect)
           for sid, inter, space, maslov, bound, window, expect, why in specs]
    rng.shuffle(out)
    return out


def _fanout(rng: random.Random, name: str, kinds: list[str]) -> dict:
    """Probe K = RP^7 and ends E_i = X_i x S^1 meeting K cleanly along a
    seeded X_i.  Claims per end: (E_i, K), granted by surgery, and
    (K, E_i), tested; plus k seeded cross claims (E_i, E_j)."""
    spaces = {**TWO_BRANCH, **ONE_BRANCH}
    k = len(kinds)
    probe, source, *ends = _names(rng, k + 2)
    lagrangians = [
        {"name": probe, "space": {"rp": 7}, "ambient": 7, "maslov": 8},
        {"name": source, "space": None, "ambient": 7, "maslov": None},
    ]
    intersections = [{"pair": [probe, probe], "clean": True, "connected": True,
                      "space": {"rp": 7}, "restriction_surjective_degrees": []}]
    claims = []
    for end, kind in zip(ends, kinds):
        lagrangians.append({"name": end, "space": {"product": [spaces[kind], "circle"]},
                            "ambient": 7, "maslov": 4})
        intersections.append({"pair": [end, probe], "clean": True, "connected": True,
                              "space": spaces[kind],
                              "restriction_surjective_degrees": [1, 2]})
        claims.append({"source": source, "ends": [end, probe]})
        claims.append({"source": source, "ends": [probe, end]})
    cross = [(a, b) for a in ends for b in ends if a != b]
    for a, b in rng.sample(cross, k):
        claims.append({"source": source, "ends": [a, b]})
    return {
        "schema": 1,
        "name": name,
        "spaces": {},
        "lagrangians": lagrangians,
        "intersections": intersections,
        "claims": claims,
        "probe": probe,
        "grading": -2,
        "entry_bound": 4,
        "window": 2,
    }


def claims_fanout(rng: random.Random) -> list[dict]:
    """Per k = 4..7 ends a scenario with one RP^3 x S^1 end, one RP^3
    end and k - 2 two-branch ends (2^(k-2) branch combinations), and for
    k <= 6 one with every end two-branch (2^k).  k = 7 with every end
    two-branch (128 combinations, 1.4 MB report) alone would take a
    quarter of a pass, so it is left out.  The multiset of intersection
    kinds is fixed per scenario; the seed only decides which end gets
    which, and which cross claims exist."""
    two = list(TWO_BRANCH)
    out = []
    for k in range(4, 8):
        full = [two[i % 2] for i in range(k)]
        mixed = [two[i % 2] for i in range(k - 2)] + list(ONE_BRANCH)
        variants = [("two-branch", full)] if k < 7 else []
        for variant, kinds in variants + [("mixed", mixed)]:
            kinds = rng.sample(kinds, k)
            sid = f"fan{k}-{variant}"
            why = (f"{k} ends, {3 * k} claims, "
                   f"{2 ** kinds.count(two[0]) * 2 ** kinds.count(two[1])} branch combinations")
            out.append(_entry(sid, _fanout(rng, sid, kinds), why, 10))
    rng.shuffle(out)
    return out


BUILDERS = {
    "flagship-sweep": flagship_sweep,
    "catalog-tables": catalog_tables,
    "claims-fanout": claims_fanout,
}


def build(workload: str, seed: int) -> list[dict]:
    """Scenario entries of one workload: id, doc, why, expect (exit code
    or LIMIT) and golden.  The same seed gives the same entries."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write a workload's scenario files and manifest under out_dir."""
    entries = build(workload, seed)
    target = out_dir / workload
    target.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "why": WORKLOADS[workload],
                "scenarios": []}
    for entry in entries:
        path = target / f"{entry['id']}.json"
        path.write_text(json.dumps(entry["doc"], indent=1) + "\n", encoding="utf-8")
        manifest["scenarios"].append({
            "id": entry["id"], "file": path.name, "why": entry["why"],
            "expected_exit": entry["expect"], "golden": entry["golden"]})
    (target / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                          encoding="utf-8")
    return entries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent / "corpus")
    args = parser.parse_args()
    for workload in WORKLOADS:
        write(workload, args.seed, args.out)


if __name__ == "__main__":
    main()
