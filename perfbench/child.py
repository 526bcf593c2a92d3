"""Check one scenario cold, as ``cobcheck check SCENARIO`` would.

    python3 perfbench/child.py SCENARIO RESULT TRACE [SPANS]

Runs ``cobcheck.cli.main`` in this fresh interpreter and writes RESULT
(JSON): monotonic timestamps, the exit code, the report's hash and size,
the replay of every claim branch, and the time of a calibration loop run
right before and right after ``main``.  The calibrations, the replay and
everything after ``main`` returns lie outside the timed region.  With
TRACE = 1 the public functions are wrapped in spans, which go to SPANS.
"""

import time

T_START = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate(reps: int = 3) -> int:
    """Best of reps timings, in ns, of a fixed pure-Python loop of integer
    arithmetic, dict updates and calls that uses no cobcheck code."""
    def step(x: int, acc: dict) -> int:
        x = (x * 1103515245 + 12345) % 2147483648
        acc[x % 97] = acc.get(x % 97, 0) + (x >> 7)
        return x

    best = None
    for _ in range(reps):
        t0 = now()
        x, acc = 1, {}
        for _ in range(20000):
            x = step(x, acc)
        took = now() - t0
        best = took if best is None else min(best, took)
    return best


def replay(report, exactness) -> tuple[int, list[str]]:
    """Re-check every claim branch with the independent verifier.  Each
    problem is rebuilt from the scenario's granted claims and the report's
    folded Floer tables with build_cobordism_sequences, in
    certify_nonexistence's branch order."""
    sc = report.scenario
    if not sc.claims:
        return 0, []
    problems = []
    branch_sets = {pr.end: pr.folded for pr in report.pair_results}
    probe = sc.lagrangian(sc.probe)
    source = sc.lagrangian(sc.claims[0].source)
    unknown = f"HF1({probe.name},{source.name})"
    end_names = sorted({name for c in sc.claims for name in c.ends})
    combos = list(itertools.product(*(branch_sets[name] for name in end_names)))
    granted_of = {c: any(d.pair == c.ends and d.clean and d.connected
                         for d in sc.intersections) for c in sc.claims}
    granted = [c for c in sc.claims if granted_of[c]]
    checked = 0
    for claim, cv in zip(sc.claims, report.claim_verdicts):
        if (cv.ends != claim.ends or cv.granted != granted_of[claim]
                or len(cv.branches) != len(combos)):
            problems.append(f"claim {claim.ends}: verdict does not match the claim")
            continue
        used = granted + ([] if granted_of[claim] else [claim])
        for combo, outcome in zip(combos, cv.branches):
            hf = {name: value for name, (_, value) in zip(end_names, combo)}
            sequences = []
            for c in used:
                ends = (sc.lagrangian(c.ends[0]), sc.lagrangian(c.ends[1]))
                sequences.extend(exactness.build_cobordism_sequences(
                    probe, ends, source, hf, unknown, sc.grading).sequences)
            problem = exactness.ExactSequenceProblem(tuple(dict.fromkeys(sequences)))
            verdict = outcome.verdict
            ok = (exactness.verify_witness(problem, verdict.witness) if verdict.feasible
                  else exactness.verify_certificate(problem, verdict.certificate))
            checked += 1
            if not ok:
                problems.append(f"claim {claim.ends} {outcome.label}: replay failed")
        infeasible = all(not oc.verdict.feasible for oc in cv.branches)
        if cv.verdict != ("INFEASIBLE" if infeasible else "NOT OBSTRUCTED"):
            problems.append(f"claim {claim.ends}: verdict {cv.verdict} contradicts its branches")
    return checked, problems


def main() -> int:
    scenario, result_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    t_import0 = now()
    import cobcheck  # noqa: F401
    from cobcheck import abgroup, cli, exactness
    t_imported = now()

    captured = {}
    recorder = None
    if traced:
        import spans
        recorder = spans.Recorder()
        recorder.install()
    parse, run, text = cli.parse_scenario, cli.run, cli.RunReport.text

    def timed_parse(data):
        result = parse(data)
        captured["t_parsed"] = now()
        return result

    def kept_run(sc):
        captured["report"] = run(sc)
        return captured["report"]

    def kept_text(self):
        captured["text"] = text(self)
        return captured["text"]

    cli.parse_scenario, cli.run, cli.RunReport.text = timed_parse, kept_run, kept_text
    t_cal0 = now()
    cal0 = calibrate()
    t_main0 = now()
    code = cli.main(["check", scenario])
    sys.stdout.flush()
    t_done = now()
    cal1 = calibrate()
    cli.parse_scenario, cli.run, cli.RunReport.text = parse, run, text

    result = {
        "exit": code,
        "cal_ns": [cal0, cal1], "t_cal0": t_cal0,
        "t_start": T_START, "t_import0": t_import0, "t_imported": t_imported,
        "t_parsed": captured.get("t_parsed"), "t_main0": t_main0, "t_done": t_done,
    }
    if recorder is not None:
        recorder.uninstall()
        info = abgroup.smith_normal_form.cache_info()
        result["trace"] = {
            "leaves": recorder.leaves,
            "distinct_problems": len(recorder.problems),
            "infeasible_branches": recorder.infeasible,
            "snf_hits": info.hits,
            "snf_misses": info.misses,
        }
        with open(sys.argv[4], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh, separators=(",", ":"))
    body = captured.get("text")
    if body is not None:
        data = body.encode("utf-8")
        result["report_sha256"] = hashlib.sha256(data).hexdigest()
        result["report_bytes"] = len(data)
    if "report" in captured:
        result["replayed"], result["problems"] = replay(captured["report"], exactness)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
