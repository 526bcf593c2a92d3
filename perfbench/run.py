"""Cold-start scenario benchmark for cobcheck.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Without --workload every workload runs in turn, each ending in its own
JSON line.

Generates the workload's corpus from the seed, then checks every scenario
cold: one fresh interpreter per scenario (``PYTHONPATH=src``), one at a
time, each killed at the per-scenario time limit.  A run is a fixed
number of passes over the corpus, sized from --seconds and the workload's
nominal pass time, so every run of a workload takes the same number of
samples.  A scenario expected to hit the limit is attempted in the first
pass only: it counts at the limit whenever it is attempted.  Outcomes are
checked against the manifest, the golden flagship report and the
independent verifier; the last line of stdout is the JSON result.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
each pass runs the corpus untraced and then traced, and the result holds
the per-layer metrics derived from the traced spans, plus the tracing
overhead.  Details of every run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import spans  # noqa: E402

LIMIT_S = 5.0          # per-scenario wall limit, from spawn to exit
# Nominal seconds per pass over each corpus, about what a pass takes on a
# 2-vCPU Xeon with Python 3.11.  They fix the number of passes, so a faster
# program takes as many samples as a slower one, and the tail rank stays put.
NOMINAL_PASS_S = {"flagship-sweep": 6, "catalog-tables": 4, "claims-fanout": 6}
MIN_PASSES = 2
# Times are rescaled to a host on which child.calibrate takes CAL_REF_NS,
# about its fast-mode time on a 2-vCPU Xeon (KVM) with Python 3.11.  There
# log(scenario time) against log(calibration time) over both host modes
# has slope 0.70, for three different calibration loops and for both a
# flagship and a fan-out scenario.
CAL_REF_NS = 7_000_000
SLOW_MODE_EXPONENT = 0.7
TAIL_BEYOND = 10

# (metric, unit, better, bound); perfbench/README.md defines each metric.
# Every time metric gets the largest bound: on a shared host the same code
# reads 10-15% apart between runs a few minutes apart.
END_TO_END = [
    ("corpus_s", "s", "lower", 0.25),
    ("verdict_p50_s", "s", "lower", 0.25),
    ("verdict_tail_s", "s", "lower", 0.25),
    ("decided_share", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (metric, unit, better); every group says what it should move.
PER_LAYER = [
    # spectra: corpus_s and verdict_p50_s on flagship-sweep; turn_page_* the
    # catalog-tables tail.
    ("spectra.solve_floer_calls", "count", "lower"),
    ("spectra.solve_floer_self_s", "s", "lower"),
    ("spectra.turn_page_calls", "count", "lower"),
    ("spectra.turn_page_self_s", "s", "lower"),
    ("spectra.leaves", "count", "higher"),
    ("spectra.leaves_per_turn", "ratio", "higher"),
    # abgroup: the enumerator's inner loop moves flagship-sweep corpus_s;
    # hom_images is trace rendering and moves catalog-tables.
    *((f"abgroup.{fn}_{kind}", unit, "lower")
      for fn in ("composite_is_zero", "homology_at", "hom_matrix_space", "hom_images",
                 "smith_normal_form")
      for kind, unit in (("calls", "count"), ("s", "s"))),
    ("abgroup.smith_normal_form_hit_ratio", "ratio", "higher"),
    # exactness: corpus_s and verdict_tail_s on claims-fanout only.
    ("exactness.certify_nonexistence_self_s", "s", "lower"),
    ("exactness.check_feasibility_calls", "count", "lower"),
    ("exactness.check_feasibility_s", "s", "lower"),
    ("exactness.build_cobordism_sequences_calls", "count", "lower"),
    ("exactness.build_cobordism_sequences_s", "s", "lower"),
    ("exactness.distinct_problem_ratio", "ratio", "higher"),
    ("exactness.infeasible_branch_share", "ratio", "higher"),
    # graded and topology: expected to stay about 0 everywhere.
    ("graded.coefficient_change_calls", "count", "lower"),
    ("graded.coefficient_change_s", "s", "lower"),
    ("topology.homology_calls", "count", "lower"),
    ("topology.homology_s", "s", "lower"),
    # cli: import_s and parse_s move setup_s; the rest move verdict_tail_s
    # and peak_rss_mb on claims-fanout.
    ("cli.import_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.run_self_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": name, "why": why} for name, why in corpus.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# One scenario in a fresh interpreter


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_child(scenario: Path, work: Path, traced: bool) -> dict:
    """Spawn child.py on one scenario, kill it at LIMIT_S, and return its
    result merged with the exit status and peak RSS from wait4."""
    result_path, spans_path = work / "result.json", work / f"spans-{scenario.stem}.json"
    for path in (result_path, spans_path):
        path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, str(BENCH / "child.py"), str(scenario), str(result_path),
            "1" if traced else "0", str(spans_path)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_CLOSE, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(work / "stdout.txt"), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(work / "stderr.txt"), flags, 0o644)]
    t_spawn = now()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        timed_out = not poller.poll(LIMIT_S * 1000)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
    finally:
        _, status, usage = os.wait4(pid, 0)
        os.close(fd)
    out = {"t_spawn": t_spawn, "timed_out": timed_out,
           "exit": os.waitstatus_to_exitcode(status), "rss_kb": usage.ru_maxrss}
    if not timed_out and result_path.exists():
        out.update(json.loads(result_path.read_text(encoding="utf-8")))
        out["exit"] = os.waitstatus_to_exitcode(status)
        if traced:
            out["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))
    return out


def classify(entry: dict, res: dict, work: Path, golden_sha: str) -> tuple[str, str]:
    """(outcome, detail): outcome is decided, limit (expected time limit),
    timeout, wrong or crash."""
    expect = entry["expect"]
    if res["timed_out"]:
        if expect == corpus.LIMIT:
            return "limit", "killed at the time limit, as expected"
        return "timeout", f"killed at {LIMIT_S} s"
    if "t_done" not in res:
        stderr = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return "crash", f"exit {res['exit']}: {stderr.strip()[-300:]}"
    code = res["exit"]
    if expect != corpus.LIMIT and code != expect:
        return "wrong", f"exit {code}, expected {expect}"
    if expect == corpus.LIMIT and code != 0:
        return "wrong", f"exit {code}, expected a report (exit 0) or the time limit"
    if code == 2:
        stderr = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        if not stderr.startswith("solver limit:"):
            return "wrong", f"exit 2 without a solver-limit message: {stderr.strip()[:200]}"
    elif "report_sha256" not in res:
        return "wrong", "no report rendered"
    if res.get("problems"):
        return "wrong", "; ".join(res["problems"][:3])
    if entry["golden"] and res.get("report_sha256") != golden_sha:
        return "wrong", "report differs from the golden flagship report"
    return "decided", ""


# ---------------------------------------------------------------------------
# Metrics


def normalised(seconds: float, cal_ns: float) -> float:
    """A time measured while the calibration loop took cal_ns, rescaled to
    a host on which it takes CAL_REF_NS.  On a shared host the same child
    runs anywhere between a fast mode and one about twice as slow, in
    phases from a fraction of a second to tens of seconds long, and some
    runs never see the fast mode; raw times move with that.  The slow mode
    slows scenarios less than the calibration loop, by the power
    SLOW_MODE_EXPONENT of the calibration's slow-down (README.md)."""
    return seconds * (CAL_REF_NS / cal_ns) ** SLOW_MODE_EXPONENT


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value at that rank, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, n - TAIL_BEYOND)
    return xs[rank - 1], 100.0 * rank / n


class Pass:
    """Samples of one untraced or traced pass over the corpus, in seconds
    as measured, with the calibration times around each child in ns."""

    def __init__(self):
        self.verdict: dict[str, float] = {}
        self.setup: dict[str, float] = {}
        self.cal: dict[str, tuple[int, int]] = {}  # before and after the scenario
        self.outcomes: list[str] = []
        self.rss_kb = 0
        self.layer: dict[str, float] = {}


def run_pass(entries, paths, work, golden_sha, traced, log) -> Pass:
    p = Pass()
    for entry in entries:
        sid = entry["id"]
        res = run_child(paths[sid], work, traced)
        outcome, detail = classify(entry, res, work, golden_sha)
        p.outcomes.append(outcome)
        if not res["timed_out"]:  # a killed child's RSS only says how far it got
            p.rss_kb = max(p.rss_kb, res["rss_kb"])
        # a run that fails or hits the limit counts as missing it
        p.verdict[sid] = ((res["t_done"] - res["t_main0"]) / 1e9
                          if outcome == "decided" else LIMIT_S)
        if "cal_ns" in res:
            p.cal[sid] = tuple(res["cal_ns"])
        if res.get("t_parsed"):
            # the first calibration runs between the import and the parse
            p.setup[sid] = (res["t_parsed"] - res["t_spawn"]
                            - (res["t_main0"] - res["t_cal0"])) / 1e9
        log.append({"id": sid, "traced": traced, "outcome": outcome,
                    "detail": detail, "exit": res["exit"], "rss_kb": res["rss_kb"],
                    "verdict_s": p.verdict[sid], "cal_ns": res.get("cal_ns"),
                    "report_bytes": res.get("report_bytes"),
                    "replayed": res.get("replayed")})
        if traced and "t_done" in res:
            add_layer(p.layer, res)
    return p


def add_layer(acc: dict[str, float], res: dict) -> None:
    """Add one traced scenario's counts and self times to acc."""
    for name, (calls, self_s) in spans.self_times(res["spans"]).items():
        acc[f"{name}_calls"] = acc.get(f"{name}_calls", 0) + calls
        acc[f"{name}_s"] = acc.get(f"{name}_s", 0.0) + self_s
    extra = dict(res["trace"])
    extra["cli.import_s"] = (res["t_imported"] - res["t_import0"]) / 1e9
    extra["cli.report_bytes"] = res.get("report_bytes", 0)
    for key, value in extra.items():
        acc[key] = acc.get(key, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(passes: list[Pass], overhead: float) -> dict[str, float]:
    """Per-layer values of one corpus pass: medians over traced passes."""
    def med(key: str) -> float:
        return statistics.median(p.layer.get(key, 0) for p in passes)

    out = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(("_calls", "_s")) and not name.startswith(("trace.", "cli.")):
            base = name.replace("_self_s", "_s")
            out[name] = med(base)
    out["spectra.leaves"] = med("leaves")
    out["spectra.leaves_per_turn"] = _ratio(med("leaves"), med("spectra.turn_page_calls"))
    out["abgroup.smith_normal_form_hit_ratio"] = _ratio(
        med("snf_hits"), med("snf_hits") + med("snf_misses"))
    out["exactness.distinct_problem_ratio"] = _ratio(
        med("distinct_problems"), med("exactness.check_feasibility_calls"))
    out["exactness.infeasible_branch_share"] = _ratio(
        med("infeasible_branches"), med("exactness.check_feasibility_calls"))
    out["cli.import_s"] = med("cli.import_s")
    out["cli.parse_s"] = med("cli.parse_scenario_s")
    out["cli.run_self_s"] = med("cli.run_s")
    out["cli.render_s"] = med(f"{spans.RENDER}_s")
    out["cli.report_bytes"] = med("cli.report_bytes")
    out["trace.overhead_s"] = overhead
    return {name: out[name] for name, *_ in PER_LAYER}


def end_to_end(passes: list[Pass]) -> tuple[dict[str, float], dict]:
    """Every time is normalised (see normalised).  A scenario's time is the
    median of its normalised samples (a decided run only; a failed or
    limit run counts at LIMIT_S).  corpus_s sums them; verdict_p50_s and
    verdict_tail_s are quantiles of all samples, each replaced by its
    scenario's time, so the per-sample noise that is left does not set
    the quantiles."""
    per_scenario: dict[str, list[float]] = {}
    setups: list[float] = []
    attempts: list[str] = []
    for p in passes:
        for sid, seconds in p.verdict.items():
            attempts.append(sid)
            if sid in p.cal and seconds < LIMIT_S:
                seconds = normalised(seconds, math.sqrt(p.cal[sid][0] * p.cal[sid][1]))
            per_scenario.setdefault(sid, []).append(seconds)
        # the first calibration runs within the set-up, before the parse
        setups += [normalised(seconds, p.cal[sid][0])
                   for sid, seconds in p.setup.items() if sid in p.cal]
    scenario_s = {sid: statistics.median(v) for sid, v in per_scenario.items()}
    samples = [scenario_s[sid] for sid in attempts]
    tail_value, pct = tail(samples)
    outcomes = [o for p in passes for o in p.outcomes]
    metrics = {
        "corpus_s": sum(scenario_s.values()),
        "verdict_p50_s": statistics.median(samples),
        "verdict_tail_s": tail_value,
        "decided_share": outcomes.count("decided") / len(outcomes),
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
        "setup_s": statistics.median(setups) if setups else 0.0,
    }
    info = {"tail_percentile": round(pct, 1), "tail_samples": len(samples),
            "setup_samples": len(setups),
            "calibration_ms": [min(c) / 1e6 for p in passes for c in p.cal.values()],
            "outcomes": {o: outcomes.count(o) for o in sorted(set(outcomes))}}
    return metrics, info


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> None:
    """Measure one workload and print its metrics; the last line is the
    JSON result."""
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    out_dir = BENCH / "out" / tag
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    entries = corpus.write(workload, seed, out_dir / "corpus")
    paths = {e["id"]: out_dir / "corpus" / workload / f"{e['id']}.json" for e in entries}
    golden_sha = hashlib.sha256(corpus.GOLDEN.read_bytes()).hexdigest()

    passes = round(seconds / NOMINAL_PASS_S[workload])
    if traced:  # each traced pass comes with an untraced one
        passes = round(passes / 2)
    passes = max(MIN_PASSES, passes)
    repeated = [e for e in entries if e["expect"] != corpus.LIMIT]
    # untimed warm-up: the first child writes the bytecode caches and
    # brings the interpreter and sources into the page cache
    run_child(paths[repeated[0]["id"]], work, False)
    order = random.Random(f"order:{workload}:{seed}")
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    log: list[dict] = []
    t0 = time.monotonic()
    for i in range(passes):
        # a host more than twice as slow as nominal gets fewer passes, so
        # that a run still ends well within its time budget
        if i >= MIN_PASSES and time.monotonic() - t0 > 2 * seconds:
            break
        # a fresh order each pass, so that a slow phase of the host does
        # not fall on the same scenarios in every pass
        todo = entries if i == 0 else repeated
        todo = order.sample(todo, len(todo))
        plain.append(run_pass(todo, paths, work, golden_sha, False, log))
        if traced:
            traced_passes.append(run_pass(todo, paths, work, golden_sha, True, log))

    metrics, info = end_to_end(plain)
    failed_outcomes = ("timeout", "wrong", "crash")
    all_outcomes = [o for p in plain + traced_passes for o in p.outcomes]
    if traced:
        t_metrics, t_info = end_to_end(traced_passes)
        overhead = t_metrics["corpus_s"] - metrics["corpus_s"]
        values = layer_metrics(traced_passes, overhead)
        units = {n: u for n, u, _ in PER_LAYER}
        info["traced_corpus_s"] = t_metrics["corpus_s"]
        info["traced_outcomes"] = t_info["outcomes"]
    else:
        values = metrics
        units = {n: u for n, u, _, _ in END_TO_END}

    summary = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "passes": len(plain), "scenarios": len(entries), "limit_s": LIMIT_S,
        "machine": machine(),
        "note": ("each value comes from this single benchmark run, one cold child "
                 "process per scenario and pass; times are normalised to a "
                 f"{CAL_REF_NS / 1e6:g} ms calibration, a scenario's time is the "
                 "median over passes"),
        "end_to_end": metrics, "info": info,
        "per_layer": values if traced else None,
        "runs": log,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n",
                                          encoding="utf-8")
    m = summary["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu_model']}, Python {m['python']}")
    print(f"{workload} seed {seed}: {len(entries)} scenarios x {len(plain)} passes"
          f"{' (+ as many traced)' if traced else ''}, limit {LIMIT_S} s per scenario")
    print(f"outcomes: {info['outcomes']}  (limit = expected time-limit case, "
          "counted against decided_share but not as failed)")
    print(f"verdict_tail_s is p{info['tail_percentile']} of {info['tail_samples']} samples; "
          f"setup_s is the median of {info['setup_samples']}")
    cals = info["calibration_ms"] or [math.nan]
    print(f"times are normalised to a {CAL_REF_NS / 1e6:g} ms calibration; the calibration "
          f"took {min(cals):.2f} to {max(cals):.2f} ms, median {statistics.median(cals):.2f} ms")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for row in log:
        if row["outcome"] in failed_outcomes:
            print(f"  FAILED {row['id']}: {row['outcome']}: {row['detail']}")
    print(json.dumps({
        "correct": not any(o in ("wrong", "crash") for o in all_outcomes),
        "attempted": len(all_outcomes),
        "failed": sum(all_outcomes.count(o) for o in failed_outcomes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="cobcheck cold-start scenario benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS),
                        help="the workload to measure (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args()
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (ROOT / "src" / "cobcheck" / "__init__.py").is_file() or not corpus.GOLDEN.is_file():
        print(f"error: no cobcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in [args.workload] if args.workload else corpus.WORKLOADS:
        run_workload(workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
