import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from cobcheck import abgroup, cli, exactness, spectra
from cobcheck.abgroup import FgAbGroup, preimage_lattice, relation_matrix
from cobcheck.cli import (ObstructionScenario, ScenarioError, main,
                          parse_scenario, run)
from cobcheck.exactness import CertStep, Certificate, FeasibilityVerdict
from cobcheck.topology import Explicit, Product, Sphere, homology, pair_maslov

FIXTURES = Path(__file__).parent / "fixtures"


def bundled(name: str) -> Path:
    return Path(str(resources.files("cobcheck") / "data" / name))


def load_bundled_scenario() -> ObstructionScenario:
    return parse_scenario(bundled("paper_cp7.json").read_text())


def _cobcheck(*args: str) -> subprocess.CompletedProcess:
    """``python -m cobcheck`` in a fresh process, on this checkout."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "cobcheck", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})


# ---------------------------------------------------------------------------
# parsing


def test_parse_bundled_scenario():
    sc = load_bundled_scenario()
    assert sc.name == "paper_cp7"
    assert sc.probe == "L2"
    assert sc.grading.t_degree == -2
    assert [lag.name for lag in sc.lagrangians] == ["L2", "L1", "L"]
    assert sc.lagrangian("L").maslov is None


def test_parse_rejects_no_lagrangians():
    with pytest.raises(ScenarioError, match="no Lagrangians"):
        parse_scenario({"schema": 1, "lagrangians": []})


def test_parse_rejects_bad_schema():
    # the schema is a JSON integer: True and 1.0 equal 1 in Python, but
    # neither is one
    for schema in (2, True, 1.0, "1", None):
        with pytest.raises(ScenarioError, match=f"^schema: expected 1, got {schema!r}$"):
            parse_scenario({"schema": schema, "lagrangians": [{}]})


def test_parse_rejects_unknown_space_constructor():
    with pytest.raises(ScenarioError, match="unknown space constructor"):
        parse_scenario({
            "schema": 1,
            "lagrangians": [{"name": "A", "space": {"torus": 2}, "ambient": 3, "maslov": 2}],
        })


def test_parse_rejects_dangling_name():
    with pytest.raises(ScenarioError, match="dangling"):
        parse_scenario({
            "schema": 1,
            "lagrangians": [{"name": "A", "space": "nowhere", "ambient": 3, "maslov": 2}],
        })


def test_parse_rejects_odd_maslov_on_orientable():
    with pytest.raises(ScenarioError, match="even Maslov"):
        parse_scenario({
            "schema": 1,
            "lagrangians": [{"name": "A", "space": None, "ambient": 3, "maslov": 3}],
        })


def test_parse_rejects_odd_grading():
    with pytest.raises(ScenarioError, match="even"):
        parse_scenario({
            "schema": 1,
            "lagrangians": [{"name": "A", "space": None, "ambient": 3, "maslov": 2}],
            "grading": -3,
        })


def test_parse_rejects_mixed_ambients():
    with pytest.raises(ScenarioError, match="ambient"):
        parse_scenario({
            "schema": 1,
            "lagrangians": [
                {"name": "A", "space": None, "ambient": 3, "maslov": 2},
                {"name": "B", "space": None, "ambient": 5, "maslov": 2},
            ],
        })


def test_roundtrip_covers_explicit_spaces_pins_and_products():
    raw = {
        "schema": 1,
        "name": "synthetic",
        "spaces": {
            "E": {"explicit": {"dim": 2, "homology": {
                "0": {"free": 1, "torsion": []},
                "1": {"free": 0, "torsion": [2, 4]},
            }}},
            "T3": {"product": ["circle", "circle", "circle"]},
        },
        "lagrangians": [
            {"name": "A", "space": "T3", "ambient": 3, "maslov": 4},
            {"name": "B", "space": "E", "ambient": 3, "maslov": 8},
        ],
        "intersections": [
            {"pair": ["A", "B"], "clean": True, "connected": True, "space": "E",
             "restriction_surjective_degrees": [1]},
        ],
        "claims": [],
        "probe": "B",
        "grading": -2,
        "pins": [{"pair": ["A", "B"], "degree": 0,
                  "group": {"free": 0, "torsion": [2]}}],
    }
    sc = parse_scenario(raw)
    spaces = dict(sc.spaces)
    # the ternary product folds left
    assert spaces["T3"] == Product(Product(Sphere(1), Sphere(1)), Sphere(1))
    assert sc.lagrangian("A").space == spaces["T3"]
    explicit = spaces["E"]
    assert isinstance(explicit, Explicit) and explicit.dimension == 2
    assert explicit.homology.entry(0) == FgAbGroup(1)
    assert explicit.homology.entry(1) == FgAbGroup(0, (2, 4))
    assert sc.intersections[0].space == explicit
    assert sc.intersections[0].restriction_surjective_degrees == (1,)
    (pin,) = sc.pins
    assert (pin.pair, pin.degree, pin.group) == (("A", "B"), 0, FgAbGroup(0, (2,)))


# ---------------------------------------------------------------------------
# pipeline


def test_run_produces_expected_verdicts():
    report = run(load_bundled_scenario())
    verdicts = {tuple(cv.ends): cv.verdict for cv in report.claim_verdicts}
    assert verdicts == {("L1", "L2"): "NOT OBSTRUCTED", ("L2", "L1"): "INFEASIBLE"}


def test_report_sections_consistent():
    report = run(load_bundled_scenario())
    text = report.text()
    payload = json.loads(text.split("[verdict json]", 1)[1])
    human = {tuple(cv.ends): cv.verdict for cv in report.claim_verdicts}
    machine = {tuple(c["ends"]): c["verdict"] for c in payload["claims"]}
    assert human == machine
    for cv in report.claim_verdicts:
        assert f"({cv.ends[0]}, {cv.ends[1]}): {cv.verdict}" in text


def test_run_is_deterministic():
    sc = load_bundled_scenario()
    assert run(sc).text() == run(sc).text()


def test_branch_tables_without_claims():
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["claims"] = []
    raw["pins"] = [{"pair": ["L2", "L2"], "degree": 1, "group": {"free": 0, "torsion": [2]}}]
    report = run(parse_scenario(raw))
    assert report.claim_verdicts == []
    tables = {(report.scenario.probe, pr.end): len(pr.tree.leaves)
              for pr in report.pair_results}
    assert tables == {("L2", "L1"): 2, ("L2", "L2"): 1}
    assert "no claims" in report.text()


# ---------------------------------------------------------------------------
# CLI entry point


def test_cli_golden_byte_identical(capsys):
    code = main(["check", str(bundled("paper_cp7.json"))])
    out = capsys.readouterr().out
    golden = bundled("golden/paper_cp7_report.txt").read_text()
    assert out == golden
    assert code == 10


RP3_RP3_TABLE = {
    "schema": 1,
    "name": "rp3xrp3-table",
    "lagrangians": [
        {"name": "P", "space": {"rp": 7}, "ambient": 7, "maslov": 8},
        {"name": "Q", "space": {"product": [{"rp": 3}, {"rp": 3}]}, "ambient": 7, "maslov": 4},
    ],
    "intersections": [
        {"pair": ["Q", "P"], "clean": True, "connected": True,
         "space": {"product": [{"rp": 3}, {"rp": 3}]}},
    ],
    "claims": [],
    "probe": "P",
    "grading": -2,
    "entry_bound": 4,
    "window": 2,
}


# catalog-table scenarios as in the benchmark corpus: RP^7 at window 4
# turns 258 pages; T^2 at bound 4 renders the most trace text
RP7_S4_W4 = {
    "schema": 1,
    "name": "rp7-s4-w4",
    "spaces": {},
    "lagrangians": [
        {"name": "M3", "space": {"rp": 7}, "ambient": 7, "maslov": 8},
        {"name": "Q9", "space": {"rp": 7}, "ambient": 7, "maslov": 4},
    ],
    "intersections": [
        {"pair": ["Q9", "M3"], "clean": True, "connected": True, "space": {"rp": 7}},
    ],
    "claims": [],
    "probe": "M3",
    "grading": -2,
    "entry_bound": 4,
    "window": 4,
}

T2_S2_B4 = {
    "schema": 1,
    "name": "t2-s2-b4",
    "spaces": {},
    "lagrangians": [
        {"name": "N9", "space": {"rp": 7}, "ambient": 7, "maslov": 8},
        {"name": "N1", "space": {"product": ["circle", "circle"]}, "ambient": 7, "maslov": 2},
    ],
    "intersections": [
        {"pair": ["N9", "N1"], "clean": True, "connected": True,
         "space": {"product": ["circle", "circle"]}},
    ],
    "claims": [],
    "probe": "N9",
    "grading": -2,
    "entry_bound": 4,
    "window": 2,
}


# claims-fanout scenarios as in the benchmark corpus: fan6-two-branch has
# 7 probe pairs over 3 distinct intersections and 64 branch combinations
RP3, S3 = {"rp": 3}, {"sphere": 3}


def fan_document(name, probe, source, ends, cross):
    """A claims-fanout document as the benchmark corpus writes it: each
    end's space is its intersection with the probe times a circle, and
    each end is claimed in both orders against the probe, then the
    cross claims."""
    claims = [pair for end, _ in ends for pair in ((end, probe), (probe, end))] + cross
    return {
        "schema": 1,
        "name": name,
        "spaces": {},
        "lagrangians": [{"name": probe, "space": {"rp": 7}, "ambient": 7, "maslov": 8},
                        {"name": source, "space": None, "ambient": 7, "maslov": None}]
                       + [{"name": end, "space": {"product": [space, "circle"]}, "ambient": 7,
                           "maslov": 4} for end, space in ends],
        "intersections": [{"pair": [probe, probe], "clean": True, "connected": True,
                           "space": {"rp": 7}, "restriction_surjective_degrees": []}]
                         + [{"pair": [end, probe], "clean": True, "connected": True,
                             "space": space, "restriction_surjective_degrees": [1, 2]}
                            for end, space in ends],
        "claims": [{"source": source, "ends": list(pair)} for pair in claims],
        "probe": probe,
        "grading": -2,
        "entry_bound": 4,
        "window": 2,
    }


RP3_S3, RP3_RP3 = {"product": [RP3, S3]}, {"product": [RP3, RP3]}
FAN6_TWO_BRANCH = fan_document(
    "fan6-two-branch", "P7", "P2",
    [("L8", RP3_S3), ("K3", RP3_S3), ("N6", RP3_S3),
     ("P4", RP3_RP3), ("Q2", RP3_RP3), ("Q6", RP3_RP3)],
    [("Q6", "N6"), ("L8", "Q6"), ("Q6", "L8"), ("K3", "Q2"), ("P4", "L8"), ("P4", "Q2")])
FAN7_MIXED = fan_document(
    "fan7-mixed", "N6", "L8",
    [("K3", RP3), ("L3", RP3_S3), ("K5", RP3_S3), ("P6", {"product": [RP3, "circle"]}),
     ("K2", RP3_S3), ("P9", RP3_RP3), ("P0", RP3_RP3)],
    [("P9", "P0"), ("P6", "P0"), ("P6", "P9"), ("L3", "K2"), ("K2", "K3"), ("P0", "P9"),
     ("K3", "P6")])


@pytest.mark.parametrize("document, args, code, digest", [
    # the golden report is at entry bound 4; bound 6 reaches the longest
    # differential chains (Z^2 -> Z -> Z^2 at 169 x 169 labelings)
    (None, ["--branch-bound", "6", "--window", "8"], 10,
     "7ebb04af18df31b89e4e94b5f17ffb4de166aaa87709ceec23da4200a805822a"),
    (RP3_RP3_TABLE, [], 0, "81e1baae11511b1f98015a9b499ef7c7d3bdf67ff1b715a02d826bb0991df787"),
    (RP7_S4_W4, [], 0, "7f64a45c54c509a8df6799a2679d82ebb31cb0b301b7418df6cf2d232be2373b"),
    (T2_S2_B4, [], 0, "6572f615a773c40cfc9df579574e90514494125008e39e633cfdfccd94e02ade"),
    (FAN6_TWO_BRANCH, [], 10,
     "8715b276051e2637f22466d972fc401f2ec0cdc5a5cae83cb3724c2180976e06"),
    (FAN7_MIXED, [], 10, "f3a3ac9d2c844ff78168eaea689b4f6c144ae072513e93c9dab3bbb94f2a4c67"),
], ids=["cp7-bound6-window8", "rp3xrp3-table", "rp7-s4-w4", "t2-s2-b4", "fan6-two-branch",
        "fan7-mixed"])
def test_cli_reports_pinned(tmp_path, capsys, document, args, code, digest):
    if document is None:
        path = bundled("paper_cp7.json")
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
    assert main(["check", str(path)] + args) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_claims_work_is_done_once_per_distinct_unit(monkeypatch):
    solves, builds = [], []
    solve_floer, build = cli.solve_floer, exactness.build_cobordism_sequences
    monkeypatch.setattr(cli, "solve_floer",
                        lambda *args, **kw: solves.append(args) or solve_floer(*args, **kw))
    monkeypatch.setattr(exactness, "build_cobordism_sequences",
                        lambda *args: builds.append(args) or build(*args))
    sc = parse_scenario(json.dumps(FAN6_TWO_BRANCH))
    report = run(sc)
    probe = sc.lagrangian(sc.probe)
    pairs = {(homology(sc.intersection_of(sc.probe, pr.end).space),
              pair_maslov(probe, sc.lagrangian(pr.end)), ()) for pr in report.pair_results}
    assert len(report.pair_results) == 7 and len(pairs) == 3
    assert len(solves) == len(set(solves)) and set(solves) == pairs
    branches = {pr.end: len(pr.folded) for pr in report.pair_results}
    windows = sum(branches[a] * (branches[b] if a != b else 1) for a, b in
                  (claim.ends for claim in sc.claims))
    assert len(builds) == windows == 48


@pytest.mark.parametrize("document", [FAN6_TWO_BRANCH, FAN7_MIXED],
                         ids=["fan6-two-branch", "fan7-mixed"])
def test_enumeration_work_is_done_once_per_run(monkeypatch, document):
    # the solves of a run share one table (in fan7-mixed two of them need
    # the same hom spaces): each hom space is built once, and each
    # (space, hom) takes at most one cokernel of M / im(hom) and, into a
    # target with torsion, one of source / kernel (the spaces take them
    # in abgroup; run() words no differential, so no hom_images call
    # adds any)
    spaces, cokernels = [], []
    hom_matrix_space, cokernel = spectra.hom_matrix_space, abgroup.cokernel
    monkeypatch.setattr(spectra, "hom_matrix_space",
                        lambda *args: spaces.append(args) or hom_matrix_space(*args))
    monkeypatch.setattr(abgroup, "cokernel", lambda m: cokernels.append(m) or cokernel(m))
    run(parse_scenario(json.dumps(document)))
    assert len(spaces) == len(set(spaces))
    allowed = Counter()
    for source, target, bound in spaces:
        for hom in hom_matrix_space(source, target, bound):
            allowed[hom.matrix.hstack(relation_matrix(target))] += 1
            if target.torsion:
                allowed[preimage_lattice(hom)] += 1
    assert cokernels and not Counter(cokernels) - allowed


def test_runs_share_no_enumeration_state(tmp_path, capsys, monkeypatch):
    # two runs in one process build every hom space afresh and print the
    # bytes a fresh process prints
    path = tmp_path / "fan6.json"
    path.write_text(json.dumps(FAN6_TWO_BRANCH))
    spaces = []
    hom_matrix_space = spectra.hom_matrix_space
    monkeypatch.setattr(spectra, "hom_matrix_space",
                        lambda *args: spaces.append(args) or hom_matrix_space(*args))
    outs, built = [], []
    for _ in range(2):
        assert main(["check", str(path)]) == 10
        outs.append(capsys.readouterr().out)
        built.append(spaces[:])
        spaces.clear()
    fresh = _cobcheck("check", str(path))
    assert fresh.returncode == 10
    assert outs == [fresh.stdout] * 2
    assert built[0] and built[0] == built[1]


def test_solves_render_no_text_and_reports_render_each_leaf_once(monkeypatch, tmp_path):
    # the solver and run() return data only (run() names no space); a
    # report describes each distinct nonzero differential once, in the
    # order its trace first meets it, however many leaves and pairs share
    # it and whether or not the trace is also written to a file
    described, spaces = [], []
    hom_images, describe_space = cli.hom_images, cli.describe_space
    monkeypatch.setattr(cli, "hom_images", lambda h: described.append(h) or hom_images(h))
    monkeypatch.setattr(cli, "describe_space",
                        lambda e: spaces.append(e) or describe_space(e))
    assert not hasattr(spectra, "hom_images")

    def differentials(leaves):
        return [h for leaf in leaves for _, homs in leaf.turns for _, h in homs]

    def first_seen(report):
        leaves = [leaf for pr in report.pair_results for leaf in pr.tree.leaves]
        return list(dict.fromkeys(differentials(leaves)))

    report = run(parse_scenario(json.dumps(FAN6_TWO_BRANCH)))
    assert described == [] and spaces == []
    distinct = first_seen(report)
    # distinct leaves share differentials, so a report without its memo
    # would describe some of them again
    leaves = {id(leaf): leaf for pr in report.pair_results for leaf in pr.tree.leaves}
    assert len(distinct) < len(differentials(leaves.values()))
    report.text()
    assert described == distinct and spaces
    report.text()
    assert described == distinct

    flagship = run(parse_scenario(bundled("paper_cp7.json").read_text()))
    for flags in ([], ["--emit-trace", str(tmp_path / "trace.txt")]):
        described.clear()
        assert main(["check", str(bundled("paper_cp7.json"))] + flags) == 10
        assert described == first_seen(flagship)


def test_probe_pairs_share_a_solve_only_under_the_same_pins():
    # N1 and N2 meet the probe in the same T^2; only (N9, N1) is pinned
    torus = {"product": ["circle", "circle"]}
    doc = {**T2_S2_B4, "entry_bound": 1,
           "lagrangians": T2_S2_B4["lagrangians"] + [
               {"name": "N2", "space": torus, "ambient": 7, "maslov": 2}],
           "intersections": T2_S2_B4["intersections"] + [
               {"pair": ["N9", "N2"], "clean": True, "connected": True, "space": torus}],
           "pins": [{"pair": ["N1", "N9"], "degree": 0, "group": {"free": 1}}]}
    report = run(parse_scenario(json.dumps(doc)))
    assert [(pr.end, len(pr.tree.leaves)) for pr in report.pair_results] == [("N1", 1),
                                                                             ("N2", 3)]


def test_a_verdict_failing_its_own_check_is_an_internal_error(capsys, monkeypatch):
    check_feasibility = exactness.check_feasibility

    def tampered(problem):
        verdict = check_feasibility(problem)
        if verdict.feasible:
            return verdict
        cert, step = verdict.certificate, verdict.certificate.steps[0]
        first = CertStep(step.kind, step.seq, step.pos, step.var, step.lo, step.hi + 1, step.term)
        return FeasibilityVerdict(False, certificate=Certificate(
            (first,) + cert.steps[1:], cert.preamble))

    monkeypatch.setattr(exactness, "check_feasibility", tampered)
    assert main(["check", str(bundled("paper_cp7.json"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: claim (")
    assert err.endswith(": the certificate does not verify\n")


def test_an_internal_error_with_an_empty_message_is_named_by_its_type(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "solve_floer", exhausted)
    assert main(["check", str(bundled("paper_cp7.json"))]) == 2
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_a_failing_render_is_an_internal_error_with_no_report(capsys, monkeypatch):
    def broken(expr):
        raise RuntimeError("cannot word this space")

    monkeypatch.setattr(cli, "describe_space", broken)
    assert main(["check", str(bundled("paper_cp7.json"))]) == 2
    assert capsys.readouterr() == ("", "internal error: cannot word this space\n")


def test_cli_emit_trace_and_json(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    verdict = tmp_path / "verdict.json"
    code = main(["check", str(bundled("paper_cp7.json")),
                 "--emit-trace", str(trace), "--json", str(verdict)])
    capsys.readouterr()
    assert code == 10
    assert "INFEASIBLE" in trace.read_text()
    payload = json.loads(verdict.read_text())
    assert payload["claims"][1]["verdict"] == "INFEASIBLE"
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "02a0ee4a43f847d87e4bb00b140725a0d2157a6bf2efeddd8bf6f24fd41428b1")
    assert hashlib.sha256(verdict.read_bytes()).hexdigest() == (
        "5723cb00bd6d26e60fbdeaa82933048d675a5dbf11e256031fb709e8532671cd")


def test_cli_wide_window_keeps_the_golden_verdicts(tmp_path, capsys):
    # at window 300 a page turn has about 1,200 components; the search
    # over their classes nests no Python frame per component
    verdict = tmp_path / "verdict.json"
    code = main(["check", str(bundled("paper_cp7.json")), "--window", "300",
                 "--json", str(verdict)])
    capsys.readouterr()
    assert code == 10
    golden = bundled("golden/paper_cp7_report.txt").read_text()
    assert verdict.read_text() == golden.split("[verdict json]\n", 1)[1]


@pytest.mark.parametrize("document", [
    "[" * 100000 + "]" * 100000,
    '{"schema": 1, "spaces": {"P": ' + '{"product": ["circle", ' * 1500 + '"circle"'
    + ']}' * 1500 + '}}',
], ids=["json-lists", "products"])
def test_cli_deeply_nested_document_is_a_validation_error(tmp_path, capsys, document):
    path = tmp_path / "nested.json"
    path.write_text(document)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "validation error: the scenario document is nested too deeply\n")


def test_cli_deep_chain_of_named_products_is_a_validation_error(tmp_path, capsys):
    # 1,200 named spaces, each the product of the last with S^0: every
    # level parses alone, but hashing the chain for the homology cache
    # recurses once per level; the stage names the first space, in name
    # order, that is too deep
    spaces = {"P0": {"sphere": 0}}
    spaces.update((f"P{k}", {"product": [f"P{k - 1}", {"sphere": 0}]}) for k in range(1, 1200))
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "schema": 1, "spaces": spaces,
        "lagrangians": [{"name": "L", "space": "P1199", "ambient": 7, "maslov": 8}]}))
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"validation error: stage homology: spaces\.P\d+: "
                        r"products nested too deeply\n", err)


@pytest.mark.parametrize("flag", ["--emit-trace", "--json"])
def test_cli_unwritable_output_is_an_error_line(tmp_path, flag):
    target = tmp_path / "missing" / "out.txt"
    proc = _cobcheck("check", str(bundled("paper_cp7.json")), flag, str(target))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write ")
    assert proc.stderr.count("\n") == 1 and str(target) in proc.stderr


def test_cli_scenario_not_utf8_is_a_read_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe")
    proc = _cobcheck("check", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot read scenario: ")
    assert proc.stderr.rstrip().endswith(repr(str(path)))
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_cli_window_and_bound_overrides(tmp_path, capsys):
    code = main(["check", str(bundled("paper_cp7.json")),
                 "--branch-bound", "3", "--window", "3"])
    out = capsys.readouterr().out
    assert code == 10
    assert "INFEASIBLE" in out
    # the overrides act exactly like editing the document
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["entry_bound"], raw["window"] = 3, 3
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 10
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("flag, value, field", [
    ("--branch-bound", "0", "entry_bound"),
    ("--window", "1", "window"),
    ("--branch-bound", "2.5", "entry_bound"),
    ("--window", "x", "window"),
    # int() reads each of these as a number; only the text str(n) names n
    ("--window", "03", "window"),
    ("--branch-bound", "03", "entry_bound"),
    ("--window", "+3", "window"),
    ("--window", " 3", "window"),
    ("--branch-bound", "1_0", "entry_bound"),
    ("--window", "\u0663", "window"),
    ("--window", "-0", "window"),
])
def test_cli_rejects_invalid_overrides(capsys, flag, value, field):
    # out of range or not an integer: a validation error (exit 1), as
    # for the same field in the document
    code = main(["check", str(bundled("paper_cp7.json")), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    problem = "must be" if value in ("0", "1") else f"expected an integer, got {value!r}"
    assert f"validation error: {field}: {problem}" in err


def test_explicit_homology_degrees_that_collide_are_rejected():
    # "3" and "03" would both name degree 3, and the later key would win
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["spaces"]["E"] = {"explicit": {"dim": 3, "homology": {
        "0": {"free": 1, "torsion": []}, "3": {"free": 1, "torsion": []},
        "03": {"free": 0, "torsion": [2]}}}}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(raw)
    assert str(info.value) == "spaces.E.explicit.homology: expected an integer, got '03'"


USAGE_LINE = ("usage: cobcheck check SCENARIO [--branch-bound B] [--window W] "
              "[--emit-trace PATH] [--json PATH]")


@pytest.mark.parametrize("args", [
    ["--window", "3", "check", "{F}"],
    ["check", "--window", "3", "{F}"],
    ["check", "{F}", "--window=3"],
    ["check", "{F}", "--window", "8", "--window", "3"],
    ["check", "--window=2", "{F}", "--branch-bound", "4", "--window=3"],
], ids=["flag-before-command", "flag-before-scenario", "equals", "repeated", "mixed"])
def test_cli_accepted_command_lines_print_the_same_bytes(capsys, args):
    flagship = str(bundled("paper_cp7.json"))
    assert main(["check", flagship, "--window", "3"]) == 10
    expected = capsys.readouterr()
    assert main([flagship if a == "{F}" else a for a in args]) == 10
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("args, error", [
    ([], "expected 'check SCENARIO', got nothing"),
    (["verify", "{F}"], "expected 'check SCENARIO', got verify {F}"),
    (["check"], "expected 'check SCENARIO', got check"),
    (["check", "{F}", "{F}"], "expected 'check SCENARIO', got check {F} {F}"),
    (["check", "{F}", "--bogus", "1"], "unknown option '--bogus'"),
    (["check", "{F}", "--window"], "--window: expected a value"),
    (["check", "{F}", "--json", "--window", "3"], "--json: expected a value"),
    (["check", "{F}", "--json="], "--json: expected a value"),
    (["check", "{F}", "--emit-trace", ""], "--emit-trace: expected a value"),
    (["check", "{F}", "--win", "3"], "unknown option '--win'"),
    (["check", "{F}", "--window-size=3"], "unknown option '--window-size=3'"),
], ids=["no-arguments", "other-command", "no-scenario", "two-scenarios", "unknown-flag",
        "flag-without-value", "flag-followed-by-flag", "empty-after-equals", "empty-value",
        "prefix-abbreviation", "longer-flag"])
def test_cli_command_lines_that_do_not_parse_are_usage_errors(capsys, args, error):
    # exit 1, cobcheck's validation exit: 2 is kept for solver limits and
    # internal errors
    flagship = str(bundled("paper_cp7.json"))
    assert main([flagship if a == "{F}" else a for a in args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{USAGE_LINE}\nerror: {error.replace('{F}', flagship)}\n"


@pytest.mark.parametrize("args", [["-h"], ["--help"], ["check", "-h"], ["check", "x", "--help"]])
def test_cli_help_exits_zero(capsys, args):
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.startswith(USAGE_LINE + "\n\n") and err == ""


def test_cli_usage_through_python_m_cobcheck():
    helped = _cobcheck("--help")
    assert helped.returncode == 0 and helped.stderr == ""
    assert helped.stdout.splitlines()[0] == USAGE_LINE
    failed = _cobcheck("check")
    assert failed.returncode == 1 and failed.stdout == ""
    assert failed.stderr == f"{USAGE_LINE}\nerror: expected 'check SCENARIO', got check\n"


def test_cli_window_too_small_is_a_validation_error(tmp_path, capsys):
    # an S^6 intersection at grading step 2 needs more than 2 column steps
    raw = {
        "schema": 1,
        "name": "narrow-window",
        "lagrangians": [
            {"name": "P5", "space": {"rp": 7}, "ambient": 7, "maslov": 8},
            {"name": "L3", "space": {"product": ["circle", "circle"]}, "ambient": 7,
             "maslov": 2},
        ],
        "intersections": [
            {"pair": ["P5", "L3"], "clean": True, "connected": True, "space": {"sphere": 6}},
        ],
        "claims": [],
        "probe": "P5",
        "grading": -2,
        "entry_bound": 1,
        "window": 2,
    }
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(raw))
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "validation error: stage floer: window too small" in err


def test_cli_window_too_small_names_the_smallest_window(tmp_path, capsys):
    # S^6 at step 2: degree 0's antidiagonal holds (-6, 6), a column that
    # window 2 does not hold
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["intersections"][0]["space"] = {"sphere": 6}
    raw["lagrangians"][1]["maslov"] = 2
    raw["claims"] = []
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path), "--window", "2"]) == 1
    assert capsys.readouterr().err.endswith("the smallest window that can is 3\n")
    assert main(["check", str(path), "--window", "3"]) == 0


def test_cli_window_rejected_by_the_worst_case_run_names_the_smallest_window(tmp_path, capsys):
    # S^7 at step 2: page 8 maps (0, 0) out of window 3, so the worst-case
    # run of the first page leaves degree 0 unresolved; the check names 4
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["intersections"][0]["space"] = {"sphere": 7}
    raw["lagrangians"][1]["maslov"] = 2
    raw["claims"] = []
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path), "--window", "3"]) == 1
    assert capsys.readouterr().err == (
        "validation error: stage floer: window too small to certify abutment degrees 0 and 1 "
        "(rows 0..7, column step 2); the smallest window that can is 4\n")
    assert main(["check", str(path), "--window", "4"]) == 0


# the t2-s2-b1 corpus document with S^0 (H_0 = Z^2) as L3 and as the
# intersection declared connected
S0_DECLARED_CONNECTED = {
    "schema": 1,
    "name": "t2-s2-b1",
    "spaces": {},
    "lagrangians": [
        {"name": "P5", "space": {"rp": 7}, "ambient": 7, "maslov": 8},
        {"name": "L3", "space": {"sphere": 0}, "ambient": 7, "maslov": 2},
    ],
    "intersections": [
        {"pair": ["P5", "L3"], "clean": True, "connected": True, "space": {"sphere": 0}},
    ],
    "claims": [],
    "probe": "P5",
    "grading": -2,
    "entry_bound": 1,
    "window": 2,
}


def _explicit_degree_0(group):
    """A mutation adding an explicit space with this degree 0 group."""
    return lambda d: d["spaces"].update(E={"explicit": {"homology": {"0": group}, "dim": 3}})


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["claims"][0].pop("source"), "claims[0]: missing field 'source'"),
    (lambda d: d["intersections"][0].pop("space"), "intersections[0]: missing field 'space'"),
    (lambda d: d.update(spaces=[]), "spaces: expected an object"),
    (lambda d: d["lagrangians"].__setitem__(0, "L2"), "lagrangians[0]: expected an object"),
    (lambda d: d.update(pins=[{"pair": ["L2", "L1"], "group": {"free": 1}}]),
     "pins[0]: missing field 'degree'"),
    # the abutment is 2-periodic: two pins of one pair, in either order,
    # and of one parity must agree
    (lambda d: d.update(pins=[{"pair": ["L2", "L1"], "degree": 0, "group": {"free": 0}},
                              {"pair": ["L1", "L2"], "degree": 0, "group": {"free": 1}}]),
     "pins[0], pins[1]: the 2-periodic Floer homology of (L1, L2) cannot be 0 in degree 0 "
     "and Z in degree 0"),
    (lambda d: d.update(pins=[{"pair": ["L2", "L2"], "degree": 1, "group": {"free": 1}},
                              {"pair": ["L2", "L1"], "degree": 0, "group": {"free": 0}},
                              {"pair": ["L2", "L1"], "degree": 2, "group": {"free": 1}}]),
     "pins[1], pins[2]: the 2-periodic Floer homology of (L2, L1) cannot be 0 in degree 0 "
     "and Z in degree 2"),
    (lambda d: d.update(entry_bound="x"), "entry_bound: expected an integer, got 'x'"),
    (lambda d: d["spaces"].update(E={"explicit": {"homology": {}}}),
     "spaces.E.explicit: missing field 'dim'"),
    (_explicit_degree_0({"free": "x"}),
     "spaces.E.explicit.homology[0].free: expected an integer, got 'x'"),
    (_explicit_degree_0({"free": [1]}),
     "spaces.E.explicit.homology[0].free: expected an integer, got [1]"),
    (_explicit_degree_0({"torsion": ["a"]}),
     "spaces.E.explicit.homology[0].torsion[0]: expected an integer, got 'a'"),
    (_explicit_degree_0({"torsion": 5}),
     "spaces.E.explicit.homology[0].torsion: expected a list"),
    # written as the JSON token Infinity, read back as a float int() overflows on
    (_explicit_degree_0({"free": float("inf")}),
     "spaces.E.explicit.homology[0].free: expected an integer, got inf"),
    (lambda d: (d.clear(), d.update(S0_DECLARED_CONNECTED)),
     "stage homology: intersections[0]: connected, but H_0 = Z^2 is not Z"),
    # booleans are JSON true or false, and integers JSON integers: no
    # string, number or bool stands in for another
    (lambda d: d["claims"][0].update(spin="false"),
     "claims[0].spin: expected true or false, got 'false'"),
    (lambda d: d["intersections"][0].update(clean=1),
     "intersections[0].clean: expected true or false, got 1"),
    (lambda d: d["lagrangians"][0].update(space={"rp": 2.5}),
     "lagrangians[0].space.rp: expected an integer, got 2.5"),
    (lambda d: d["lagrangians"][0].update(maslov="4"),
     "lagrangians[0].maslov: expected an integer, got '4'"),
    (lambda d: d.update(entry_bound=True), "entry_bound: expected an integer, got True"),
    (lambda d: d.update(entry_bound=1e308), "entry_bound: expected an integer, got 1e+308"),
    (lambda d: d.update(name=["x"]), "name: expected a string, got ['x']"),
], ids=["claim-source", "intersection-space", "spaces-list", "lagrangian-string",
        "pin-degree", "pins-one-degree", "pins-one-parity", "entry-bound-string",
        "explicit-dim", "group-free-string", "group-free-list", "group-torsion-entry",
        "group-torsion-int", "group-free-infinity", "connected-h0-not-z", "claim-spin-string",
        "intersection-clean-int", "rp-float", "maslov-string", "entry-bound-bool",
        "entry-bound-float", "name-list"])
def test_cli_malformed_documents_are_validation_errors(tmp_path, capsys, mutate, message):
    raw = json.loads(bundled("paper_cp7.json").read_text())
    mutate(raw)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize("claims", [True, False], ids=["claims", "tables"])
def test_a_pin_no_solve_reads_is_rejected_before_any_solve(tmp_path, capsys, monkeypatch,
                                                            claims):
    # the probe L2 is paired with L1 and L2, as the claims' ends or as
    # the partners its intersections declare; a pin on (L1, L) would be
    # dropped, so the admissibility stage names it and nothing is solved
    raw = json.loads(bundled("paper_cp7.json").read_text())
    if not claims:
        raw["claims"] = []
    raw["pins"] = [{"pair": ["L1", "L2"], "degree": 0, "group": {"free": 0}},
                   {"pair": ["L1", "L"], "degree": 0, "group": {"free": 0}}]
    solves = []
    monkeypatch.setattr(cli, "solve_floer", lambda *args, **kw: solves.append(args))
    path = tmp_path / "unsolved-pin.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        "validation error: stage admissibility: pins[1]: (L1, L) is not a probe pair of this "
        "run, so no solve reads the pin\n")
    assert not solves


def test_cli_no_leaf_advice_follows_whether_the_bound_truncates(tmp_path, capsys):
    # a tree without leaves is a solver limit either way, exit 2; it says
    # to raise entry_bound only when the bound cut some hom space, since
    # otherwise the enumeration was complete and no bound can help
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["intersections"][0]["space"] = {"rp": 0}  # (L1, L2) at step 4
    path = tmp_path / "point.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "solver limit: stage floer: no consistent spectral sequence for pair (L2, L1) under "
        "any entry bound (this is not an infeasibility verdict)\n")
    # RP^7 at step 4, bound 1 (catalog-tables/rp7-s4-b1): the bound truncates
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    assert main(["check", str(corpus / "catalog-tables" / "rp7-s4-b1.json")]) == 2
    assert capsys.readouterr().err == (
        "solver limit: stage floer: no consistent spectral sequence for pair (M1, M5) under "
        "entry bound 1; raise entry_bound (this is not an infeasibility verdict)\n")


def test_cli_entry_bound_past_any_hom_space_is_a_solver_limit(tmp_path, capsys):
    # a JSON integer far past a C ssize_t ends in a named solver limit,
    # not an internal error from building its entry range
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["entry_bound"] = 10 ** 29
    path = tmp_path / "huge-bound.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver limit: stage floer: ") and err.count("\n") == 1
    assert f"entry_bound {10 ** 29}" in err


def test_cli_entry_bound_past_the_hom_limit_is_a_solver_limit(tmp_path, capsys):
    # an entry_bound whose hom spaces fit a C ssize_t but not MAX_HOMS
    # ends in a named solver limit before any hom space is built: the
    # flagship's Z -> Z^2 at bound 10^6 holds 4 * 10^12 homs
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["entry_bound"] = 10 ** 6
    path = tmp_path / "large-bound.json"
    path.write_text(json.dumps(raw))
    start = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("solver limit: stage floer: ") and err.count("\n") == 1
    assert f"entry_bound {10 ** 6}" in err


def test_cli_missing_file(capsys):
    code = main(["check", "/nonexistent/path.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot read" in err


def test_negative_fixture_probe_maslov(capsys):
    code = main(["check", str(FIXTURES / "probe_maslov_too_small.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "N_K > 3" in err


def test_negative_fixture_odd_grading(capsys):
    code = main(["check", str(FIXTURES / "odd_grading.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "even" in err


def test_negative_fixture_non_divisor_grading(capsys):
    code = main(["check", str(FIXTURES / "non_divisor_grading.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "common-divisor" in err


def test_exit_code_zero_when_nothing_obstructed(tmp_path, capsys):
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["claims"] = [c for c in raw["claims"] if c["ends"] == ["L1", "L2"]]
    path = tmp_path / "unobstructed.json"
    path.write_text(json.dumps(raw))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "NOT OBSTRUCTED" in out


def test_stage_errors_name_the_stage(capsys):
    code = main(["check", str(FIXTURES / "probe_maslov_too_small.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "stage admissibility" in err


def test_spin_check_uses_the_granting_intersection(tmp_path, capsys):
    # (B, A) is declared first but does not grant the claim; the spin
    # check must read the clean connected (A, B) declaration
    end = {"product": ["R", "circle"]}
    raw = {
        "schema": 1,
        "name": "granting-order",
        "spaces": {"R": {"product": [{"rp": 3}, {"sphere": 3}]}},
        "lagrangians": [
            {"name": "K", "space": {"rp": 7}, "ambient": 7, "maslov": 8},
            {"name": "A", "space": end, "ambient": 7, "maslov": 4},
            {"name": "B", "space": end, "ambient": 7, "maslov": 4},
            {"name": "L", "space": None, "ambient": 7, "maslov": None},
        ],
        "intersections": [
            {"pair": ["B", "A"], "clean": False, "connected": True, "space": "R",
             "restriction_surjective_degrees": []},
            {"pair": ["A", "B"], "clean": True, "connected": True, "space": "R",
             "restriction_surjective_degrees": [1, 2]},
            {"pair": ["K", "A"], "clean": True, "connected": True, "space": "R"},
            {"pair": ["K", "B"], "clean": True, "connected": True, "space": "R"},
        ],
        "claims": [{"source": "L", "ends": ["A", "B"]}],
        "probe": "K",
        "grading": -2,
    }
    path = tmp_path / "granting.json"
    path.write_text(json.dumps(raw))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert ("cobordism L ~> (A, B): restriction H^k(A) -> H^k(S) surjective "
            "for k in {1, 2}; Mayer-Vietoris forces w_1(V) = w_2(V) = 0: "
            "spin certified") in out


def test_unclean_probe_intersection_rejected():
    raw = json.loads(bundled("paper_cp7.json").read_text())
    for decl in raw["intersections"]:
        if decl["pair"] == ["L2", "L2"]:
            decl["clean"] = False
    from cobcheck.exactness import AdmissibilityError
    with pytest.raises(AdmissibilityError, match="clean and connected"):
        run(parse_scenario(raw))


def test_missing_probe_intersection_rejected():
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["intersections"] = [d for d in raw["intersections"] if d["pair"] != ["L2", "L2"]]
    with pytest.raises(ScenarioError, match="no declared intersection"):
        run(parse_scenario(raw))


HOMOLOGY_SECTION = """[homology]
space R = RP^3 x S^3: {0: Z, 1: Z/2, 3: Z^2, 4: Z/2, 6: Z}
lagrangian L2 = RP^7: {0: Z, 1: Z/2, 3: Z/2, 5: Z/2, 7: Z}
lagrangian L1 = RP^3 x S^3 x S^1: {0: Z, 1: Z + Z/2, 2: Z/2, 3: Z^2, 4: Z^2 + Z/2, 5: Z/2, \
6: Z, 7: Z}
lagrangian L: no homology data declared
"""


def _header(text: str) -> str:
    """The report's [admissibility], [homology] and [spin] sections."""
    return text.split("[admissibility]\n", 1)[1].split("[derivation]\n", 1)[0]


def test_report_without_probe_or_claims():
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["claims"] = []
    del raw["probe"]
    report = run(parse_scenario(raw))
    assert report.pair_results == []
    text = report.text()
    assert "no claims; branch tables only" in text
    assert _header(text) == (
        "ambient CP^7; shared monotonicity constant tau = 16/pi\n"
        "grading deg T = -2 (step 2, even): ok\n\n"
        + HOMOLOGY_SECTION + "\n[spin]\nno spin checks requested\n\n")


def test_report_header_of_a_source_with_a_declared_maslov_number():
    # every pinned report has a source of unknown Maslov number; a declared
    # one drops the source line and keeps the cobordism line
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["lagrangians"][2]["maslov"] = 4
    assert _header(run(parse_scenario(raw)).text()) == (
        "ambient CP^7; shared monotonicity constant tau = 16/pi\n"
        "grading deg T = -2 (step 2, even): ok\n"
        "claim L ~> (L1, L2): granted by surgery along the clean connected intersection "
        "(L1, L2)\n"
        "claim L ~> (L2, L1): tested against the granted exact sequences\n"
        "probe K = L2 with N_K = 8 > 3: ok\n"
        "pair (L2, L1): N = gcd(8, 4) = 4; step 2 divides 4: ok\n"
        "pair (L2, L2): N = gcd(8, 8) = 8; step 2 divides 8: ok\n"
        "cobordism Maslov numbers: unknown (orientable, even); step 2 certified\n\n"
        + HOMOLOGY_SECTION + "\n[spin]\n"
        "cobordism L ~> (L1, L2): restriction H^k(L1) -> H^k(S) surjective for k in "
        "{1, 2}; Mayer-Vietoris forces w_1(V) = w_2(V) = 0: spin certified\n\n")


def test_module_doctests():
    import doctest
    import cobcheck.graded
    import cobcheck.topology
    for module in (cobcheck.graded, cobcheck.topology):
        failures, _ = doctest.testmod(module)
        assert failures == 0
