import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from cobcheck.abgroup import FgAbGroup
from cobcheck.cli import (ObstructionScenario, ScenarioError, main,
                          parse_scenario, run)
from cobcheck.topology import Circle, Explicit, Product

FIXTURES = Path(__file__).parent / "fixtures"


def bundled(name: str) -> Path:
    return Path(str(resources.files("cobcheck") / "data" / name))


def load_bundled_scenario() -> ObstructionScenario:
    return parse_scenario(bundled("paper_cp7.json").read_text())


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
    with pytest.raises(ScenarioError, match="schema"):
        parse_scenario({"schema": 2, "lagrangians": [{}]})


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
    assert spaces["T3"] == Product(Product(Circle(), Circle()), Circle())
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
    tables = {(pr.probe, pr.end): len(pr.tree.leaves) for pr in report.pair_results}
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


@pytest.mark.parametrize("args, code, digest", [
    # the golden report is at entry bound 4; bound 6 reaches the longest
    # differential chains (Z^2 -> Z -> Z^2 at 169 x 169 labelings)
    (["--branch-bound", "6", "--window", "8"], 10,
     "7ebb04af18df31b89e4e94b5f17ffb4de166aaa87709ceec23da4200a805822a"),
    (None, 0, "81e1baae11511b1f98015a9b499ef7c7d3bdf67ff1b715a02d826bb0991df787"),
], ids=["cp7-bound6-window8", "rp3xrp3-table"])
def test_cli_reports_pinned(tmp_path, capsys, args, code, digest):
    if args is None:
        path = tmp_path / "rp3xrp3.json"
        path.write_text(json.dumps(RP3_RP3_TABLE))
        argv = ["check", str(path)]
    else:
        argv = ["check", str(bundled("paper_cp7.json"))] + args
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
])
def test_cli_rejects_invalid_overrides(capsys, flag, value, field):
    code = main(["check", str(bundled("paper_cp7.json")), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert f"validation error: {field}: must be" in err


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


def test_report_without_probe_or_claims():
    raw = json.loads(bundled("paper_cp7.json").read_text())
    raw["claims"] = []
    del raw["probe"]
    report = run(parse_scenario(raw))
    assert report.pair_results == []
    assert "no claims; branch tables only" in report.text()


def test_module_doctests():
    import doctest
    import cobcheck.graded
    import cobcheck.topology
    for module in (cobcheck.graded, cobcheck.topology):
        failures, _ = doctest.testmod(module)
        assert failures == 0
