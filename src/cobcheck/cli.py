"""Scenario ingestion, pipeline orchestration, and report emission.

A scenario file (JSON, schema 1) declares named spaces, Lagrangians,
clean intersections, cobordism claims, a probe Lagrangian, and the
common Laurent grading.  Running it executes:

    admissibility checks -> homology of all spaces -> spin check via the
    Mayer-Vietoris ranks -> spectral-sequence branch solve per probe
    pair -> coefficient change to the common grading -> feasibility of
    every claim's exact-sequence system.

Reports are deterministic byte-for-byte: a text derivation trace
followed by a JSON verdict block carrying the same verdicts.  ``run()``
only checks and solves, and returns data; ``RunReport`` words every
section of the report from that data.

Exit codes: 0 = ran, no claim obstructed; 10 = ran, at least one claim
INFEASIBLE; 1 = validation/admissibility error, a command line that
does not parse, or a scenario or output file that cannot be read or
written; 2 = internal error or solver limit.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

from .abgroup import FgAbGroup, GroupHom, SolverLimitError, hom_images
from .graded import GradedGroup, GradingError, LaurentGrading, coefficient_change
from .spectra import (BranchLeaf, BranchTree, EnumerationTable, Position, SpectraError,
                      solve_floer)
from .topology import (Explicit, LagrangianDescriptor, Product, RealProjective, SpaceExpr,
                       Sphere, TopologyError, homology, mayer_vietoris_spin_check,
                       monotonicity_constant, pair_maslov, z2_cohomology_dims)
from .exactness import (AdmissibilityError, CobordismClaim, ClaimVerdict,
                        UnsupportedProblemError, certify_nonexistence,
                        check_cobordism_grading, check_probe_hypothesis,
                        common_grading_check)


class ScenarioError(ValueError):
    """Validation failure; the message carries a path into the document."""


_STAGE_ERRORS = (ScenarioError, AdmissibilityError, TopologyError, GradingError,
                 UnsupportedProblemError, SpectraError)


@contextmanager
def _stage(name: str):
    """Prefix any pipeline failure with the stage it happened in; later
    stages never run."""
    try:
        yield
    except SolverLimitError as exc:
        raise SolverLimitError(f"stage {name}: {exc}") from exc
    except _STAGE_ERRORS as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenario model


class IntersectionDecl:
    __slots__ = ("pair", "clean", "connected", "space", "restriction_surjective_degrees")

    def __init__(self, pair: tuple[str, str], clean: bool, connected: bool, space: SpaceExpr,
                 restriction_surjective_degrees: tuple[int, ...]):
        self.pair, self.clean, self.connected, self.space = pair, clean, connected, space
        self.restriction_surjective_degrees = restriction_surjective_degrees


class ClaimDecl:
    __slots__ = ("source", "ends", "spin", "monotone")

    def __init__(self, source: str, ends: tuple[str, str], spin: bool, monotone: bool):
        self.source, self.ends, self.spin, self.monotone = source, ends, spin, monotone


class PinDecl:
    __slots__ = ("pair", "degree", "group")

    def __init__(self, pair: tuple[str, str], degree: int, group: FgAbGroup):
        self.pair, self.degree, self.group = pair, degree, group


class ObstructionScenario:
    __slots__ = ("name", "spaces", "lagrangians", "intersections", "claims", "probe", "grading",
                 "entry_bound", "window", "pins")

    def __init__(self, name: str, spaces: tuple[tuple[str, SpaceExpr], ...],
                 lagrangians: tuple[LagrangianDescriptor, ...],
                 intersections: tuple[IntersectionDecl, ...], claims: tuple[ClaimDecl, ...],
                 probe: str, grading: LaurentGrading, entry_bound: int, window: int,
                 pins: tuple[PinDecl, ...]):
        self.name, self.spaces, self.lagrangians = name, spaces, lagrangians
        self.intersections, self.claims, self.probe = intersections, claims, probe
        self.grading, self.entry_bound, self.window, self.pins = grading, entry_bound, window, pins

    def lagrangian(self, name: str) -> LagrangianDescriptor:
        for lag in self.lagrangians:
            if lag.name == name:
                return lag
        raise ScenarioError(f"unknown Lagrangian {name!r}")

    def intersection_of(self, a: str, b: str) -> IntersectionDecl | None:
        for decl in self.intersections:
            if {decl.pair[0], decl.pair[1]} == {a, b}:
                return decl
        return None

    def granting(self, claim: ClaimDecl) -> IntersectionDecl | None:
        """The clean connected intersection of the claim's ordered ends
        that grants it by surgery, if one is declared."""
        return next((d for d in self.intersections
                     if d.pair == claim.ends and d.clean and d.connected), None)


# ---------------------------------------------------------------------------
# Parsing


def _expect(raw, kind: type, path: str):
    """A document object (``dict``) or array (``list``) at path."""
    if not isinstance(raw, kind):
        raise ScenarioError(f"{path}: expected {'an object' if kind is dict else 'a list'}")
    return raw


def _required(raw: dict, key: str, path: str):
    """The value of a required key of the object at path."""
    if key not in raw:
        raise ScenarioError(f"{path}: missing field {key!r}")
    return raw[key]


def _integer(raw, path: str) -> int:
    """A JSON integer document value at path: not a bool, float or string."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise ScenarioError(f"{path}: expected an integer, got {raw!r}")


def _decimal(text: str, path: str) -> int:
    """An integer written as decimal text at path: an explicit homology
    degree (JSON object keys are strings) or a command-line override.
    Only ``str(n)`` names n, so keys "3" and "03" cannot both name 3."""
    try:
        if text == str(int(text)):
            return int(text)
    except ValueError:
        pass
    raise ScenarioError(f"{path}: expected an integer, got {text!r}")


def _flag(raw: dict, key: str, path: str, default: bool) -> bool:
    """A JSON boolean field of the object at path, ``default`` when absent."""
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}: expected true or false, got {value!r}")
    return value


def _parse_group(raw, path: str) -> FgAbGroup:
    if not isinstance(raw, dict) or set(raw) - {"free", "torsion"}:
        raise ScenarioError(f"{path}: group must be {{'free': n, 'torsion': [...]}}")
    free = _integer(raw.get("free", 0), f"{path}.free")
    torsion = _expect(raw.get("torsion", []), list, f"{path}.torsion")
    orders = tuple(_integer(d, f"{path}.torsion[{i}]") for i, d in enumerate(torsion))
    try:
        return FgAbGroup(free, orders)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_space(raw, names: dict[str, SpaceExpr], path: str) -> SpaceExpr:
    if isinstance(raw, str):
        if raw == "circle":
            return Sphere(1)
        if raw in names:
            return names[raw]
        raise ScenarioError(f"{path}: dangling space name {raw!r}")
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ScenarioError(f"{path}: space must be a name or a one-key constructor object")
    (kind, value), = raw.items()
    try:
        if kind == "sphere":
            return Sphere(_integer(value, f"{path}.sphere"))
        if kind == "rp":
            return RealProjective(_integer(value, f"{path}.rp"))
        if kind == "product":
            if not isinstance(value, list) or len(value) < 2:
                raise ScenarioError(f"{path}.product: needs at least two factors")
            expr = _parse_space(value[0], names, f"{path}.product[0]")
            for i, item in enumerate(value[1:], start=1):
                expr = Product(expr, _parse_space(item, names, f"{path}.product[{i}]"))
            return expr
        if kind == "explicit":
            at = f"{path}.explicit"
            value = _expect(value, dict, at)
            homology = _expect(value.get("homology", {}), dict, f"{at}.homology")
            table = {_decimal(k, f"{at}.homology"): _parse_group(v, f"{at}.homology[{k}]")
                     for k, v in homology.items()}
            return Explicit(GradedGroup.from_dict(table),
                            _integer(_required(value, "dim", at), f"{at}.dim"))
    except TopologyError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    raise ScenarioError(f"{path}: unknown space constructor {kind!r}")


def describe_space(expr: SpaceExpr) -> str:
    if isinstance(expr, Sphere):
        return f"S^{expr.n}"
    if isinstance(expr, RealProjective):
        return f"RP^{expr.n}"
    if isinstance(expr, Product):
        return f"{describe_space(expr.left)} x {describe_space(expr.right)}"
    return f"explicit(dim {expr.dimension})"


def _at_least(field: str, value: int, least: int) -> int:
    """Validate an entry_bound or window value, from the document or a
    command-line override."""
    if value < least:
        raise ScenarioError(f"{field}: must be >= {least}, got {value}")
    return value


def parse_scenario(data) -> ObstructionScenario:
    """Validate a scenario document (dict or JSON text); every violation
    is reported with a path into the document."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
    _expect(data, dict, "top level")
    schema = data.get("schema")
    if type(schema) is not int or schema != 1:
        raise ScenarioError(f"schema: expected 1, got {schema!r}")
    name = data.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError(f"name: expected a string, got {name!r}")

    names: dict[str, SpaceExpr] = {}
    for key, raw in _expect(data.get("spaces", {}), dict, "spaces").items():
        if key == "circle":
            raise ScenarioError("spaces.circle: name shadows the built-in circle")
        names[key] = _parse_space(raw, names, f"spaces.{key}")

    raw_lagrangians = _expect(data.get("lagrangians", []), list, "lagrangians")
    if not raw_lagrangians:
        raise ScenarioError("lagrangians: no Lagrangians declared")
    lagrangians = []
    seen = set()
    for i, raw in enumerate(raw_lagrangians):
        path = f"lagrangians[{i}]"
        raw = _expect(raw, dict, path)
        lag_name = raw.get("name")
        if not lag_name:
            raise ScenarioError(f"{path}.name: missing")
        if not isinstance(lag_name, str):
            raise ScenarioError(f"{path}.name: expected a string")
        if lag_name in seen:
            raise ScenarioError(f"{path}.name: duplicate {lag_name!r}")
        seen.add(lag_name)
        space = None
        if raw.get("space") is not None:
            space = _parse_space(raw["space"], names, f"{path}.space")
        maslov = raw.get("maslov")
        try:
            lagrangians.append(LagrangianDescriptor(
                name=lag_name,
                space=space,
                ambient_dim=_integer(_required(raw, "ambient", path), f"{path}.ambient"),
                maslov=None if maslov is None else _integer(maslov, f"{path}.maslov"),
                orientable=_flag(raw, "orientable", path, True),
                spin=_flag(raw, "spin", path, True),
                monotone=_flag(raw, "monotone", path, True),
            ))
        except TopologyError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    ambients = {lag.ambient_dim for lag in lagrangians}
    if len(ambients) != 1:
        raise ScenarioError(
            f"lagrangians: ambient dimensions differ ({sorted(ambients)}); "
            "one scenario lives in one CP^n")

    def check_name(ref: str, path: str) -> str:
        if not isinstance(ref, str) or ref not in seen:
            raise ScenarioError(f"{path}: dangling Lagrangian name {ref!r}")
        return ref

    def check_pair(raw: dict, key: str, path: str, what: str = "two names") -> tuple[str, str]:
        pair = raw.get(key, [])
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{path}.{key}: expected {what}")
        return check_name(pair[0], f"{path}.{key}[0]"), check_name(pair[1], f"{path}.{key}[1]")

    intersections = []
    for i, raw in enumerate(_expect(data.get("intersections", []), list, "intersections")):
        path = f"intersections[{i}]"
        raw = _expect(raw, dict, path)
        degrees_path = f"{path}.restriction_surjective_degrees"
        degrees = tuple(_integer(d, degrees_path) for d in
                        _expect(raw.get("restriction_surjective_degrees", []), list, degrees_path))
        if any(d < 0 for d in degrees):
            raise ScenarioError(f"{path}.restriction_surjective_degrees: negative degree")
        intersections.append(IntersectionDecl(
            pair=check_pair(raw, "pair", path),
            clean=_flag(raw, "clean", path, False),
            connected=_flag(raw, "connected", path, False),
            space=_parse_space(_required(raw, "space", path), names, f"{path}.space"),
            restriction_surjective_degrees=degrees,
        ))

    claims = []
    for i, raw in enumerate(_expect(data.get("claims", []), list, "claims")):
        path = f"claims[{i}]"
        raw = _expect(raw, dict, path)
        claims.append(ClaimDecl(
            source=check_name(_required(raw, "source", path), f"{path}.source"),
            ends=check_pair(raw, "ends", path, "two names (ordered)"),
            spin=_flag(raw, "spin", path, True),
            monotone=_flag(raw, "monotone", path, True),
        ))
    sources = {c.source for c in claims}
    if len(sources) > 1:
        raise ScenarioError(f"claims: all claims must share one source, got {sorted(sources)}")

    probe = data.get("probe")
    if claims:
        if probe is None:
            raise ScenarioError("probe: required when claims are present")
        check_name(probe, "probe")
    elif probe is not None:
        check_name(probe, "probe")

    try:
        grading = LaurentGrading(_integer(data.get("grading", -2), "grading"))
    except GradingError as exc:
        raise ScenarioError(f"grading: {exc}") from exc

    entry_bound = _at_least("entry_bound", _integer(data.get("entry_bound", 4), "entry_bound"), 1)
    window = _at_least("window", _integer(data.get("window", 2), "window"), 2)

    pins = []
    for i, raw in enumerate(_expect(data.get("pins", []), list, "pins")):
        path = f"pins[{i}]"
        raw = _expect(raw, dict, path)
        pins.append(PinDecl(
            pair=check_pair(raw, "pair", path),
            degree=_integer(_required(raw, "degree", path), f"{path}.degree"),
            group=_parse_group(_required(raw, "group", path), f"{path}.group"),
        ))
    # a pair's abutment is 2-periodic, so its pins of one parity must agree
    first_pins: dict[tuple, tuple[int, PinDecl]] = {}
    for j, pin in enumerate(pins):
        i, other = first_pins.setdefault((*sorted(pin.pair), pin.degree % 2), (j, pin))
        if other.group != pin.group:
            raise ScenarioError(
                f"pins[{i}], pins[{j}]: the 2-periodic Floer homology of "
                f"({pin.pair[0]}, {pin.pair[1]}) cannot be {other.group} in degree "
                f"{other.degree} and {pin.group} in degree {pin.degree}")

    return ObstructionScenario(
        name=name,
        spaces=tuple(sorted(names.items())),
        lagrangians=tuple(lagrangians),
        intersections=tuple(intersections),
        claims=tuple(claims),
        probe=probe if probe is not None else "",
        grading=grading,
        entry_bound=entry_bound,
        window=window,
        pins=tuple(pins),
    )


# ---------------------------------------------------------------------------
# Pipeline


# (image, kernel, cokernel) of each differential a report describes
_Images = dict[GroupHom, tuple[FgAbGroup, FgAbGroup, FgAbGroup]]


def _describe_hom(r: int, src: Position, h: GroupHom, images: _Images) -> str:
    found = images.get(h)
    if found is None:
        found = images[h] = hom_images(h)
    image, kernel, coker = found
    rows = [list(row) for row in h.matrix.entries]
    text = (f"d{r} {src}->{(src[0] - r, src[1] + r - 1)}: {h.source} -> {h.target}, "
            f"matrix {rows}, image {image}, kernel {kernel}, cokernel {coker}")
    if h.source == FgAbGroup(1) and h.target == FgAbGroup(1):
        m = abs(h.matrix.entries[0][0])
        if m:
            text += f" (image index {m} in Z)"
    return text


def branch_lines(tree: BranchTree, leaf: BranchLeaf, images: _Images | None = None) -> list[str]:
    """The derivation of one leaf of ``tree``: the first page, each page
    turn's differentials, and the stable abutment.  ``images`` keeps the
    groups of each differential described, for the next leaf."""
    if images is None:
        images = {}
    lines = [f"E^1: columns at multiples of {tree.column_step}, "
             f"rows 0..{tree.row_max} carry the intersection homology"]
    for r, homs in leaf.turns:
        lines.append(f"page {r} differentials:" if homs
                     else f"page {r}: all differentials vanish")
        lines += [_describe_hom(r, src, h, images) for src, h in homs]
    return lines + [
        f"stable at page {leaf.stable_page}; certified degrees "
        f"{leaf.certified[0][0]}..{leaf.certified[-1][0]}",
        f"2-periodic abutment: HF_even = {leaf.hf_even}, HF_odd = {leaf.hf_odd}",
    ]


class PairResult:
    """The probe's pair with ``end``: its native grading step, its branch
    tree and each branch's (HF_0, HF_1) at the common grading."""

    __slots__ = ("end", "native_step", "tree", "folded")

    def __init__(self, end: str, native_step: int, tree: BranchTree,
                 folded: tuple[tuple[str, tuple[FgAbGroup, FgAbGroup]], ...]):
        self.end, self.native_step, self.tree, self.folded = end, native_step, tree, folded


class RunReport:
    """What a run found; every section of the report is worded here."""

    __slots__ = ("scenario", "pair_results", "claim_verdicts", "_trace")

    def __init__(self, scenario: ObstructionScenario, pair_results: list[PairResult],
                 claim_verdicts: list[ClaimVerdict]):
        self.scenario = scenario
        self.pair_results, self.claim_verdicts = pair_results, claim_verdicts
        # the derivation trace, rendered on first use: the report and the
        # trace file print the same lines
        self._trace: list[str] | None = None

    def _admissibility_lines(self) -> list[str]:
        sc = self.scenario
        ambient = sc.lagrangians[0].ambient_dim
        lines = [f"ambient CP^{ambient}; shared monotonicity constant "
                 f"tau = {monotonicity_constant(ambient)}/pi",
                 f"grading deg T = {sc.grading.t_degree} (step {sc.grading.step}, even): ok"]
        for claim in sc.claims:
            decl = sc.granting(claim)
            lines.append(f"claim {claim.source} ~> ({claim.ends[0]}, {claim.ends[1]}): " + (
                "tested against the granted exact sequences" if decl is None else
                "granted by surgery along the clean connected intersection "
                f"({decl.pair[0]}, {decl.pair[1]})"))
        if sc.probe:
            probe, step = sc.lagrangian(sc.probe), sc.grading.step
            lines.append(f"probe K = {sc.probe} with N_K = {probe.maslov} > 3: ok")
            for pr in self.pair_results:
                lines.append(f"pair ({sc.probe}, {pr.end}): N = gcd({probe.maslov}, "
                             f"{sc.lagrangian(pr.end).maslov}) = {pr.native_step}; "
                             f"step {step} divides {pr.native_step}: ok")
            if sc.claims:
                source = sc.lagrangian(sc.claims[0].source)
                if source.maslov is None:
                    lines.append(f"source {source.name}: Maslov number unknown (orientable, "
                                 f"even); step {step} certified")
                lines.append("cobordism Maslov numbers: unknown (orientable, even); "
                             "step 2 certified")
        return lines

    def _homology_lines(self) -> list[str]:
        lines = [f"space {key} = {describe_space(expr)}: {homology(expr)}"
                 for key, expr in self.scenario.spaces]
        for lag in self.scenario.lagrangians:
            lines.append(f"lagrangian {lag.name}: no homology data declared" if lag.space is None
                         else f"lagrangian {lag.name} = {describe_space(lag.space)}: "
                              f"{homology(lag.space)}")
        return lines

    def _spin_lines(self) -> list[str]:
        lines = []
        for claim in self.scenario.claims:
            decl = self.scenario.granting(claim)
            if decl is not None:
                lines.append(
                    f"cobordism {claim.source} ~> ({claim.ends[0]}, {claim.ends[1]}): "
                    f"restriction H^k({decl.pair[0]}) -> H^k(S) surjective for k in {{1, 2}}; "
                    "Mayer-Vietoris forces w_1(V) = w_2(V) = 0: spin certified")
        return lines or ["no spin checks requested"]

    def trace_lines(self) -> list[str]:
        if self._trace is None:
            self._trace = self._render_trace()
        return self._trace

    def _render_trace(self) -> list[str]:
        lines: list[str] = []
        leaf_lines: dict[int, list[str]] = {}  # pairs share trees
        images: _Images = {}  # and leaves share differentials
        for pr in self.pair_results:
            lines.append(f"pair HF({self.scenario.probe}, {pr.end}) "
                         f"at deg T = -{pr.native_step}:")
            for i, leaf in enumerate(pr.tree.leaves, start=1):
                lines.append(f"  branch {i}:")
                if id(leaf) not in leaf_lines:
                    leaf_lines[id(leaf)] = [f"    {ln}" for ln in
                                            branch_lines(pr.tree, leaf, images)]
                lines.extend(leaf_lines[id(leaf)])
            if pr.tree.bound_may_truncate:
                lines.append(f"  note: entry bound {pr.tree.entry_bound} may truncate "
                             "the differential search (free generators present)")
            for label, (h0, h1) in pr.folded:
                lines.append(f"  folded to deg T = {self.scenario.grading.t_degree}: "
                             f"{label}: HF_0 = {h0}, HF_1 = {h1}")
        rendered: dict[int, list[str]] = {}  # branches share verdict objects
        for cv in self.claim_verdicts:
            src = self.scenario.claims[0].source if self.scenario.claims else "?"
            lines.append(f"claim {src} ~> ({cv.ends[0]}, {cv.ends[1]})"
                         f"{' [granted by surgery]' if cv.granted else ''}: {cv.verdict}")
            for branch in cv.branches:
                lines.append(f"  {branch.label}:")
                if id(branch.verdict) in rendered:
                    lines.extend(rendered[id(branch.verdict)])
                    continue
                start = len(lines)
                if branch.verdict.feasible:
                    w = branch.verdict.witness
                    dims = ", ".join(f"{k} = {v}" for k, v in sorted(w["dims"].items())) or "none"
                    ranks = "; ".join(f"{k}: {list(v)}" for k, v in sorted(w["ranks"].items()))
                    lines.append(f"    feasible; witness dims: {dims}; map ranks: {ranks}")
                else:
                    lines.append("    infeasible:")
                    lines.extend(f"      {ln}" for ln in branch.verdict.certificate.lines())
                rendered[id(branch.verdict)] = lines[start:]
        return lines

    def verdict_json(self) -> dict:
        hf_tables = {}
        for pr in self.pair_results:
            hf_tables[f"({self.scenario.probe},{pr.end})"] = {
                "native_step": pr.native_step,
                "native": [
                    {"branch": i, "hf_even": str(leaf.hf_even), "hf_odd": str(leaf.hf_odd)}
                    for i, leaf in enumerate(pr.tree.leaves, start=1)
                ],
                "folded": [
                    {"branch": label, "hf0": str(h0), "hf1": str(h1)}
                    for label, (h0, h1) in pr.folded
                ],
            }
        return {
            "scenario": self.scenario.name,
            "grading": self.scenario.grading.t_degree,
            "claims": [
                {
                    "ends": list(cv.ends),
                    "granted": cv.granted,
                    "verdict": cv.verdict,
                    "branches": len(cv.branches),
                }
                for cv in self.claim_verdicts
            ],
            "hf_tables": hf_tables,
        }

    def _summary_lines(self) -> list[str]:
        if not self.claim_verdicts:
            return ["no claims; branch tables only"]
        src = self.scenario.claims[0].source
        return [f"{src} ~> ({cv.ends[0]}, {cv.ends[1]}): {cv.verdict}"
                for cv in self.claim_verdicts]

    def text(self) -> str:
        sections = {
            "admissibility": self._admissibility_lines(),
            "homology": self._homology_lines(),
            "spin": self._spin_lines(),
            "derivation": self.trace_lines(),
            "summary": self._summary_lines(),
            "verdict json": [json.dumps(self.verdict_json(), indent=2, sort_keys=True)],
        }
        lines = [f"cobordism obstruction report: {self.scenario.name}", "=" * 64, ""]
        for title, body in sections.items():
            lines += [f"[{title}]", *body, ""]
        return "\n".join(lines)


def run(sc: ObstructionScenario) -> RunReport:
    """Check and solve the whole pipeline; raises on the first failing
    stage, naming the stage.  The report words what it returns."""
    with _stage("admissibility"):
        for claim in sc.claims:
            if not (claim.spin and claim.monotone):
                raise AdmissibilityError(
                    f"claim ({claim.ends[0]}, {claim.ends[1]}): the obstruction machinery "
                    "applies to spin monotone cobordisms only")

        probe = sc.lagrangian(sc.probe) if sc.probe else None
        end_names = sorted({name for claim in sc.claims for name in claim.ends})
        if probe is not None and not sc.claims:
            # no claims: tabulate every pair the probe intersects cleanly
            partners = set()
            for decl in sc.intersections:
                if decl.pair[0] == sc.probe:
                    partners.add(decl.pair[1])
                if decl.pair[1] == sc.probe:
                    partners.add(decl.pair[0])
            end_names = sorted(partners)
        native: dict[str, int] = {}  # each probe pair's native grading step
        if probe is not None:
            check_probe_hypothesis(probe)
            for end in end_names:
                lag = sc.lagrangian(end)
                common_grading_check(probe, lag, sc.grading)
                native[end] = pair_maslov(probe, lag)
            if sc.claims:
                common_grading_check(probe, sc.lagrangian(sc.claims[0].source), sc.grading)
                check_cobordism_grading(sc.grading)
        # a pin is read only by the solve of its pair
        solved_pairs = {tuple(sorted((sc.probe, end))) for end in native}
        for i, pin in enumerate(sc.pins):
            if tuple(sorted(pin.pair)) not in solved_pairs:
                raise AdmissibilityError(
                    f"pins[{i}]: ({pin.pair[0]}, {pin.pair[1]}) is not a probe pair of this run, "
                    "so no solve reads the pin")

    with _stage("homology"):
        # the report and the later stages read these groups; a failure to
        # compute one is this stage's
        read = [(f"spaces.{key}", expr) for key, expr in sc.spaces]
        read += [(f"lagrangians[{i}].space", lag.space) for i, lag in enumerate(sc.lagrangians)
                 if lag.space is not None]
        read += [(f"intersections[{i}].space", decl.space)
                 for i, decl in enumerate(sc.intersections)]
        for path, expr in read:
            try:
                homology(expr)
            except RecursionError:  # the cache's hash of a Product recurses per level
                raise ScenarioError(f"{path}: products nested too deeply") from None
        for i, decl in enumerate(sc.intersections):
            if decl.connected and (h0 := homology(decl.space).entry(0)) != FgAbGroup(1):
                raise ScenarioError(f"intersections[{i}]: connected, but H_0 = {h0} is not Z")

    with _stage("spin"):
        for claim in sc.claims:
            decl = sc.granting(claim)
            if decl is None:
                continue
            first = sc.lagrangian(decl.pair[0])
            second = sc.lagrangian(decl.pair[1])
            for lag in (first, second):
                if not lag.spin:
                    raise AdmissibilityError(
                        f"spin claim ({claim.ends[0]}, {claim.ends[1]}): end {lag.name} "
                        "is not spin")
                if lag.space is None:
                    raise AdmissibilityError(
                        f"spin check for ({claim.ends[0]}, {claim.ends[1]}): end {lag.name} "
                        "has no homology data")
            s_dims = z2_cohomology_dims(homology(decl.space), (1, 2))
            ranks = {k: s_dims[k] if k in decl.restriction_surjective_degrees else 0
                     for k in (1, 2)}
            if not mayer_vietoris_spin_check(
                    z2_cohomology_dims(homology(first.space), (1, 2)), s_dims, ranks):
                raise AdmissibilityError(
                    f"spin check for ({claim.ends[0]}, {claim.ends[1]}): restriction to the "
                    "intersection is not declared surjective in degrees 1 and 2; "
                    "w_1 = w_2 = 0 not certified")

    solved: list[tuple[str, BranchTree]] = []
    trees: dict[tuple, BranchTree] = {}  # one solve per (homology, step, pins)
    table = EnumerationTable()  # enumeration work shared by the solves of this run
    with _stage("floer"):
        for end, native_step in native.items():
            decl = sc.intersection_of(sc.probe, end)
            if decl is None:
                raise ScenarioError(
                    f"intersections: no declared intersection for probe pair "
                    f"({sc.probe}, {end})")
            if not (decl.clean and decl.connected):
                raise AdmissibilityError(
                    f"intersection ({decl.pair[0]}, {decl.pair[1]}) must be clean and "
                    "connected for the spectral sequence")
            pins = tuple((p.degree, p.group) for p in sc.pins
                         if tuple(sorted(p.pair)) == tuple(sorted((sc.probe, end))))
            if (key := (homology(decl.space), native_step, pins)) not in trees:
                trees[key] = solve_floer(*key, entry_bound=sc.entry_bound, col_span=sc.window,
                                         table=table)
            if not trees[key].leaves:
                # a bound that cut no hom space left nothing out: no bound helps
                advice = (f"under entry bound {sc.entry_bound}; raise entry_bound"
                          if trees[key].bound_may_truncate else "under any entry bound")
                raise SolverLimitError(
                    f"no consistent spectral sequence for pair ({sc.probe}, {end}) {advice} "
                    "(this is not an infeasibility verdict)")
            solved.append((end, trees[key]))

    pair_results: list[PairResult] = []
    with _stage("coefficients"):
        for end, tree in solved:
            frm = LaurentGrading(-native[end])
            folded = tuple((f"branch {i}",
                            coefficient_change((leaf.hf_even, leaf.hf_odd), frm, sc.grading))
                           for i, leaf in enumerate(tree.leaves, start=1))
            pair_results.append(PairResult(end, native[end], tree, folded))

    claim_verdicts: list[ClaimVerdict] = []
    with _stage("claims"):
        if sc.claims:
            source = sc.lagrangian(sc.claims[0].source)
            cob_claims = [
                CobordismClaim(
                    source=source,
                    ends=(sc.lagrangian(c.ends[0]), sc.lagrangian(c.ends[1])),
                    granted=sc.granting(c) is not None,
                )
                for c in sc.claims
            ]
            claim_verdicts = certify_nonexistence(
                cob_claims, {pr.end: pr.folded for pr in pair_results}, probe, sc.grading)

    return RunReport(scenario=sc, pair_results=pair_results, claim_verdicts=claim_verdicts)


# ---------------------------------------------------------------------------
# Entry point


_USAGE = ("usage: cobcheck check SCENARIO [--branch-bound B] [--window W] "
          "[--emit-trace PATH] [--json PATH]")
_HELP = _USAGE + """

Decide the cobordism claims of SCENARIO, a scenario JSON file.  B and W
override its entry_bound and window; --emit-trace and --json also write
the derivation trace and the verdict JSON to PATH.  Each option may be
written --flag VALUE or --flag=VALUE, and the last one given wins.
"""


def _command_line(argv: list[str]) -> tuple[str, dict[str, str]] | None:
    """SCENARIO and the options of ``check SCENARIO [options]``, or None
    when help is asked for; a ValueError says what does not parse."""
    words, options, args = [], {}, iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        flag, eq, value = arg.partition("=")
        if flag in ("--branch-bound", "--window", "--emit-trace", "--json"):
            # a value of its own may not look like an option: "-3" does not
            value = value if eq else next(args, "")
            if not value or not eq and value[0] == "-" and not value[1:].isdigit():
                raise ValueError(f"{flag}: expected a value")
            options[flag] = value
        elif arg.startswith("-"):
            raise ValueError(f"unknown option {arg!r}")
        else:
            words.append(arg)
    if words[:1] != ["check"] or len(words) != 2:
        raise ValueError("expected 'check SCENARIO', got " + (" ".join(words) or "nothing"))
    return words[1], options


def main(argv: list[str] | None = None) -> int:
    try:
        parsed = _command_line(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"{_USAGE}\nerror: {exc}", file=sys.stderr)
        return 1
    if parsed is None:
        sys.stdout.write(_HELP)
        return 0
    scenario, options = parsed
    bound, window = options.get("--branch-bound"), options.get("--window")

    try:
        with open(scenario, "r", encoding="utf-8") as fh:
            sc = parse_scenario(fh.read())
        if bound is not None:
            sc.entry_bound = _at_least("entry_bound", _decimal(bound, "entry_bound"), 1)
        if window is not None:
            sc.window = _at_least("window", _decimal(window, "window"), 2)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: cannot read scenario: {exc}: {scenario!r}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # the JSON decoder and _parse_space recurse per nesting level
        print("validation error: the scenario document is nested too deeply", file=sys.stderr)
        return 1

    try:
        report = run(sc)
        text = report.text()
    except _STAGE_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except SolverLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unforeseen is an internal error
        # an exception with an empty message (MemoryError()) is named by its type
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2

    sys.stdout.write(text)
    try:
        if options.get("--emit-trace"):
            with open(options["--emit-trace"], "w", encoding="utf-8") as fh:
                fh.write("\n".join(report.trace_lines()) + "\n")
        if options.get("--json"):
            with open(options["--json"], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report.verdict_json(), indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    obstructed = any(cv.verdict == "INFEASIBLE" for cv in report.claim_verdicts)
    return 10 if obstructed else 0


if __name__ == "__main__":
    sys.exit(main())
