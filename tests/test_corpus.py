"""Report bytes and exit codes of every perfbench corpus scenario,
pinned: a change that means to keep the reports keeps these digests.
The scenarios are read through ``perfbench/corpus/*/manifest.json``.
The manifest expects the T^3 limit case (t3-s2-b1) to end in a report
(exit 0) or at the benchmark's time limit; the solver now decides it
in test time, so it is pinned at exit 0, with the report the solver
printed (in about 30 s) before it pruned non-final page turns."""

import hashlib
import json
from pathlib import Path

import pytest

from cobcheck import spectra
from cobcheck.abgroup import _factorize
from cobcheck.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"

# (workload, scenario id, exit code, sha256 of stdout)
PINS = [
    ("catalog-tables", "rp3rp3-s4", 0,
     "a75018e6d0e8b07a30ec149bd8dde0c987cbaf54afe39499ce8f9ea259bbbc87"),
    ("catalog-tables", "rp3s1-s4", 0,
     "a5dba4f96ff831fdcba08280733d358b7e2b1b822642b1e7d2368620d1bb078a"),
    ("catalog-tables", "rp7-s4-b1", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("catalog-tables", "rp7-s4-w2", 0,
     "22ee5f453405e9e61cfe8b9948bdd3f0d5e75a42f17a9adceeca58a74bc66385"),
    ("catalog-tables", "rp7-s4-w4", 0,
     "7f64a45c54c509a8df6799a2679d82ebb31cb0b301b7418df6cf2d232be2373b"),
    ("catalog-tables", "s2s2-s4", 0,
     "4ac95d7f763946f843ebb59c3543e629ea828c9dbc6e179dda69add66b465861"),
    ("catalog-tables", "t2-s2-b1", 0,
     "5ca35d160159b88ba1e86ef76224d779d6dd971238b066ecd4361275ead6a7f2"),
    ("catalog-tables", "t2-s2-b2", 0,
     "2d87a2e1aa5cbc32735ba2e7d2b1c31f80f0e8f32d7aa9386e7ac2497164dd3c"),
    ("catalog-tables", "t2-s2-b4", 0,
     "6572f615a773c40cfc9df579574e90514494125008e39e633cfdfccd94e02ade"),
    ("catalog-tables", "t3-s2-b1", 0,
     "1fd501e475a70929a218b627e01e1b04b8875b696933903be292f2753645ebc1"),
    ("claims-fanout", "fan4-mixed", 10,
     "66170f12057ad12bcafbbfa6e19fa2eb6eeff028b9ebd6e01aa8e3a718496085"),
    ("claims-fanout", "fan4-two-branch", 10,
     "77cd70dc9ed21fa2e5c1bdbcca578a2deb71477648f57a77025c437f15403de5"),
    ("claims-fanout", "fan5-mixed", 10,
     "0b33f5c39f0b02f8a2f7f61e5d8bf585b56767955bdf7a5bbdcaedbff2b7ab5d"),
    ("claims-fanout", "fan5-two-branch", 10,
     "309269ee59ef4a21dacd8462e5205403a2265e4b5975f0fd872b7cf45ba7f0a8"),
    ("claims-fanout", "fan6-mixed", 10,
     "3a1b13236169314e02907029c70a3ec1d43791527626c624ea19b29ac4f3a2fb"),
    ("claims-fanout", "fan6-two-branch", 10,
     "8715b276051e2637f22466d972fc401f2ec0cdc5a5cae83cb3724c2180976e06"),
    ("claims-fanout", "fan7-mixed", 10,
     "f3a3ac9d2c844ff78168eaea689b4f6c144ae072513e93c9dab3bbb94f2a4c67"),
    ("flagship-sweep", "cp7-b2-w2", 10,
     "293132a33a3f7b10ca6a2c4156abbc83613db1d23d3db2c61ec47e34f14c5780"),
    ("flagship-sweep", "cp7-b2-w4", 10,
     "6532cc5407ca2470b35b556b8af5a4284c6a50c3c2af6797ae9448191e2d8141"),
    ("flagship-sweep", "cp7-b2-w8", 10,
     "b0fc9fdd1324ab7050cbf740ba0732f1384a20a704216fb0336f820b17d7d2bc"),
    ("flagship-sweep", "cp7-b3-w2", 10,
     "c0d494c21df0b51f1530908b272b816e343aecfc27b9db12439af82a2fb23b9f"),
    ("flagship-sweep", "cp7-b3-w4", 10,
     "ccbbe9ac41dd2a57f0cc146f1b24998e4ae249d2097ed56c3ca73cd71819d661"),
    ("flagship-sweep", "cp7-b3-w8", 10,
     "818a11abcabe9d9974bf71129463e71ef872c80c99b6e2e6730f6401cdb6738d"),
    ("flagship-sweep", "cp7-b4-w2", 10,
     "bd222f9d94b45108ec3c4df7ca6b6f104e91c1fe72983fd7f7c962080cce5504"),
    ("flagship-sweep", "cp7-b4-w4", 10,
     "d38c0490c3bc621a16f13ec2f9be56e814f462a4277a7e0e7b576cb9a1cf9fc3"),
    ("flagship-sweep", "cp7-b4-w8", 10,
     "0d6d6e3a34a00f4e2582e0399dcf01a6184079310a5a941683a2f22fb7e053eb"),
    ("flagship-sweep", "cp7-b5-w2", 10,
     "b6b5cf9e5c66d8141379833b02bde6bbefcf3dbaec69910e36050febaa5ea9ff"),
    ("flagship-sweep", "cp7-b5-w4", 10,
     "5119f80762f11a7d13165bfd48b5de067d106a9d740e62c361f0b897eb773fab"),
    ("flagship-sweep", "cp7-b5-w8", 10,
     "7b494ab77426ca1abe29463a395d393261e11f4558964db3fad98619c73b133c"),
    ("flagship-sweep", "cp7-b6-w2", 10,
     "304fdce82f2ac233e7618745c76dd5152e4ed311e5543d32021d26e03160eac1"),
    ("flagship-sweep", "cp7-b6-w4", 10,
     "01abd659360a3e8a51f4252b3953263c5c604024a465d8e02b9a689ac232e48d"),
    ("flagship-sweep", "cp7-b6-w8", 10,
     "7ebb04af18df31b89e4e94b5f17ffb4de166aaa87709ceec23da4200a805822a"),
]


def decidable_scenarios():
    """(workload, id, file, exit code) of every scenario; a report (exit
    0) for the one whose manifest also allows the time limit."""
    for manifest in sorted(CORPUS.glob("*/manifest.json")):
        for sc in json.loads(manifest.read_text())["scenarios"]:
            code = 0 if sc["expected_exit"] == "time-limit" else sc["expected_exit"]
            yield manifest.parent.name, sc["id"], sc["file"], code


def test_every_decidable_scenario_is_pinned():
    pinned = [(workload, scenario) for workload, scenario, _, _ in PINS]
    assert sorted((w, i) for w, i, _, _ in decidable_scenarios()) == pinned
    assert len(PINS) == 32


@pytest.mark.parametrize("workload, scenario, code, digest", PINS,
                         ids=[f"{w}/{i}" for w, i, _, _ in PINS])
def test_corpus_report_pinned(capsys, workload, scenario, code, digest):
    (path, expected), = [(CORPUS / w / f, e) for w, i, f, e in decidable_scenarios()
                         if (w, i) == (workload, scenario)]
    assert code == expected
    assert main(["check", str(path)]) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # a solver limit is the only error a pinned scenario may end in: an
    # internal error also prints no report
    assert err.startswith("solver limit: ") if code == 2 else err == ""


# Each leaf's abutment is the direct sum of its E-infinity entries (the
# spectra module docstring).  These scenarios have a leaf whose certified
# degree also admits a non-split extension; in every one it is Z/2 over
# Z/2 in columns four apart (the RP^3 x RP^3 intersection at step 4 has
# them at columns -8 and -4 of degree -2), which could abut to Z/4.  The
# flagship (bundled paper_cp7.json) and the rest of the corpus have none:
# in t2-s2-b2 and t2-s2-b4, Z/2 lies below Z, and that extension splits.
NON_SPLIT = {("catalog-tables", "rp3rp3-s4"), ("catalog-tables", "rp7-s4-w2"),
             ("catalog-tables", "rp7-s4-w4"), ("claims-fanout", "fan4-mixed"),
             ("claims-fanout", "fan4-two-branch"), ("claims-fanout", "fan5-mixed"),
             ("claims-fanout", "fan5-two-branch"), ("claims-fanout", "fan6-mixed"),
             ("claims-fanout", "fan6-two-branch"), ("claims-fanout", "fan7-mixed")}
# (workload, id, file, exit code): the flagship and every corpus scenario
LEAF_CASES = [("flagship", "paper_cp7", Path(spectra.__file__).parent / "data" / "paper_cp7.json",
               10), *((w, i, CORPUS / w / f, code) for w, i, f, code in decidable_scenarios())]


def primes(grp) -> set[int]:
    return {p for d in grp.torsion for p in _factorize(d)}


def has_non_split_alternative(page) -> bool:
    """Whether a certified degree of the stable ``page`` has an entry
    with l-torsion above (in a higher column than) an entry with free
    rank or l-torsion: the entries are the quotients of a filtration of
    the abutment, and Ext(Z/l^a, Z) and Ext(Z/l^a, Z/l^b) are nonzero,
    so there the abutment need not be the direct sum."""
    for deg in spectra.certified_degrees(page):
        column = sorted((p, grp) for (p, q), grp in page.entries if p + q == deg)
        for k, (_, quotient) in enumerate(column):
            ells = primes(quotient)
            if ells and any(sub.free_rank or ells & primes(sub) for _, sub in column[:k]):
                return True
    return False


@pytest.mark.parametrize("workload, scenario, file, code", LEAF_CASES,
                         ids=[f"{w}/{i}" for w, i, _, _ in LEAF_CASES])
def test_leaves_with_a_non_split_alternative(monkeypatch, capsys, workload, scenario, file,
                                             code):
    # every leaf's stable page: the last page whose certified sums were
    # taken when the leaf is built
    pages, leaves = [], []
    sums, init = spectra._certified_sums, spectra.BranchLeaf.__init__
    monkeypatch.setattr(spectra, "_certified_sums",
                        lambda page, *args: pages.append(page) or sums(page, *args))
    monkeypatch.setattr(spectra.BranchLeaf, "__init__",
                        lambda leaf, **kw: leaves.append(pages[-1]) or init(leaf, **kw))
    assert main(["check", str(file)]) == code
    capsys.readouterr()
    assert leaves or code == 2
    assert any(map(has_non_split_alternative, leaves)) == ((workload, scenario) in NON_SPLIT)
