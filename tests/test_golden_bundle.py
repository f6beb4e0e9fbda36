"""Golden bundles: every report file keeps its recorded SHA-256.

The digests were recorded from the package before the field kernel and
the load-once pipeline were introduced (numpy 2.4.6, Python 3.11.7,
x86-64 Linux).  Those of analysis.json, report.json, contours.svg and
region.svg were recorded again when the level curves became the exact
boundary graph: their vertices and the region's shading changed, and
nothing else in analysis.json did.  Those of analysis.json and report.json
were recorded again, for both bundles, when the region area became a
Gauss-Kronrod integral and the Simpson mean a collapsed sum:
tests/bundle_compare.py finds region_area and probability moved by a
relative 8.2e-11 (toward the exact area) and mean_risk_simpson by at most
1.5e-15, and every other value, key and file equal.  Those of flow.json
and report.json were recorded again, for both bundles, when the field
took one evaluation order, R = g(t) c + h(t) with g and h by Horner's
rule from the top coefficient: tests/bundle_compare.py --rel-tol 1e-12
finds only the trajectories' risk_start and risk_end moved, by at most a
relative 1.2e-14 (built-in data, seed 0) and 6.1e-14 (the table below),
and every other value, key and file equal, the flow CSVs byte for byte.
Those of analysis.json, report.json, contours.svg and region.svg were
recorded again, for both bundles, when level curves kept only the
vertices that their chord tolerance 4 (c_max - c_min)/grid^2 needs and
analysis.json gained level_chord_tolerance: tests/bundle_compare.py
--rel-tol 0 finds that key new, every polyline shorter (2,547 vertices
down to 829 on the built-in data, 2,210 to 829 on the table) and the
SVGs with fewer numbers (on the built-in data contours.svg 5,330 down to
1,894 and region.svg 2,086 to 882), and every other value, key and file
equal.
Those of every JSON file were recorded again, for both bundles, when the
JSON text became the standard library's compact sorted-key encoding
instead of its indent=2 one: tests/bundle_compare.py --rel-tol 0 finds 0
float keys differ (102 equal on the built-in data, 95 on the table) and
no mismatch, json.dumps(sort_keys=True, indent=2) of each new document
gives the old file byte for byte, and every CSV and SVG is unchanged.
Those of flow.json, flow.svg, the nine flow CSVs and report.json were
recorded again, for both bundles, when the flow's default step went
from 1e-3 to 5e-3 and its exit from a clip along the chord to RK4's
Hermite dense output: tests/bundle_compare.py --rel-tol 0 finds only
flow.json's step, steps, end, tau_end and risk_end, the same keys under
report.json's flow, and the flow CSVs and flow.svg changed (ends moved
by at most a relative 1.5e-6 on the built-in data and 5.4e-7 on the
table, the old clip's error), and every other value, key and file
equal.
A refactor that changes no result keeps every one of them; a change that
alters a file on purpose updates its digest here and says why, with the
comparator's report.  Another numpy or platform may round differently, so a mismatch
there calls for a look at the diff before the digests change.
"""

from __future__ import annotations

import hashlib

import pytest

from mehgrisk.cli import main

# A survey-like table of three concentrations at the five stage nodes.
TABLE_CSV = (
    "concentration,1,2,3,4,5\n"
    "0.4,0,1.1,0.52,0.31,0.6\n"
    "1.6,0,4.8,2.1,1.3,2.4\n"
    "2.9,0,8.7,3.9,2.2,4.1\n"
)

PAPER_SEED_0 = {
        "analysis.json": "8894b4bf4fd17901b9b8742ce123cdb368dc93ce7766d01e77a143a9995937bb",
        "contours.svg": "828ce10fbd6aac9f81be8ef281d96784aaf212c522d1e75fe50d375c2ebe16b6",
        "curvature.svg": "ba78379b5b3e3d2bbeda2fce92eff79a67f9ef0573510446ca0d8e5e1309665d",
        "exposure.csv": "2317025039c76f33eae85b369a5b5aa094371c578e0f7ec3e6ba441a4801f6cd",
        "exposure.json": "f7b780d6d181e5532adf5532a6e8dcc63f54aeea9bba77868373df78987dc7c9",
        "field.json": "3776447a8131624aff40574f7892f0dd0d516b8298ce5be773607facc6728a03",
        "fit_report.json": "64002867408252776f60ac43933dfb29b9773d4760fdd7526b8721c3c1db1a79",
        "flow.json": "b37484fe9b4a914abac4f435c5619801999b2315715ef15a9bd3dee2fe39ea4c",
        "flow.svg": "63b00d260b8892a602b81f18ff745530d04ec32fef816c8aace2c089ec8721c1",
        "flow_00.csv": "7100add58d385bb9e0d2982551d3f326634ea9056dcc93a70d5c2322566aa716",
        "flow_01.csv": "8ee09d83221a15a542a13451561780382effe3731cd3de5058590916108ae2ad",
        "flow_02.csv": "69eecd70125c080d2f1ebafd781afea4ff2f340587bb946a2d553c53112a1775",
        "flow_03.csv": "d09700388660474db7764904b93eaba9ad046103b901141c1023145ca58c6910",
        "flow_04.csv": "dc47c2cdf356c32ea1d3182d355603af9d50d0ea23e7409cb235a0334515cdfc",
        "flow_05.csv": "4b2a448794f0f2b981c31f421e1496af03ae137f0c7a97c749cb4f0e514c3dbe",
        "flow_06.csv": "eb904b793101e7e9d2081c21c51f140101b84d1c135ac9cc7b880e1773ea3f8d",
        "flow_07.csv": "b289af22b34f9336c5c2934f2ea64daf9364f08217efba808443995ce2879b1d",
        "flow_08.csv": "5a9b7eb6c16e3b061d83f97db05e55934b3d7946ceb72d91632e031f670858c3",
        "geometry.json": "010991cb90846a8d471ec1c7ab9258e54f05c5e20ee208eb83b4eb803788b5c9",
        "region.svg": "c54ea8e77c3097ffa1647cdfac4b8ca653aee6471670bb718cfcc7e9e09e3d1a",
        "report.json": "ab71e65471cadbd746d8636f25340dbb943d9367d5f8013f5faaea00b5ca3861",
}

TABLE_REPORT = {
        "analysis.json": "990e240b362ce572f445b2c58c77680ab16d4ba0a108b2222781943934e0b2d3",
        "contours.svg": "91b66dda79b5d7059d82607ac63be14f937341ac80074ecceda6c7603f395d3a",
        "curvature.svg": "407b23fc0c125ef9ca582e25bd956380b735c28e99c521bf68ec4ee5c0218251",
        "field.json": "c21187b933111ec716a3f62c95c527a85279a1182bde5820057b1418638d6951",
        "fit_report.json": "172875cb59c9fdc9f7648fbc62760a4f72830598730b4a4fdcaf193b4f9986c2",
        "flow.json": "c09a992c8be234085a68149e9df5f6ece368a8af99c9254b1d9fd348743ddffe",
        "flow.svg": "455777d81842b18945eac571bb9c37b256a319e678e4b3fa2d903135a6fa2b08",
        "flow_00.csv": "989591ce05800cf79193ccd6544e07c8f5ce9255dedae9022855952a38b0bc6e",
        "flow_01.csv": "52f464be5d52b4dbc0a47347e2a370e44ded01d114f223654a67b73800f21ae1",
        "flow_02.csv": "4253724099f59c273bf4190fa9e0137de94c0abc69965dd752b73d780656125f",
        "flow_03.csv": "c0564293adbe577960fe1040cb4dc985dbec214f7260ead7d4caf27d5c754856",
        "flow_04.csv": "101864766ac278381c911b08a75be6dcbaac60f5c48a81b88bb8d67abe9dfed1",
        "flow_05.csv": "fb5dcf3346e215bd89ba6edc0a1b7140b287be8287c63e3b7529858e2d2d8241",
        "flow_06.csv": "634791d3b7208c67f350f1607571fc29d27f7909787c56d076e1e2305de2e179",
        "flow_07.csv": "3ba5e7db397c69cb41aca5281d16c49251fc1c9bc5ab4e52166ff33803d07327",
        "flow_08.csv": "7cd7509679d625c9749ef9849cf67c80deeaa19fae86148cefa5ae16c303a1a3",
        "geometry.json": "64cf73d5136eb3bfeed1693f143e234c2e497ffa0907fd984477d7de323146cc",
        "region.svg": "b6aab3921ccaf4314a46dd7b76b8905dd1d576306ac1841098bb16ceb235a605",
        "report.json": "0f8bf33f287a1c5aee67b7eb798318974dddcf4012c35a36c79f9c788343f50f",
}


def digests(out) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("source", ["paper", "table"])
def test_report_bundle_matches_golden_digests(source, tmp_path):
    out = tmp_path / "out"
    if source == "paper":
        argv, want = ["--paper-dataset", "--seed", "0"], PAPER_SEED_0
    else:
        table = tmp_path / "table.csv"
        table.write_text(TABLE_CSV)
        argv, want = ["--input", str(table)], TABLE_REPORT
    assert main(["report", *argv, "--out", str(out)]) == 0
    got = digests(out)
    assert sorted(name for name in got.keys() | want.keys()
                  if got.get(name) != want.get(name)) == []
    assert got == want
