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
        "flow.json": "a0d8481b4046cc94cc8e12faacdd4e4663a21f449eceb099789f0e9f8b791b47",
        "flow.svg": "2e0469202297fb9ad3d5a6c98e7debb7caa05817120758e32dfffa6ae39c02b2",
        "flow_00.csv": "97b645dd4e4ea4b40368326e946b335748f5139310868bfa97f52bf3620c5428",
        "flow_01.csv": "52e5c08aff87f84e736ceea2636ba625656c0bd16e57710f4d9c9cea54c61c45",
        "flow_02.csv": "6b1b0718d4e996815dce16148d9b7a7d5380651f514d8f62df9dffc30d70a14b",
        "flow_03.csv": "0d7503363f993805358b3f860929ff822d854a0a230f08d277bb8f5aec79ae9d",
        "flow_04.csv": "3223f32002652817b7731a75566bf75f0c1dfc8ae06f31db8ddfc5ccbc974af6",
        "flow_05.csv": "cd2b4507d16853c83a33536706e0fef52f383d86f7e3ed4ae5da2cda02fa0861",
        "flow_06.csv": "1b61846d19713acc4f51dde33958b17c16e335884d505fc4b1f646f41cabbce3",
        "flow_07.csv": "9da67e9235e5fc9dcefde02216550e6955bbbea0695ee46682c04d7ed3b1af27",
        "flow_08.csv": "1585d681765c9d4d949859da65d296023c55ddb75c6ba70a3edbabbd0ba5d147",
        "geometry.json": "010991cb90846a8d471ec1c7ab9258e54f05c5e20ee208eb83b4eb803788b5c9",
        "region.svg": "c54ea8e77c3097ffa1647cdfac4b8ca653aee6471670bb718cfcc7e9e09e3d1a",
        "report.json": "c7962d1f491baea7bba4e25d422ab24415a97b71c9a0285ee4aa98c5c3a9769c",
}

TABLE_REPORT = {
        "analysis.json": "990e240b362ce572f445b2c58c77680ab16d4ba0a108b2222781943934e0b2d3",
        "contours.svg": "91b66dda79b5d7059d82607ac63be14f937341ac80074ecceda6c7603f395d3a",
        "curvature.svg": "407b23fc0c125ef9ca582e25bd956380b735c28e99c521bf68ec4ee5c0218251",
        "field.json": "c21187b933111ec716a3f62c95c527a85279a1182bde5820057b1418638d6951",
        "fit_report.json": "172875cb59c9fdc9f7648fbc62760a4f72830598730b4a4fdcaf193b4f9986c2",
        "flow.json": "2e92dc761cbf7596a4e74b9ba7460e025fb72bc79ccfed548d0e7f2026dc6671",
        "flow.svg": "0bc3930d3810ae45dfba3001c1e4e8f6d9a6012f74258892d37233941e1071ef",
        "flow_00.csv": "7e668195e1c828858f5c4ee5c9d468653e03bd630c80f4fa9964ff6fc53c7d2e",
        "flow_01.csv": "5f8a4e4e79780524af045132860ff3d17c1d94eca16ea9fe145e96efc9c68ad0",
        "flow_02.csv": "abafcab463d6c1a12d5a65cc0fbce73be164412f5934d1196217ab8071322f39",
        "flow_03.csv": "e1ef2012d104529d144b377a6256100dd078ce6b4f43a38495c6e329cdefce83",
        "flow_04.csv": "bd95e5fa128d733057b5c99a206f865ebb674a9414c3e1cdee3aab15bf0ab2c2",
        "flow_05.csv": "02116aca9b0439c05e000561bf4ce5c963d7d4db0519abf940104081a90ee071",
        "flow_06.csv": "a99b648d45bbc72b3784e2e361a6e507c346e3f1b71592250aaa16ea521c5be8",
        "flow_07.csv": "e64f70ba5a236f9bae99cab3c086e29bdb81de047775c1a6743a5cdefcc07321",
        "flow_08.csv": "c18b98d6157e399462d4fcac935193d7a60fe4250f024f82f97f64408641f9d1",
        "geometry.json": "64cf73d5136eb3bfeed1693f143e234c2e497ffa0907fd984477d7de323146cc",
        "region.svg": "b6aab3921ccaf4314a46dd7b76b8905dd1d576306ac1841098bb16ceb235a605",
        "report.json": "361a21de6d632d3d5e02def8f5087f84351f9f56917163ad4603fb4a509b8614",
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
