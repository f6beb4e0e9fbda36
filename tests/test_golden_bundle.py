"""Golden bundles: every report file keeps its recorded SHA-256.

The digests were recorded from the package before the field kernel and
the load-once pipeline were introduced (numpy 2.4.6, Python 3.11.7,
x86-64 Linux).  Those of analysis.json, report.json, contours.svg and
region.svg were recorded again when the level curves became the exact
boundary graph: their vertices and the region's shading changed, and
nothing else in analysis.json did.  A refactor that changes no result
keeps every one of them; a change that alters a file on purpose updates
its digest here and says why.  Another numpy or platform may round
differently, so a mismatch there calls for a look at the diff before the
digests change.
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
        "analysis.json": "7f67af76aafc87507d63abfcf8023f8ff3e846a2bb3f01f95fc4a2fdafa121d1",
        "contours.svg": "b5283a7ac1efbc292c81482d06cd8c68154479ab038bfcb6ab1ec9981963205b",
        "curvature.svg": "ba78379b5b3e3d2bbeda2fce92eff79a67f9ef0573510446ca0d8e5e1309665d",
        "exposure.csv": "2317025039c76f33eae85b369a5b5aa094371c578e0f7ec3e6ba441a4801f6cd",
        "exposure.json": "4e702465c8f72ae7ec7f9fa5d30bd029c08b1876e39a587730f28717908411fa",
        "field.json": "96987cb3a455d1a92900411b41c2a1dcfd72c06de38231e0c2c9c96e0b9ce9fb",
        "fit_report.json": "de6298ce23262282f0a558475e66ccefc883b3f4e66b6251e23efbe5ed5f1690",
        "flow.json": "565e050d0c8d2d096fbe20dbb81fd83aec2145351a52e52c34bd0ae9e1589544",
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
        "geometry.json": "f6c0eef0bb7c15e61aa4fb4d7b8901b01c59bfc2cabd68894a57a594bc5c0ee3",
        "region.svg": "c21378b9e754c9921fed36744466423618b1d95d8a121d1ef44bbf64fb52a0a3",
        "report.json": "a912fe62e716b3cee6ddc05948d355cb368734c1db5edd7e98fed4ee90d7bc8f",
}

TABLE_REPORT = {
        "analysis.json": "ea04c0fcd9eee506c0ca69524531133a5e5fa9ae097888e7db79ba70d4dc9f0b",
        "contours.svg": "28fa9d2f6cf8b2e82227972d64bed67d276623c47cfc7f5ba4909cc5ec8ecc22",
        "curvature.svg": "407b23fc0c125ef9ca582e25bd956380b735c28e99c521bf68ec4ee5c0218251",
        "field.json": "88edff2f798f4655e6e5c12d0e5ac7d2d4bd90de268b51bc33fdad85a2f691df",
        "fit_report.json": "9161690d3664731ca6c3a85a27175eda00df8fe57962d6210bfb985eac774b0e",
        "flow.json": "533b1d629147c90ae92c33d7b2bb2fea19163ddd70a5ed9c8ad9ceb01ebc6513",
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
        "geometry.json": "b16f3dca3ce5499315fd7465472f10ef4af2b44d55f99a108e989f78051a5e92",
        "region.svg": "ed12c53dd021cd611614b0d5da45b4d6c586137453434cc0c346d0b27e54ec50",
        "report.json": "57bceaa9ef69ba324dd9a4f2c2792a59e8ae2e49db37cca4c43302d2692d4501",
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
    assert digests(out) == want
