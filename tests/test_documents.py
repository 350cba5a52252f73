"""Checked-in document digests: the bytes every listed invocation writes.

Each invocation runs through ``cli.main`` in a directory holding the two
input files below, so the ``file:`` paths that the documents echo are the
same on every machine.  The table pins the exit code and the sha256 of
stdout, in JSON and in CSV.  Only documents that no search decides are
listed: the bits of an n >= 4 realizing unitary depend on the LAPACK build.
A change that alters a document on purpose updates its digest here in the
same commit.

To print the table for the tree as it stands:

    PYTHONPATH=src python tests/test_documents.py
"""

import contextlib
import hashlib
import io
import json
import os

from weakvalues import cli

# A Hermitian 4x4 operator and a basis pair that is orthonormal in exact
# arithmetic: the identity before, a complex Hadamard matrix (entries
# +-1/2, +-i/2) after.  Every number is a short binary fraction.
OPERATOR_4 = [
    [0.5, {"re": 1.0, "im": -2.0}, 0.25, {"re": 0.0, "im": 0.75}],
    [{"re": 1.0, "im": 2.0}, -0.5, {"re": -1.5, "im": 0.5}, 0.0],
    [0.25, {"re": -1.5, "im": -0.5}, 2.0, {"re": 0.125, "im": -1.0}],
    [{"re": 0.0, "im": -0.75}, 0.0, {"re": 0.125, "im": 1.0}, -1.25],
]
_H = [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
PAIR_4 = {
    "pre": [[float(i == j) for j in range(4)] for i in range(4)],
    "post": [[{"re": z.real / 2, "im": z.imag / 2} for z in map(complex, row)] for row in _H],
}

INVOCATIONS = [
    ["weak-table", "sigma_x", "exclusive2"],
    ["weak-table", "sigma_y", "rotated2", "--theta", "0.8"],
    ["weak-table", "sigma_theta", "rotated2", "--theta", "2.2"],
    ["weak-table", "identity", "exclusive2"],
    ["weak-table", "L_y", "rotated3", "--theta", "1.0"],
    ["weak-table", "gellmann_5", "rotated3", "--theta", "2.2"],
    ["weak-table", "L_theta", "rotated3", "--theta", "0.4"],
    ["weak-table", "file:op4.json", "file:pair4.json"],
    ["weak-table", "sigma_x", "rotated2", "--theta", "0"],  # exit 2
    ["reconstruct", "0.75,0.25", "--theta", "0.9"],
    ["reconstruct", "0.2,0.3,0.5", "--theta", "0.7"],
    ["reconstruct", "0.5,0.5", "--theta", "1.5707963267948966"],  # exit 3
    ["birkhoff", "classify", "--coeffs", "0.3,0.7"],
    ["birkhoff", "classify", "--coeffs", "0,0,0,0.5,0.5,0"],
    ["birkhoff", "classify", "--coeffs", "0.2,0.1,0.3,0.1,0.2,0.1"],
    ["birkhoff", "classify", "--coeffs", "0.5,0.5,0,0,0,0"],
    ["birkhoff", "sample", "--corners", "0,1,2,3", "--resolution", "6"],
    ["birkhoff", "hypocycloid", "--resolution", "24"],
    ["birkhoff", "hypocycloid", "--corners", "0,1,2", "--resolution", "9"],
    ["birkhoff", "corners", "--n", "2"],
    ["birkhoff", "corners", "--n", "3"],
    ["birkhoff", "corners", "--n", "4"],
    ["birkhoff", "corners", "--n", "5"],
    ["weak-table", "sigma_x", "exclusive2", "--theta", "nan"],  # NaN only in the document
    ["birkhoff", "sample", "--resolution", "1000"],
]
FORMATS = ("json", "csv")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _write_inputs(directory):
    for name, data in (("op4.json", OPERATOR_4), ("pair4.json", PAIR_4)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _table():
    return {
        (" ".join(argv), fmt): _run(argv + ["--format", fmt])
        for argv in INVOCATIONS
        for fmt in FORMATS
    }


DIGESTS = {
    ("weak-table sigma_x exclusive2", "json"):
        (0, "dd0a10d9f87552ef5c747cbb17de2a77426a8949756dd6b3e4db5c4dffcc413e"),
    ("weak-table sigma_x exclusive2", "csv"):
        (0, "c667588a9498654bbbbcb801aae586e3f63e028202dc8324b164679b1de0db5d"),
    ("weak-table sigma_y rotated2 --theta 0.8", "json"):
        (0, "f82d3a934807417be9d1b4a10c749871f3af7d32058f58b4397174070a13b63b"),
    ("weak-table sigma_y rotated2 --theta 0.8", "csv"):
        (0, "80c1f19aeb186fa7f833fbd7e39ff9424247ce13f2033a3725d65c75ef76722f"),
    ("weak-table sigma_theta rotated2 --theta 2.2", "json"):
        (0, "aec3403b04ee93b73f917b6b999c126efada49c9338c4f601af059929ea8e5a7"),
    ("weak-table sigma_theta rotated2 --theta 2.2", "csv"):
        (0, "a0ee25b41449efe7f0d0631dd714c5780a5f60a7f69cca3e573f532acb2370e5"),
    ("weak-table identity exclusive2", "json"):
        (0, "04d7e58d485d7000ec69714ecf6f8c4312c1f104c98cc574262a5e7c99c4f2e0"),
    ("weak-table identity exclusive2", "csv"):
        (0, "537392fded71da96b31e198a83e062d7c999dd52e0c319aa0e50cdbc97eee41d"),
    ("weak-table L_y rotated3 --theta 1.0", "json"):
        (0, "6a7dd24bb75fa2fcbe5a81c9d3c9ccd652e1ac8fb78643ebee9eb0c825e027f6"),
    ("weak-table L_y rotated3 --theta 1.0", "csv"):
        (0, "b0ec9ce476579a4af6fe78a33e39f1d47e023d2bd35954ce52135457d78deb96"),
    ("weak-table gellmann_5 rotated3 --theta 2.2", "json"):
        (0, "50a171de494c78d3417afc96b25edec963742dcbf0d7c17ae1c56e775ca1c71e"),
    ("weak-table gellmann_5 rotated3 --theta 2.2", "csv"):
        (0, "fc2e9191ecec77c56ee0aa9bf8706f645a49fc061586dec3b6cf49bc52c54099"),
    ("weak-table L_theta rotated3 --theta 0.4", "json"):
        (0, "77c1b2b4a704eeee1127a66229231de3e91a13330c23545d02ca2de562309098"),
    ("weak-table L_theta rotated3 --theta 0.4", "csv"):
        (0, "ff9e7769a05f3f57c772fc31d830a207b1b3e2c2a30cac0a1bbe643b67710b73"),
    ("weak-table file:op4.json file:pair4.json", "json"):
        (0, "384dee01aedaf507500d126632b82dbc0020b032633ef45564caa0355df75580"),
    ("weak-table file:op4.json file:pair4.json", "csv"):
        (0, "a968524d019d5944e6abaa01f1fc3c9eac01297e702691dc25280d5fb4365ced"),
    ("weak-table sigma_x rotated2 --theta 0", "json"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("weak-table sigma_x rotated2 --theta 0", "csv"):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reconstruct 0.75,0.25 --theta 0.9", "json"):
        (0, "72a6287f58d7840ba7e386bebfdce67c762a79b1e42fc51819885b06770a2f0e"),
    ("reconstruct 0.75,0.25 --theta 0.9", "csv"):
        (0, "039be171d9fcc47805958852ede577c51e64f343199fb55aabe60e4bd0100d4d"),
    ("reconstruct 0.2,0.3,0.5 --theta 0.7", "json"):
        (0, "5a9c36fb6a077ae42ef3e8c7be6d8e03c290a3cc1e067768ed86e402e4bc6366"),
    ("reconstruct 0.2,0.3,0.5 --theta 0.7", "csv"):
        (0, "c2162867b5ad37e704002ff0b98a63a95ed1a1bf9f4390feb04937f7d84acee2"),
    ("reconstruct 0.5,0.5 --theta 1.5707963267948966", "json"):
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reconstruct 0.5,0.5 --theta 1.5707963267948966", "csv"):
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("birkhoff classify --coeffs 0.3,0.7", "json"):
        (0, "ca2bda283b270eaed7dfa2ccd779e64dc663eb6a4069efbae3da47ec035e59b7"),
    ("birkhoff classify --coeffs 0.3,0.7", "csv"):
        (0, "f05fdbb00c9892b6c8b836239fbf7e9449de2fa357042ed5df0c5e60ba516d3b"),
    ("birkhoff classify --coeffs 0,0,0,0.5,0.5,0", "json"):
        (0, "d4cde2f62947b4ca6407a00dc01d5d9412cdb0bfe0ea0074f4ad1edde762acd4"),
    ("birkhoff classify --coeffs 0,0,0,0.5,0.5,0", "csv"):
        (0, "8201555871d605bbd44f5f2c3b380dfcc0f0b27bc99c72f0989f52dcd70ff4f1"),
    ("birkhoff classify --coeffs 0.2,0.1,0.3,0.1,0.2,0.1", "json"):
        (0, "76c97f37b29953df1e3e7a94e34695bfa6646c4d0ddd880b1f41d0805f7ebbc8"),
    ("birkhoff classify --coeffs 0.2,0.1,0.3,0.1,0.2,0.1", "csv"):
        (0, "3931f555df4616107cc162608e576a340ac5192d94734de12e1a202d22fef24d"),
    ("birkhoff classify --coeffs 0.5,0.5,0,0,0,0", "json"):
        (0, "0620638db111d48f2ea6e1508b50cd55241f1d280e34a14d0ec7d4ba8fc0965d"),
    ("birkhoff classify --coeffs 0.5,0.5,0,0,0,0", "csv"):
        (0, "a293c827957ca3110460f82630d331d9bb44ea292a98d49b792530f71774a89c"),
    ("birkhoff sample --corners 0,1,2,3 --resolution 6", "json"):
        (0, "9ba8ba412dc37746e64775aaad97c95e8c8a7d2f340288fb940a7523a8efbb80"),
    ("birkhoff sample --corners 0,1,2,3 --resolution 6", "csv"):
        (0, "7a3162ccf8753b3ff70af34c60183b89524a84262ea01183add0cfac29ad012a"),
    ("birkhoff hypocycloid --resolution 24", "json"):
        (0, "e445ddfbe6fa2f42f7e2e0e6927945ee2444e4f9889030e81ee4b46c4336120a"),
    ("birkhoff hypocycloid --resolution 24", "csv"):
        (0, "9d34fd5f99e6265b38a229e1cb76c44d252cfd02f4bc64a4fbfa0a7f4968c550"),
    ("birkhoff hypocycloid --corners 0,1,2 --resolution 9", "json"):
        (0, "28a7b4c971c5290fdf30fd0b769cc08146d4bba1266e5a054375ba63ef972a90"),
    ("birkhoff hypocycloid --corners 0,1,2 --resolution 9", "csv"):
        (0, "210f08af8c01465738c89827359371048fa9716e0fdbd612e6eac8c84a701193"),
    ("birkhoff corners --n 2", "json"):
        (0, "c5f6a8267015580ef6dfd78dc526e2eb080731cded7a200fca86b31cbfa28613"),
    ("birkhoff corners --n 2", "csv"):
        (0, "c28a4ac9898a60836822123208e19fc8eb73396bfff903f0b99a87250b52980d"),
    ("birkhoff corners --n 3", "json"):
        (0, "ce1992e9cff85c8c41ee416fd0249b2d90d355f81935805b60aa38fb6b4d7e0b"),
    ("birkhoff corners --n 3", "csv"):
        (0, "90547c3ef95f3c7bf28763bd6b00f1bd314ca22366cb074c4f22d889b9e1fa12"),
    ("birkhoff corners --n 4", "json"):
        (0, "bd581ea135b020aea52edc6f4da63ddc7e6cfb9268513109c47cbbf8639139a6"),
    ("birkhoff corners --n 4", "csv"):
        (0, "6f796a006f76dc6bf309673de58be77f4d1b24a9402aeb07e3b88c2697c1ec0d"),
    ("birkhoff corners --n 5", "json"):
        (0, "c9c77479803f434f304cb9fa5badddb2b1a0f2d0d2c52ab785f33b4ba7c80a00"),
    ("birkhoff corners --n 5", "csv"):
        (0, "987c9e6d269a136f19b12828dcd1e7bf2441dd7247829b95b4a3456c734cfe47"),
    ("weak-table sigma_x exclusive2 --theta nan", "json"):
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("weak-table sigma_x exclusive2 --theta nan", "csv"):
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("birkhoff sample --resolution 1000", "json"):
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("birkhoff sample --resolution 1000", "csv"):
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def test_documents_match_their_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    got = _table()
    assert set(got) == set(DIGESTS)
    for key, want in DIGESTS.items():
        assert got[key] == want, key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            _write_inputs(scratch)
            table = _table()
        finally:
            os.chdir(here)
    print("DIGESTS = {")
    for (argv, fmt), (code, digest) in table.items():
        print(f'    ("{argv}", "{fmt}"):\n        ({code}, "{digest}"),')
    print("}")
