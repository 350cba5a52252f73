"""In-process checks of the command-line front end: documents, formats, exit codes."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from weakvalues import cli, hilbert, weakval


def invoke(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_complex(entry):
    if isinstance(entry, dict):
        return complex(entry["re"], entry["im"])
    return complex(entry)


def complex_matrix(rows):
    return np.array([[as_complex(v) for v in row] for row in rows])


def test_weak_table_exclusive_sigma_x(capsys):
    code, out, err = invoke(["weak-table", "sigma_x", "exclusive2"], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "weak-table"
    assert doc["dim"] == 2
    values = complex_matrix(doc["weak_values"])
    assert np.allclose(values, [[1, 1], [-1, -1]], atol=1e-12)
    assert np.allclose(np.array(doc["mu"]), 0.5, atol=1e-15)
    for row in doc["w_operators"]:
        for entry in row:
            w = complex_matrix(entry)
            assert abs(np.trace(w) - 1.0) < 1e-12


def test_weak_table_matches_library(capsys):
    code, out, _ = invoke(
        ["weak-table", "sigma_y", "rotated2", "--theta", "0.8"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    pair = hilbert.rotated_pair(2, 0.8)
    want = weakval.weak_value_table(hilbert.pauli_matrices()[1], pair).values
    assert np.allclose(complex_matrix(doc["weak_values"]), want, atol=1e-12)
    assert np.allclose(np.array(doc["mu"]), weakval.overlap_matrix(pair), atol=1e-15)


def test_identity_table_is_flat(capsys):
    # the identity has weak value 1 in every slot, whatever the bases
    code, out, _ = invoke(
        ["weak-table", "identity", "rotated3", "--theta", "0.7"], capsys
    )
    assert code == 0
    values = complex_matrix(json.loads(out)["weak_values"])
    assert np.allclose(values, 1.0, atol=1e-12)


def test_reconstruct_document(capsys):
    theta = math.pi / 3.0
    code, out, _ = invoke(["reconstruct", "0.75,0.25", "--theta", repr(theta)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "reconstruct"
    assert np.allclose(doc["rho_psi"], [1.0, 0.0], atol=1e-12)
    offdiag = complex_matrix(doc["rho_phi_offdiag"])
    assert abs(offdiag[0, 1] - (-0.25 * math.tan(theta))) < 1e-12
    assert abs(doc["det_mu"] - math.cos(theta)) < 1e-12
    assert doc["physical"] is True
    assert doc["irreversible"] is False
    assert doc["residual"] < 1e-12
    assert 0.0 < doc["condition"] <= 1.0


def test_overlap_failure_exit_code(capsys):
    # theta = 0 makes pre and post orthogonal pairs collide head-on
    code, out, err = invoke(["weak-table", "sigma_x", "rotated2", "--theta", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "l=" in err and "j=" in err


def test_singular_exit_code(capsys):
    code, out, err = invoke(
        ["reconstruct", "0.5,0.5", "--theta", repr(math.pi / 2.0)], capsys
    )
    assert code == 3
    assert out == ""
    assert "det" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["weak-table", "sigma_q", "exclusive2"],
        ["weak-table", "sigma_x", "nonsense"],
        ["weak-table", "sigma_x", "rotated2"],  # rotated basis without --theta
        ["weak-table", "L_x", "rotated2", "--theta", "0.5"],  # 3x3 operator, dim 2
        ["weak-table", "gellmann_9", "rotated3", "--theta", "0.5"],
        ["reconstruct", "0.6,0.6", "--theta", "0.4"],  # tau is not a distribution
        ["reconstruct", "0.5,0.5"],  # --theta is required
        ["reconstruct", "0.5,0.5", "--theta", "0.4", "--dim", "3"],
        ["reconstruct", "0.25,0.25,0.25,0.25", "--theta", "0.4"],
        ["birkhoff", "classify"],  # neither input route
        ["birkhoff", "classify", "--coeffs", "0.5,0.5", "--file", "x.json"],
        ["birkhoff", "classify", "--coeffs", "0.2,0.2,0.2,0.2,0.2"],
        ["birkhoff", "classify", "--file", "/nonexistent/matrix.json"],
        ["birkhoff", "sample", "--resolution", "1"],
        ["birkhoff", "sample", "--resolution", "1000"],
        ["birkhoff", "sample", "--corners", "0,1,2,3,4"],
        ["birkhoff", "hypocycloid", "--corners", "0,3"],
        ["birkhoff", "corners", "--n", "7"],
        ["reconstruct", "nan,1", "--theta", "0.9"],  # non-finite tau
        ["birkhoff", "classify", "--coeffs", "nan,0,0,0,0,1"],
        ["birkhoff", "sample", "--corners", "inf,0,1", "--resolution", "4"],
        ["birkhoff", "sample", "--corners", "0,1,2,3", "--resolution", "91"],  # 134,044 points
        ["weak-table", "sigma_theta", "exclusive2", "--theta", "nan"],
        ["weak-table", "sigma_x", "exclusive2", "--theta", "nan"],  # NaN only in the document
    ],
)
def test_usage_errors_exit_four(argv, capsys):
    code, out, err = invoke(argv, capsys)
    assert code == 4
    assert out == ""
    assert err != ""


def test_non_finite_files_exit_four(tmp_path, capsys):
    """Numbers a matrix file cannot hold are bad input: one error line, no warning."""
    op = tmp_path / "op.json"
    op.write_text("[[NaN, 1], [1, 0]]")
    mat = tmp_path / "mat.json"
    mat.write_text("[[NaN, 0.5, 0.5], [0.5, 0.5, 0], [0.5, 0, 0.5]]")
    huge = tmp_path / "huge.json"  # an integer beyond the float range
    huge.write_text("[[" + "1" * 400 + ", 1], [1, 0]]")
    nested = tmp_path / "nested.json"
    nested.write_text('[[{"re": [1], "im": 0}, 1], [1, 0]]')
    truth = tmp_path / "truth.json"  # a bool is not a number inside a pair either
    truth.write_text('[[{"re": true, "im": 0}, 1], [1, 0]]')
    text = tmp_path / "text.json"
    text.write_text('[[1, 0], [0, {"re": "-1", "im": "0"}]]')
    big = tmp_path / "big.json"  # finite entries whose determinant overflows
    big.write_text("[[1e200, -1e200, 1e200], [-1e200, 1e200, 1e200], [1e200, 1e200, -1e200]]")
    for argv, reason in (
        (["weak-table", f"file:{op}", "exclusive2"], "finite"),
        (["birkhoff", "classify", "--file", str(mat)], "finite"),
        (["weak-table", f"file:{huge}", "exclusive2"], "finite"),
        (["weak-table", f"file:{nested}", "exclusive2"], "numbers"),
        (["weak-table", f"file:{truth}", "exclusive2"], "numbers"),
        (["weak-table", f"file:{text}", "exclusive2"], "numbers"),
        (["birkhoff", "classify", "--file", str(big)], "overflow"),
    ):
        code, out, err = invoke(argv, capsys)
        assert code == 4
        assert out == ""
        assert reason in err and "RuntimeWarning" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_check_sums_covers_the_whole_stack():
    stack = np.stack([np.eye(3), np.full((3, 3), 1 / 3), np.eye(3)[::-1]])
    cli._check_sums(stack)
    for bad in (0.5, np.nan):
        broken = stack.copy()
        broken[2, 1, 1] = bad
        with pytest.raises(RuntimeError):
            cli._check_sums(broken)


def test_help_exits_clean(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["weak-table", "--help"]) == 0
    capsys.readouterr()


def test_parser_is_built_once(capsys):
    """One parser serves every call, whatever the previous call did to it."""
    parser = cli._build_parser()
    good = ["reconstruct", "0.7,0.3", "--theta", "0.9", "--format", "csv"]
    code, first, _ = invoke(good, capsys)
    assert code == 0 and cli._build_parser() is parser
    code, out, err = invoke(["reconstruct", "0.5,0.5"], capsys)  # --theta missing
    assert (code, out) == (4, "") and err.startswith("error: ")
    assert cli._build_parser() is parser
    code, out, _ = invoke(["--help"], capsys)
    assert code == 0 and out.startswith("usage: weakvalues")
    assert cli._build_parser() is parser
    code, second, _ = invoke(good, capsys)
    assert code == 0 and second.encode() == first.encode()
    assert cli._build_parser() is parser


def test_module_entry_point(capsys):
    """``python -m weakvalues`` runs the CLI and prints what cli.main prints."""
    argv = ["reconstruct", "0.7,0.3", "--theta", "0.9"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "weakvalues", *argv],
        capture_output=True, env=env, timeout=60, check=False,
    )
    code, out, _ = invoke(argv, capsys)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def test_byte_determinism(tmp_path, capsys):
    """Identical invocations must produce byte-identical documents."""
    runs = [
        ["weak-table", "L_y", "rotated3", "--theta", "1.0"],
        ["reconstruct", "0.7,0.3", "--theta", "0.9"],
        ["birkhoff", "classify", "--coeffs", "0,0,0,0.5,0.5,0"],
        ["birkhoff", "sample", "--corners", "0,3,4", "--resolution", "6"],
        ["birkhoff", "hypocycloid", "--resolution", "12"],
    ]
    for argv in runs:
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        # stdout route carries the same bytes as --out
        code, out, _ = invoke(argv, capsys)
        assert code == 0
        assert out.encode() == first.read_bytes()


def test_csv_format(capsys):
    code, out, _ = invoke(
        ["reconstruct", "0.75,0.25", "--theta", "0.9", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert "rho_psi/0" in keys
    # complex entries split into _re / _im leaves
    assert "rho_phi_offdiag/0/1_re" in keys
    assert "rho_phi_offdiag/0/1_im" in keys
    assert "physical" in keys
    row = dict(line.split(",", 1) for line in lines[1:])
    assert row["physical"] == "true"
    want = 0.5 + 0.25 / math.cos(0.9)
    assert float(row["rho_psi/0"]) == pytest.approx(want, abs=1e-10)


def test_csv_determinism(tmp_path):
    argv = ["weak-table", "sigma_z", "rotated2", "--theta", "0.7", "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_file_operator_and_basis(tmp_path, capsys):
    """The file: routes accept {re, im} JSON and one vector per row."""
    theta = 0.9
    pair = hilbert.rotated_pair(2, theta)
    post = pair.post.copy()
    post[:, 0] = post[:, 0] * np.exp(0.3j)  # keep orthonormal, force complex cells
    pair = hilbert.BasisPair(pair.pre, post)
    op = np.array([[0.5, 1.0 - 2.0j], [1.0 + 2.0j, -0.5]])

    def cells(matrix):
        return [
            [{"re": float(v.real), "im": float(v.imag)} for v in row] for row in matrix
        ]

    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(cells(op)))
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(
        json.dumps({"pre": cells(pair.pre.T), "post": cells(pair.post.T)})
    )

    code, out, _ = invoke(
        ["weak-table", f"file:{op_path}", f"file:{basis_path}"], capsys
    )
    assert code == 0
    want = weakval.weak_value_table(op, pair).values
    assert np.allclose(complex_matrix(json.loads(out)["weak_values"]), want, atol=1e-12)


def test_file_operator_must_be_hermitian(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps([[0, 1], [0, 0]]))
    code, _, err = invoke(["weak-table", f"file:{path}", "exclusive2"], capsys)
    assert code == 4
    assert "hermitian" in err.lower()


def test_classify_half_sum_of_cycles(capsys):
    code, out, _ = invoke(
        ["birkhoff", "classify", "--coeffs", "0,0,0,0.5,0.5,0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bistochastic"] is True
    assert doc["unistochastic"] == "no"
    assert np.allclose(doc["chain_links"], [0.0, 0.0, 0.5], atol=1e-15)
    assert doc["det"] == pytest.approx(0.25, abs=1e-12)
    assert doc["irreversible"] is False
    assert doc["realizing_unitary"] is None
    assert np.allclose(np.array(doc["matrix"]).sum(axis=0), 1.0, atol=1e-15)


def test_classify_blocked_half_sum_in_b4(capsys):
    # the 3 x 3 half-sum of the two cycles, plus a fixed fourth point: the
    # polygon screen answers "no" for n = 4 without a search
    perms = list(itertools.permutations(range(4)))
    weights = [0.0] * 24
    weights[perms.index((1, 2, 0, 3))] = weights[perms.index((2, 0, 1, 3))] = 0.5
    code, out, _ = invoke(
        ["birkhoff", "classify", "--coeffs", ",".join(map(str, weights))], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bistochastic"] is True
    assert doc["unistochastic"] == "no"
    assert doc["chain_links"] is None
    assert doc["realizing_unitary"] is None


def test_classify_flat_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps([[1 / 3] * 3] * 3))
    code, out, _ = invoke(["birkhoff", "classify", "--file", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["unistochastic"] == "yes"
    assert abs(doc["det"]) < 1e-14
    assert doc["irreversible"] is True
    u = complex_matrix(doc["realizing_unitary"])
    assert np.allclose(np.abs(u) ** 2, 1 / 3, atol=1e-9)


def test_classify_rejects_non_bistochastic_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[0.9, 0.0], [0.0, 0.9]]))
    code, out, _ = invoke(["birkhoff", "classify", "--file", str(path)], capsys)
    assert code == 0  # classification is the answer, not an input error
    doc = json.loads(out)
    assert doc["bistochastic"] is False
    assert doc["unistochastic"] == "no"


def test_sample_document(capsys):
    code, out, _ = invoke(
        ["birkhoff", "sample", "--corners", "0,1,2,3", "--resolution", "4"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["corners"] == [0, 1, 2, 3]
    assert len(doc["points"]) == math.comb(4 + 3, 3)
    for point in doc["points"]:
        assert set(point) == {"coefficients", "det", "degenerate", "unistochastic"}
        assert sum(point["coefficients"]) == pytest.approx(1.0, abs=1e-12)


def test_hypocycloid_document(capsys):
    code, out, _ = invoke(["birkhoff", "hypocycloid", "--resolution", "12"], capsys)
    assert code == 0
    doc = json.loads(out)
    points = np.array(doc["points"])
    assert points.shape[1] == 3
    assert np.allclose(points.sum(axis=1), 1.0, atol=1e-12)
    assert points.min() >= 0.0
    # corner-coefficient points sit on the equality locus, so the three
    # pure corners of the patch must appear in the polyline
    for k in range(3):
        corner = np.zeros(3)
        corner[k] = 1.0
        assert np.min(np.abs(points - corner).sum(axis=1)) < 1e-12


def test_corners_document(capsys):
    code, out, _ = invoke(["birkhoff", "corners", "--n", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    corners = np.array(doc["corners"])
    assert corners.shape == (6, 3, 3)
    assert set(np.unique(corners)) == {0, 1}
    distances = np.array(doc["distances"])
    assert np.allclose(distances, distances.T, atol=0)
    assert np.allclose(np.diag(distances), 0.0, atol=0)
    off = distances[~np.eye(6, dtype=bool)]
    assert np.all(
        (np.abs(off - 2.0) < 1e-12) | (np.abs(off - math.sqrt(6.0)) < 1e-12)
    )


# ---------------------------------------------------------------------------
# reference serializer: converts the document to plain Python objects first,
# complex numbers to {"re", "im"} dicts, then walks the copy once per format


def _ref_payload(value):
    if isinstance(value, np.ndarray):
        return [_ref_payload(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_ref_payload(v) for v in value]
    if isinstance(value, dict):
        return {k: _ref_payload(v) for k, v in value.items()}
    return value


def _ref_is_complex_pair(value):
    return isinstance(value, dict) and set(value) == {"re", "im"}


def _ref_inline(value):
    if isinstance(value, dict):
        return _ref_is_complex_pair(value)
    return not isinstance(value, (list, tuple))


def _ref_fmt(x):
    return format(float(x), ".17g")


def _ref_dumps(value, indent=0):
    pad = "  " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _ref_fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if _ref_is_complex_pair(value):
            return '{"re": %s, "im": %s}' % (_ref_fmt(value["re"]), _ref_fmt(value["im"]))
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_ref_dumps(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(_ref_inline(v) for v in value):
            return "[" + ", ".join(_ref_dumps(v) for v in value) + "]"
        body = ",\n".join(f"{pad}  {_ref_dumps(v, indent + 1)}" for v in value)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _ref_scalar_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return _ref_fmt(value)
    return str(value)


def _ref_flatten(value, key, rows):
    if _ref_is_complex_pair(value):
        rows.append((f"{key}_re", value["re"]))
        rows.append((f"{key}_im", value["im"]))
    elif isinstance(value, dict):
        for k, v in value.items():
            _ref_flatten(v, f"{key}/{k}" if key else k, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _ref_flatten(v, f"{key}/{i}" if key else str(i), rows)
    else:
        rows.append((key, value))


def _ref_render(document, fmt):
    document = _ref_payload(document)
    if fmt == "json":
        return _ref_dumps(document) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    rows = []
    _ref_flatten(document, "", rows)
    for key, value in rows:
        writer.writerow([key, _ref_scalar_cell(value)])
    return buf.getvalue()


def test_render_matches_reference(tmp_path):
    """Every handler's document renders to the reference bytes in both formats."""
    op = tmp_path / "op.json"
    op.write_text(json.dumps([[0.5, {"re": 1.0, "im": -2.0}], [{"re": 1.0, "im": 2.0}, -0.5]]))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps([[1 / 3] * 3] * 3))
    runs = [
        ["weak-table", "sigma_x", "exclusive2"],  # theta: null
        ["weak-table", f"file:{op}", "rotated2", "--theta", "0.9"],  # complex operator
        ["weak-table", "gellmann_5", "rotated3", "--theta", "2.2"],
        ["reconstruct", "0.7,0.3", "--theta", "0.9"],
        ["reconstruct", "0.2,0.3,0.5", "--theta", "0.7"],
        ["birkhoff", "classify", "--coeffs", "0,0,0,0.5,0.5,0"],  # realizing_unitary: None
        ["birkhoff", "classify", "--coeffs", "0.2,0.1,0.3,0.1,0.2,0.1"],
        ["birkhoff", "classify", "--coeffs", "0.3,0.7"],
        ["birkhoff", "classify", "--file", str(flat)],
        ["birkhoff", "sample", "--corners", "0,1,2,3", "--resolution", "6"],
        ["birkhoff", "sample", "--corners", "0,3,4", "--resolution", "9"],
        ["birkhoff", "hypocycloid", "--resolution", "24"],
        ["birkhoff", "corners", "--n", "2"],
        ["birkhoff", "corners", "--n", "4"],  # 3-D int array
    ]
    parser = cli._build_parser()
    for argv in runs:
        args = parser.parse_args(argv)
        document = args.handler(args)
        for fmt in ("json", "csv"):
            assert cli._render(document, fmt) == _ref_render(document, fmt), (argv, fmt)
