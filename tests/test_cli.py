"""In-process checks of the command-line front end: documents, formats, exit codes."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakvalues import birkhoff, cli, hilbert, reconstruct, weakval


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


def test_reconstruct_forms_mu_and_its_determinant_once(capsys, monkeypatch):
    """One reconstruct call decides singularity from one mu and one det."""
    calls = {"mu": 0, "det": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    mu = counted(reconstruct.overlap_matrix, "mu")
    monkeypatch.setattr(reconstruct, "overlap_matrix", mu)
    monkeypatch.setattr(np.linalg, "det", counted(np.linalg.det, "det"))
    code, _, _ = invoke(["reconstruct", "0.2,0.3,0.5", "--theta", "0.7"], capsys)
    assert code == 0
    assert calls == {"mu": 1, "det": 1}


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
        ["reconstruct", "0.5,0.5", "--theta", "0.4", "--dim", "2"],  # no such option
        ["reconstruct", "0.25,0.25,0.25,0.25", "--theta", "0.4"],
        ["reconstruct", ",".join(["0"] * 20000), "--theta", "0.4"],  # refused before allocating
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
        ["birkhoff", "corners", "--n", "3", "--out", "/nonexistent/dir/doc.json"],
        ["reconstruct", ",", "--theta", "0.5"],  # an empty list
        ["reconstruct", "a,b", "--theta", "0.5"],
        ["birkhoff", "sample", "--corners", "0,1.5,2", "--resolution", "4"],
        ["weak-table", "sigma_x", "rotated2", "--theta", "abc"],
        ["weak-table", "sigma_theta", "exclusive2"],  # rotated operator without --theta
    ],
)
def test_usage_errors_exit_four(argv, capsys):
    tracemalloc.start()  # numpy reports its array buffers here too
    try:
        code, out, err = invoke(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert out == ""
    assert err != ""
    assert peak < 16 * 2**20  # refused before anything sized by the input


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
    flat9 = tmp_path / "flat9.json"  # larger than classify takes
    flat9.write_text(json.dumps([[1 / 9] * 9] * 9))
    obj = tmp_path / "obj.json"
    obj.write_text('{"a": 1}')
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[1, 2], [3]]")
    keys = tmp_path / "keys.json"
    keys.write_text('{"pre": [[1]]}')
    wide = tmp_path / "wide.json"  # one vector of length 2 per basis
    wide.write_text('{"pre": [[1, 0]], "post": [[1, 0]]}')
    cplx = tmp_path / "cplx.json"
    cplx.write_text('[[{"re": 0.5, "im": 0.5}, 0.5], [0.5, 0.5]]')
    row = tmp_path / "row.json"
    row.write_text("[[0.5, 0.5]]")
    huge_basis = tmp_path / "huge_basis.json"  # finite entries whose Gram matrix overflows
    huge_basis.write_text('{"pre": [[1e200, 0], [0, 1]], "post": [[1, 0], [0, 1]]}')
    huge_op = tmp_path / "huge_op.json"  # finite entries whose weak values overflow
    huge_op.write_text("[[1e308, 1e308], [1e308, 1e308]]")
    for argv, reason in (
        (["weak-table", f"file:{op}", "exclusive2"], "finite"),
        (["birkhoff", "classify", "--file", str(mat)], "finite"),
        (["weak-table", f"file:{huge}", "exclusive2"], "finite"),
        (["weak-table", f"file:{nested}", "exclusive2"], "numbers"),
        (["weak-table", f"file:{truth}", "exclusive2"], "numbers"),
        (["weak-table", f"file:{text}", "exclusive2"], "numbers"),
        (["birkhoff", "classify", "--file", str(big)], "overflow"),
        (["birkhoff", "classify", "--file", str(flat9)], "at most 8"),
        (["weak-table", f"file:{obj}", "exclusive2"], "expected a list of rows"),
        (["weak-table", f"file:{ragged}", "exclusive2"], "equally long"),
        (["weak-table", "sigma_x", f"file:{keys}"], "keys 'pre' and 'post'"),
        (["weak-table", "sigma_x", f"file:{wide}"], "must be square"),
        (["birkhoff", "classify", "--file", str(cplx)], "must be real"),
        (["birkhoff", "classify", "--file", str(row)], "must be square"),
        (["weak-table", "identity", f"file:{huge_basis}"], "not orthonormal"),
        (["weak-table", f"file:{huge_op}", "exclusive2"], "overflow"),
    ):
        code, out, err = invoke(argv, capsys)
        assert code == 4
        assert out == ""
        assert reason in err and "RuntimeWarning" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_never_loads_numpy_random(tmp_path):
    """The phase search draws its starts without numpy.random, so a CLI
    process never imports it, nor the secrets and hashlib it pulls in."""
    flat8 = tmp_path / "flat8.json"
    flat8.write_text(json.dumps([[1 / 8] * 8] * 8))
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        import numpy
        if "numpy.random" in sys.modules:  # numpy 1.x imports it with numpy
            print("null")
            sys.exit()
        from weakvalues import cli
        flat4 = ",".join(["0.041666666666666664"] * 24)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["birkhoff", "classify", "--coeffs", flat4]),
                cli.main(["birkhoff", "classify", "--file", sys.argv[1]]),
            ]
        loaded = [m for m in ("numpy.random", "secrets", "hashlib") if m in sys.modules]
        print(json.dumps([codes, loaded]))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(flat8)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    result = json.loads(proc.stdout)
    if result is None:
        pytest.skip("import numpy loads numpy.random under this numpy")
    assert result == [[0, 0], []]


def test_oversized_files_exit_four(tmp_path, capsys):
    """A file: matrix above 16 x 16, any file over 2**20 characters, or one
    nested past the decoder's recursion limit, is refused before anything
    sized by its contents is allocated."""
    eye = [[float(i == j) for j in range(17)] for i in range(17)]
    fourier = np.exp(2j * np.pi * np.outer(range(17), range(17)) / 17) / math.sqrt(17)
    cells = [[{"re": z.real, "im": z.imag} for z in row] for row in fourier.tolist()]
    pair17 = tmp_path / "pair17.json"  # admissible: every overlap is 17 ** -0.5
    pair17.write_text(json.dumps({"pre": eye, "post": cells}))
    op17 = tmp_path / "op17.json"
    op17.write_text(json.dumps(eye))
    padded = tmp_path / "padded.json"  # a valid 2 x 2 operator past 1 MiB
    padded.write_text("[[0, 1], [1, 0]]" + " " * 2**20)
    row = tmp_path / "row.json"  # 600,000 entries in one row, 1.8 MB
    row.write_text(json.dumps([[0] * 600_000]))
    deep = tmp_path / "deep.json"  # 100,000 open lists, 100 KB
    deep.write_text("[" * 100_000)
    for argv, reason in (
        (["weak-table", "identity", f"file:{pair17}"], "at most 16 x 16"),
        (["weak-table", f"file:{op17}", "exclusive2"], "at most 16 x 16"),
        (["weak-table", f"file:{padded}", "exclusive2"], "over 1048576 characters"),
        (["weak-table", f"file:{row}", "exclusive2"], "over 1048576 characters"),
        (["weak-table", "sigma_x", f"file:{row}"], "over 1048576 characters"),
        (["birkhoff", "classify", "--file", str(row)], "over 1048576 characters"),
        (["weak-table", f"file:{deep}", "exclusive2"], "nested too deeply"),
        (["birkhoff", "classify", "--file", str(deep)], "nested too deeply"),
    ):
        tracemalloc.start()
        try:
            code, out, err = invoke(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert reason in err and err.startswith("error: ") and err.count("\n") == 1
        assert peak < 16 * 2**20


_THETA_ROUTES = (["weak-table", "sigma_x", "exclusive2"], ["reconstruct", "0.5,0.5"])


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(argv + [f"--theta={value}"], "--theta", id=f"argv{k}-{value}")
        for value in ("nan", "inf", "-inf")
        for k, argv in enumerate(_THETA_ROUTES)
    ]
    + [
        pytest.param(["weak-table", "sigma_x", "rotated2", "--theta", "abc"], "--theta",
                     id="theta-text"),
        pytest.param(["reconstruct", ",", "--theta", "0.5"], "tau", id="tau-empty"),
        pytest.param(["reconstruct", "a,b", "--theta", "0.5"], "tau", id="tau-text"),
        pytest.param(["reconstruct", "nan,1", "--theta", "0.9"], "tau", id="tau-nan"),
        pytest.param(["birkhoff", "classify", "--coeffs", "1e999,0"], "--coeffs",
                     id="coeffs-overflow"),
        pytest.param(["birkhoff", "sample", "--corners", "0,1.5,2", "--resolution", "4"],
                     "--corners", id="corners-fraction"),
        pytest.param(["birkhoff", "hypocycloid", "--corners", "inf,0,1"], "--corners",
                     id="corners-inf"),
        pytest.param(["birkhoff", "corners", "--n", "7"], "--n", id="n-7"),
        pytest.param(["birkhoff", "corners", "--n", "1"], "--n", id="n-1"),
    ],
)
def test_non_finite_theta_is_refused_when_parsed(argv, name, capsys):
    """Every number on the command line is read by the parser: a refusal is
    one error line that names its argument."""
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (4, "")
    assert f"argument {name}:" in err and err.count("\n") == 1


# One entry of a numeric argument: plain numbers, the non-finite spellings, a
# float overflow, negative zero, a 400-digit integer, and parts that are empty
# or not numbers at all.
_ENTRIES = st.one_of(
    st.integers(-1, 6).map(str),
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["nan", "-inf", "inf", "1e999", "-0", "1" * 400, "", " ", "x", "0x1"]),
)


def _listed(valid, min_size, max_size):
    """A comma-separated list: a valid one, or one of any entries."""
    junk = st.lists(_ENTRIES, min_size=min_size, max_size=max_size).map(",".join)
    return st.one_of(valid, junk).map(lambda text: [text])


def _weights(k):
    """k weights that sum to one."""
    return st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any).map(
        lambda w: ",".join(repr(x / sum(w)) for x in w)
    )


def _corners(m):
    return st.permutations(range(6)).map(lambda p: ",".join(map(str, p[:m])))


_THETA = st.one_of(st.floats(0.0, 3.2).map(repr), st.just(repr(math.pi / 2)), _ENTRIES)
_ARGV = st.one_of(
    st.tuples(
        st.just(["weak-table"]),
        st.sampled_from([["sigma_x"], ["sigma_theta"], ["L_z"], ["identity"]]),
        st.sampled_from([["exclusive2"], ["rotated2"], ["rotated3"]]),
        st.one_of(st.just([]), _THETA.map(lambda t: [f"--theta={t}"])),
    ),
    st.tuples(
        st.just(["reconstruct"]),
        _listed(st.sampled_from([2, 3]).flatmap(_weights), 0, 4),
        _THETA.map(lambda t: [f"--theta={t}"]),
    ),
    # 2 or 6 weights only: no n >= 4 search runs
    st.sampled_from([2, 6]).flatmap(
        lambda k: st.tuples(st.just(["birkhoff", "classify", "--coeffs"]),
                            _listed(_weights(k), k, k))
    ),
    st.tuples(
        st.just(["birkhoff", "sample", "--corners"]),
        _listed(st.sampled_from([3, 4]).flatmap(_corners), 0, 5),
        st.integers(2, 8).map(lambda r: ["--resolution", str(r)]),
    ),
    st.tuples(
        st.just(["birkhoff", "hypocycloid", "--corners"]),
        _listed(_corners(3), 0, 4),
        st.integers(3, 12).map(lambda r: ["--resolution", str(r)]),
    ),
    st.tuples(st.just(["birkhoff", "corners", "--n"]), st.integers(-1, 8).map(lambda n: [str(n)])),
).map(lambda parts: sum(parts, []))


def _finite_cell(text):
    return text.strip().lower() not in ("nan", "inf", "-inf", "infinity", "-infinity")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_ARGV, st.sampled_from(["json", "csv"]))
def test_every_argv_maps_to_a_documented_exit(argv, fmt):
    """argv drawn from the parser's grammar: an exit code of 0, 2, 3 or 4, no
    warning, a strict document with no NaN or inf on 0, and otherwise no
    document and one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + ["--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        assert err == "" and out.endswith("\n")
        if fmt == "json":
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {argv}"))
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["key", "value"]
            assert all(len(row) == 2 and _finite_cell(row[1]) for row in rows[1:]), argv
    else:
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith("error at indices" if code == 2 else "error: "), (argv, err)


# The contents of a file: input.  Leaves are numbers, booleans, null, strings
# and 400-digit integers; a cell is a leaf or an {"re", "im"} pair of any two
# leaves or lists.  Matrices are square or ragged, trees nest lists and
# objects, and the deep texts nest past the decoder's recursion limit.
_FILE_LEAVES = st.one_of(
    st.integers(-2, 2),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "1", "x", 10**400, -(10**400)]),
)
_FILE_CELLS = st.one_of(
    _FILE_LEAVES,
    st.fixed_dictionaries(
        {"re": _FILE_LEAVES | st.lists(_FILE_LEAVES, max_size=2), "im": _FILE_LEAVES}
    ),
)
_FILE_MATRICES = st.one_of(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_FILE_CELLS, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.lists(st.lists(_FILE_CELLS, max_size=3), max_size=3),
)
_FILE_TREES = st.recursive(
    _FILE_CELLS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["pre", "post", "re", "im", "x"]), kids, max_size=3),
    max_leaves=10,
)
_FILE_TEXTS = st.one_of(
    st.one_of(_FILE_MATRICES, _FILE_TREES).map(json.dumps),
    st.fixed_dictionaries({"pre": _FILE_MATRICES, "post": _FILE_MATRICES}).map(json.dumps),
    st.tuples(st.sampled_from([2, 900, 5_000, 100_000]), st.booleans()).map(
        lambda deep: "[" * deep[0] + "]" * deep[0] * deep[1]
    ),
)
_FILE_ROUTES = st.sampled_from(["operator", "basis", "classify"])
_FILE_CASES = st.one_of(
    st.tuples(_FILE_TEXTS, _FILE_ROUTES),
    # files that their route accepts, so that exit 0 is drawn on each, and a
    # basis pair with a vanishing overlap (exit 2)
    st.sampled_from([
        ("[[0, 1], [1, 0]]", "operator"),
        ('[[1, {"re": 0, "im": -1}], [{"re": 0, "im": 1}, -1]]', "operator"),
        ('{"pre": [[1, 0], [0, 1]], "post": [[0.6, 0.8], [0.8, -0.6]]}', "basis"),
        ('{"pre": [[1, 0], [0, 1]], "post": [[0, 1], [1, 0]]}', "basis"),
        ("[[0.5, 0.5], [0.5, 0.5]]", "classify"),
        ("[[0, 1], [1, 0]]", "classify"),
    ]),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_FILE_CASES)
def test_every_file_maps_to_a_documented_exit(tmp_path_factory, case):
    """Drawn file: contents, as a weak-table operator or basis or a classify
    matrix: an exit code of 0, 2, 3 or 4, no warning, a strict document and
    no error line on 0 and otherwise one error line, and a traced peak
    bounded whatever the file holds."""
    text, route = case
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    path.write_text(text)
    argv = {
        "operator": ["weak-table", f"file:{path}", "exclusive2"],
        "basis": ["weak-table", "sigma_x", f"file:{path}"],
        "classify": ["birkhoff", "classify", "--file", str(path)],
    }[route]
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (text[:200], route, code, err)
    if code == 0:
        assert err == "" and out.endswith("\n"), (text[:200], route)
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} from {text[:200]}"))
    else:
        assert out == "" and err.count("\n") == 1, (route, err)
        assert err.startswith("error at indices" if code == 2 else "error: "), (route, err)
    assert peak < 16 * 2**20, (text[:200], route, peak)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.5, 1.0], [np.nan, 2.0]]),
        np.array([[1j, 2.0], [complex(np.inf, 0.5), 0.0]]),
        np.array([1j, complex(0.5, np.nan), 0.0]),
        [0.5] * 10_000 + [float("nan")],  # reached after 10,000 rows have streamed
    ],
)
def test_non_finite_arrays_exit_four(bad, tmp_path, capsys, monkeypatch):
    """Each array passes one finiteness gate: NaN or inf anywhere exits 4, writing nothing."""

    def handler(args):
        return {"command": "birkhoff-corners", "n": args.n, "distances": bad}

    monkeypatch.setattr(cli, "_cmd_birkhoff_corners", handler)
    cli._build_parser.cache_clear()  # the parser binds its handlers once
    try:
        for fmt in ("json", "csv"):
            out_path = tmp_path / f"doc.{fmt}"
            argv = ["birkhoff", "corners", "--format", fmt]
            for extra in ([], ["--out", str(out_path)]):
                code, out, err = invoke(argv + extra, capsys)
                assert (code, out) == (4, "")
                assert err.startswith("error: refusing to write the non-finite number")
                assert not out_path.exists()
    finally:
        monkeypatch.undo()
        cli._build_parser.cache_clear()


def test_non_finite_sample_column_exits_four(tmp_path, capsys, monkeypatch):
    """The gate reads whole columns: a NaN in the last det, which a streaming
    render reaches only after most points are written, still writes nothing."""
    sample = birkhoff.sample_degenerate_surface

    def last_det_nan(corners, resolution):
        scan = sample(corners, resolution)
        dets = scan.dets.copy()
        dets[-1] = np.nan
        return dataclasses.replace(scan, dets=dets)

    monkeypatch.setattr(birkhoff, "sample_degenerate_surface", last_det_nan)
    argv = ["birkhoff", "sample", "--corners", "0,1,2", "--resolution", "96"]
    for fmt in ("json", "csv"):
        out_path = tmp_path / f"doc.{fmt}"
        for extra in ([], ["--out", str(out_path)]):
            code, out, err = invoke(argv + ["--format", fmt] + extra, capsys)
            assert (code, out) == (4, "")
            assert err == "error: refusing to write the non-finite number nan\n"
            assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["birkhoff", "sample", "--corners", "-1,0,1", "--resolution", "3"],
         "corner indices must lie in [0, 6)"),
        (["birkhoff", "classify", "--coeffs", "-0.5,1.5"], "probabilities must be nonnegative"),
        (["reconstruct", "-0.5,1.5", "--theta", "1"], "probabilities must be nonnegative"),
        # the block-wise grid keeps the hypocycloid's refusals
        (["birkhoff", "hypocycloid", "--resolution", "2"],
         "resolution must be at least 3, got 2"),
        (["birkhoff", "hypocycloid", "--resolution", "1000"],
         "the grid exceeds 131841 points or 527364 coordinates"),
        (["birkhoff", "hypocycloid", "--resolution", "1.5"],
         "weakvalues birkhoff hypocycloid: argument --resolution: invalid int value: '1.5'"),
    ],
)
def test_refusals_name_the_library_check(argv, message, capsys):
    """Each refusal names its own cause: a list that starts with a minus sign
    is a value, not an option, so its entries meet the library's checks."""
    assert invoke(argv, capsys) == (4, "", f"error: {message}\n")


def test_documents_are_written_as_they_are_rendered(tmp_path):
    """The largest mesh documents hold little beyond their inputs while written.

    With the whole text built first, the first three read 19.5, 19.4 and
    16.1 MiB traced; the hypocycloid then also held its whole 131,841-point
    grid.  The n = 5 corners read 5.65 MiB in both formats while their
    distances came from a (120, 120, 5, 5) difference.
    """
    runs = (
        (["birkhoff", "sample", "--corners", "0,3,2,1", "--resolution", "48"], 8),
        (["birkhoff", "sample", "--corners", "2,4,0", "--resolution", "192", "--format", "csv"],
         8),
        (["birkhoff", "hypocycloid", "--corners", "2,3,1", "--resolution", "512"], 8),
        (["birkhoff", "corners", "--n", "5"], 3),
        (["birkhoff", "corners", "--n", "5", "--format", "csv"], 3),
    )
    out_path = str(tmp_path / "doc")
    for argv, mib in runs:
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--out", out_path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < mib * 2**20, (argv, peak)


def test_check_sums_covers_the_whole_stack():
    stack = np.stack([np.eye(3), np.full((3, 3), 1 / 3), np.eye(3)[::-1]])
    cli._check_sums(stack, birkhoff.BISTOCHASTIC_TOL)
    for bad in (0.5, np.nan):
        broken = stack.copy()
        broken[2, 1, 1] = bad
        with pytest.raises(RuntimeError):
            cli._check_sums(broken, birkhoff.BISTOCHASTIC_TOL)


def test_self_check_accepts_what_the_library_accepts(tmp_path, capsys, monkeypatch):
    """weak-table's self-check holds large operators and bases within NORM_TOL."""

    def cells(matrix):
        return [[{"re": v.real, "im": v.imag} for v in row] for row in matrix.tolist()]

    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    big = tmp_path / "big.json"  # entries of about 1e6
    big.write_text(json.dumps(cells((z + z.conj().T) * 5e5)))
    dft = tmp_path / "dft.json"
    fourier = np.exp(0.5j * np.pi * np.outer(range(4), range(4))) / 2
    dft.write_text(json.dumps({"pre": cells(np.eye(4)), "post": cells(fourier)}))
    near = tmp_path / "near.json"  # orthonormal to 6e-11, inside NORM_TOL
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    near.write_text(
        json.dumps({"pre": cells(np.eye(2) * (1 + 3e-11)), "post": cells(hadamard)})
    )
    probes = (
        ["weak-table", f"file:{big}", f"file:{dft}"],
        ["weak-table", "sigma_x", f"file:{near}"],
    )
    for argv in probes:
        code, out, err = invoke(argv, capsys)
        assert (code, err) == (0, "") and json.loads(out)["command"] == "weak-table"

    expand = weakval.expand

    def off(table):
        return expand(table) + 1e-6 * np.max(np.abs(table.operator))

    monkeypatch.setattr(weakval, "expand", off)
    for argv in probes:
        with pytest.raises(RuntimeError, match="expansion residual"):
            cli.main(argv)


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


def test_csv_render_streams_its_rows():
    """A CSV render holds little beyond its text: no list of every row is built.

    4,753 points give 1.06 MB of text; a render that first collects its
    28,523 (key, value) rows peaks at about 8x the text beyond the document.
    """
    argv = ["birkhoff", "sample", "--corners", "0,1,2", "--resolution", "96"]
    args = cli._build_parser().parse_args(argv + ["--format", "csv"])
    document = args.handler(args)
    tracemalloc.start()
    try:
        text = cli._render(document, "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 10**6
    assert peak < 5 * len(text)


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


def test_classify_one_by_one_file(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text("[[1]]")
    code, out, _ = invoke(["birkhoff", "classify", "--file", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["bistochastic"] is True
    assert doc["unistochastic"] == "yes"
    assert doc["chain_links"] is None
    assert complex_matrix(doc["realizing_unitary"]).tolist() == [[1 + 0j]]


# Five 4 x 4 targets from the `requests` inputs of perfbench (seed/index
# 4/129, 7/343, 13/231, 14/291 and 18/116 into that seed's 600 4 x 4
# coefficient vectors).  At the default budget the zero and random starts
# stall near 1e-2 on each, and only the basin restarts realize them; a change
# to the search must keep these verdicts.
PATTERN_RESCUE_COEFFS = [
    [
        "0.006638868858636178", "0.21878136568329717", "8.668569266415895e-07",
        "0.006442071028067707", "0.06140119157884912", "0.020274187184943462",
        "0.06432493447886611", "0.0009540682560441703", "0.002272750957693451",
        "7.438185308139396e-17", "0.07767976126636197", "0.15355126579051562",
        "0.05717600738906631", "0.02261197861697492", "1.898161418293504e-06",
        "0.009312672123578348", "0.0015650329963115325", "3.3205218944548646e-07",
        "1.2555306069707996e-05", "8.005603662710011e-05", "0.24407793799671673",
        "1.4840504225931114e-06", "0.0004660883780120487", "0.05237262495241111",
    ],
    [
        "0.0005349750235330286", "0.012083383178455802", "7.983052514484699e-06",
        "0.2852871648354465", "0.11514031237999822", "0.00048062370444046176",
        "0.005156206826031674", "0.16404672543914167", "0.0036713703967838234",
        "0.011893983761161443", "3.062439625422524e-07", "1.525347333604252e-12",
        "0.001856061105668603", "1.4699911568604427e-05", "0.16666036628615077",
        "0.03362639642523842", "6.528150080249075e-06", "0.09830611254035812",
        "0.00010378799909044533", "0.09959579757906059", "0.0014060928729169879",
        "2.8887324210441764e-05", "2.0479550015958517e-05", "7.175541264572966e-05",
    ],
    [
        "0.018929889923736953", "0.038440032006988784", "6.542355401670874e-05",
        "1.6607967806326313e-05", "0.04898852359431215", "0.0003687932512777463",
        "0.008108798662360915", "0.0008469498150530261", "0.004018312892737311",
        "0.0013758425419384476", "0.0260666533765799", "0.002448097132817051",
        "0.5140093528274591", "0.0037788840923006187", "6.12476487940262e-06",
        "1.3584434659323228e-06", "0.019734623661812455", "0.05867248128806942",
        "0.0660917337247254", "0.11591901571416802", "0.053116922217537124",
        "0.004344870362409051", "0.012512341820493725", "0.0021383663630543887",
    ],
    [
        "0.22177638877232952", "0.10554342966223297", "0.002964293348174058",
        "0.2166594612887271", "0.13743374423950214", "0.00036595884648754536",
        "0.06771604451667365", "6.884446822329491e-05", "8.825833617818947e-06",
        "1.0034973672241916e-07", "0.0034796170034516343", "0.004539342936317013",
        "0.002358429591868902", "1.7728591874030356e-10", "6.872087744378123e-05",
        "0.05812816922051071", "0.09525997349037352", "0.011448133377536513",
        "0.001583175865835576", "0.0005325206202299479", "0.040957326220827636",
        "9.608273528107289e-06", "0.029097891019085838", "3.651431532608162e-17",
    ],
    [
        "1.1711224729892358e-05", "0.021235514901558478", "0.29615526330097053",
        "0.17157848801719738", "0.009048917013571528", "0.0012080328313364772",
        "8.681766153666027e-10", "6.327319191847524e-05", "0.021825702686632777",
        "1.557395674117841e-07", "0.042247146289893164", "0.005526931931819922",
        "5.316306244042138e-10", "0.17477938574678584", "7.085459286677168e-09",
        "0.0019704916461870206", "0.004555041533741249", "0.004668766938596669",
        "4.5270776777321554e-05", "0.013287481984406388", "0.03538486536465987",
        "0.17275549404257345", "2.436783510120521e-08", "0.02365203198397447",
    ],
]


def test_classify_keeps_the_pattern_rescue(capsys):
    for coeffs in PATTERN_RESCUE_COEFFS:
        code, out, _ = invoke(["birkhoff", "classify", "--coeffs", ",".join(coeffs)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["bistochastic"] is True
        assert doc["unistochastic"] == "yes", coeffs
        mu = np.array(doc["matrix"])
        u = complex_matrix(doc["realizing_unitary"])
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-9
        assert np.max(np.abs(np.abs(u) ** 2 - mu)) < 1e-9


def test_classify_rejects_non_bistochastic_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[0.9, 0.0], [0.0, 0.9]]))
    code, out, _ = invoke(["birkhoff", "classify", "--file", str(path)], capsys)
    assert code == 0  # classification is the answer, not an input error
    doc = json.loads(out)
    assert doc["bistochastic"] is False
    assert doc["unistochastic"] == "no"
    assert doc["chain_links"] is None and doc["realizing_unitary"] is None


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
    if isinstance(value, (np.ndarray, cli._Records)):  # records: the list of their dicts
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


def test_render_arrays_match_reference_on_every_shape():
    """Arrays of every rank and kind, empty ones and numpy scalars included;
    empty dicts and lists, a tuple of leaves, lists of lists and a list that
    mixes a dict with leaves, nested and at the top."""
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    document = {
        "vector": rng.standard_normal(4) * 10.0 ** rng.integers(-300, 300, 4),
        "complex": z,
        "ints": np.arange(-3, 9).reshape(2, 2, 3),
        "unsigned": np.arange(3, dtype=np.uint8),
        "bools": np.array([[True, False]]),
        "empty": np.zeros(0),
        "empty_rows": np.zeros((2, 0), dtype=complex),
        "scalar": np.float64(-0.0),
        "nested": [np.eye(2), {"inner": z[0, 0]}, np.array([1j])],
        "single": np.array([[[7.0]]]),
        "empty_dict": {},
        "empty_dicts": [{}, {"inner": {}}],
        "empty_list": [],
        "tuple": (None, True, 'a, "b"'),
        "lists": [[1, 2.5, "c"], [False], []],
        "mixed": [{"k": -0.0}, 3, "d"],
    }
    for doc in (document, {}, [{}]):
        for fmt in ("json", "csv"):
            assert cli._render(doc, fmt) == _ref_render(doc, fmt), (doc, fmt)
