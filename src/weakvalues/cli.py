"""Command-line front end.

Subcommands:

    weak-table   <operator> <basis> [--theta T]      weak values, weights, W set
    reconstruct  <tau> --theta T                     recover a mixture from outcomes
    birkhoff     classify|sample|hypocycloid|corners polytope classification and meshes

Exit codes: 0 ok, 2 vanishing overlap, 3 singular measurement, 4 bad input.
NaN and inf are refused: as input they are bad input, and a document that
would contain one exits 4 without writing anything.
Output is deterministic: identical invocations produce byte-identical
documents.  JSON serializes complex entries as {"re": x, "im": y} and floats
with 17 significant digits; CSV flattens the same document into key,value
rows with complex paths split into <path>_re / <path>_im.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import birkhoff, hilbert, reconstruct, weakval

EXIT_OK = 0
EXIT_OVERLAP = 2
EXIT_SINGULAR = 3
EXIT_INPUT = 4

OPERATOR_PRESETS = (
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "sigma_theta",
    "L_x",
    "L_y",
    "L_z",
    "L_theta",
    "gellmann_1..gellmann_8",
    "identity",
    "file:<path>",
)
BASIS_PRESETS = ("exclusive2", "rotated2", "rotated3", "file:<path>")
# Input files: the largest matrix a file may hold, and the most characters read
# from one (1 MiB of ASCII).  A weak-table document holds the n^4 W entries
# (3.9 MB of JSON at n = 16); a 16 x 16 basis pair file takes about 30 KB.
_MAX_FILE_N = 16
_MAX_FILE_CHARS = 2**20

__all__ = ["main", "run"]


_NEGATIVE = re.compile(r"-[0-9.]")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on usage errors; route them to exit 4.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    # argparse takes "-1,0,1" or "-.5,2" for an option (it knows only plain
    # negative numbers); any argument that starts "-" then a digit or "." is a value
    def _parse_optional(self, arg_string):
        if _NEGATIVE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


# ---------------------------------------------------------------------------
# serialization


class _Records:
    """Rows over equal-length columns, as the list of dicts they stand for.

    A row's dict is made only when a walk reaches it, from one block of the
    columns at a time, so no list of every row is ever built.
    """

    _BLOCK = 4096

    def __init__(self, **columns):
        self.columns = columns

    def __iter__(self):
        names, columns = tuple(self.columns), tuple(self.columns.values())
        for start in range(0, len(columns[0]), self._BLOCK):
            block = [c[start : start + self._BLOCK].tolist() for c in columns]
            for row in zip(*block):
                yield dict(zip(names, row))


# The text of one array entry by dtype kind; "%.17g" % x is format(x, ".17g").
_CELLS = {"i": "%d", "f": "%.17g", "c": '{"re": %.17g, "im": %.17g}'}


def _plain(value):
    """numpy values as Python lists and scalars (converted in C), except the
    nonempty numeric arrays, which the renderer formats as arrays."""
    if isinstance(value, (np.ndarray, np.generic)):
        if value.ndim and value.size and value.dtype.kind in _CELLS:
            return value
        return value.tolist()
    return value


def _components(a):
    """An array's real components in C order as Python scalars, re and im
    interleaved."""
    if a.dtype.kind == "c":
        a = np.stack([a.real, a.imag], axis=-1)
    return a.ravel().tolist()


def _check_finite(value):
    """The one finiteness gate, over the whole document before anything is
    written: one np.isfinite per array or column, math.isfinite per float
    leaf.  The first non-finite number raises ValueError."""
    if isinstance(value, (np.ndarray, np.generic)):
        if value.dtype.kind in "fc" and not np.isfinite(value).all():
            _check_finite(_components(value))  # names the first non-finite component
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"refusing to write the non-finite number {value!r}")
    elif isinstance(value, _Records):
        _check_finite(value.columns)
    elif isinstance(value, dict):
        for v in value.values():
            _check_finite(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _check_finite(v)


def _dumps_array(a, indent):
    # every row has the same layout: one template for the array, filled once
    text = "[" + ", ".join([_CELLS[a.dtype.kind]] * a.shape[-1]) + "]"
    for axis in range(a.ndim - 2, -1, -1):
        outer = "\n" + "  " * (indent + axis)
        inner = outer + "  "
        text = "[" + inner + ("," + inner).join([text] * a.shape[axis]) + outer + "]"
    return text % tuple(_components(a))


def _flatten_array(a, key):
    keys = [key]
    for size in a.shape:
        keys = [f"{k}/{i}" if k else str(i) for k in keys for i in range(size)]
    if a.dtype.kind == "c":
        keys = [k + part for k in keys for part in ("_re", "_im")]
    cell = _CELLS["f" if a.dtype.kind == "c" else a.dtype.kind]  # re, im are floats
    return zip(keys, map(cell.__mod__, _components(a)))


def _scalar(value, null):
    """A bool, None, int, float or string leaf as text; ``null`` spells None."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return null
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, str)):
        return str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dumps(value, indent=0):
    value = _plain(value)
    if isinstance(value, np.ndarray):
        return _dumps_array(value, indent)
    if isinstance(value, str):
        return json.dumps(value)
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_dumps(v, indent + 1)}" for k, v in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        value = [_plain(v) for v in value]
        if not any(isinstance(v, (list, tuple, dict, np.ndarray)) for v in value):
            return "[" + ", ".join(_dumps(v) for v in value) + "]"
        body = ",\n".join(f"{pad}  {_dumps(v, indent + 1)}" for v in value)
        return "[\n" + body + "\n" + pad + "]"
    return _scalar(value, "null")


def _write_json(value, write, indent=0):
    """Write the JSON text of value (what _dumps makes of a plain value) in
    pieces: a nonempty dict entry by entry and records row by row; every
    other value, one array or one row among them, goes whole."""
    pad = "  " * indent
    if isinstance(value, dict) and value:
        head = "{\n"
        for k, v in value.items():
            write(f"{head}{pad}  {json.dumps(k)}: ")
            _write_json(v, write, indent + 1)
            head = ",\n"
        write("\n" + pad + "}")
    elif isinstance(value, _Records):
        head = "[\n"
        for row in value:
            write(head + pad + "  " + _dumps(row, indent + 1))
            head = ",\n"
        write("[]" if head == "[\n" else "\n" + pad + "]")
    else:
        write(_dumps(value, indent))


def _flatten(value, key, writer):
    """Write the (key, text) rows under a dict, list or records into a csv
    writer as they are made, so no list of every row is built."""
    for k, v in value.items() if isinstance(value, dict) else enumerate(value):
        k = f"{key}/{k}" if key else str(k)
        v = _plain(v)
        if isinstance(v, np.ndarray):
            writer.writerows(_flatten_array(v, k))
        elif isinstance(v, (dict, list, tuple, _Records)):
            _flatten(v, k, writer)
        else:
            writer.writerow((k, _scalar(v, "")))


def _write(document, fmt, sink):
    """Write a document that _check_finite has passed into a text sink."""
    if fmt == "json":
        _write_json(document, sink.write)
        sink.write("\n")
    else:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(("key", "value"))
        _flatten(document, "", writer)


def _render(document, fmt):
    """A document's whole text: main's gate and walk, into a StringIO."""
    _check_finite(document)
    buf = io.StringIO()
    _write(document, fmt, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# input parsing: the argparse types below read every number on the command
# line, so a refusal names its argument ("argument tau: ...") and exits 4


def _finite_float(text):
    """A number that is neither NaN nor infinite: --theta, one list entry."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _finite_floats(text):
    """tau and --coeffs: comma-separated finite numbers; empty parts are skipped."""
    values = [_finite_float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"must list at least one number, got {text!r}")
    return values


def _integers(text):
    """--corners: comma-separated integers, written as numbers (1e0 is 1)."""
    values = _finite_floats(text)
    if not all(v == int(v) for v in values):
        raise argparse.ArgumentTypeError(f"must list integers, got {text!r}")
    return [int(v) for v in values]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_scalar(entry, where):
    if isinstance(entry, dict) and set(entry) == {"re", "im"}:
        parts = (entry["re"], entry["im"])
    else:
        parts = (entry, 0.0)
    if not all(map(_is_number, parts)):
        raise ValueError(f"{where}: entries must be numbers or {{\"re\", \"im\"}} pairs")
    try:
        value = complex(*map(float, parts))
    except OverflowError:  # an integer literal beyond the float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ValueError(f"{where}: entries must be finite")
    return value


def _json_matrix(rows, where):
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{where}: expected a list of rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ValueError(f"{where}: rows must be nonempty and equally long")
    if max(len(rows), width) > _MAX_FILE_N:  # counted before any entry is converted
        raise ValueError(
            f"{where}: a file matrix is at most {_MAX_FILE_N} x {_MAX_FILE_N}, "
            f"got {len(rows)} x {width}"
        )
    return np.array(
        [[_json_scalar(v, where) for v in row] for row in rows], dtype=complex
    )


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read(_MAX_FILE_CHARS + 1)  # never more, whatever the file's size
    if len(text) > _MAX_FILE_CHARS:
        raise ValueError(f"{path}: refusing a file over {_MAX_FILE_CHARS} characters")
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError(f"{path}: refusing a file nested too deeply") from None


def _build_basis(name, theta):
    if name == "exclusive2":
        return hilbert.exclusive_pair()
    if name in ("rotated2", "rotated3"):
        if theta is None:
            raise ValueError(f"basis {name!r} requires --theta")
        return hilbert.rotated_pair(int(name[-1]), theta)
    if name.startswith("file:"):
        data = _load_json(name[5:])
        if not isinstance(data, dict) or set(data) != {"pre", "post"}:
            raise ValueError("basis file must be a JSON object with keys 'pre' and 'post'")
        pre = _json_matrix(data["pre"], "pre").T  # one vector per row in the file
        post = _json_matrix(data["post"], "post").T
        return hilbert.BasisPair(pre, post)
    raise ValueError(f"unknown basis {name!r}; choose from {', '.join(BASIS_PRESETS)}")


# The presets that are one fixed matrix each (read-only: every call shares
# them), and the rotated families with their dimension.
_FIXED_OPERATORS = {
    **dict(zip(("sigma_x", "sigma_y", "sigma_z"), hilbert.pauli_matrices())),
    **dict(zip(("L_x", "L_y", "L_z"), hilbert.spin_one_matrices())),
    **{f"gellmann_{k}": g for k, g in enumerate(hilbert.gell_mann_matrices(), 1)},
}
for _op in _FIXED_OPERATORS.values():
    _op.setflags(write=False)
_ROTATED_OPERATORS = {"sigma_theta": 2, "L_theta": 3}


def _build_operator(name, theta, dim):
    if name in _FIXED_OPERATORS:
        return _FIXED_OPERATORS[name]
    if name in _ROTATED_OPERATORS:
        if theta is None:
            raise ValueError(f"operator {name!r} requires --theta")
        return hilbert.rotated_operator(_ROTATED_OPERATORS[name], theta)
    if name == "identity":
        return np.eye(dim, dtype=complex)
    if name.startswith("file:"):
        return hilbert.check_hermitian(_json_matrix(_load_json(name[5:]), "operator"))
    raise ValueError(
        f"unknown operator {name!r}; choose from {', '.join(OPERATOR_PRESETS)}"
    )


# ---------------------------------------------------------------------------
# commands


def _check_sums(mu, tol):
    """Row and column sums of one matrix or a stack of them (last two axes).

    Emitted tables are re-checked against the module invariants before
    serialization; violations abort instead of publishing bad numbers.
    """
    worst = birkhoff._sum_defect(mu)
    if not worst <= tol:
        raise RuntimeError(f"internal check failed: weight sums off by {worst:.3e}")


def _cmd_weak_table(args):
    pair = _build_basis(args.basis, args.theta)
    op = _build_operator(args.operator, args.theta, pair.dim)
    table = weakval.weak_value_table(op, pair)
    mu = weakval.overlap_matrix(pair)
    wset = weakval.w_operator_set(pair)
    # BasisPair holds |P^dagger P - 1| <= d = NORM_TOL entrywise for P = pre, post,
    # so |P P^dagger - 1|_2 <= n d (same spectrum).  Hence mu's sums are 1 within
    # (n + 1) d + n d^2, and expand = post post^dagger A pre pre^dagger is A within
    # n d (2 + n d) |A|_2 <= n^2 d (2 + n d) max|A| per entry.  3 n^2 d covers both.
    tol = 3 * pair.dim**2 * hilbert.NORM_TOL
    residual = float(np.max(np.abs(weakval.expand(table) - op)))
    if not residual <= tol * max(1.0, float(np.max(np.abs(op)))):
        raise RuntimeError(f"internal check failed: expansion residual {residual:.3e}")
    _check_sums(mu, tol)
    return {
        "command": "weak-table",
        "operator": args.operator,
        "basis": args.basis,
        "theta": args.theta,
        "dim": pair.dim,
        "weak_values": table.values,
        "mu": mu,
        "w_operators": wset,
    }


def _cmd_reconstruct(args):
    dim = len(args.tau)
    pair = hilbert.rotated_pair(dim, args.theta)
    solution = reconstruct.reconstruct_full(pair, args.tau)
    return {
        "command": "reconstruct",
        "dim": dim,
        "theta": args.theta,
        "tau": args.tau,
        "rho_psi": solution.rho_psi,
        "rho_phi_offdiag": solution.rho_phi_offdiag,
        "det_mu": solution.det_mu,
        "condition": solution.condition,
        "residual": solution.residual,
        "irreversible": False,  # reconstruct_full refuses a singular mu (exit 3)
        "physical": solution.physical,
    }


_FACTORIALS = {math.factorial(n): n for n in (2, 3, 4, 5)}


def _classify_input(args):
    if args.coeffs is not None:
        n = _FACTORIALS.get(len(args.coeffs))
        if n is None:
            raise ValueError(
                "--coeffs must list one weight per permutation corner "
                f"(2, 6, 24 or 120 values), got {len(args.coeffs)}"
            )
        return birkhoff.combine(args.coeffs, birkhoff.permutation_corners(n))
    mat = _json_matrix(_load_json(args.file), "matrix")
    if np.max(np.abs(mat.imag)) > 0.0:
        raise ValueError("matrix: bistochastic input must be real")
    mat = mat.real
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix: must be square")
    most = birkhoff._MAX_CORNER_N
    if mat.shape[0] > most:
        raise ValueError(
            f"matrix: classify takes at most {most} x {most}, "
            f"got {mat.shape[0]} x {mat.shape[0]}"
        )
    return mat


def _cmd_birkhoff_classify(args):
    mu = _classify_input(args)
    bistochastic = birkhoff.is_bistochastic(mu)
    det = birkhoff.degeneracy(mu)
    if bistochastic:
        cert = birkhoff.is_unistochastic(mu)
    else:
        cert = birkhoff.UnistochasticCertificate("no")
    return {
        "command": "birkhoff-classify",
        "matrix": mu,
        "bistochastic": bistochastic,
        "unistochastic": cert.verdict,
        "det": det,
        "irreversible": abs(det) <= birkhoff.DET_TOL,
        "chain_links": cert.chain_links,
        "realizing_unitary": cert.realizing_unitary,
    }


def _cmd_birkhoff_sample(args):
    scan = birkhoff.sample_degenerate_surface(tuple(args.corners), args.resolution)
    _check_sums(scan.matrices, birkhoff.BISTOCHASTIC_TOL)
    points = _Records(
        coefficients=scan.coefficients,
        det=scan.dets,
        degenerate=scan.degenerate,
        unistochastic=scan.unistochastic,
    )
    return {
        "command": "birkhoff-sample",
        "corners": list(scan.corner_indices),
        "resolution": scan.resolution,
        "points": points,
    }


def _cmd_birkhoff_hypocycloid(args):
    coeffs = birkhoff.hypocycloid_boundary(args.resolution, corners=tuple(args.corners))
    # order the locus as a polyline: sweep by angle around the triangle center
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    rel = coeffs @ verts - np.array([0.5, math.sqrt(3.0) / 6.0])
    order = np.lexsort((np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])))
    return {
        "command": "birkhoff-hypocycloid",
        "corners": args.corners,
        "resolution": args.resolution,
        "points": coeffs[order],
    }


def _cmd_birkhoff_corners(args):
    corners = birkhoff.permutation_corners(args.n)
    return {
        "command": "birkhoff-corners",
        "n": args.n,
        "corners": corners.astype(int),
        "distances": birkhoff.distance(corners[:, None], corners[None, :]),
    }


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(prog="weakvalues", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    wt = sub.add_parser(
        "weak-table", parents=[common], help="weak-value table, weights, W set"
    )
    wt.add_argument("operator", help=", ".join(OPERATOR_PRESETS))
    wt.add_argument("basis", help=", ".join(BASIS_PRESETS))
    wt.add_argument("--theta", type=_finite_float, default=None, help="angle in radians")
    wt.set_defaults(handler=_cmd_weak_table)

    rc = sub.add_parser(
        "reconstruct", parents=[common], help="recover a mixture from outcome statistics"
    )
    rc.add_argument("tau", type=_finite_floats, help="comma-separated outcome probabilities")
    rc.add_argument("--theta", type=_finite_float, required=True, help="angle in radians")
    rc.set_defaults(handler=_cmd_reconstruct)

    bk = sub.add_parser("birkhoff", help="doubly stochastic matrix geometry")
    bks = bk.add_subparsers(dest="subcommand", required=True)

    cl = bks.add_parser("classify", parents=[common], help="classify one matrix")
    route = cl.add_mutually_exclusive_group(required=True)
    route.add_argument("--coeffs", type=_finite_floats, help="corner weights, comma-separated")
    route.add_argument("--file", default=None, help="JSON matrix file")
    cl.set_defaults(handler=_cmd_birkhoff_classify)

    sm = bks.add_parser("sample", parents=[common], help="grid-sample a corner patch")
    sm.add_argument(
        "--corners", type=_integers, default="0,1,2,3", help="corner indices, comma-separated"
    )
    sm.add_argument("--resolution", type=int, default=64)
    sm.set_defaults(handler=_cmd_birkhoff_sample)

    hy = bks.add_parser(
        "hypocycloid", parents=[common], help="closure-equality boundary polyline"
    )
    hy.add_argument("--corners", type=_integers, default="0,3,4", help="three corner indices")
    hy.add_argument("--resolution", type=int, default=256)
    hy.set_defaults(handler=_cmd_birkhoff_hypocycloid)

    co = bks.add_parser("corners", parents=[common], help="corner list plus distances")
    co.add_argument("--n", type=int, choices=range(2, 6), default=3)
    co.set_defaults(handler=_cmd_birkhoff_corners)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as err:  # --help exits argparse directly
        return EXIT_OK if not err.code else EXIT_INPUT
    try:
        document = args.handler(args)
        _check_finite(document)  # before stdout or --out is touched
        if args.out:  # an --out that cannot be opened is bad input too
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                _write(document, args.format, fh)
        else:
            _write(document, args.format, sys.stdout)
    except weakval.OverlapTooSmall as err:
        print(f"error at indices (l={err.l}, j={err.j}): {err}", file=sys.stderr)
        return EXIT_OVERLAP
    except reconstruct.SingularMeasurement as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def run():
    sys.exit(main())
