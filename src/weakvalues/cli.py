"""Command-line front end.

Subcommands:

    weak-table   <operator> <basis> [--theta T]      weak values, weights, W set
    reconstruct  <tau> --theta T [--dim 2|3]         recover a mixture from outcomes
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
import sys

import numpy as np

from . import birkhoff, hilbert, reconstruct, weakval

EXIT_OK = 0
EXIT_OVERLAP = 2
EXIT_SINGULAR = 3
EXIT_INPUT = 4

# Emitted tables are re-checked against the module invariants before
# serialization; violations abort instead of publishing bad numbers.
EXPANSION_TOL = 1e-10

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

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on usage errors; route them to exit 4.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# serialization


def _fmt(x):
    if not math.isfinite(x):
        raise ValueError(f"refusing to write the non-finite number {x!r}")
    return format(x, ".17g")


def _plain(value):
    """numpy arrays and scalars as Python lists and scalars (converted in C)."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _scalar(value, null):
    """A bool, None, int, float or string leaf as text; ``null`` spells None."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return null
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (int, str)):
        return str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dumps(value, indent=0):
    value = _plain(value)
    if isinstance(value, complex):
        return '{"re": %s, "im": %s}' % (_fmt(value.real), _fmt(value.imag))
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
        if not any(isinstance(v, (list, tuple, dict)) for v in value):
            return "[" + ", ".join(_dumps(v) for v in value) + "]"
        body = ",\n".join(f"{pad}  {_dumps(v, indent + 1)}" for v in value)
        return "[\n" + body + "\n" + pad + "]"
    return _scalar(value, "null")


def _flatten(value, key, rows):
    value = _plain(value)
    if isinstance(value, complex):
        rows.append((f"{key}_re", _fmt(value.real)))
        rows.append((f"{key}_im", _fmt(value.imag)))
    elif isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{key}/{k}" if key else k, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{key}/{i}" if key else str(i), rows)
    else:
        rows.append((key, _scalar(value, "")))


def _render(document, fmt):
    if fmt == "json":
        return _dumps(document) + "\n"
    rows = [("key", "value")]
    _flatten(document, "", rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# input parsing


def _parse_floats(text, what):
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise ValueError(f"{what} is empty")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return values


def _parse_ints(text, what):
    values = _parse_floats(text, what)
    out = []
    for v in values:
        if v != int(v):
            raise ValueError(f"{what} must be integers, got {text!r}")
        out.append(int(v))
    return out


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
    return np.array(
        [[_json_scalar(v, where) for v in row] for row in rows], dtype=complex
    )


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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


def _build_operator(name, theta, dim):
    if name in ("sigma_x", "sigma_y", "sigma_z"):
        op = dict(zip(("sigma_x", "sigma_y", "sigma_z"), hilbert.pauli_matrices()))[name]
    elif name in ("L_x", "L_y", "L_z"):
        op = dict(zip(("L_x", "L_y", "L_z"), hilbert.spin_one_matrices()))[name]
    elif name in ("sigma_theta", "L_theta"):
        if theta is None:
            raise ValueError(f"operator {name!r} requires --theta")
        op = hilbert.rotated_operator(2 if name == "sigma_theta" else 3, theta)
    elif name.startswith("gellmann_"):
        try:
            k = int(name[len("gellmann_") :])
        except ValueError:
            k = 0
        if not 1 <= k <= 8:
            raise ValueError("Gell-Mann operators are gellmann_1 .. gellmann_8")
        op = hilbert.gell_mann_matrices()[k - 1]
    elif name == "identity":
        op = np.eye(dim, dtype=complex)
    elif name.startswith("file:"):
        op = _json_matrix(_load_json(name[5:]), "operator")
        hilbert.check_hermitian(op)
    else:
        raise ValueError(
            f"unknown operator {name!r}; choose from {', '.join(OPERATOR_PRESETS)}"
        )
    if op.shape != (dim, dim):
        raise ValueError(
            f"operator {name!r} is {op.shape[0]}x{op.shape[1]} but the basis has dimension {dim}"
        )
    return op


# ---------------------------------------------------------------------------
# commands


def _check_sums(mu):
    """Row and column sums of one matrix or a stack of them (last two axes)."""
    worst = float(np.max(np.abs([mu.sum(axis=-1) - 1.0, mu.sum(axis=-2) - 1.0])))
    if not worst <= birkhoff.BISTOCHASTIC_TOL:
        raise RuntimeError(f"internal check failed: weight sums off by {worst:.3e}")


def _cmd_weak_table(args):
    pair = _build_basis(args.basis, args.theta)
    op = _build_operator(args.operator, args.theta, pair.dim)
    table = weakval.weak_value_table(op, pair)
    mu = weakval.overlap_matrix(pair)
    wset = weakval.w_operator_set(pair)
    residual = float(np.max(np.abs(weakval.expand(table) - op)))
    if not residual <= EXPANSION_TOL:
        raise RuntimeError(f"internal check failed: expansion residual {residual:.3e}")
    _check_sums(mu)
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
    tau = _parse_floats(args.tau, "tau")
    dim = len(tau) if args.dim is None else args.dim
    if dim != len(tau):
        raise ValueError(f"--dim {args.dim} does not match {len(tau)} outcome probabilities")
    if dim not in (2, 3):
        raise ValueError("reconstruction presets cover dimensions 2 and 3")
    pair = hilbert.rotated_pair(dim, args.theta)
    solution = reconstruct.reconstruct_full(pair, tau)
    irreversible, det = reconstruct.is_irreversible(pair)
    return {
        "command": "reconstruct",
        "dim": dim,
        "theta": args.theta,
        "tau": tau,
        "rho_psi": solution.rho_psi,
        "rho_phi_offdiag": solution.rho_phi_offdiag,
        "det_mu": det,
        "condition": solution.condition,
        "residual": solution.residual,
        "irreversible": irreversible,
        "physical": solution.physical,
    }


_FACTORIALS = {math.factorial(n): n for n in (2, 3, 4, 5)}
# The largest matrix classify takes: the n <= 8 of permutation_corners.  The
# n >= 4 search cost grows steeply with n, so larger files are refused.
_MAX_CLASSIFY_N = 8


def _classify_input(args):
    if (args.coeffs is None) == (args.file is None):
        raise ValueError("provide exactly one of --coeffs or --file")
    if args.coeffs is not None:
        coeffs = _parse_floats(args.coeffs, "--coeffs")
        n = _FACTORIALS.get(len(coeffs))
        if n is None:
            raise ValueError(
                "--coeffs must list one weight per permutation corner "
                f"(2, 6, 24 or 120 values), got {len(coeffs)}"
            )
        return birkhoff.combine(coeffs, birkhoff.permutation_corners(n))
    mat = _json_matrix(_load_json(args.file), "matrix")
    if np.max(np.abs(mat.imag)) > 0.0:
        raise ValueError("matrix: bistochastic input must be real")
    mat = mat.real
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix: must be square")
    if mat.shape[0] > _MAX_CLASSIFY_N:
        raise ValueError(
            f"matrix: classify takes at most {_MAX_CLASSIFY_N} x {_MAX_CLASSIFY_N}, "
            f"got {mat.shape[0]} x {mat.shape[0]}"
        )
    return mat


def _cmd_birkhoff_classify(args):
    mu = _classify_input(args)
    bistochastic = birkhoff.is_bistochastic(mu)
    det = birkhoff.degeneracy(mu)
    if bistochastic:
        cert = birkhoff.is_unistochastic(mu)
        verdict = cert.verdict
        links = None if cert.chain_links is None else list(cert.chain_links)
        unitary = cert.realizing_unitary
    else:
        verdict, links, unitary = "no", None, None
    return {
        "command": "birkhoff-classify",
        "matrix": mu,
        "bistochastic": bistochastic,
        "unistochastic": verdict,
        "det": det,
        "irreversible": abs(det) <= birkhoff.DET_TOL,
        "chain_links": links,
        "realizing_unitary": unitary,
    }


# The largest grid the CLI builds: a triangle at resolution 512.
_MAX_GRID_POINTS = math.comb(514, 2)


def _grid_resolution(value, low, corners):
    """``value`` once its grid over ``corners`` corners is known to be small enough."""
    if value < low:
        raise ValueError(f"--resolution must be at least {low}, got {value}")
    count = math.comb(value + corners - 1, corners - 1)
    if count > _MAX_GRID_POINTS:
        raise ValueError(
            f"--resolution {value} over {corners} corners gives {count} grid points; "
            f"the limit is {_MAX_GRID_POINTS}"
        )
    return value


def _cmd_birkhoff_sample(args):
    corners = _parse_ints(args.corners, "--corners")
    scan = birkhoff.sample_degenerate_surface(
        tuple(corners), _grid_resolution(args.resolution, 2, len(corners))
    )
    _check_sums(scan.matrices)
    points = [
        {"coefficients": c, "det": d, "degenerate": g, "unistochastic": u}
        for c, d, g, u in zip(
            scan.coefficients.tolist(),
            scan.dets.tolist(),
            scan.degenerate.tolist(),
            scan.unistochastic.tolist(),
        )
    ]
    return {
        "command": "birkhoff-sample",
        "corners": list(scan.corner_indices),
        "resolution": scan.resolution,
        "points": points,
    }


def _cmd_birkhoff_hypocycloid(args):
    corners = _parse_ints(args.corners, "--corners")
    coeffs = birkhoff.hypocycloid_boundary(
        _grid_resolution(args.resolution, 3, 3), corners=tuple(corners)
    )
    # order the locus as a polyline: sweep by angle around the triangle center
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    rel = coeffs @ verts - np.array([0.5, math.sqrt(3.0) / 6.0])
    order = np.lexsort((np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])))
    return {
        "command": "birkhoff-hypocycloid",
        "corners": corners,
        "resolution": args.resolution,
        "points": coeffs[order],
    }


def _cmd_birkhoff_corners(args):
    if not 2 <= args.n <= 5:
        raise ValueError("--n must lie in [2, 5] for the distance table")
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
    wt.add_argument("--theta", type=float, default=None, help="angle in radians")
    wt.set_defaults(handler=_cmd_weak_table)

    rc = sub.add_parser(
        "reconstruct", parents=[common], help="recover a mixture from outcome statistics"
    )
    rc.add_argument("tau", help="comma-separated outcome probabilities")
    rc.add_argument("--theta", type=float, required=True, help="angle in radians")
    rc.add_argument("--dim", type=int, choices=(2, 3), default=None)
    rc.set_defaults(handler=_cmd_reconstruct)

    bk = sub.add_parser("birkhoff", help="doubly stochastic matrix geometry")
    bks = bk.add_subparsers(dest="subcommand", required=True)

    cl = bks.add_parser("classify", parents=[common], help="classify one matrix")
    cl.add_argument("--coeffs", default=None, help="corner weights, comma-separated")
    cl.add_argument("--file", default=None, help="JSON matrix file")
    cl.set_defaults(handler=_cmd_birkhoff_classify)

    sm = bks.add_parser("sample", parents=[common], help="grid-sample a corner patch")
    sm.add_argument("--corners", default="0,1,2,3", help="corner indices, comma-separated")
    sm.add_argument("--resolution", type=int, default=64)
    sm.set_defaults(handler=_cmd_birkhoff_sample)

    hy = bks.add_parser(
        "hypocycloid", parents=[common], help="closure-equality boundary polyline"
    )
    hy.add_argument("--corners", default="0,3,4", help="three corner indices")
    hy.add_argument("--resolution", type=int, default=256)
    hy.set_defaults(handler=_cmd_birkhoff_hypocycloid)

    co = bks.add_parser("corners", parents=[common], help="corner list plus distances")
    co.add_argument("--n", type=int, default=3)
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
        text = _render(args.handler(args), args.format)
    except weakval.OverlapTooSmall as err:
        print(f"error at indices (l={err.l}, j={err.j}): {err}", file=sys.stderr)
        return EXIT_OVERLAP
    except reconstruct.SingularMeasurement as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def run():
    sys.exit(main())
