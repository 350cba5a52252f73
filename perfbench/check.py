"""Independent checks of everything the workloads produce.

Each check recomputes its reference from the job's own inputs with numpy
(see ``inputs.py``) and never calls the program.  A check returns ``None``
when the output is right and a one-line reason when it is not.  Documents
are parsed strictly: anything that is not valid JSON or CSV, or that holds a
NaN or an infinity, is rejected.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math

import numpy as np

import inputs

REBUILD_TOL = 1e-10  # operator rebuilt from a weak-value table
MATCH_TOL = 1e-12  # numbers the document repeats from its input
UNITARY_TOL = 1e-9  # realized unitaries: unitarity and moduli
SLACK_TOL = 1e-9  # closure / polygon slack of a realized or refused target
SUBSET = 64  # sample points whose determinants are recomputed


class CheckError(ValueError):
    pass


def decode(blob):
    data = base64.b64decode(blob["b64"])
    return np.frombuffer(data, dtype=np.dtype(blob["dtype"])).reshape(blob["shape"])


# ---------------------------------------------------------------------------
# parsing


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite number {text!r}")
    return value


def _constant(text):
    raise CheckError(f"non-finite constant {text!r}")


def _cell(text):
    if text in ("true", "false"):
        return text == "true"
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):
        raise CheckError(f"non-finite number {text!r}")
    return value


def _listify(node):
    if not isinstance(node, dict):
        return node
    node = {k: _listify(v) for k, v in node.items()}
    if node and all(k.isdigit() for k in node) and set(node) != {"re", "im"}:
        if sorted(int(k) for k in node) != list(range(len(node))):
            raise CheckError("CSV list indices are not contiguous")
        return [node[str(i)] for i in range(len(node))]
    return node


def parse(text, fmt):
    """The document as plain Python data, in the JSON document's shape."""
    if fmt == "json":
        try:
            return json.loads(text, parse_float=_finite, parse_constant=_constant)
        except json.JSONDecodeError as err:
            raise CheckError(f"invalid JSON: {err}") from None
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["key", "value"] or any(len(r) != 2 for r in rows[1:]):
        raise CheckError("invalid CSV: expected key,value rows under a header")
    root = {}
    last_prefix, last_node = None, root
    for key, text_value in rows[1:]:
        prefix, _, leaf = key.rpartition("/")
        part = None
        if leaf[-3:] in ("_re", "_im") and leaf[:-3].isdigit():
            leaf, part = leaf[:-3], leaf[-2:]
        if prefix != last_prefix:
            node = root
            for p in prefix.split("/") if prefix else ():
                node = node.setdefault(p, {})
                if not isinstance(node, dict):
                    raise CheckError(f"CSV key {key!r} clashes with a scalar")
            last_prefix, last_node = prefix, node
        value = _cell(text_value)
        if part is None:
            last_node[leaf] = value
        else:
            last_node.setdefault(leaf, {})[part] = value
    return _listify(root)


def _complex(value):
    """Nested lists of {"re", "im"} pairs (or plain numbers) as a complex array."""
    if isinstance(value, dict):
        return complex(value["re"], value["im"])
    if isinstance(value, list):
        return [_complex(v) for v in value]
    return complex(value)


def carray(value):
    return np.asarray(_complex(value), dtype=complex)


def farray(value):
    return np.asarray(value, dtype=float)


# ---------------------------------------------------------------------------
# shared mathematics


def unitary_error(u, mu):
    """None when u is unitary to UNITARY_TOL and |u|^2 matches mu."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    gram = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(n)), axis=(-2, -1))
    moduli = np.max(np.abs(np.abs(u) ** 2 - mu), axis=(-2, -1))
    bad = (gram > UNITARY_TOL) | (moduli > UNITARY_TOL)
    if np.any(bad):
        k = int(np.flatnonzero(np.atleast_1d(bad))[0])
        return (f"unitary {k} off: gram {np.atleast_1d(gram)[k]:.2e}, "
                f"moduli {np.atleast_1d(moduli)[k]:.2e}")
    return None


def rebuild_error(values, mu, w_ops, op):
    """Largest deviation of sum wv * mu * W from the operator."""
    rebuilt = np.einsum("lj,lj,ljab->ab", values, mu, w_ops)
    return float(np.max(np.abs(rebuilt - op)))


def transition_operators(pre, post):
    g = post.conj().T @ pre
    outer = post.T[:, None, :, None] * pre.conj().T[None, :, None, :]
    return outer / g.conj()[:, :, None, None]


# ---------------------------------------------------------------------------
# documents


def check_weak_table(doc, job, pool):
    if "pool" in job:
        pre, post, op = pool[job["pool"]]
    else:
        pre, post = inputs.preset_basis(job["basis"], job["theta"])
        op = inputs.preset_operator(job["op"], job["theta"], pre.shape[0])
        if doc["theta"] != job["theta"]:
            return "weak-table: theta differs from the request"
    n = pre.shape[0]
    values, mu, w_ops = carray(doc["weak_values"]), farray(doc["mu"]), carray(doc["w_operators"])
    if doc["dim"] != n or values.shape != (n, n) or w_ops.shape != (n, n, n, n):
        return "weak-table: wrong shapes"
    own_mu = np.abs(post.conj().T @ pre) ** 2
    if np.max(np.abs(mu - own_mu)) > MATCH_TOL:
        return "weak-table: mu differs from |<phi|psi>|^2"
    err = rebuild_error(values, mu, w_ops, op)
    if err > REBUILD_TOL:
        return f"weak-table: operator rebuilt from the table is off by {err:.2e}"
    return None


def check_reconstruct(doc, job, pool):
    g = inputs.rotated_basis(job["dim"], job["theta"]).conj().T  # <phi_l|psi_j>
    mu = np.abs(g) ** 2
    rho = farray(doc["rho_psi"])
    tau = np.asarray(job["tau"])
    if doc["dim"] != job["dim"] or doc["theta"] != job["theta"] or doc["tau"] != job["tau"]:
        return "reconstruct: header differs from the request"
    scale = max(1.0, float(np.max(np.abs(rho))))
    err = float(np.max(np.abs(mu @ rho - tau)))
    if err > REBUILD_TOL * scale:
        return f"reconstruct: mu @ rho_psi misses tau by {err:.2e}"
    # the post-basis state is G diag(rho) G^dagger; its off-diagonal part
    state = g @ np.diag(rho) @ g.conj().T
    offdiag = carray(doc["rho_phi_offdiag"])
    err = float(np.max(np.abs(offdiag - (state - np.diag(np.diag(state))))))
    if err > REBUILD_TOL * scale:
        return f"reconstruct: off-diagonals differ from G diag(rho) G^+ by {err:.2e}"
    det = abs(float(np.linalg.det(mu)))
    if abs(float(doc["det_mu"]) - det) > MATCH_TOL:
        return "reconstruct: det_mu differs"
    sv = np.linalg.svd(mu, compute_uv=False)
    if abs(float(doc["condition"]) - sv[-1] / sv[0]) > 1e-9:
        return "reconstruct: condition differs from smin/smax of mu"
    if doc["irreversible"] is not False or doc["physical"] != bool(
        np.min(rho) >= -1e-9 and np.max(rho) <= 1 + 1e-9
    ):
        return "reconstruct: irreversible/physical flags are wrong"
    return None


def check_verdict(mu, verdict, unitary):
    """The verdict against the independent slack and the realized unitary."""
    n = mu.shape[-1]
    slack = float(inputs.target_slack(mu))
    if verdict == "yes":
        if unitary is None:
            return "'yes' without a realizing unitary"
        err = unitary_error(unitary, mu)
        if err:
            return err
        if slack < -SLACK_TOL:
            return f"'yes' but the {'closure' if n == 3 else 'polygon'} slack is {slack:.2e}"
    elif verdict == "no":
        if slack > SLACK_TOL and n == 3:
            return f"'no' but the closure slack is {slack:.2e}"
        if slack > SLACK_TOL and n >= 4:
            return f"'no' but the polygon condition holds (slack {slack:.2e})"
    elif verdict != "unknown" or n <= 3:
        return f"verdict {verdict!r} is not allowed for n = {n}"
    return None


def check_classify(doc, job, pool):
    n = job["n"]
    mu = np.einsum("m,mij->ij", np.asarray(job["coeffs"]), inputs.permutation_matrices(n))
    if np.max(np.abs(farray(doc["matrix"]) - mu)) > MATCH_TOL:
        return "classify: matrix differs from the corner combination"
    if doc["bistochastic"] is not True:
        return "classify: a corner combination reported as not bistochastic"
    det = float(np.linalg.det(mu))
    if abs(float(doc["det"]) - det) > MATCH_TOL:
        return "classify: det differs"
    if abs(abs(det) - inputs.DET_TOL) > MATCH_TOL and doc["irreversible"] != (abs(det) <= inputs.DET_TOL):
        return "classify: irreversible flag is wrong"
    if n == 3:
        links = np.sqrt(mu[:, 0] * mu[:, 1])
        if np.max(np.abs(farray(doc["chain_links"]) - links)) > MATCH_TOL:
            return "classify: chain links differ"
    elif doc.get("chain_links") is not None:
        return "classify: chain links for n > 3"
    unitary = doc.get("realizing_unitary")
    err = check_verdict(mu, doc["unistochastic"], None if unitary is None else carray(unitary))
    return None if err is None else "classify: " + err


def check_sample(doc, job, pool):
    r, corners = job["r"], job["corners"]
    m = len(corners)
    points = doc.get("points", [])
    if doc["corners"] != corners or doc["resolution"] != r:
        return "sample: header differs from the request"
    if len(points) != math.comb(r + m - 1, m - 1):
        return f"sample: {len(points)} points, expected C({r + m - 1}, {m - 1})"
    coeffs = farray([p["coefficients"] for p in points])
    steps = coeffs * r
    if coeffs.shape != (len(points), m) or np.max(np.abs(steps - np.round(steps))) > 1e-9:
        return "sample: coefficients are not on the grid"
    if np.max(np.abs(coeffs.sum(axis=1) - 1.0)) > MATCH_TOL:
        return "sample: coefficients do not sum to one"
    if len(np.unique(np.round(steps).astype(int), axis=0)) != len(points):
        return "sample: grid points repeat"
    rng = np.random.default_rng([r, m] + corners)
    stack = inputs.permutation_matrices(3)[corners]
    for i in rng.choice(len(points), min(SUBSET, len(points)), replace=False):
        mat = np.einsum("m,mij->ij", coeffs[i], stack)
        det = float(np.linalg.det(mat))
        point = points[i]
        if abs(float(point["det"]) - det) > MATCH_TOL:
            return f"sample: det of point {i} is {point['det']}, expected {det!r}"
        if abs(abs(det) - 0.5 / r) > MATCH_TOL and point["degenerate"] != (abs(det) < 0.5 / r):
            return f"sample: degenerate flag of point {i} is wrong"
        slack = float(inputs.closure_slack(mat))
        if abs(slack) > SLACK_TOL and point["unistochastic"] != (slack >= 0):
            return f"sample: unistochastic flag of point {i} is wrong"
    return None


def _grid3(r):
    i, j = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
    keep = i + j <= r
    return np.stack([i[keep], j[keep], r - i[keep] - j[keep]], axis=1)


def check_hypocycloid(doc, job, pool):
    r, corners = job["r"], job["corners"]
    if doc["corners"] != corners or doc["resolution"] != r:
        return "hypocycloid: header differs from the request"
    points = farray(doc.get("points", [])).reshape(-1, 3)
    steps = points * r
    if points.size and np.max(np.abs(steps - np.round(steps))) > 1e-9:
        return "hypocycloid: points are not on the grid"
    grid = _grid3(r)
    mats = np.einsum("pm,mij->pij", grid / r, inputs.permutation_matrices(3)[corners])
    defect = np.abs(inputs.closure_slack(mats)) - 2.0 / r
    must = {tuple(p) for p in grid[defect < -SLACK_TOL]}
    may = {tuple(p) for p in grid[defect <= SLACK_TOL]}
    got = [tuple(p) for p in np.round(steps).astype(int)]
    if len(set(got)) != len(got) or not must <= set(got) <= may:
        return "hypocycloid: the locus differs from the closure-equality band"
    return None


def check_corners(doc, job, pool):
    n = job["n"]
    corners = inputs.permutation_matrices(n)
    if doc["n"] != n or farray(doc["corners"]).shape != corners.shape:
        return "corners: wrong shape"
    if np.any(farray(doc["corners"]) != corners):
        return "corners: not the permutation matrices in lexicographic order"
    agree = np.einsum("aij,bij->ab", corners, corners)
    if np.max(np.abs(farray(doc["distances"]) - np.sqrt(2.0 * (n - agree)))) > MATCH_TOL:
        return "corners: distances are not sqrt(2 (n - fixed points))"
    return None


DOCUMENT_CHECKS = {
    "weak-table": check_weak_table,
    "reconstruct": check_reconstruct,
    "classify3": check_classify,
    "classify4": check_classify,
    "sample4": check_sample,
    "sample3": check_sample,
    "hypocycloid": check_hypocycloid,
    "corners": check_corners,
}


def check_document(text, job, pool, fmt="json"):
    """Parse and check one CLI document; returns (reason or None, parsed doc)."""
    try:
        doc = parse(text, fmt)
        return DOCUMENT_CHECKS[job["tag"]](doc, job, pool), doc
    except CheckError as err:
        return f"{job['tag']}: {err}", None
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return f"{job['tag']}: malformed document ({type(err).__name__}: {err})", None


# ---------------------------------------------------------------------------
# library results


def check_search(targets, unitaries, ok):
    """Every realized target: unitary, right moduli, and slack not negative."""
    ok = np.asarray(ok, dtype=bool)
    if ok.shape != targets.shape[:1] or unitaries.shape != targets.shape:
        return "search: result shapes differ from the batch"
    if not ok.any():
        return None
    err = unitary_error(unitaries[ok], targets[ok])
    if err:
        return "search: realized " + err
    slack = inputs.target_slack(targets[ok])
    if np.min(slack) < -SLACK_TOL:
        return f"search: realized a target with slack {np.min(slack):.2e}"
    return None


def check_library(job, arrays, pool):
    pre, post, op = pool[job["pool"]]
    g = post.conj().T @ pre
    mu = np.abs(g) ** 2
    if job["kind"] == "reconstruct_full":
        rho = arrays["rho_psi"]
        tau = np.asarray(job["tau"])
        err = float(np.max(np.abs(mu @ rho - tau)))
        if err > REBUILD_TOL * max(1.0, float(np.max(np.abs(rho)))):
            return f"reconstruct_full: mu @ rho_psi misses tau by {err:.2e}"
        return None
    err = float(np.max(np.abs(arrays["expanded"] - op)))
    if err > REBUILD_TOL:
        return f"expand: misses the operator by {err:.2e}"
    err = rebuild_error(arrays["values"], mu, transition_operators(pre, post), op)
    if err > REBUILD_TOL:
        return f"weak_value_table: operator rebuilt from the table is off by {err:.2e}"
    return None
