"""The weakvalues benchmark: one workload per run, or every workload at once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; without it the benchmark exits with an error and no result.

A run builds the workload's inputs from the seed, measures set-up in fresh
processes, then starts one fresh worker process (``worker.py``) that calls
the program in a closed loop: one client, each call sent after the previous
one has returned.  Every output is checked here, outside the timed region,
by ``check.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it print every metric by name and unit,
including the workload-specific ones that are not gated, the document
digest and the machine.  ``--all`` runs every workload untraced and traced,
prints the tracing overhead, and writes ``.perfbench/results-seed<N>.json``.
``--quick`` shrinks every workload to one small cycle (see ``selftest.py``).

``oracle-batch`` is not listed in ``BENCHMARK.json``: the search's cost per
target is heavy-tailed, so its throughput spreads across seeds more than a
gate can allow at this run length.  It still runs here and in ``--all``.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads, here and in every child.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
SETUP_PROBES = 8  # extra set-up measurements; the measured run adds one more

# Per workload: cycles every run completes (the digest and realized_fraction
# cover exactly these, so they do not depend on speed) and the fewest calls
# a run makes (requests: at least ten calls beyond p99).
PLAN = {
    "mesh-cli": {"min_cycles": 1, "min_ops": 0},
    "oracle-batch": {"min_cycles": 4, "min_ops": 0},
    "requests": {"min_cycles": 5, "min_ops": 1000},
}

# The gated metrics: present and non-zero on every workload.  The others are
# printed by name and unit but not gated.
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "latency_p50_ms")


class BenchError(RuntimeError):
    pass


def machine_info():
    try:
        dep = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "threads": "BLAS/OpenMP pinned to 1",
    }


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


class Worker:
    """One worker process and its line protocol."""

    def __init__(self, jobs_path, workdir, workload, seconds, trace, plan, spans=None, probe=False):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), jobs_path, workdir,
            "--workload", workload, "--seconds", repr(seconds), "--trace", str(trace),
            "--min-cycles", str(plan["min_cycles"]), "--min-ops", str(plan["min_ops"]),
        ]
        if spans:
            cmd += ["--spans", spans]
        if probe:
            cmd.append("--probe")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env()
        )

    def receive(self):
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError(f"worker ended early with exit code {self.proc.returncode}")
        return json.loads(line)

    def ack(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()

    def setup_s(self, ready):
        return ready["t"] - self.spawned - ready["inputs_s"]

    def close(self):
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


class Tally:
    """Outcomes of the checked calls, and the counts the metrics need."""

    def __init__(self, jobs, arrays, pool, digest_cycles):
        self.jobs, self.arrays, self.pool = jobs, arrays, pool
        self.digest_cycles = digest_cycles
        self.digest = hashlib.sha256()
        self.digest_docs = 0
        self.dts, self.failures = [], []
        self.bytes_out = 0
        self.points = 0
        self.targets = 0
        self.first_targets = self.first_realized = 0

    def record(self, msg):
        job = self.jobs["cycles"][msg["cycle"]][msg["job"]]
        first = len(self.dts) < self._first_ops()
        self.dts.append(msg["dt"])
        reason = self._check(job, msg, first)
        if reason:
            self.failures.append(f"op {len(self.dts) - 1} ({job['tag']}): {reason}")

    def _first_ops(self):
        return sum(len(c) for c in self.jobs["cycles"][: self.digest_cycles])

    def _add_digest(self, data):
        self.digest.update(len(data).to_bytes(8, "little") + data)
        self.digest_docs += 1

    def _check(self, job, msg, first):
        if job["kind"] == "cli":
            if "rc" not in msg:
                return msg.get("outcome", "no exit code")
            text = msg.get("doc")
            if "path" in msg and os.path.exists(msg["path"]):
                with open(msg["path"], "rb") as fh:
                    text = fh.read().decode("utf-8")
                os.remove(msg["path"])
            if msg["rc"] not in job["expect"]:
                return f"exit code {msg['rc']}, expected {job['expect']}: {msg.get('stderr', '')}"
            if msg["rc"] != inputs.EXIT_OK:
                return None if not text else "output on a failing exit code"
            data = text.encode("utf-8")
            self.bytes_out += len(data)
            if first:
                self._add_digest(data)
            reason, doc = check.check_document(text, job, self.pool, job.get("fmt", "json"))
            if doc is not None and job["tag"] in ("sample3", "sample4", "hypocycloid"):
                self.points += len(doc.get("points", []))
            return reason
        if job["kind"] == "search":
            if msg.get("outcome") != "ok":
                return msg.get("outcome")
            got = {k: check.decode(v) for k, v in msg["arrays"].items()}
            for n in (3, 4):
                targets = self.arrays[f"batch{n}"][job["index"]]
                ok, unitaries = got[f"ok{n}"], got[f"unitaries{n}"]
                self.targets += len(targets)
                if first:
                    self.first_targets += len(targets)
                    self.first_realized += int(ok.sum())
                    self._add_digest(ok.tobytes() + unitaries.tobytes())
                reason = check.check_search(targets, unitaries, ok)
                if reason:
                    return f"{n}x{n} batch: {reason}"
            return None
        expected = inputs.expected_library(job, self.pool)
        if msg.get("outcome") not in expected:
            return f"outcome {msg.get('outcome')!r}, expected {expected}"
        if msg["outcome"] != "ok":
            return None
        got = {k: check.decode(v) for k, v in msg["arrays"].items()}
        if first:
            self._add_digest(b"".join(got[k].tobytes() for k in sorted(got)))
        return check.check_library(job, got, self.pool)


def run_workload(workload, seed, seconds, trace, quick=False):
    """Run one workload once; returns the result dict (see ``main``)."""
    plan = dict(PLAN[workload])
    if quick:
        plan = {"min_cycles": 1, "min_ops": 0}
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.abspath(os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        jobs, arrays, jobs_path = inputs.build(workload, seed, quick, workdir)
        pool = inputs.load_pool(jobs.get("pool", []))
        setups = []
        for _ in range(SETUP_PROBES):
            probe = Worker(jobs_path, workdir, workload, seconds, 0, plan, probe=True)
            try:
                setups.append(probe.setup_s(probe.receive()))
            finally:
                probe.close()
        spans_path = None
        if trace:
            spans_path = os.path.abspath(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv"))
        tally = Tally(jobs, arrays, pool, plan["min_cycles"])
        worker = Worker(jobs_path, workdir, workload, seconds, trace, plan, spans=spans_path)
        try:
            setups.append(worker.setup_s(worker.receive()))
            while True:
                msg = worker.receive()
                if msg["event"] == "done":
                    break
                tally.record(msg)
                worker.ack()
        finally:
            worker.close()
        if worker.proc.returncode != 0:
            raise BenchError(f"worker exited with code {worker.proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, seed, trace, tally, msg, setups, spans_path)


def summarize(workload, seed, trace, tally, done, setups, spans_path):
    """Print every metric by name and unit; return the result dict."""
    dts = np.asarray(tally.dts)
    busy = float(dts.sum())
    attempted, failed = len(dts), len(tally.failures)
    p99 = percentile(dts, 99)
    beyond = int(np.sum(dts > p99))
    mb = tally.bytes_out / 1e6
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine_info(),
        "cycles": done["cycles"],
        "busy_s": busy,
        "loop_wall_s": done["loop_wall_s"],
        "doc_sha256": tally.digest.hexdigest(),
        "digest_items": tally.digest_docs,
        "setup_samples_s": setups,
        "failures": tally.failures[:20],
    }
    report = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (done["peak_rss_kb"] / 1024.0, "MB"),
        "ops_per_s": (attempted / busy, "1/s"),
        "latency_p50_ms": (percentile(dts, 50) * 1e3, "ms"),
        "latency_p99_ms": (p99 * 1e3, "ms"),
        "error_rate": (failed / attempted, "ratio"),
    }
    if workload == "mesh-cli":
        report["output_mb_per_s"] = (mb / busy, "MB/s")
        report["mesh_points_per_s"] = (tally.points / busy, "1/s")
    if workload == "oracle-batch":
        report["targets_per_s"] = (tally.targets / busy, "1/s")
        report["realized_fraction"] = (tally.first_realized / tally.first_targets, "ratio")
    correct = failed == 0
    if trace:
        layers = {k: tuple(v) for k, v in done["layers"].items()}
        layers["cli.main.bytes_out"] = (tally.bytes_out, "bytes")
        layers["trace.ops_per_s"] = (attempted / busy, "1/s")
        info["spans_file"] = spans_path
        info["self_time_overruns"] = done["self_time_overruns"]
        correct = correct and done["self_time_overruns"] == 0
        metrics = layers
    else:
        metrics = {k: report[k] for k in END_TO_END}
    print(f"# workload {workload}  seed {seed}  trace {trace}  "
          f"{attempted} calls in {done['cycles']} cycles, {busy:.2f} s timed")
    for key in ("machine", "doc_sha256", "digest_items", "setup_samples_s"):
        print(f"info {key} {json.dumps(info[key])}")
    for name, (value, unit) in report.items():
        note = f"  (n={attempted}, {beyond} beyond p99)" if name.startswith("latency") else ""
        print(f"metric {name} {value!r} {unit}{note}")
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value!r} {unit}")
        print(f"info self_time_overruns {done['self_time_overruns']}  spans {spans_path}")
    if workload == "requests" and beyond < 10:
        print(f"warning: only {beyond} calls beyond p99")
    for line in tally.failures[:20]:
        print(f"failure {line}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "info": info,
    }


def run_all(seed, seconds, quick):
    results = {}
    for workload in PLAN:
        for trace in (0, 1):
            results[f"{workload}/trace{trace}"] = run_workload(workload, seed, seconds, trace, quick)
    print("# tracing overhead: ops_per_s untraced vs traced")
    for workload in PLAN:
        plain = results[f"{workload}/trace0"]["report"]["ops_per_s"]["value"]
        traced = results[f"{workload}/trace1"]["report"]["ops_per_s"]["value"]
        print(f"overhead {workload} untraced {plain!r} traced {traced!r} "
              f"slowdown {plain / traced - 1:.4f}")
    path = os.path.join(OUT_DIR, f"results-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"# results written to {path}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{key}.{name}": metric
            for key, result in results.items() if key.endswith("trace0")
            for name, metric in result["report"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLAN))
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one small cycle per workload")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not os.path.isfile(os.path.join("src", "weakvalues", "__init__.py")):
        print("error: run from the root of a weakvalues checkout (src/weakvalues is missing)",
              file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.quick)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
