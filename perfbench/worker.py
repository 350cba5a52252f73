"""The workload process: import the program, warm up, run the closed loop.

Started by ``run.py`` in a fresh process per workload run, with the BLAS and
OpenMP pools pinned to one thread and ``src`` of the checkout on
``PYTHONPATH``.  It speaks one JSON message per line on stdout: ``ready``
once set-up is over, one ``op`` per call, and ``done`` at the end.  After
each ``op`` it waits for one line on stdin, so the next call is sent only
after the previous one has returned and been checked (one client, closed
loop).  Only the calls themselves are timed.

    python3 perfbench/worker.py JOBS_JSON WORKDIR --workload W --seconds S
        [--trace 0|1] [--min-cycles K] [--min-ops N] [--spans PATH] [--probe]
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

import inputs

# A run that has not met its stopping rule by then ends anyway, so that the
# process always exits well inside the benchmark's time limit.
MAX_LOOP_WALL_S = 120.0


def encode(array):
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


class Session:
    def __init__(self, args, jobs):
        from weakvalues import birkhoff, cli, hilbert, reconstruct, weakval

        self.cli, self.hilbert, self.weakval = cli, hilbert, weakval
        self.reconstruct, self.birkhoff = reconstruct, birkhoff
        self.workdir = args.workdir
        self.arrays = {}
        if "arrays" in jobs:
            with np.load(jobs["arrays"]) as data:
                self.arrays = {k: data[k] for k in data.files}
        self.pool = inputs.load_pool(jobs.get("pool", []))
        self.last_dt = 0.0

    def call_cli(self, argv, out_path=None):
        """cli.main with stdout and stderr captured; returns (dt, rc, text, err)."""
        if out_path is not None:
            argv = argv + ["--out", out_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            finally:
                self.last_dt = time.perf_counter() - t0
        return self.last_dt, rc, out.getvalue(), err.getvalue()

    def run(self, job, index):
        """Run one job; returns (dt, message) where message is sent for checking."""
        kind = job["kind"]
        self.last_dt = 0.0
        msg = {}
        try:
            if kind == "cli":
                path = None
                if "fmt" in job:
                    path = os.path.join(self.workdir, f"doc-{index}.{job['fmt']}")
                dt, rc, text, err = self.call_cli(job["argv"], path)
                msg.update(rc=rc, stderr=err[-500:])
                if path is None:
                    msg["doc"] = text
                else:
                    msg["path"] = path
                return dt, msg
            msg["arrays"] = self._library(job)
            msg["outcome"] = "ok"
        except (self.weakval.OverlapTooSmall, self.reconstruct.SingularMeasurement) as exc:
            msg["outcome"] = type(exc).__name__
        except Exception as exc:  # a crash is a failed op, not a dead run
            msg["outcome"] = f"raised {type(exc).__name__}: {exc}"
        return self.last_dt, msg

    def _library(self, job):
        """A direct library call, timed into ``last_dt``; returns its arrays."""
        kind, clock = job["kind"], time.perf_counter
        if kind == "search":
            batches = [self.arrays[tag][job["index"]] for tag in ("batch3", "batch4")]
            results = []
            t0 = clock()
            try:
                for targets, seed in zip(batches, job["rng"]):
                    results.append(self.birkhoff.unitary_phase_search(targets, rng=seed))
            finally:
                self.last_dt = clock() - t0
            out = {}
            for n, (unitaries, ok) in zip((3, 4), results):
                out[f"unitaries{n}"], out[f"ok{n}"] = encode(unitaries), encode(ok)
            return out
        pre, post, op = self.pool[job["pool"]]
        t0 = clock()
        try:
            pair = self.hilbert.BasisPair(pre, post)
            if kind == "reconstruct_full":
                sol = self.reconstruct.reconstruct_full(pair, job["tau"])
            else:
                table = self.weakval.weak_value_table(op, pair)
                expanded = self.weakval.expand(table)
        finally:
            self.last_dt = clock() - t0
        if kind == "reconstruct_full":
            return {"rho_psi": encode(sol.rho_psi)}
        return {"values": encode(table.values), "expanded": encode(expanded)}

    def warm_up(self, workload):
        """Untimed calls that load every code path the workload uses."""
        if workload == "mesh-cli":
            for argv in (
                ["birkhoff", "sample", "--corners", "0,1,2,3", "--resolution", "4"],
                ["birkhoff", "sample", "--corners", "0,3,4", "--resolution", "6", "--format", "csv"],
                ["birkhoff", "hypocycloid", "--resolution", "16"],
                ["birkhoff", "corners", "--n", "3", "--format", "csv"],
            ):
                path = os.path.join(self.workdir, "warm-up.doc")
                self.call_cli(argv, path)
                os.remove(path)
        elif workload == "oracle-batch":
            for tag in ("batch3", "batch4"):
                self.birkhoff.unitary_phase_search(self.arrays[tag][0][:4], rng=0)
        else:
            pre, post, op = self.pool[0]
            flat4 = ",".join([repr(1 / 24)] * 24)
            for argv in (
                ["weak-table", "sigma_x", "exclusive2"],
                ["reconstruct", "0.75,0.25", "--theta", "0.9"],
                ["birkhoff", "classify", "--coeffs", "0,0,0,0.5,0.5,0"],
                ["birkhoff", "classify", "--coeffs", flat4],
            ):
                self.call_cli(argv)
            pair = self.hilbert.BasisPair(pre, post)
            self.reconstruct.reconstruct_full(pair, np.full(pre.shape[0], 1 / pre.shape[0]))
            self.weakval.expand(self.weakval.weak_value_table(op, pair))


def peak_rss_kb():
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's pages from before ``exec``,
    so the kernel's per-image ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def send(message):
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("workdir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--min-cycles", type=int, default=1)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    import weakvalues
    import weakvalues.cli  # noqa: F401  (part of set-up, as for a user)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(weakvalues.__file__).startswith(src + os.sep):
        raise SystemExit(f"weakvalues was imported from {weakvalues.__file__}, not {src}")

    t0 = time.monotonic()
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)
    session = Session(args, jobs)
    inputs_s = time.monotonic() - t0
    session.warm_up(args.workload)
    send({"event": "ready", "t": time.monotonic(), "inputs_s": inputs_s})
    if args.probe:
        return

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cycles = jobs["cycles"]
    durations = []
    busy = 0.0
    loop_start = time.monotonic()
    cycle = 0
    while True:
        for j, job in enumerate(cycles[cycle % len(cycles)]):
            index = len(durations)
            if tracer is not None:
                tracer.op = index
            dt, msg = session.run(job, index)
            if tracer is not None:
                tracer.op = -1
            durations.append(dt)
            busy += dt
            msg.update(event="op", cycle=cycle % len(cycles), job=j, dt=dt)
            send(msg)
            sys.stdin.readline()
            if time.monotonic() - loop_start > MAX_LOOP_WALL_S:
                break
        else:
            cycle += 1
            if busy >= args.seconds and cycle >= args.min_cycles and len(durations) >= args.min_ops:
                break
            continue
        break

    done = {
        "event": "done",
        "peak_rss_kb": peak_rss_kb(),
        "cycles": cycle,
        "loop_wall_s": time.monotonic() - loop_start,
    }
    if tracer is not None:
        tracer.uninstall()
        self_sum = tracer.self_by_op(len(durations))
        over = self_sum > np.asarray(durations) + 1e-9
        done["layers"] = tracer.layer_metrics()
        done["self_time_overruns"] = int(over.sum())
        if args.spans:
            tracer.write(args.spans)
    send(done)


if __name__ == "__main__":
    main()
