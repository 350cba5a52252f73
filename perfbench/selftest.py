"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. The quick mode of every workload, untraced and traced, must finish with
   zero failed calls and no span whose self time overruns its call.
2. The checker must accept real documents of every kind and reject each of
   them once a digit is flipped or a number is replaced by NaN.  The flipped
   digit is the leading digit of a number the check covers in full (for
   ``sample`` documents: a grid coefficient, since only a seeded subset of
   determinants is recomputed).
3. The library checks must reject a realized unitary that is not unitary,
   and a reconstruction that misses tau.
4. In a directory holding only the benchmark, ``run.py`` must fail without
   printing a result.

Exits 0 when every case passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import check
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def run_bench(*args, cwd=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def number_spans(text, fmt, tag):
    """(start, end) of the numbers a flip may target."""
    spans = []
    if fmt == "csv":
        offset = 0
        for line in text.splitlines(keepends=True):
            key, _, value = line.rstrip("\n").rpartition(",")
            if tag.startswith("sample") and "/coefficients/" not in key:
                pass
            elif re.fullmatch(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", value):
                start = offset + len(key) + 1
                spans.append((start, start + len(value)))
            offset += len(line)
    else:
        allowed = None
        if tag.startswith("sample"):
            allowed = [m.span() for m in re.finditer(r'"coefficients": \[[^\]]*\]', text)]
        for m in NUMBER.finditer(text):
            if m.group().startswith('"'):
                continue
            if allowed is not None and not any(a <= m.start() < b for a, b in allowed):
                continue
            spans.append(m.span())
    return [(a, b) for a, b in spans if abs(float(text[a:b])) >= 0.01]


def flip_digit(text, span):
    a, b = span
    token = text[a:b]
    k = next(i for i, ch in enumerate(token) if ch in "123456789")
    digit = str(int(token[k]) % 9 + 1)
    return text[: a + k] + digit + text[a + k + 1 :]


def documents(pool_dir):
    """(tag, fmt, text, job, pool) for a real document of every kind."""
    sys.path.insert(0, os.path.abspath("src"))
    from weakvalues import cli

    out = []
    for workload in ("mesh-cli", "requests"):
        jobs, _, _ = inputs.build(workload, 5, True, pool_dir)
        pool = inputs.load_pool(jobs.get("pool", []))
        seen = set()
        for job in jobs["cycles"][0]:
            if job["kind"] != "cli" or job.get("expect") != [inputs.EXIT_OK]:
                continue
            for fmt in ("json", "csv"):
                kind = (job["tag"], "pool" in job, fmt)
                if kind in seen:
                    continue
                seen.add(kind)
                argv = list(job["argv"])
                if "--format" in argv:
                    argv[argv.index("--format") + 1] = fmt
                else:
                    argv += ["--format", fmt]
                path = os.path.join(pool_dir, "doc")
                if cli.main(argv + ["--out", path]) != 0:
                    raise RuntimeError(f"program failed on {argv}")
                with open(path, encoding="utf-8") as fh:
                    out.append((job["tag"], fmt, fh.read(), job, pool))
    return out


def main():
    failures = []

    def expect(ok, what):
        print(("pass " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in ("mesh-cli", "oracle-batch", "requests"):
        for trace in ("0", "1"):
            res = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                            "--trace", trace, "--quick")
            lines = res.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            expect(res.returncode == 0 and result.get("correct") is True
                   and result.get("failed") == 0 and result.get("attempted", 0) > 0,
                   f"quick {workload} trace {trace}: {result.get('attempted')} calls, "
                   f"{result.get('failed')} failed")

    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.abspath(".perfbench"))
    try:
        for tag, fmt, text, job, pool in documents(scratch):
            reason, _ = check.check_document(text, job, pool, fmt)
            expect(reason is None, f"{tag} {fmt}: real document accepted ({reason})")
            spans = number_spans(text, fmt, tag)
            rng = np.random.default_rng(len(text))
            for k in rng.choice(len(spans), min(3, len(spans)), replace=False):
                reason, _ = check.check_document(flip_digit(text, spans[k]), job, pool, fmt)
                expect(reason is not None, f"{tag} {fmt}: flipped digit rejected ({reason})")
            a, b = spans[0]
            for nan in ("nan", "NaN"):
                reason, _ = check.check_document(text[:a] + nan + text[b:], job, pool, fmt)
                expect(reason is not None, f"{tag} {fmt}: {nan} rejected ({reason})")

        targets = inputs.stratified_mixtures(np.random.default_rng(1), 3, 1.0, 4)[1]
        u = np.sqrt(targets).astype(complex)  # right moduli, not unitary
        reason = check.check_search(targets, u, np.ones(4, dtype=bool))
        expect(reason is not None, f"search: non-unitary realization rejected ({reason})")
        jobs, _, _ = inputs.build("requests", 5, True, scratch)
        pool = inputs.load_pool(jobs["pool"])
        job = {"kind": "reconstruct_full", "pool": 0, "tau": [1.0 / pool[0][0].shape[0]] * pool[0][0].shape[0]}
        reason = check.check_library(job, {"rho_psi": np.asarray(job["tau"]) * 1.01}, pool)
        expect(reason is not None, f"reconstruct_full: wrong rho_psi rejected ({reason})")

        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        res = run_bench("--workload", "requests", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        expect(res.returncode != 0 and '"metrics"' not in res.stdout,
               f"without the program: exit {res.returncode}, no result printed")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
