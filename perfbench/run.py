"""chernrep benchmark: runs one workload of CLI cases and prints its metrics.

    python3 perfbench/run.py --workload chern-classes --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run it from anywhere; it uses the checkout it lives in (`src/` on
PYTHONPATH, nothing installed).  Load is one closed-loop client: one case
at a time, each case a fresh `python -m chernrep` subprocess, followed by
the same case in a warm worker process through `chernrep.cli.run`, with an
interpreter-start sample before each case.  The first pass over the cases
always completes; further samples are taken while `--seconds` allows, and
every time metric is built from the upper quartile of each case's samples
(see upper_quartile).

--trace 1 instead runs one pass in an untraced and a traced warm worker, case
by case, and prints the per-layer metrics derived from the spans (see
tracer.py).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Every case's exit code, stdout digest and error line
is checked: a mismatch, a traceback or an exception escaping cli.run counts
in `failed`; `correct` is false when any stdout differs from its reference.
Details and provenance go to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from cases import ANY, WORKLOADS, workload_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CASE_LIMIT_S = 60
ERROR_LINE = re.compile(r"^error\[([^\]]+)\]: ", re.M)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_references():
    path = HERE / "references.json"
    with open(path) as f:
        refs = json.load(f)["cases"]
    return {cid: sha256(r["stdout"].encode()) for cid, r in refs.items()}


def load_metric_units():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_python(args, env):
    """Run `python <args>` in a child; returns (seconds, exit, stdout bytes,
    stderr text, max RSS in KiB) from the child's own rusage."""
    stdout_path, stderr_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(stdout_path, "wb") as fo, open(stderr_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, env=env, cwd=ROOT
        )
        watchdog = threading.Timer(CASE_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        seconds,
        proc.returncode,
        stdout_path.read_bytes(),
        stderr_path.read_text(errors="replace"),
        usage.ru_maxrss,
    )


class Worker:
    """A warm interpreter running cases through chernrep.cli.run."""

    def __init__(self, env, spans=None):
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--spans", str(spans)] if spans else [])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        )
        hello = self._read()
        if not hello["chernrep"].startswith(str(SRC)):
            self.proc.kill()
            self.proc.communicate()
            raise BenchError(f"worker imported chernrep from {hello['chernrep']}, not {SRC}")

    def _read(self):
        watchdog = threading.Timer(CASE_LIMIT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            self.proc.wait()
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def run(self, case_no, case):
        self.proc.stdin.write(json.dumps({"case": case_no, "argv": list(case.argv)}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.proc.kill()
        self.proc.stdin.close()
        code = self.proc.wait(timeout=CASE_LIMIT_S)
        self.proc.stdout.close()
        if code and exc_type is None:
            raise BenchError(f"worker exited with code {code}")


class Checker:
    """Compares each run with the case's reference and tallies the result.

    An operation is one case of the pass in one mode (subprocess, in-process
    or traced); it fails when any of its runs fails.  So `attempted` and
    `failed` depend on the case list alone, not on how many repeats fit
    into the run."""

    def __init__(self, refs):
        self.refs = refs
        self.empty = sha256(b"")
        self.operations = set()
        self.failed = {}  # (case number, mode) -> its first failing run
        self.runs = 0
        self.wrong_output = 0

    def check(self, case_no, mode, case, exit_code, stdout_sha, stderr, exception=None):
        self.operations.add((case_no, mode))
        self.runs += 1
        if case.refused:
            want_exit, want_code = case.refused
            want_sha = self.empty
        else:
            want_exit, want_code = 0, None
            want_sha = self.refs[case.id]
        problems = []
        if exception:
            problems.append(f"exception escaped cli.run: {exception}")
        elif exit_code != want_exit and not (want_exit == ANY and exit_code in (1, 2)):
            problems.append(f"exit {exit_code}, expected {want_exit}")
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        if want_code:
            codes = ERROR_LINE.findall(stderr)
            if not codes or (want_code != ANY and want_code not in codes):
                problems.append(f"no error[{want_code}] line on stderr")
        if stdout_sha != want_sha:
            problems.append("stdout digest differs from the reference")
            self.wrong_output += 1
        if problems:
            self.failed.setdefault((case_no, mode), {"mode": mode, "case": case.id, "problems": problems})

    @property
    def failures(self):
        return list(self.failed.values())

    def summary(self):
        return {
            "correct": self.wrong_output == 0,
            "attempted": len(self.operations),
            "failed": len(self.failed),
        }


def run_case_subprocess(case_no, case, env, checker):
    seconds, code, stdout, stderr, rss_kib = run_python(["-m", "chernrep", *case.argv], env)
    checker.check(case_no, "subprocess", case, code, sha256(stdout), stderr)
    return seconds, rss_kib


def run_case_warm(worker, case_no, case, checker, mode="in-process"):
    r = worker.run(case_no, case)
    checker.check(case_no, mode, case, r["exit"], r["stdout_sha256"], r["stderr"], r["exception"])
    return r["seconds"]


def upper_quartile(samples):
    """The third quartile of a case's samples; the sample itself when there
    is one.  The machines this runs on switch between a baseline speed and
    spells up to a third faster that last seconds to a minute, so the
    median of a case lands in either mode depending on how much of the run
    was fast.  The upper quartile stays in the baseline mode unless nearly
    the whole run was fast (README.md, "Noise")."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def setup_sample(env):
    seconds, code, _, stderr, _ = run_python(["-c", "import chernrep.cli"], env)
    if code != 0:
        raise BenchError(f"`import chernrep.cli` failed:\n{stderr}")
    return seconds


def timed_run(cases, seconds, env, checker):
    """End-to-end metrics, tracing off.  The first pass runs every case in
    seed order.  Then, while samples fit before the deadline, the next
    sample goes to the case that most reduces the noise of the summed
    per-case estimates per second spent: a case of cost c with n samples
    adds about c^2/n to the variance, so the pick is the largest
    c/(n(n+1))."""
    setup = []
    wall = [[] for _ in cases]
    compute = [[] for _ in cases]
    rss = []
    deadline = time.perf_counter() + seconds

    def sample(i):
        setup.append(setup_sample(env))
        t, kib = run_case_subprocess(i, cases[i], env, checker)
        wall[i].append(t)
        rss.append(kib)
        compute[i].append(run_case_warm(worker, i, cases[i], checker))

    def fits(i):
        return time.perf_counter() + setup[-1] + wall[i][-1] + compute[i][-1] <= deadline

    def gain(i):
        n = len(wall[i])
        return (wall[i][0] + compute[i][0]) / (n * (n + 1))

    with Worker(env) as worker:
        for i in range(len(cases)):
            sample(i)
        while fitting := [i for i in range(len(cases)) if fits(i)]:
            sample(max(fitting, key=gain))
    per_case_wall = [upper_quartile(w) for w in wall]
    metrics = {
        "setup_s": upper_quartile(setup),
        "wall_s": sum(per_case_wall),
        "compute_s": sum(upper_quartile(c) for c in compute),
        "case_geomean_s": math.exp(statistics.fmean(math.log(w) for w in per_case_wall)),
        "slowest_case_s": max(per_case_wall),
        "peak_rss_mb": max(rss) / 1024,
    }
    detail = {
        "setup_s": setup,
        "cases": [
            {"case": c.id, "wall_s": w, "compute_s": k} for c, w, k in zip(cases, wall, compute)
        ],
    }
    return metrics, detail


def traced_run(cases, env, checker, spans_path):
    """Per-layer metrics.  Each case runs in an untraced and then in a traced
    warm worker, so both passes see the same machine load."""
    import tracer

    untraced = traced = 0.0
    with Worker(env) as plain, Worker(env, spans_path) as wrapped:
        for i, case in enumerate(cases):
            untraced += run_case_warm(plain, i, case, checker)
            traced += run_case_warm(wrapped, i, case, checker, "traced")
    metrics = tracer.layer_metrics(tracer.read_spans(spans_path))
    metrics["trace.compute_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, {"untraced_compute_s": untraced, "spans_file": str(spans_path.relative_to(ROOT))}


def provenance(workload, seed, seconds, trace):
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "chernrep").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
    }


def run_workload(workload, seed, seconds, trace):
    e2e_units, layer_units = load_metric_units()
    refs = load_references()
    cases = workload_cases(workload, seed)
    missing = [c.id for c in cases if not c.refused and c.id not in refs]
    if missing:
        raise BenchError(f"no reference output for: {missing}")
    env = child_env()
    setup_sample(env)  # untimed: compiles bytecode, checks the import works
    checker = Checker(refs)
    tag = f"{workload}-seed{seed}"
    if trace:
        metrics, detail = traced_run(cases, env, checker, OUT / f"{tag}.spans.jsonl")
        units = layer_units
    else:
        metrics, detail = timed_run(cases, seconds, env, checker)
        units = e2e_units
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    summary = checker.summary()
    result = dict(summary, metrics={k: {"value": metrics[k], "unit": units[k]} for k in units})
    record = {
        "provenance": provenance(workload, seed, seconds, trace),
        "result": result,
        "fail_ratio": summary["failed"] / summary["attempted"],
        "runs": checker.runs,
        "failures": checker.failures,
        "detail": detail,
    }
    with open(OUT / f"{tag}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def report(record):
    prov, result = record["provenance"], record["result"]
    print(
        f"workload {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}  "
        f"python {prov['python']}  cpus {prov['cpu_count']}  git {prov['git_revision']}"
    )
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>14} {m['unit']}")
    print(
        f"  {'fail_ratio':<42} {record['fail_ratio']:>14.6g} 1"
        f"  ({result['failed']} of {result['attempted']} operations; {record['runs']} case runs)"
    )
    for f in record["failures"]:
        print(f"  FAILED [{f['mode']}] {f['case']}: {'; '.join(f['problems'])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=44)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "chernrep" / "cli.py").is_file():
        print(f"error: no chernrep source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
            report(record)
            print(json.dumps(record["result"]), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
