"""Benchmark of the annulus-radial library, measured from outside.

    python3 perfbench/run.py --workload audit|fine-grid|screen \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One run builds the workload's inputs from the seed, warms up with one
cycle of operations, then repeats cycles for S seconds of operation time in
one process and one thread (a closed loop with one client).  Fresh
interpreters running the workload's CLI commands and the set-up step are
interleaved between cycles.  Every output is checked (checks.py).  The last
line of stdout is a JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``--workload all`` runs every workload untraced and
traced in separate processes, interleaved, and prints every figure.

The traced run alternates untraced and traced cycles; the per-layer
figures are per cycle (medians for times; counts must repeat exactly), its
spans go to ``.bench_out/``.  Inputs and scratch files live in
``.bench_work/`` and are removed at exit.  BLAS/OpenMP threads are pinned
to 1.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("audit", "fine-grid", "screen")
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 5
CLI_REPEATS = 2
_clock = time.perf_counter

E2E_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "cli_wall_s": "s", "cli_work_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def load_library():
    """Import the library from this checkout's src/, or exit 2."""
    pkg = ROOT / "src" / "annulus_radial"
    if not (pkg / "__init__.py").is_file():
        sys.stderr.write(f"error: no library at {pkg}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import annulus_radial

    if Path(annulus_radial.__file__).resolve().parent != pkg.resolve():
        sys.stderr.write(f"error: imported {annulus_radial.__file__}, not {pkg}\n")
        raise SystemExit(2)
    return tracer.library(annulus_radial)


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    above it, but never below p90 (runs of fewer than 100 operations), by
    linear interpolation between order statistics."""
    xs = sorted(values)
    n = len(xs)
    q = max(0.9, (n - 10) / n)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo]), 100.0 * q


def median_of_commands(samples: dict) -> float:
    """Median over commands of each command's median over its repeats, so
    that commands of very different cost do not make the median jump."""
    return statistics.median(statistics.median(v) for v in samples.values())


class Run:
    def __init__(self, lib, workload: str, seed: int, seconds: float, traced: bool):
        self.lib, self.name, self.seed = lib, workload, seed
        self.seconds, self.traced = seconds, traced
        self.workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.wl = workloads.build(workload, lib, seed, self.workdir)
        self.tracer = tracer.Tracer(lib) if traced else None
        self.op_times, self.traced_times = [], []
        self.layer_cycles = []
        self.first_rec = None
        self.setup_s, self.cli_import = [], []
        self.cli_wall, self.cli_work = {}, {}  # command label -> repeats
        self.stdout_seen = {}
        self.attempted = self.failed = self.known = 0
        self.problems = []
        self.cycles = 0

    # -- operations ----------------------------------------------------------

    def _run_cycle(self, timed: bool, traced: bool) -> float:
        rec = self.tracer.install() if traced else None
        total = 0.0
        outcomes = []
        try:
            for i, op in enumerate(self.wl.cycle):
                if rec is not None:
                    rec.op = f"{self.cycles}.{i}"
                out, exc = {}, None
                t0 = _clock()
                try:
                    op.run(out)
                except Exception as e:  # noqa: BLE001 -- a failed operation is data
                    exc = e
                dt = _clock() - t0
                total += dt
                outcomes.append((op, out, exc))
                if timed:
                    (self.traced_times if traced else self.op_times).append(dt)
        finally:
            if rec is not None:
                self.tracer.uninstall()
        for op, out, exc in outcomes:  # checks stay outside the timed region
            self._judge(op.label, op.check, out, exc, op.known_rejection)
        if rec is not None:
            self.layer_cycles.append(tracer.layer_metrics(rec))
            if self.first_rec is None:
                self.first_rec = rec
        self.cycles += 1
        return total

    def _judge(self, label, check, out, exc, known_rejection):
        """Count one attempt as passed, failed, or failed by a known defect
        (the r0 > 100 rejection, checks.Known problems)."""
        self.attempted += 1
        try:
            problems = check(out)
        except Exception as e:  # noqa: BLE001 -- malformed output is a failure
            problems = [f"checker raised {e!r}"]
        if exc is not None and known_rejection(exc):
            problems = [checks.Known(f"known: rejected with {exc!r}")] + problems
        elif exc is not None:
            problems = [f"raised {exc!r}"] + problems
        if any(not isinstance(p, checks.Known) for p in problems):
            self.failed += 1
        elif problems:
            self.known += 1
        self.problems += [f"{label}: {p}" for p in problems]

    # -- fresh interpreters -----------------------------------------------------

    def _child(self, args: list) -> tuple:
        result = self.workdir / "child.json"
        result.unlink(missing_ok=True)
        t0 = _clock()
        proc = subprocess.run([sys.executable, str(CHILD), args[0], str(result), *args[1:]],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
        wall = _clock() - t0
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"child {args[:2]} failed: {proc.stderr.decode()[-2000:]}")
        return wall, json.loads(result.read_text(encoding="utf-8"))

    def _setup_job(self):
        _, payload = self._child(["setup", self.name, str(self.seed)])
        self.setup_s.append(payload["setup_s"])

    def _cli_job(self, job):
        wall, payload = self._child(["cli", *job.argv])
        self.cli_wall.setdefault(job.label, []).append(wall)
        self.cli_work.setdefault(job.label, []).append(payload["work_s"])
        self.cli_import.append(payload["import_s"])
        stdout = payload["stdout"]

        def check(_):
            problems = job.check(stdout)
            if payload["rc"] != job.expected_rc:
                msg = f"exit code {payload['rc']} != {job.expected_rc}"
                if problems and all(isinstance(p, checks.Known) for p in problems):
                    msg = checks.Known(msg + "; follows from the known defect")
                problems.append(msg)
            if stdout != self.stdout_seen.setdefault(job.label, stdout):
                problems.append("stdout differs between repeats")
            return problems

        self._judge(f"CLI {job.label}", check, None, None, lambda exc: False)

    # -- the run -----------------------------------------------------------------

    def execute(self):
        cli = [(lambda j=j: self._cli_job(j))
               for _ in range(CLI_REPEATS) for j in self.wl.cli_jobs]
        jobs = []  # set-ups spread evenly among the CLI commands
        for k in range(SETUP_REPEATS):
            lo, hi = (round(i * len(cli) / SETUP_REPEATS) for i in (k, k + 1))
            jobs += [self._setup_job] + cli[lo:hi]
        self._run_cycle(timed=False, traced=False)  # warm-up, checked
        spent, done, n = 0.0, 0, len(jobs)
        while spent < self.seconds or not self.op_times or (self.traced and not self.layer_cycles):
            traced = self.traced and self.cycles % 2 == 0
            spent += self._run_cycle(timed=True, traced=traced)
            while done < n and spent >= (done + 0.5) * self.seconds / n:
                jobs[done]()
                done += 1
        for job in jobs[done:]:
            job()

    def end_to_end(self) -> dict:
        value, pct = tail(self.op_times)
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_p50_s": statistics.median(self.op_times),
            "op_tail_s": value,
            "ops_per_s": len(self.op_times) / sum(self.op_times),
            "cli_wall_s": median_of_commands(self.cli_wall),
            "cli_work_s": median_of_commands(self.cli_work),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - (self.failed + self.known) / self.attempted,
        }, pct

    def per_layer(self) -> dict:
        out = {}
        first = self.layer_cycles[0]
        for key in first:
            vals = [c[key] for c in self.layer_cycles]
            if key in tracer.EXACT:
                if any(v != vals[0] for v in vals):
                    self.problems.append(f"trace: count {key} differs between cycles {vals}")
                    self.failed += 1
                out[key] = vals[0]
            else:
                out[key] = statistics.median(vals)
        out["cli.import_s"] = statistics.median(self.cli_import)
        out["trace.overhead_ratio"] = (statistics.median(self.traced_times)
                                       / statistics.median(self.op_times))
        return out

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def per_layer_units(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def unit_of(name: str) -> str:
    return E2E_UNITS.get(name) or per_layer_units(name)


def single(args) -> int:
    lib = load_library()
    run = Run(lib, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
        e2e, pct = run.end_to_end()
        metrics = run.per_layer() if args.trace else e2e
        if args.trace and run.first_rec is not None:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            run.first_rec.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        run.close()

    env = environment()
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {run.wl.sizes}")
    print("environment " + json.dumps(env, sort_keys=True))
    n = len(run.op_times)
    print(f"  operations {n} untraced ({run.cycles} cycles incl. warm-up), "
          f"op_tail_s is p{pct:.1f} of {n}; CLI commands {len(run.cli_import)}")
    print(f"  failed_ratio {(run.failed + run.known) / run.attempted:.6f} "
          f"({run.known} by known defects, {run.failed} other failures "
          f"of {run.attempted} attempted)")
    if n <= 20:
        print("  operation times (s): " + " ".join(f"{t:.4f}" for t in run.op_times))
    for name, value in e2e.items():
        print(f"  {name:34s} {value:14.6g} {E2E_UNITS[name]}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {per_layer_units(name)}")
    for p in dict.fromkeys(run.problems):  # each distinct problem once
        print(f"  PROBLEM {p}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def all_workloads(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    load_library()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for key, val in res["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    return all_workloads(args) if args.workload == "all" else single(args)


if __name__ == "__main__":
    raise SystemExit(main())
