"""cobcalc benchmark: real CLI jobs in fresh interpreters, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each job is ``cobcalc.cli.main(argv)`` in a new
interpreter (``perfbench/job.py``), and the next job starts only when the last
one has exited.  Rounds start while the next one is expected to end within
``--seconds``.  Every job's exit status and stdout pass a correctness gate.

Each round also times one interpreter start plus ``import cobcalc.cli`` and
one run of ``perfbench/calibrate.py``, a fixed reference loop.  A shared host
can change speed by 1.6x within minutes, so times are reported in reference
seconds: scaled by CAL_REF_S over the run's mean calibration time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` untraced and traced jobs alternate and
it reports the per-layer metrics instead.  See ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
WORK = HERE / ".work"

RUN_LIMIT_S = 150  # a job still running this long after start is killed
CAL_ITERATIONS = 250  # calibrate.py work per round: about 0.4 s on a 2-core Xeon VM
CAL_REF_S = 0.4  # calibration time that defines one reference second

# name -> (CLI argv, {CLI seed: sha256 of the job's stdout}).  Seedless
# workloads key their digest by None.  Caps are set so that a job takes 2-5 s:
# a 30 s run then holds enough rounds for the calibration to follow the host.
# sif-rank3's inputs are random: the run seed picks one of three CLI seeds,
# chosen from a scan of seeds 0-59 as the ones whose inputs cost about the
# median work (series_mul pairs within 6%, terms_out within 4%, pb_mul calls
# within 1%).  Over all 60 seeds the pairs count ranges 3.5x, which would
# swamp any change to the program.
WORKLOADS = {
    "fgl-universal": (
        "fgl check --kind universal --max-t 10 --max-w 9",
        {None: "9288491a6524ebfdc5ef3f66348ca1f1024ebb0f47cf1af1831a635849b36e63"},
    ),
    "bg-gl3": (
        "bg --group GL3 --fgl universal --deg 0..5 --torder 5 --max-t 5 --max-w 4",
        {None: "7144e88267fe2dd5ca63e8beec1981e7861ac255e1e1489026280787c8f6dad9"},
    ),
    "tower-bgm": (
        "tower bgm --fgl universal --deg 0..8 --levels 12 --max-t 8 --max-w 7",
        {None: "87e1c890d9f3fa123b606a0d972e445e3bc4830d5358f96d6c87c22c8a9ad060"},
    ),
    "sif-rank3": (
        "sif --fgl universal --rank 3 --torder 7",
        {
            7: "746cb238f0a1f75e6b5cdd6bfc7f514ef4486188136722f0d011bac8a779851d",
            6: "bb962a173b600d87a9bf9cd4a37392ba166d226eb857398d9631e616386ca2e5",
            45: "719b268976d74a1c270e79ed4e6704ba6ca196176efa5346276423f43fdafb67",
        },
    ),
}


def workload_job(name: str, seed: int) -> tuple:
    """The CLI argv a run of this workload and seed repeats, and its stdout sha256."""
    text, digests = WORKLOADS[name]
    argv = text.split()
    if None in digests:
        return argv, digests[None]
    cli_seed = list(digests)[seed % len(digests)]
    return argv + ["--seed", str(cli_seed)], digests[cli_seed]


def gate(stdout: bytes, status: int, digest: str) -> str:
    """Why a job's output is wrong, or "" when it passes."""
    if status != 0:
        return f"exit status {status}, expected 0"
    got = hashlib.sha256(stdout).hexdigest()
    return "" if got == digest else f"stdout sha256 {got}, expected {digest}"


def child_env() -> dict:
    """The parent's environment without Python or cobcalc knobs, plus fixed ones."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "COBCALC_THREADS"
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, env, stdout, stderr, deadline: float):
    """Run a child to completion; returns (exit status, wall s, its rusage)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)

    def kill(signum, frame):
        if proc.returncode is None:
            proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(0.01, deadline - perf_counter()))
    try:
        _, wait_status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return proc.returncode, perf_counter() - start, usage


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


class Bench:
    """One run of one workload: its rounds, jobs and harness self-checks."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload, self.seconds, self.traced = workload, seconds, traced
        self.argv, self.digest = workload_job(workload, seed)
        self.env = child_env()
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.tmp = WORK / f"run-{os.getpid()}"
        self.jobs: list = []
        self.setup_s: list = []
        self.cal_s: list = []
        self.problems: list = []

    def compile(self) -> None:
        """Compile bytecode, so that no timed interpreter start compiles."""
        for tree in (SRC / "cobcalc", HERE):
            if not compileall.compile_dir(str(tree), quiet=1):
                raise SystemExit(f"cannot compile {tree}")

    def start_interpreter(self) -> float:
        """Wall time of interpreter start plus ``import cobcalc.cli``."""
        status, wall, _ = spawn(
            [sys.executable, "-c", "import cobcalc.cli"], self.env,
            subprocess.DEVNULL, subprocess.DEVNULL, self.deadline,
        )
        if status != 0:
            raise SystemExit(f"import cobcalc.cli exits with status {status}")
        return wall

    def calibrate(self) -> float:
        argv = [sys.executable, str(HERE / "calibrate.py"), str(CAL_ITERATIONS)]
        with open(self.tmp / "calibration", "wb") as out:
            status, _, _ = spawn(argv, self.env, out, subprocess.DEVNULL, self.deadline)
        if status != 0:
            raise SystemExit(f"calibrate.py exits with status {status}")
        return float((self.tmp / "calibration").read_text())

    def job(self, traced: bool) -> dict:
        result = self.tmp / "result.json"
        result.unlink(missing_ok=True)
        spans = WORK / f"spans-{self.workload}.tsv" if traced else "-"
        argv = [sys.executable, str(HERE / "job.py"), str(result), str(spans), "--", *self.argv]
        with open(self.tmp / "stdout", "wb") as out, open(self.tmp / "stderr", "wb") as err:
            status, wall, usage = spawn(argv, self.env, out, err, self.deadline)
        stdout = (self.tmp / "stdout").read_bytes()
        record = json.loads(result.read_text()) if result.exists() else {}
        job = {
            "traced": traced,
            "job_s": record.get("job_s", wall),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "stdout": stdout,
            "error": gate(stdout, status, self.digest),
        }
        if record.get("status", status) != status:
            job["error"] = job["error"] or "job exit status differs from cli.main's"
        if job["error"]:
            stderr = (self.tmp / "stderr").read_bytes()[-400:].decode(errors="replace")
            job["error"] += f"; stderr ends: {stderr!r}"
        if traced and not job["error"]:
            job["layers"] = record["layers"]
            if not record["restored"]:
                job["error"] = "traced functions were not restored after the job"
        self.jobs.append(job)
        return job

    def loop(self) -> None:
        """Rounds of interpreter start, calibration, one untraced job and, when
        tracing, one traced job, until the next round would end too late."""
        start = perf_counter()
        rounds = []
        while True:
            t0 = perf_counter()
            self.setup_s.append(self.start_interpreter())
            self.cal_s.append(self.calibrate())
            plain = self.job(traced=False)
            if self.traced:
                traced = self.job(traced=True)
                if not traced["error"] and traced["stdout"] != plain["stdout"]:
                    traced["error"] = "traced stdout differs from untraced stdout"
            rounds.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(rounds) > self.seconds:
                break
            if perf_counter() + max(rounds) > self.deadline:
                break

    def reference_factor(self) -> float:
        """Reference seconds per measured second in this run."""
        return CAL_REF_S / statistics.mean(self.cal_s)

    def self_check(self) -> None:
        """The gate must refuse a tampered digest; traced call counts must repeat."""
        tampered = self.digest[:-1] + ("0" if self.digest[-1] != "0" else "1")
        if not gate(self.jobs[0]["stdout"], 0, tampered):
            self.problems.append("gate passed a tampered digest")
        traced = [j for j in self.jobs if j.get("layers")]
        counts = {
            json.dumps({k: v["calls"] for k, v in j["layers"].items()}) for j in traced
        }
        if len(counts) > 1:
            self.problems.append("call counts differ between traced jobs")


def mean_of(jobs, key):
    return statistics.mean(j[key] for j in jobs)


def layer_value(metric: str, traced: list, plain: list, factor: float):
    if metric == "trace_overhead_s":
        return (mean_of(traced, "job_s") - mean_of(plain, "job_s")) * factor
    func, stat = metric.rsplit(".", 1)
    values = [j["layers"][func][stat] for j in traced]
    return statistics.median(values) * factor if stat == "self_s" else values[0]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cobcalc" / "cli.py").is_file():
        print(f"no cobcalc sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    context = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "argv": ["cobcalc", *bench.argv],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": read_loadavg(),
    }
    bench.tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench.compile()
        bench.loop()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    bench.self_check()
    factor = bench.reference_factor()
    context["loadavg_end"] = read_loadavg()
    context["calibration_s"] = bench.cal_s
    context["reference_factor"] = factor

    jobs = bench.jobs
    failed = [j for j in jobs if j["error"]]
    plain = [j for j in jobs if not j["traced"] and not j["error"]] or jobs
    print("context " + json.dumps(context, sort_keys=True))
    for j in failed:
        print(f"FAILED job ({'traced' if j['traced'] else 'untraced'}): {j['error']}")
    for problem in bench.problems:
        print(f"HARNESS CHECK FAILED: {problem}")
    print(f"fail_ratio {len(failed) / len(jobs)} (1) = {len(failed)} failed / {len(jobs)} attempted")

    metrics = {}
    if args.trace:
        traced = [j for j in jobs if j["traced"] and not j["error"]]
        if traced:
            for m in spec["per_layer"]:
                value = layer_value(m["name"], traced, plain, factor)
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            layers = traced[0]["layers"]
            total = sum(v["self_s"] for v in layers.values())
            share = {}
            for func, v in layers.items():
                module = func.split(".", 1)[0]
                share[module] = share.get(module, 0.0) + v["self_s"] / total
            print("self_s share by module " + json.dumps({k: round(v, 3) for k, v in share.items()}))
    else:
        values = {
            "job_s": mean_of(plain, "job_s") * factor,
            "cpu_s": mean_of(plain, "cpu_s") * factor,
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
            "setup_s": statistics.median(
                s / c * CAL_REF_S for s, c in zip(bench.setup_s, bench.cal_s)
            ),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        for name in ("job_s", "cpu_s", "peak_rss_mb"):
            xs = [j[name] for j in plain]
            print(f"raw {name} median {statistics.median(xs)} over {len(xs)} jobs: {xs}")
        print(f"raw setup_s median {statistics.median(bench.setup_s)} over {len(bench.setup_s)} starts")
    correct = not failed and not bench.problems and len(metrics) > 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
