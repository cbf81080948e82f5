"""pearl benchmark: drives the pearl CLI on seeded synthetic workloads.

    python3 perfbench/run.py --workload score-panel --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table

One closed-loop client makes the workload's CLI calls one after another, each
in its own process, and repeats the sequence until --seconds have passed.
Outputs are checked after every call.  With --trace 0 the last stdout line
reports the end-to-end metrics (medians over the repetitions); with --trace 1
each repetition is run untraced and then traced, and the last line reports
the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import COUNTED, COUNTERS, TIMED, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
RUN_LIMIT_S = 170  # a run, set-up included, stops starting work after this
# One BLAS thread per CLI process: on a shared 2-vCPU host, two BLAS threads
# were ~6% faster but their run-to-run spread was 2-3x wider.
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# the per-command stage names the summary line uses
STAGE_NAMES = {
    "preprocess": "preprocess_s",
    "score-pathways": "score_s",
    "train-contrastive": "stage1_s",
    "train-heads": "stage2_s",
    "predict": "predict_s",
    "survival-train": "cox_train_s",
}
COMMANDS = (
    "preprocess", "score-pathways", "train-contrastive", "train-heads", "predict", "evaluate",
    "survival-train", "survival-eval",
)
QUALITY = ("path_pcc", "c_index")


def per_layer_units():
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {f"{n}_s": "s" for n in TIMED}
    units.update({f"{n}_calls": "count" for n in COUNTED})
    units.update({n: "count" for n in COUNTERS})
    units["autodiff.backward_self_s"] = "s"
    units["data_io.bytes_read"] = "bytes"
    units["data_io.bytes_written"] = "bytes"
    units.update({f"cli.{c.replace('-', '_')}_s": "s" for c in COMMANDS})
    units.update({f"cli.{q}": "ratio" for q in QUALITY})
    units["synthgen.gen_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# -- processes ------------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child processes, times them and enforces the run's deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = _child_env()

    def run(self, argv, log_path):
        """(seconds, peak RSS in MB, exit code) of one child process."""
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def _tail(path, n=600):
    with open(path, "rb") as fh:
        return fh.read()[-n:].decode("utf-8", "replace").strip()


def _digests(d):
    out = {}
    for entry in sorted(os.scandir(d), key=lambda e: e.name):
        if entry.is_file():
            with open(entry.path, "rb") as fh:
                out[entry.name] = (entry.stat().st_size, hashlib.sha256(fh.read()).hexdigest())
    return out


def _input_bytes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


# -- one workload -------------------------------------------------------------------


class WorkloadRun:
    def __init__(self, workload, seed, work, runner):
        self.w = workload
        self.seed = seed
        self.inp = str(work / "in")
        self.out = str(work / "out")
        self.logs = work / "logs"
        self.spans = work / "spans"
        for d in (self.logs, self.spans):
            d.mkdir(parents=True, exist_ok=True)
        self.runner = runner
        self.attempted = 0
        self.failed = 0

    def setup(self, reps):
        """Median seconds of `reps` set-ups, and the synthgen share of the last."""
        times = []
        for _ in range(reps):
            shutil.rmtree(self.inp, ignore_errors=True)
            log = self.logs / "setup.log"
            argv = [sys.executable, str(HERE / "workloads.py"), self.w.name, str(self.seed), self.inp]
            seconds, _, code = self.runner.run(argv, log)
            if code != 0:
                raise RuntimeError(f"set-up of {self.w.name} failed:\n{_tail(log)}")
            times.append(seconds)
        with open(os.path.join(self.inp, "setup.json"), encoding="utf-8") as fh:
            gen_s = json.load(fh)["synthgen.gen_s"]
        return statistics.median(times), gen_s

    def iteration(self, traced=False, reference=None, thorough=False):
        """Make the workload's calls once; returns one record per call.

        With `reference` (the records of an untraced pass), each call's
        output files must be byte-identical to the reference's.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        records = []
        before = {}
        for i, call in enumerate(self.w.calls(self.seed, self.inp, self.out)):
            cli_args = [call.command, *call.args, "--out-dir", self.out]
            span_path = self.spans / f"{i}.npz"
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_path), *cli_args]
            else:
                argv = [sys.executable, "-m", "pearl.cli", *cli_args]
            log = self.logs / f"{i}-{call.command}.log"
            read = _input_bytes(call.inputs)
            seconds, rss, code = self.runner.run(argv, log)
            after = _digests(self.out)
            produced = {k: v for k, v in after.items() if before.get(k) != v}
            before = after
            rec = {"command": call.command, "seconds": seconds, "rss_mb": rss, "quality": {},
                   "produced": produced, "bytes_read": read,
                   "bytes_written": sum(size for size, _ in produced.values())}
            self.attempted += 1
            error = None
            if code != 0:
                error = f"exit code {code}: {_tail(log)}"
            else:
                try:
                    rec["quality"] = call.check() or {}
                    if thorough and call.full_check is not None:
                        call.full_check()
                    if reference is not None and produced != reference[i]["produced"]:
                        error = "traced outputs differ from untraced outputs"
                except Exception as exc:  # a check that crashes is a failed check
                    error = f"{type(exc).__name__}: {exc}"
            if traced and code == 0:
                rec["spans"], rec["counters"] = summarize(span_path)
            records.append(rec)
            if error is not None:
                self.failed += 1
                print(f"FAILED {self.w.name} {call.command}: {error}", file=sys.stderr)
                if code != 0:
                    break
        return records

    def repeat(self, seconds, traced):
        """Iterations (untraced, or untraced+traced pairs) for about `seconds`.

        A new iteration starts only if it is expected to end within
        `seconds` and before the run's deadline; there is always at least one.
        """
        start = time.perf_counter()
        pairs, took = [], []
        while True:
            t0 = time.perf_counter()
            plain = self.iteration(thorough=not pairs)
            tr = self.iteration(traced=True, reference=plain) if traced else None
            pairs.append((plain, tr))
            now = time.perf_counter()
            took.append(now - t0)
            expected_end = now + statistics.median(took)
            if expected_end > min(start + seconds, self.runner.deadline):
                return pairs


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _wall(records):
    return sum(r["seconds"] for r in records)


def _per_command(plain):
    """Median seconds of each command over untraced iterations."""
    return {c: _median(r["seconds"] for p in plain for r in p if r["command"] == c)
            for c in COMMANDS if any(r["command"] == c for p in plain for r in p)}


def _quality(plain):
    return {q: _median(r["quality"][q] for p in plain for r in p if q in r["quality"])
            for q in QUALITY if any(q in r["quality"] for p in plain for r in p)}


def layer_metrics(pairs, gen_s):
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]

    def per_iter(fn):
        return _median(fn(t) for t in traced)

    def span(t, name, k):
        return sum(r["spans"].get(name, (0, 0.0, 0.0))[k] for r in t if "spans" in r)

    m = dict.fromkeys(per_layer_units(), 0.0)
    for name in TIMED:
        m[f"{name}_s"] = per_iter(lambda t: span(t, name, 1))
    for name in COUNTED:
        m[f"{name}_calls"] = per_iter(lambda t: span(t, name, 0))
    for name in COUNTERS:
        m[name] = per_iter(lambda t: sum(r["counters"].get(name, 0) for r in t if "counters" in r))
    m["autodiff.backward_self_s"] = per_iter(lambda t: span(t, "autodiff.backward", 2))
    m["data_io.bytes_read"] = per_iter(lambda t: sum(r["bytes_read"] for r in t))
    m["data_io.bytes_written"] = per_iter(lambda t: sum(r["bytes_written"] for r in t))
    m.update({f"cli.{c.replace('-', '_')}_s": v for c, v in _per_command(plain).items()})
    m.update({f"cli.{q}": v for q, v in _quality(plain).items()})
    m["synthgen.gen_s"] = gen_s
    m["trace.overhead_s"] = _median(_wall(t) for t in traced) - _median(_wall(p) for p in plain)
    return m


def run_workload(workload, seed, seconds, trace, work, deadline):
    """(result metrics, summary, attempted, failed) for one workload."""
    run = WorkloadRun(workload, seed, work, Runner(deadline))
    setup_s, gen_s = run.setup(1 if trace else SETUP_REPS)
    pairs = run.repeat(seconds, traced=bool(trace))
    plain = [p for p, _ in pairs]
    failed_frac = run.failed / max(run.attempted, 1)
    e2e = {
        "setup_s": setup_s,
        "wall_s": _median(_wall(p) for p in plain),
        "peak_rss_mb": _median(max((r["rss_mb"] for r in p), default=0.0) for p in plain),
        "ok_frac": 1.0 - failed_frac,
    }
    summary = {"setup_s": setup_s, "wall_s": e2e["wall_s"]}
    summary.update({STAGE_NAMES[c]: v for c, v in _per_command(plain).items() if c in STAGE_NAMES})
    summary.update(_quality(plain))
    summary.update(peak_rss_mb=e2e["peak_rss_mb"], failed_frac=failed_frac, iterations=len(pairs))
    if trace:
        metrics, units = layer_metrics(pairs, gen_s), per_layer_units()
    else:
        metrics, units = e2e, END_TO_END
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return result, summary, run.attempted, run.failed


# -- environment and entry point -------------------------------------------------------


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        revision = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _print_summary(name, summary):
    units = {"peak_rss_mb": "MB", "failed_frac": "ratio", "iterations": "count", **{
        q: "ratio" for q in QUALITY}}
    for key, value in summary.items():
        print(f"{name:12s} {key:14s} {value:12.6g} {units.get(key, 's')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pearl" / "cli.py").is_file():
        sys.exit(f"perfbench: no pearl sources under {SRC.name}/; run from a full checkout")
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        work = HERE / "work" / f"{name}-{args.seed}-{os.getpid()}"
        try:
            result, summary, a, f = run_workload(
                WORKLOADS[name], args.seed, args.seconds, args.trace, work, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _print_summary(name, summary)
        attempted += a
        failed += f
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
