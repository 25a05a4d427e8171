"""Benchmark of the biosketch CLI on four workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc-frr --seed 1 --seconds 25 --trace 0

The program is imported from ./src and driven through `biosketch.cli.main`
in this process, one command at a time.  With --trace 0 the run times the
set-up and the workload's commands, in reference seconds (see REFERENCE_S),
measures the peak memory of a fresh process that runs one repetition's
commands, and prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced repetitions and prints the per-layer metrics in wall
time.  Every command's output is checked against an exact value, after the
command and outside any trace.  The last stdout line is the JSON result; a
record with provenance, per-command timings, check details and output
digests (and, traced, the spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mc-frr", "tau-sweep", "linkage", "analysis")
MIN_REPS = 3
SETUP_SECONDS = 2.5
# set-ups run in chunks of at least this long, each between two references
SETUP_CHUNK_S = 0.25
# Timings are reported in reference seconds: wall time scaled to a host on
# which each `HostSpeed` loop takes exactly this long.  On the shared 2-core
# box the host's speed drifted by up to ~40% between runs minutes apart; a
# loop, timed before and after each measured block, tracks that drift.
# Pure-Python and numpy-bound code slowed down by different amounts, so each
# workload is scaled by the loop that is like its own work
# (workloads.REFERENCE_KIND), and set-ups, which are pure Python, by the
# Python loop.
REFERENCE_S = 0.05
# Run in a fresh process to measure the program's peak memory alone; it
# writes the configs of repetition 0 and runs that repetition's commands.
# argv: source directory, benchmark directory, workload, seed, work directory.
PEAK_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import biosketch.cli as cli
import workloads
commands = workloads.WORKLOADS[sys.argv[3]](workloads.input_seed(int(sys.argv[4]), 0),
                                            Path(sys.argv[5]))
sys.exit(max(cli.main(command.argv) for command in commands))
"""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_command(cli, command) -> tuple:
    """Run one CLI command and time it; returns (rc, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(command.argv)
    except (Exception, SystemExit):  # a crash is a failed command, not a lost run
        rc = None
        err.write(traceback.format_exc())
    return rc, perf_counter() - start, out.getvalue(), err.getvalue()


def check_command(command, rc, seconds: float, stdout: str, stderr: str) -> dict:
    checks = []
    if rc == 0:
        try:
            checks = command.check(stdout)
        except Exception:  # unparseable output fails its check
            checks = [{"check": "parse", "ok": False, "error": traceback.format_exc()}]
    entry = {"argv": command.argv, "config_sha256": _sha256(command.config_text),
             "rc": rc, "seconds": seconds, "stdout_sha256": _sha256(stdout),
             "checks": checks, "ok": rc == 0 and bool(checks) and all(c["ok"] for c in checks)}
    if not entry["ok"]:
        entry["stderr"] = stderr[-4000:]
    return entry


def run_rep(cli, commands, tracer=None) -> dict:
    """Run the commands, traced if a tracer is given, then check their outputs.

    The checks build codes through biosketch, so they run after the tracer
    is removed and never count as the program's calls.
    """
    undo = spans.install(tracer) if tracer is not None else []
    try:
        runs = [run_command(cli, c) for c in commands]
    finally:
        spans.uninstall(undo)
    entries = [check_command(c, *run) for c, run in zip(commands, runs)]
    return {"seconds": sum(e["seconds"] for e in entries),
            "trials": sum(c.trials for c in commands), "commands": entries}


def child_peak_rss(name: str, seed: int, workdir: Path) -> dict:
    """Peak RSS of a fresh process that runs repetition 0 of the workload.

    It must be the run's first child process, because RUSAGE_CHILDREN
    reports the largest peak of all waited-for children, and it must start
    before this process imports numpy: at exec, Linux carries the spawning
    process's peak RSS over into the child's ru_maxrss.
    """
    start = perf_counter()
    argv = [str(SRC), str(Path(__file__).resolve().parent), name, str(seed), str(workdir)]
    proc = subprocess.run([sys.executable, "-c", PEAK_CHILD, *argv], text=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=150)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    entry = {"argv": argv[2:], "rc": proc.returncode, "peak_rss_mb": peak_mb,
             "seconds": perf_counter() - start, "ok": proc.returncode == 0}
    if not entry["ok"]:
        entry["stderr"] = proc.stderr[-4000:]
    return entry


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat(fn, seconds: float, min_reps: int) -> list:
    """Call fn(rep) until `seconds` have passed and at least min_reps ran."""
    results = []
    start = perf_counter()
    while len(results) < min_reps or perf_counter() - start < seconds:
        results.append(fn(len(results)))
    return results


class HostSpeed:
    """Fixed pure-Python and numpy work, like the workloads', timed to track the host."""

    def __init__(self, np):
        self.np = np
        self.rng = np.random.default_rng(0)
        self.weights = self.rng.random((63, 14), dtype=np.float32)

    def python(self) -> float:
        """Seconds of 300k integer and dict steps."""
        start = perf_counter()
        acc, table = 0, {}
        for i in range(300_000):
            acc ^= (i * 2654435761) & 0xFFFF
            table[i & 4095] = acc
        return perf_counter() - start

    def numpy(self) -> float:
        """Seconds of Bernoulli sampling and a float32 product at mc-frr's shape."""
        start = perf_counter()
        for _ in range(4):
            bits = (self.rng.random((32768, 63)) < 0.01).astype(self.np.uint8)
            ((bits.astype(self.np.float32) @ self.weights).astype(self.np.int64) & 1).sum()
        return perf_counter() - start


def timed_run(cli, workloads, np, name: str, seed: int, seconds: float, workdir: Path,
              peak: dict) -> tuple:
    make = workloads.WORKLOADS[name]
    host = HostSpeed(np)
    reference = getattr(host, workloads.REFERENCE_KIND[name])
    setup_count = itertools.count()
    setup_references = [host.python()]

    def setup_chunk(chunk):
        """Set-ups for SETUP_CHUNK_S, each scaled by the references around the chunk."""
        times, start = [], perf_counter()
        while not times or perf_counter() - start < SETUP_CHUNK_S:
            commands = make(workloads.input_seed(seed, next(setup_count) % workloads.REP_STRIDE),
                            workdir)
            begin = perf_counter()
            workloads.setup(commands)
            times.append(perf_counter() - begin)
        setup_references.append(host.python())
        reference_s = (setup_references[-2] + setup_references[-1]) / 2
        return {"seconds": times, "reference_s": reference_s,
                "scaled_seconds": [t * REFERENCE_S / reference_s for t in times]}

    setups = repeat(setup_chunk, SETUP_SECONDS, MIN_REPS)
    self_rss = {"after_setup": _self_rss_mb()}

    references = [reference()]

    def one_rep(rep):
        result = run_rep(cli, make(workloads.input_seed(seed, rep), workdir))
        references.append(reference())
        result["reference_s"] = (references[-2] + references[-1]) / 2
        result["scaled_seconds"] = result["seconds"] * REFERENCE_S / result["reference_s"]
        return result

    # the memory-measuring process is part of the run's measuring time
    reps = repeat(one_rep, seconds - peak["seconds"], MIN_REPS)
    run_s = statistics.median(r["scaled_seconds"] for r in reps)
    self_rss["end"] = _self_rss_mb()
    metrics = {
        "run_s": (run_s, "ref_s"),
        "trials_per_s": (reps[0]["trials"] / run_s, "trials/ref_s"),
        # in reference seconds like run_s, under the unit "s" of BENCHMARK.json
        "setup_s": (statistics.median(t for c in setups for t in c["scaled_seconds"]), "s"),
        "peak_rss_mb": (peak["peak_rss_mb"], "MB"),
    }
    wall = {"run_s": statistics.median(r["seconds"] for r in reps),
            "setup_s": statistics.median(t for c in setups for t in c["seconds"])}
    setup_record = [{"setups": len(c["seconds"]), "median_s": statistics.median(c["seconds"]),
                     "reference_s": c["reference_s"]} for c in setups]
    return metrics, reps, {"setup_chunks": setup_record, "unscaled_wall": wall,
                           "peak_child": peak, "benchmark_process_rss_mb": self_rss}


def traced_run(cli, workloads, name: str, seed: int, seconds: float,
               workdir: Path, import_s: float) -> tuple:
    """Pairs of untraced and traced repetitions on the same inputs.

    Only the first traced repetition's spans are kept for the record; the
    metrics are medians of per-repetition summaries.
    """
    from biosketch import harness

    make = workloads.WORKLOADS[name]
    plain, traced, summaries, first_spans = [], [], [], []

    def pair(rep):
        commands = make(workloads.input_seed(seed, rep), workdir)
        tracer = spans.Tracer(harness.BATCH_TRIALS)
        for traced_turn in (False, True) if rep % 2 == 0 else (True, False):
            if traced_turn:
                traced.append(run_rep(cli, commands, tracer))
            else:
                plain.append(run_rep(cli, commands))
        summaries.append(tracer.summary())
        if not first_spans:
            first_spans.extend(tracer.spans)

    repeat(pair, seconds, MIN_REPS - 1)
    metrics = {}
    for key in summaries[0]:
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio") else "count"
        metrics[key] = (statistics.median(s[key] for s in summaries), unit)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t["seconds"] - p["seconds"] for p, t in zip(plain, traced)), "s")
    return metrics, plain + traced, {"spans": first_spans}


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(biosketch, np, args, reps) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    first = reps[0]["commands"]
    return {
        "git_commit": git_commit(),
        "biosketch": biosketch.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": _sha256(json.dumps([e["config_sha256"] for e in first])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biosketch" / "__init__.py").is_file():
        print(f"error: no biosketch sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, also in the memory-measuring child: on the 2-core box
    # the two-thread default took 1.6-1.9x the CPU time of mc-frr for no
    # steady gain in wall time (see NOTES.md).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    peak = None if args.trace else child_peak_rss(args.workload, args.seed, workdir)
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import biosketch
    import biosketch.cli as cli
    import_s = perf_counter() - start
    if not Path(biosketch.__file__).resolve().is_relative_to(SRC):
        print(f"error: biosketch imported from {biosketch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    if args.trace:
        metrics, reps, extra = traced_run(cli, workloads, args.workload, args.seed,
                                          args.seconds, workdir, import_s)
    else:
        metrics, reps, extra = timed_run(cli, workloads, np, args.workload, args.seed,
                                         args.seconds, workdir, peak)
    entries = [e for r in reps for e in r["commands"]]
    if "peak_child" in extra:  # the memory-measuring process counts as one command
        entries.append(extra["peak_child"])
    failed = sum(not e["ok"] for e in entries)
    result = {"correct": failed == 0, "attempted": len(entries), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"provenance": provenance(biosketch, np, args, reps), "result": result,
              "repetitions": reps, **{k: v for k, v in extra.items() if k != "spans"}}
    record_path = workdir.with_suffix(".json")
    record_path.write_text(json.dumps(record, indent=1, default=str))
    if "spans" in extra:
        with open(workdir.with_suffix(".spans.jsonl"), "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "self_s"]) + "\n")
            for span in extra["spans"]:
                fh.write(json.dumps(span) + "\n")
    print(f"record: {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
