"""Benchmark of the maglab CLI on seeded workloads, with oracle checks.

Run from the root of a source checkout:

    python3 bench/run.py --workload csv-solve --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One client in one process calls `maglab.cli.run(argv)` in a closed loop:
each operation of the workload's fixed list starts when the previous one
has returned, with its report sent to a scratch --json file and stdout and
stderr captured.  Only the call is timed; each output is then checked
against an independent oracle.  After each call, untimed, a fixed numpy
probe gauges the host's current speed (see hostspeed.py), and the bounded
pass time is given in units of the probe.  BLAS is pinned to one thread
before numpy loads.  Passes repeat for about --seconds.  With --trace 1
the run adds a pass with every layer's public functions wrapped (see
tracer.py) and reports per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give every metric by name
with its unit, the failures, and the environment.  The full record,
including each operation's latency, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("spec-sweep", "csv-solve", "fourier-witness")
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # single imports here range over +-20% within a minute
COMMANDS = ("validate", "magnitude", "diversity", "sweep", "negtype", "approx",
            "fourier", "experiment")
MIN_PASSES = 2
TAIL_BEYOND = 10  # samples required above the reported tail latency


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs, for the benchmark's self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "maglab" / "__init__.py").is_file():
        print("bench: src/maglab not found; run from the root of a maglab checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("maglab.cli")
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"bench: imported maglab from {cli.__file__}, not ./src", file=sys.stderr)
        return 2
    scratch = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(cli, args, root, scratch, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print_summary(result)
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if args.trace else result["end_to_end"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def run_workload(cli, args, root: Path, scratch: Path, import_s: float) -> dict:
    import workloads
    from hostspeed import Probe
    from tracer import Tracer

    # set-up is repeated and reported as medians: the import of this process
    # plus fresh interpreters, and SETUP_REPEATS builds of the inputs
    import_s = [import_s] + [import_seconds(root) for _ in range(SETUP_REPEATS - 1)]
    build_s, hashes = [], set()
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, scratch / f"inputs{i}",
                                   small=args.size == "smoke")
        build_s.append(time.perf_counter() - start)
        hashes.add(workload.input_hash)
    if len(hashes) != 1:
        raise RuntimeError(f"one seed built different inputs: {sorted(hashes)}")

    probe = Probe()
    untraced = timed_passes(cli, workload.ops, scratch, probe, args.seconds,
                            reserve=args.trace)
    traced, tracer = [], None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, workload.ops, scratch, probe, len(untraced), tracer)
        finally:
            tracer.uninstall()

    timed = [r for p in untraced for r in p]
    records = timed + traced
    latencies = [r["latency_s"] for r in timed]
    by_op, by_op_probes = {}, {}
    for r in timed:
        by_op.setdefault(r["op"], []).append(r["latency_s"])
        by_op_probes.setdefault(r["op"], []).append(r["latency_s"] / r["probe_s"])
    # one pass with each operation at its median latency: on a shared host a
    # slow spell then costs an operation one sample, not the whole pass
    wall_s = sum(statistics.median(lat) for lat in by_op.values())
    # the same with each latency in units of the host-speed probes on either
    # side of it (see hostspeed.py), which cancels spells that slow the
    # operation and the probe alike, however long they last
    wall_probe = sum(statistics.median(ratio) for ratio in by_op_probes.values())
    tail, tail_pct = tail_latency(latencies)
    end_to_end = {
        "setup_s": (statistics.median(import_s) + statistics.median(build_s), "s"),
        "wall_probe": (wall_probe, "probe"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # Reported, but left out of the bounded metrics: raw seconds drift with
    # the host's load, and over a short list of unlike operations each
    # latency below is one operation's single-sample latency.
    latency = {
        "wall_s": (wall_s, "s"),
        "probe_s": (statistics.median(r["probe_s"] for r in timed), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
    }
    by_command = {}
    for command in COMMANDS:
        lat = [r["latency_s"] for r in timed if r["command"] == command]
        by_command[f"cmd.{command}_s"] = (statistics.median(lat) if lat else 0.0, "s")
    failures = [r for r in records if r["problems"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "passes": len(untraced) + bool(traced),
        "setup_samples_s": {"import": import_s, "build": build_s},
        "ops_per_pass": len(workload.ops),
        "load": "closed loop, 1 client, 1 process, operations back to back",
        "env": environment(root, args.seed, workload.input_hash),
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(records),
        "op_tail": f"p{tail_pct:.1f} of {len(latencies)} samples, "
                   f"{min(TAIL_BEYOND, len(latencies) - 1)} above",
        "end_to_end": _as_metrics(end_to_end),
        "latency": _as_metrics(latency),
        "commands": _as_metrics(by_command),
        "failures": [f"{r['op']} (pass {r['pass']}): {'; '.join(r['problems'])}"
                     for r in failures],
        "operations": records,
    }
    if tracer is not None:
        traced_wall = sum(r["latency_s"] for r in traced)
        layers = tracer.layer_metrics()
        layers.update(by_command)
        layers["cli.json_bytes"] = (sum(r["json_bytes"] for r in traced), "bytes")
        layers["trace.overhead_s"] = (traced_wall - wall_s, "s")
        result["per_layer"] = _as_metrics(layers)
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"{args.workload}-seed{args.seed}-spans.json.gz")
    return result


def timed_passes(cli, ops, scratch: Path, probe, seconds: float, reserve: int = 0) -> list:
    """Untraced passes for about `seconds`: a pass starts only if it fits.

    `reserve` passes' worth of time is left over for a traced pass.  At
    least MIN_PASSES run, so each operation has a median over samples.
    """
    start = time.perf_counter()
    passes, durations = [], []
    while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                       + (1 + reserve) * statistics.median(durations)
                                       <= seconds):
        begun = time.perf_counter()
        passes.append(run_pass(cli, ops, scratch, probe, len(passes)))
        durations.append(time.perf_counter() - begun)
    return passes


def run_pass(cli, ops, scratch: Path, probe, pass_index: int, tracer=None) -> list:
    """Run every operation once, back to back; time the calls, then judge them.

    The host-speed probe runs before the first operation and after each one,
    outside their timing; an operation's `probe_s` is the mean of the probe
    times on either side of it.
    """
    from workloads import Outcome

    records = []
    probe_before = probe()
    for i, op in enumerate(ops):
        report_path = scratch / f"report{i}.json"
        report_path.unlink(missing_ok=True)
        argv = [*op.argv, "--json", str(report_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = i
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                exit_code = cli.run(argv).exit_code
            except Exception as exc:  # a traceback is a failed operation, not a crash
                exit_code = f"uncaught {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        probe_after = probe()
        report = None
        if report_path.exists():
            report = json.loads(report_path.read_text())
        problems, wrong = op.judge(Outcome(exit_code, stderr.getvalue(), report))
        records.append({
            "op": op.name,
            "command": op.command,
            "pass": pass_index,
            "traced": tracer is not None,
            "latency_s": latency,
            "probe_s": (probe_before + probe_after) / 2,
            "exit": exit_code,
            "json_bytes": report_path.stat().st_size if report is not None else 0,
            "problems": problems,
            "wrong": wrong,
        })
        probe_before = probe_after
    return records


def import_seconds(root: Path) -> float:
    """Time to import maglab in a fresh interpreter, measured by that interpreter."""
    probe = ("import time; start = time.perf_counter(); import maglab.cli; "
             "print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", probe], cwd=root, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def tail_latency(samples) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    With too few samples for that, the smallest sample (percentile of one
    sample) is returned; the summary states the sample count either way.
    """
    xs = sorted(samples)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def _as_metrics(table: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def environment(root: Path, seed: int, input_hash: str) -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "seed": seed,
        "input_hash": input_hash,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  size {result['size']}  "
          f"passes {result['passes']} x {result['ops_per_pass']} ops  ({result['load']})")
    tables = [result["end_to_end"], result["latency"], result["commands"],
              result.get("per_layer", {})]
    for table in tables:
        for name, m in table.items():
            value = m["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:<42} {shown:>14} {m['unit']}")
    print(f"  {'op_tail_s is':<42} {result['op_tail']}")
    print(f"  {'fail_ratio':<42} {result['fail_ratio']:>14.4g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for line in result["failures"]:
        print(f"  failed: {line}")
    print(f"  correct: {result['correct']}")
    print("  env: " + json.dumps(result["env"]))


if __name__ == "__main__":
    sys.exit(main())
