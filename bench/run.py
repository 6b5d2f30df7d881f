#!/usr/bin/env python3
"""Benchmark of the `hsf` CLI: four workloads, end to end and per layer.

    python3 bench/run.py --workload sweep-grid [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --record-digests        # re-pin bench/digests.json

Run it from anywhere inside a checkout; it uses `src/` of that checkout.

`--trace 0` measures what a user waits for.  Every call is a fresh
`python -m hsf.cli` process (so interpreter start and `import hsf` count),
issued in a closed loop by one client until the next round would overrun
`--seconds`.  It prints setup_s, rows_per_s, call_p50_s, call_tail_s and
peak_rss_mb, plus failed_frac with its base.

`--trace 1` gives the per-layer numbers.  It runs the workload's first
distinct inputs as processes (for child CPU time), then in-process: a
warm-up pass and untraced and traced passes in the order U T T U.  A traced
pass wraps the functions of every layer from outside (see spans.py).  It adds `-X importtime` figures and the kernel
scaling table at n = 16, 20, 22 (see kernels.py).

Every output passes the correctness gate in gate.py.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from gate import CASES, Gate, case_counts, check_output, data_rows, sha256
from kernels import scaling_table
from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = ROOT / "tests" / "golden" / "sweep_golden.csv"
DIGESTS = BENCH / "digests.json"

SETUP_REPS = 5  # --version calls timed after one warm-up call
MIN_ROUNDS = 2  # so every run repeats its first input at least once
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
IMPORT_REPS = 3
RECORD_INPUTS = 4  # digests pinned per workload, beyond its traced inputs


@dataclass
class Call:
    wall: float
    returncode: int
    cpu: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts `hsf` processes from the checkout and reaps each with wait4."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "HSF_SEED"}
        self.env["PYTHONPATH"] = str(SRC)

    def spawn(self, args: list[str]) -> Call:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(wall, proc.returncode, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())

    def cli(self, argv: list[str]) -> tuple[Call, bytes]:
        """One CLI call writing its CSV to a file; returns the call and the CSV."""
        out = self.workdir / "out.csv"
        out.unlink(missing_ok=True)
        call = self.spawn(["-m", "hsf.cli", *argv, "--out", str(out)])
        return call, out.read_bytes() if out.exists() else b""


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    Clamped at the (upper) median: with 2 * TAIL_BEYOND samples or fewer no
    percentile above the median qualifies, and the median is reported.  The
    clamp keeps the figure continuous in the number of calls a run makes.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def setup(runner: Runner) -> tuple[str, list[float]]:
    """hsf version, and wall times of fresh `--version` calls after a warm-up."""
    walls, version = [], None
    for _ in range(1 + SETUP_REPS):
        call = runner.spawn(["-m", "hsf.cli", "--version"])
        if call.returncode != 0:
            fail(f"`hsf --version` exited {call.returncode}:\n"
                 + call.stderr.decode(errors="replace"), 1)
        text = call.stdout.decode().strip()
        if version not in (None, text):
            fail(f"`hsf --version` printed {text!r}, then {version!r}", 1)
        version = text
        walls.append(call.wall)
    return version, walls[1:]


def make_gate(workload: str, seed: int, version: str) -> Gate:
    default = seed == DEFAULT_SEED
    digests = json.loads(DIGESTS.read_text(encoding="ascii"))[workload] if default else {}
    golden_key = "0.0" if default and workload == "sweep-grid" else None
    return Gate(version, digests, GOLDEN.read_bytes() if golden_key else None, golden_key)


def timed_run(runner: Runner, workload: str, seed: int, seconds: float,
              gate: Gate) -> dict:
    """Closed loop, one client: round r runs input r // 2 (see workloads.py)."""
    build, _ = WORKLOADS[workload]
    walls, rows, rss_kb, spent, rounds = [], 0, 0, 0.0, 0
    while rounds < MIN_ROUNDS or spent + spent / rounds <= seconds:
        k = rounds // 2
        for j, argv in enumerate(build(seed, k, runner.workdir)):
            call, payload = runner.cli(argv)
            if not gate.check(f"{k}.{j}", argv, call.returncode, payload):
                sys.stderr.write(call.stderr.decode(errors="replace"))
            walls.append(call.wall)
            rows += data_rows(payload)
            rss_kb = max(rss_kb, call.maxrss_kb)
            spent += call.wall
        rounds += 1
    value, pct = tail(walls)
    return {"rounds": rounds, "calls": len(walls), "rows": rows, "spent": spent,
            "rows_per_s": rows / spent, "call_p50_s": statistics.median(walls),
            "call_tail_s": value, "tail_pct": pct, "peak_rss_mb": rss_kb / 1024}


def _inprocess(calls, workdir: Path, gate: Gate) -> tuple[float, list[bytes]]:
    """Run calls through `hsf.cli.main` in this process: wall seconds, CSV outputs."""
    import hsf.cli

    out = workdir / "inprocess.csv"
    wall, payloads = 0.0, []
    for key, argv in calls:
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = hsf.cli.main([*argv, "--out", str(out)])
        except Exception:
            traceback.print_exc()
            code = -1
        wall += time.perf_counter() - t0
        payload = out.read_bytes() if out.exists() else b""
        gate.check(key, argv, code, payload)
        payloads.append(payload)
    return wall, payloads


def _traced_pass(calls, workdir: Path, gate: Gate) -> tuple[float, list[bytes], Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        wall, payloads = _inprocess(calls, workdir, gate)
    finally:
        tracer.uninstall()
    return wall, payloads, tracer


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative ms of `import hsf`, and of the numpy and scipy imports in it.

    A numpy module that scipy pulls in counts for scipy only, so the two
    figures do not overlap.
    """
    stack: list[tuple[int, str, int, list]] = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported package" in line:
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, raw.strip(), int(parts[1]), children))

    totals = {"hsf": 0, "numpy": 0, "scipy": 0}
    todo = [(node, False) for node in stack]
    while todo:
        (_, name, cumulative, children), in_hsf = todo.pop()
        package = name.split(".")[0]
        if package in totals and not (package == "hsf" and in_hsf):
            totals[package] += cumulative
        if package not in ("numpy", "scipy"):
            todo += [(child, in_hsf or package == "hsf") for child in children]
    return {f"import.{p}_ms": us / 1000 for p, us in totals.items()}


def traced_run(runner: Runner, workload: str, seed: int, gate: Gate) -> tuple[dict, Tracer]:
    build, inputs = WORKLOADS[workload]
    calls = [(f"{k}.{j}", argv) for k in range(inputs)
             for j, argv in enumerate(build(seed, k, runner.workdir))]
    cpu = 0.0
    for key, argv in calls:
        call, payload = runner.cli(argv)
        gate.check(key, argv, call.returncode, payload)
        cpu += call.cpu

    sys.path.insert(0, str(SRC))
    # A warm-up pass, then untraced and traced passes in the order U T T U, so
    # first-call costs and a steady drift in machine speed cancel out of
    # trace.overhead_frac.  Per-layer figures come from the first traced pass.
    _inprocess(calls, runner.workdir, gate)
    untraced = _inprocess(calls, runner.workdir, gate)[0]
    traced, payloads, tracer = _traced_pass(calls, runner.workdir, gate)
    traced += _traced_pass(calls, runner.workdir, gate)[0]
    untraced += _inprocess(calls, runner.workdir, gate)[0]
    print(f"  in-process wall, two passes each: untraced {untraced:.3f} s, "
          f"traced {traced:.3f} s")

    metrics = tracer.metrics()
    metrics.update({"cli.csv_bytes": sum(map(len, payloads)), "proc.cpu_s": cpu,
                    "trace.overhead_frac": traced / untraced - 1.0})
    cases = sum(map(case_counts, payloads), Counter())
    metrics.update({f"junta.case.{case}": cases[case] for case in CASES})
    imports = []
    for _ in range(IMPORT_REPS):
        call = runner.spawn(["-X", "importtime", "-c", "import hsf"])
        imports.append(parse_importtime(call.stderr.decode()))
    metrics.update({k: statistics.median(r[k] for r in imports) for k in imports[0]})
    kernels, absent = scaling_table(seed)
    metrics.update(kernels)
    tracer.absent.update(absent)
    return metrics, tracer


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hsf").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "argv": sys.argv,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    """One run; prints its report and returns the result object."""
    info = manifest(workload, seed, seconds, trace)
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        version, setup_walls = setup(runner)
        gate = make_gate(workload, seed, version)
        print(f"== {workload}  seed={seed}  trace={trace}  hsf {version}")
        if trace:
            values, tracer = traced_run(runner, workload, seed, gate)
            _print_layers(tracer, values)
            names = spec["per_layer"]
        else:
            values = timed_run(runner, workload, seed, seconds, gate)
            values["setup_s"] = statistics.median(setup_walls)
            _print_end_to_end(values, gate)
            names = spec["end_to_end"]
    for problem in gate.problems:
        print(f"  FAIL {problem}")
    info["calls"] = gate.inputs
    info["loadavg_end"] = os.getloadavg()
    print(json.dumps({"manifest": info}))
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in names}}


def _print_end_to_end(v: dict, gate: Gate) -> None:
    print(f"  setup_s      {v['setup_s']:.4f} s       median of {SETUP_REPS} `--version` calls")
    print(f"  rows_per_s   {v['rows_per_s']:.2f} rows/s  {v['rows']} rows in {v['spent']:.2f} s")
    print(f"  call_p50_s   {v['call_p50_s']:.4f} s       {v['calls']} calls in {v['rounds']} rounds")
    print(f"  call_tail_s  {v['call_tail_s']:.4f} s       p{v['tail_pct']:.0f} of {v['calls']} calls")
    print(f"  peak_rss_mb  {v['peak_rss_mb']:.1f} MiB")
    print(f"  failed_frac  {gate.failed / gate.attempted:.4f} ratio   "
          f"{gate.failed} of {gate.attempted} calls")


def _print_layers(tracer: Tracer, values: dict) -> None:
    summary = tracer.summary()
    print(f"  {'span':38} {'calls':>8} {'ms':>11} {'self_ms':>11}")
    for name, e in sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:38} {e['calls']:8d} {e['ms']:11.2f} {e['self_ms']:11.2f}")
    total_self = sum(e["self_ms"] for e in summary.values())
    print(f"  self times add up to {total_self:.2f} ms; cli.main spans last "
          f"{tracer.root_ms():.2f} ms")
    for name in sorted(values):
        print(f"  {name:44} {values[name]}")
    if tracer.absent:
        print(f"  absent: {', '.join(sorted(tracer.absent))}")


def record_digests() -> None:
    """Pin the CSV digests of each workload's first inputs at the default seed."""
    pinned = {}
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        version, _ = setup(runner)
        for workload, (build, inputs) in WORKLOADS.items():
            pinned[workload] = {}
            for k in range(max(inputs, RECORD_INPUTS)):
                for j, argv in enumerate(build(DEFAULT_SEED, k, runner.workdir)):
                    call, payload = runner.cli(argv)
                    problems = check_output(argv, call.returncode, payload, version)
                    if problems:
                        fail(f"{workload} input {k}: {problems}", 1)
                    pinned[workload][f"{k}.{j}"] = sha256(payload)
            print(f"{workload}: {len(pinned[workload])} digests", flush=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="ascii")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    for path in (SPEC, SRC / "hsf" / "cli.py", GOLDEN):
        if not path.is_file():
            fail(f"{path} is missing; run from a full checkout of the repository")
    if args.record_digests:
        record_digests()
        return
    if not DIGESTS.is_file():
        fail(f"{DIGESTS} is missing; pin it with --record-digests")
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec = json.loads(SPEC.read_text(encoding="ascii"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, args.trace, spec)
    else:
        results = {w: run_workload(w, args.seed, seconds, args.trace, spec) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
