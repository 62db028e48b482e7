"""plateforces benchmark: one command, one workload, one JSON result.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Run from anywhere; it works on the checkout that holds this file and
builds nothing (the package is pure Python under src/).  Inputs are
generated from --seed under .bench_run/ and removed afterwards.

--trace 0 (end-to-end): a single closed-loop client spawns fresh
`plateforces` processes one at a time, never two at once, until their
summed wall time reaches --seconds.  Every output is checked by
checker.py outside the timed region.  Prints setup_s, latency_p50_s,
latency_tail_s, rows_per_s and peak_rss_mb; the peak is each child's
own VmHWM, which it reads from /proc/self/status as it exits.

--trace 1 (per layer): the same invocations run in-process through
`plateforces.cli.main`, alternating untraced and traced rounds, with
spans from spans.py; interpreter start and import cost come from
fresh child processes.  Prints the per-layer metrics.

The last stdout line is the result object; the line before it holds
the environment, sample counts, output sizes and layer breakdown, and
the same record is written to .bench_run/result-<workload>-seed<n>-trace<t>.json.
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
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict

import checker
import inputs
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

# What the `plateforces` console script runs, plus an exit hook that
# writes the process's peak resident set (VmHWM) to the file named by
# {peak!r}.  The ru_maxrss that wait4 reports cannot be used: a child
# started by posix_spawn (vfork) inherits at exec the peak of the
# benchmark process itself, which holds numpy and parsed outputs.
ENTRY = (
    "import atexit, sys\n"
    "def _peak():\n"
    "    try:\n"
    "        with open('/proc/self/status') as status, open({peak!r}, 'w') as out:\n"
    "            out.write(next(line for line in status if line.startswith('VmHWM:')))\n"
    "    except OSError:\n"
    "        pass\n"
    "atexit.register(_peak)\n"
    "from plateforces.cli import main\n"
    "sys.exit(main())\n"
)
# Interpreter start, package import and input loading, no computation.
SETUP = (
    "import sys\nimport plateforces.cli\nfrom plateforces import ingest_prior_bounds, load_config\n"
    "for path in sys.argv[1:]:\n"
    "    (ingest_prior_bounds if path.endswith('.csv') else load_config)(path)\n"
)
WHERE = "import sys, plateforces; sys.exit(0 if plateforces.__file__.startswith(sys.argv[1]) else 9)"
SETUP_REPS = 11
IMPORT_REPS = 5
TAIL_BEYOND = 10

PHYSICS_LAYERS = ("casimir", "gravity", "budget", "balance")

# Machine speed.  On a shared host the speed of this code drifts by 30 %
# and more over minutes, which swamps any regression bound.  A probe, a
# fresh `python -c "import numpy"`, is taken between child processes at
# most once a second of measured time; it tracks process start-up and
# the loading of a large package.  Each child's wall time is rescaled
# by the probes on either side of it to the speed at which the probe
# takes LOAD_REFERENCE_S (the median probe on a 2-vCPU Intel Xeon under
# Python 3.11.7 and numpy 2.4.6).  Raw times stay in the detail record.
LOAD_REFERENCE_S = 0.135
PROBE_EVERY_S = 1.0


class SpeedScale:
    """Speed probes between measured children.  Interval i lies between
    probe i and probe i + 1."""

    def __init__(self, child: "Child") -> None:
        self.child = child
        self.factors: list[float] = []
        self.loads: list[float] = []
        self.since = 0.0
        self.take()

    def take(self) -> None:
        load, code = self.child.run(["-c", "import numpy"])
        if code != 0:
            raise SystemExit(f"error: speed probe `import numpy` exited {code}")
        self.loads.append(load)
        self.factors.append(LOAD_REFERENCE_S / load)
        self.since = 0.0

    def measured(self, wall: float) -> int:
        """Count a measured child; return the interval it ran in."""
        interval = len(self.factors) - 1
        self.since += wall
        if self.since >= PROBE_EVERY_S:
            self.take()
        return interval

    def scale(self, walls: list[float], intervals: list[int]) -> list[float]:
        """Rescale walls by the mean factor of their interval's two probes."""
        if intervals and intervals[-1] == len(self.factors) - 1:
            self.take()
        f = self.factors
        return [wall * (f[i] + f[i + 1]) / 2.0 for wall, i in zip(walls, intervals)]

    def run_factor(self) -> float:
        """One factor for a whole run."""
        return statistics.median(self.factors)

    def record(self) -> dict:
        return {
            "probes": len(self.factors),
            "factor_median": self.run_factor(),
            "load_probe_median_s": statistics.median(self.loads),
        }


class Child:
    """Fresh interpreters spawned one at a time with the checkout's src/
    on the path; each is reaped before the next starts."""

    def __init__(self, work_dir: str):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.err_path = os.path.join(work_dir, "stderr.txt")

    def run(self, argv: list[str]) -> tuple[float, int]:
        """Wall seconds from spawn to reaped exit, and exit code."""
        create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, self.err_path, create, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        return time.perf_counter() - start, os.waitstatus_to_exitcode(status)

    def stderr(self) -> str:
        with open(self.err_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()


class Verifier:
    """Full check of the first output of each distinct invocation;
    later outputs of the same invocation must be byte-identical to it."""

    def __init__(self, parse):
        self.parse = parse
        self.digest: dict[int, str] = {}
        self.size: dict[int, int] = {}
        self.tally = checker.Tally()
        self.rows = 0

    def record(self, key: int, inv: inputs.Invocation, exit_code: int, stderr: str) -> None:
        try:
            with open(inv.out, "rb") as handle:
                output = handle.read()
        except FileNotFoundError:
            output = None
        if key not in self.digest:
            reason = checker.check(inv, exit_code, stderr, output, self.parse)
            if reason is None:
                self.digest[key] = hashlib.sha256(output).hexdigest()
                self.size[key] = len(output)
        else:
            reason = checker.exit_problem(exit_code, stderr)
            if reason is None and (output is None or hashlib.sha256(output).hexdigest() != self.digest[key]):
                reason = "output differs from an earlier run of the same invocation"
        self.tally.add(reason)
        if reason is None:
            self.rows += inv.rows


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def read_peak_kib(path: str) -> int:
    """The VmHWM line an ENTRY child wrote at exit, in KiB; 0 if none."""
    try:
        with open(path, encoding="ascii") as handle:
            fields = handle.read().split()
    except FileNotFoundError:
        return 0
    os.remove(path)
    return int(fields[1]) if len(fields) == 3 and fields[2] == "kB" else 0


def latency_summary(samples: list[float]) -> dict:
    """Median and the highest percentile with at least TAIL_BEYOND samples
    above it.  With fewer than 2 * TAIL_BEYOND samples that percentile
    would fall below the median, so the tail is reported as the median."""
    ordered = sorted(samples)
    n = len(ordered)
    p50 = statistics.median(ordered)
    if n - TAIL_BEYOND > n / 2:
        tail, percentile, beyond = ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    else:
        tail, percentile, beyond = p50, 50.0, n // 2
    return {"p50_s": p50, "tail_s": tail, "tail_percentile": percentile, "samples": n, "samples_beyond_tail": beyond}


def rows_per_second(workload: inputs.Workload, keys: list[int], walls: list[float]) -> float:
    """Rows of one pass over the distinct commands, over the sum of each
    command's median wall time; medians keep single slow runs out."""
    by_key = defaultdict(list)
    for key, wall in zip(keys, walls):
        by_key[key].append(wall)
    rows = sum(workload.invocations[key].rows for key in by_key)
    return rows / sum(statistics.median(samples) for samples in by_key.values())


def run_untraced(workload: inputs.Workload, seconds: float, work_dir: str, parse) -> dict:
    child = Child(work_dir)
    problems = []
    if child.run(["-c", WHERE, SRC])[1] != 0:
        raise SystemExit(f"error: child interpreters do not import plateforces from {SRC}")

    peak_path = os.path.join(work_dir, "peak.txt")
    entry = ENTRY.format(peak=peak_path)
    setup_args = ["-c", SETUP, *(cfg.path for cfg in workload.configs)]
    if workload.prior is not None:
        setup_args.append(workload.prior.path)
    speed = SpeedScale(child)
    verifier = Verifier(parse)
    setup, setup_at, walls, walls_at, keys = [], [], [], [], []
    peak_kib, i, next_setup = 0, 0, 0.0
    while sum(walls) < seconds:
        # set-up children are spread over the loop so that they see the
        # same machine as the invocations
        if sum(walls) >= next_setup:
            wall, code = child.run(setup_args)
            stderr = child.stderr()
            setup.append(wall)
            setup_at.append(speed.measured(wall))
            next_setup += seconds / SETUP_REPS
            if code != 0:
                problems.append(f"set-up child exited {code}: {stderr.strip()[-300:]}")
        key = i % len(workload.invocations)
        inv = workload.invocations[key]
        _remove(inv.out)
        wall, code = child.run(["-c", entry, *inv.args])
        stderr = child.stderr()
        walls.append(wall)
        walls_at.append(speed.measured(wall))
        keys.append(key)
        peak_kib = max(peak_kib, read_peak_kib(peak_path))
        verifier.record(key, inv, code, stderr)
        i += 1

    if peak_kib == 0:
        raise SystemExit("error: no child reported its peak RSS (VmHWM in /proc/self/status)")
    setup_scaled = speed.scale(setup, setup_at)
    walls_scaled = speed.scale(walls, walls_at)
    latency = latency_summary(walls_scaled)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "latency_p50_s": (latency["p50_s"], "s"),
        "latency_tail_s": (latency["tail_s"], "s"),
        "rows_per_s": (rows_per_second(workload, keys, walls_scaled), "rows/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    detail = {
        "latency": latency,
        "setup_samples": len(setup),
        "raw": {
            "setup_s": statistics.median(setup),
            "latency": latency_summary(walls),
            "rows_per_s": rows_per_second(workload, keys, walls),
        },
        "speed": speed.record(),
        "measured_s": sum(walls),
    }
    return {"metrics": metrics, "verifier": verifier, "detail": detail, "problems": problems}


def _import_times(child: Child) -> tuple[float, float]:
    """Cumulative import time of plateforces.cli and of numpy within it,
    from `python -X importtime` in a fresh interpreter (seconds)."""
    wall, code = child.run(["-X", "importtime", "-c", "import plateforces.cli"])
    if code != 0:
        raise SystemExit(f"error: importing plateforces.cli failed: {child.stderr().strip()[-300:]}")
    cumulative = {}
    for line in child.stderr().splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            name = name.strip()
            if name not in cumulative and cum.strip().isdigit():
                cumulative[name] = int(cum) * 1e-6
    return cumulative.get("plateforces.cli", 0.0), cumulative.get("numpy", 0.0)


def _call_main(args: list[str]) -> tuple[int, str]:
    import plateforces.cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = plateforces.cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            code = 1
    return code, err.getvalue()


def run_traced(workload: inputs.Workload, seconds: float, work_dir: str, parse) -> dict:
    start = time.perf_counter()
    child = Child(work_dir)
    speed = SpeedScale(child)
    startup, import_pf, import_np = [], [], []
    for _ in range(IMPORT_REPS):
        startup.append(child.run(["-c", "pass"])[0])
        pf, np_ = _import_times(child)
        import_pf.append(pf)
        import_np.append(np_)

    verifier = Verifier(parse)
    tracer = spans.Tracer()
    invocations = workload.invocations
    round_time = {False: [], True: []}

    def run_round(traced: bool) -> None:
        total = 0.0
        for key, inv in enumerate(invocations):
            _remove(inv.out)
            if traced:
                tracer.invocation += 1
            t0 = time.perf_counter()
            code, stderr = _call_main(inv.args)
            total += time.perf_counter() - t0
            verifier.record(key, inv, code, stderr)
        round_time[traced].append(total)
        speed.measured(total)

    remaining = seconds - (time.perf_counter() - start)
    while not round_time[True] or sum(round_time[False]) + sum(round_time[True]) < remaining:
        run_round(traced=False)
        tracer.install()
        try:
            run_round(traced=True)
        finally:
            tracer.uninstall()

    n = len(round_time[True]) * len(invocations)
    summary = spans.summarize(tracer.spans)
    by_name, counts = summary["by_name"], tracer.counts

    def total(name: str) -> float:
        return by_name.get(name, {}).get("total", 0.0)

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    layer_self, layer_calls, layer_errors = defaultdict(float), defaultdict(int), defaultdict(int)
    cli_cmd_self = 0.0
    for name, entry in by_name.items():
        layer = name.split(".")[0]
        layer_self[layer] += entry["self"]
        layer_calls[layer] += entry["calls"]
        layer_errors[layer] += entry["errors"]
        if name.startswith("cli.cmd_"):
            cli_cmd_self += entry["self"]

    def ratio(numerator: float, denominator: float, scale: float) -> float:
        return scale * numerator / denominator if denominator else 0.0

    traced_wall = sum(round_time[True])
    untraced_wall = sum(round_time[False])
    metrics = {
        "python.startup_s": (statistics.median(startup), "s"),
        "import.plateforces_s": (statistics.median(import_pf), "s"),
        "import.numpy_s": (statistics.median(import_np), "s"),
        "config.load_config_s": (total("config.load_config") / n, "s"),
        "config.load_config_calls": (calls("config.load_config") / n, "count"),
        "config.ingest_prior_s": (total("config.ingest_prior_bounds") / n, "s"),
        "config.prior_rows": (counts["config.prior_rows"] / n, "count"),
    }
    for layer in PHYSICS_LAYERS:
        metrics[f"{layer}.busy_s"] = (layer_self[layer] / n, "s")
        metrics[f"{layer}.calls"] = (layer_calls[layer] / n, "count")
    scan, interp, to_csv = total("exclusion.exclusion_scan"), total("exclusion.PriorBounds.alpha_at"), total("tables.ResultTable.to_csv")
    metrics.update({
        "exclusion.scan_s": (scan / n, "s"),
        "exclusion.alpha_evals": (counts["exclusion.alpha_evals"] / n, "count"),
        "exclusion.ns_per_alpha": (ratio(scan, counts["exclusion.alpha_evals"], 1e9), "ns"),
        "exclusion.prior_interp_s": (interp / n, "s"),
        "exclusion.prior_queries": (calls("exclusion.PriorBounds.alpha_at") / n, "count"),
        "exclusion.us_per_prior_query": (ratio(interp, calls("exclusion.PriorBounds.alpha_at"), 1e6), "us"),
        "tables.table_init_s": (total("tables.ResultTable.__init__") / n, "s"),
        "tables.to_csv_s": (to_csv / n, "s"),
        "tables.bytes_out": (counts["tables.bytes_out"] / n, "bytes"),
        "tables.ns_per_value": (ratio(to_csv, counts["tables.values_out"], 1e9), "ns"),
        "cli.write_s": (by_name.get("cli._write", {}).get("self", 0.0) / n, "s"),
        "cli.self_s": (cli_cmd_self / n, "s"),
    })
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = (layer_errors[layer], "count")
    overhead = statistics.median(round_time[True]) - statistics.median(round_time[False])
    metrics["trace.overhead_s"] = (overhead / len(invocations), "s")
    # one factor for the whole run: spans within a round are not probed
    scale = speed.run_factor()
    raw = {name: value for name, (value, _) in metrics.items()}
    metrics = {
        name: (value * scale if unit in ("s", "ns", "us") else value, unit)
        for name, (value, unit) in metrics.items()
    }

    # Per-invocation time of a user's run: interpreter start, import,
    # then the in-process layers; the layer self times add up to the
    # traced in-process wall time.
    model = {"python.startup": raw["python.startup_s"], "import": raw["import.plateforces_s"]}
    for layer in spans.LAYERS:
        model[layer] = layer_self[layer] / n
    detail = {
        "traced_invocations": n,
        "untraced_in_process_s_per_invocation": untraced_wall / n,
        "traced_in_process_s_per_invocation": traced_wall / n,
        "layer_self_sum_s": sum(layer_self.values()),
        "traced_root_span_s": summary["root_time"],
        "traced_wall_s": traced_wall,
        "time_model_s_per_invocation": model,
        "dominant": max(model, key=model.get),
        "spans": len(tracer.spans),
        "speed": speed.record(),
        "raw": raw,
    }
    return {"metrics": metrics, "verifier": verifier, "detail": detail, "problems": [], "spans": tracer.spans}


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="plateforces benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plateforces", "cli.py")):
        print(f"error: no plateforces package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import plateforces
        import plateforces.cli
        from plateforces.tables import ResultTable
    except ImportError as exc:
        print(f"error: cannot import plateforces from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not plateforces.__file__.startswith(SRC):
        print(f"error: plateforces imported from {plateforces.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(RUN_DIR, f"{tag}-{os.getpid()}")
    try:
        problems = []
        try:
            checker.self_test(os.path.join(work_dir, "self-test"), plateforces.cli.main, ResultTable.from_csv)
        except Exception as exc:  # a program too broken to run the self-test
            problems.append(f"checker self-test: {exc!r}")
        workload = inputs.build(args.workload, args.seed, os.path.relpath(work_dir, ROOT))
        run = run_traced if args.trace else run_untraced
        result = run(workload, args.seconds, work_dir, ResultTable.from_csv)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    verifier = result["verifier"]
    problems += result["problems"] + verifier.tally.reasons
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "plateforces": getattr(plateforces, "__version__", "unknown"),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "distinct_invocations": len(workload.invocations),
        "output_bytes": {workload.invocations[k].args[0] + f"#{k}": size for k, size in sorted(verifier.size.items())},
        "rows_written": verifier.rows,
        "failed_ops_ratio": verifier.tally.failed / max(verifier.tally.attempted, 1),
        "problems": problems,
        **result["detail"],
    }
    os.makedirs(RUN_DIR, exist_ok=True)
    with open(os.path.join(RUN_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    if "spans" in result:
        with open(os.path.join(RUN_DIR, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(span) + "\n")
    print(json.dumps(detail))
    final = {
        "correct": not problems,
        "attempted": verifier.tally.attempted,
        "failed": verifier.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
