"""charlab benchmark: wall time to a checked answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through the real ``charlab`` CLI in child processes, one
child at a time, with BLAS threads pinned to 1, for about ``--seconds`` of
workload cycles.  It checks every child's exit code and reports against the
committed ``out/*`` files.  Times are the children's CPU seconds scaled to
a reference CPU speed measured by a probe running beside them (probe.py),
because raw wall time on a shared host swings with its load; the raw wall
times are reported too.  It prints a human-readable report followed, as the
last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced children only).
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics from the traced ones (see trace_child.py) together with
the tracing overhead.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import check
from probe import REF_UNITS_PER_S, SpeedProbe
from trace_child import LAYER_FUNCTIONS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
ALL_STAGES = ("geometry", "orbits", "index", "resonance")

# a child still running this long after the benchmark started is killed
# (and counted as failed), so a run always ends within 180 s
DEADLINE_S = 170
SETUP_LAUNCHES = 5
# on a shared 2-CPU machine, default BLAS threading made repeated runs
# spread by up to 50%
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# set-up as a user pays it: interpreter launch, the imports of charlab,
# numpy and scipy, and RunConfig.load
SETUP_SNIPPET = ("import sys, numpy, scipy, charlab.cli\n"
                 "charlab.cli.RunConfig.load(sys.argv[1], {'seed': int(sys.argv[2])})\n"
                 "print(charlab.__file__)\n")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                 # shipped config the workload starts from
    reference: str              # committed reports the outputs must match
    steps: tuple                # timed CLI calls of one cycle: (command, stages)
    prepare: tuple = ()         # untimed CLI calls before the first cycle
    enable_galerkin: bool = False   # turn galerkin.enable on in the generated config
    fresh_out_dir: bool = True  # each cycle starts from an empty output dir


WORKLOADS = {w.name: w for w in (
    # most index-heavy shipped input: the crossing scan is ~90% of the run,
    # and the audit extends the index tables to m = 100
    Workload("ell3_full", "configs/ellipsoid_3d.json", "out/ellipsoid_3d",
             steps=(("run", None), ("audit", None))),
    # no index work: shooting, gates, re-integration and the Galerkin
    # Newton solve; the bypass side for index-engine changes
    Workload("perturbed_orbits", "configs/perturbed_2d.json", "out/perturbed_2d",
             steps=(("run", "geometry,orbits"),), enable_galerkin=True),
    # consumes earlier stages' files: resonance-only resume plus audit
    Workload("ell2_resume", "configs/ellipsoid_2d.json", "out/ellipsoid_2d",
             prepare=(("run", None),),
             steps=(("run", "resonance"), ("audit", None)),
             fresh_out_dir=False),
)}

END_TO_END = {"run_s": "s", "cycle_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer, names in LAYER_FUNCTIONS.items():
        units[f"{layer}.self_s"] = "s"
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update({"index.iterates": "count", "cli.bytes_written": "bytes",
                  "cli.upstream_files_rewritten": "count", "trace.run_s": "s",
                  "trace.untraced_run_s": "s", "trace.overhead_ratio": "ratio"})
    return units


# -- child processes ----------------------------------------------------------

def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # imports read cached bytecode, as in an installed charlab; the cache
    # lives in the work dir, so src/charlab stays untouched
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


@dataclass
class Launch:
    wall_s: float
    cpu_s: float                # user + system CPU seconds of the child
    speed: float                # probe units per CPU second while it ran
    code: int
    peak_rss_mb: float
    log: Path

    @property
    def norm_s(self) -> float:
        """CPU seconds scaled to the probe's reference speed (probe.py)."""
        return self.cpu_s * self.speed / REF_UNITS_PER_S

    def tail(self) -> str:
        text = self.log.read_text(errors="replace").strip().splitlines()
        return " | ".join(text[-3:])


class Runner:
    """Launches one child at a time and times it from launch to exit."""

    def __init__(self, env: dict, log_dir: Path, deadline: float,
                 probe: SpeedProbe):
        self.env = env
        self.probe = probe
        self.log_dir = log_dir
        self.deadline = deadline
        self.count = 0

    def launch(self, argv) -> Launch:
        self.count += 1
        log = self.log_dir / f"child{self.count:04d}.log"
        with open(log, "wb") as out:
            before = self.probe.read()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(0.0, self.deadline - time.perf_counter()),
                                     proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
            speed = self.probe.rate(before, self.probe.read())
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Launch(wall, usage.ru_utime + usage.ru_stime, speed, code,
                      usage.ru_maxrss / 1024.0, log)


def snapshot(d: Path) -> dict:
    if not d.is_dir():
        return {}
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size,
                     hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(d.iterdir()) if p.is_file()}


def earlier_stage_files(command: str, stages: list) -> set:
    """Report files of the stages before the first one this call runs."""
    if command == "audit":
        first = len(ALL_STAGES)
    else:
        first = min(ALL_STAGES.index(s) for s in stages)
    return {name for s in ALL_STAGES[:first] for name in check.PIPELINE_FILES[s]}


# -- spans ----------------------------------------------------------------------

def span_totals(spans: list) -> tuple:
    """Per-name (calls, self seconds), and the seconds covered by root spans.

    Self time is a span's duration minus its direct children's durations;
    spans nest because the traced program is single-threaded."""
    child_time = [0.0] * len(spans)
    root_time = 0.0
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            root_time += end - start
    totals = {}
    for (name, _, start, end), inner in zip(spans, child_time):
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end - start - inner))
    return totals, root_time


# -- one run -------------------------------------------------------------------

class Bench:
    def __init__(self, wl: Workload, seed: int, run_dir: Path, deadline: float,
                 probe: SpeedProbe):
        self.wl = wl
        self.seed = seed
        self.run_dir = run_dir
        self.out_dir = run_dir / "out"
        self.ref_dir = ROOT / wl.reference
        self.runner = Runner(child_env(WORK), run_dir, deadline, probe)
        config = json.loads((ROOT / wl.config).read_text())
        if wl.enable_galerkin:
            config.setdefault("galerkin", {})["enable"] = True
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=1))
        self.tol = check.tolerances(config)
        self.galerkin = bool(config.get("galerkin", {}).get("enable"))
        self.first_audit = {}
        self.attempted = 0
        self.failures = []
        self.charlab_origin = None

    def record(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:5]))

    def setup_launch(self) -> Launch:
        lr = self.runner.launch([sys.executable, "-c", SETUP_SNIPPET,
                                 str(self.config_path), str(self.seed)])
        problems = [] if lr.code == 0 else [f"exit {lr.code}: {lr.tail()}"]
        if lr.code == 0:
            self.charlab_origin = lr.log.read_text().strip().splitlines()[-1]
        self.record("setup", problems)
        return lr

    def invoke(self, command: str, stages, traced: bool) -> dict:
        args = [command, str(self.config_path), "--out-dir", str(self.out_dir),
                "--seed", str(self.seed)]
        if stages:
            args += ["--stages", stages]
        spans_path = self.run_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                    str(spans_path)] + args
        else:
            argv = [sys.executable, "-m", "charlab.cli"] + args
        stage_list = stages.split(",") if stages else list(ALL_STAGES)
        before = snapshot(self.out_dir)
        lr = self.runner.launch(argv)
        after = snapshot(self.out_dir)
        written = [n for n in after if after[n] != before.get(n)]
        upstream = earlier_stage_files(command, stage_list)
        step = {"command": command, "stages": stages, "wall_s": lr.wall_s,
                "cpu_s": lr.cpu_s, "speed": lr.speed, "norm_s": lr.norm_s,
                "peak_rss_mb": lr.peak_rss_mb, "exit": lr.code,
                "bytes_written": sum(after[n][1] for n in written),
                "upstream_rewritten": sorted(n for n in written
                                             if n in upstream and n in before)}
        problems = [] if lr.code == 0 else [f"exit {lr.code} (expected 0): {lr.tail()}"]
        try:
            if command == "run":
                problems += check.check_run_outputs(
                    self.ref_dir, self.out_dir, self.tol, stage_list, self.galerkin)
            else:
                problems += check.check_audit_outputs(self.out_dir, self.tol,
                                                      self.first_audit)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            problems.append(f"malformed report: {type(e).__name__}: {e}")
        if traced:
            trace = {"spans": [], "index_iterates": 0, "missing": []}
            if spans_path.exists():
                trace = json.loads(spans_path.read_text())
                spans_path.unlink()
            else:
                problems.append("traced child wrote no spans")
            step["totals"], step["root_s"] = span_totals(trace["spans"])
            step["index_iterates"] = trace["index_iterates"]
            step["missing"] = trace["missing"]
        self.record(f"{command} {stages or 'all'}", problems)
        return step

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for command, stages in self.wl.prepare:
            self.invoke(command, stages, traced=False)

    def cycle(self, traced: bool) -> dict:
        if self.wl.fresh_out_dir:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            self.out_dir.mkdir(parents=True)
        steps = [self.invoke(c, s, traced) for c, s in self.wl.steps]
        return {"traced": traced, "steps": steps,
                "wall_s": sum(s["wall_s"] for s in steps),
                "norm_s": sum(s["norm_s"] for s in steps),
                "peak_rss_mb": max(s["peak_rss_mb"] for s in steps)}


# -- metrics -------------------------------------------------------------------

def tail_percentile(values: list):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def step_times(cycles: list, command: str, key: str = "norm_s") -> list:
    return [s[key] for c in cycles for s in c["steps"] if s["command"] == command]


def end_to_end(cycles: list, setup: list) -> tuple:
    """Bounded metrics are medians of normalised seconds; the raw wall
    seconds (``wall_*``) are kept in the report and result.json."""
    samples = {"run_s": step_times(cycles, "run"),
               "audit_s": step_times(cycles, "audit"),
               "cycle_s": [c["norm_s"] for c in cycles],
               "setup_s": [lr.norm_s for lr in setup],
               "peak_rss_mb": [c["peak_rss_mb"] for c in cycles],
               "wall_run_s": step_times(cycles, "run", "wall_s"),
               "wall_audit_s": step_times(cycles, "audit", "wall_s"),
               "wall_cycle_s": [c["wall_s"] for c in cycles],
               "wall_setup_s": [lr.wall_s for lr in setup]}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    return metrics, samples


def per_layer(cycles: list) -> dict:
    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]
    first = traced[0]["steps"]
    values = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fn in (f"{layer}.{n}" for n in names):
            values[f"{fn}.calls"] = sum(s["totals"].get(fn, (0, 0.0))[0] for s in first)
            values[f"{fn}.self_s"] = statistics.median(
                sum(s["totals"].get(fn, (0, 0.0))[1] * s["speed"] / REF_UNITS_PER_S
                    for s in c["steps"])
                for c in traced)
        values[f"{layer}.self_s"] = sum(values[f"{layer}.{n}.self_s"] for n in names)
    values["index.iterates"] = sum(s["index_iterates"] for s in first)
    values["cli.bytes_written"] = sum(s["bytes_written"] for s in first)
    values["cli.upstream_files_rewritten"] = sum(len(s["upstream_rewritten"])
                                                 for s in first)
    values["trace.run_s"] = statistics.median(step_times(traced, "run"))
    values["trace.untraced_run_s"] = statistics.median(step_times(plain, "run"))
    values["trace.overhead_ratio"] = values["trace.run_s"] / values["trace.untraced_run_s"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def environment(seed: int, origin) -> dict:
    commit = None
    if (ROOT / ".git").exists():     # else git would report an enclosing repo
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "charlab").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_commit": commit, "src_charlab_sha256": src.hexdigest(),
            "charlab_imported_from": origin,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "blas_threads": PINNED_THREADS, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "seed": seed}


# -- entry point ---------------------------------------------------------------

def preflight(wl: Workload):
    need = [ROOT / "src" / "charlab" / "cli.py", ROOT / wl.config, ROOT / wl.reference]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.exists()]
    return f"missing {', '.join(missing)}" if missing else None


def print_report(wl, args, env, bench, cycles, samples, metrics):
    print(f"# charlab benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, vals in samples.items():
        if not vals:
            continue
        line = (f"{name:<12} median {statistics.median(vals):.4f} "
                f"{END_TO_END.get(name, 's')}  n={len(vals)}")
        tail = tail_percentile(vals)
        line += f"  p{tail[0]} {tail[1]:.4f}" if tail else "  (too few samples for a tail percentile)"
        print(line)
    speeds = [s["speed"] for c in cycles for s in c["steps"]]
    print(f"probe speed  median {statistics.median(speeds):.0f} units/s, range "
          f"{min(speeds):.0f}-{max(speeds):.0f} (reference {REF_UNITS_PER_S:.0f})")
    failed = len(bench.failures)
    print(f"fail_frac    {failed / bench.attempted:.4f}  ({failed} of "
          f"{bench.attempted} invocations)")
    for f in bench.failures:
        print(f"FAILED {f}")
    for c in cycles:
        if not c["traced"]:
            continue
        for s in c["steps"]:
            layers = {}
            for fn, (_, self_s) in s["totals"].items():
                layer = fn.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + self_s
            parts = ", ".join(f"{k} {v:.3f}s ({v / s['wall_s']:.0%})"
                              for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
            print(f"traced {s['command']} {s['stages'] or 'all'}: wall "
                  f"{s['wall_s']:.3f}s; {parts}; outside spans "
                  f"{s['wall_s'] - s['root_s']:.3f}s; upstream rewritten "
                  f"{s['upstream_rewritten']}")
            if s["missing"]:
                print(f"  not in the program: {', '.join(s['missing'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    problem = preflight(wl)
    if problem:
        print(f"perfbench: cannot run: {problem}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    # SIGTERM unwinds through the finally blocks that stop the probe and
    # the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    with SpeedProbe(run_dir / "probe.shm", child_env(WORK)) as probe:
        return measure(args, wl, Bench(wl, args.seed, run_dir, deadline, probe))


def measure(args, wl: Workload, bench: Bench) -> int:
    run_dir = bench.run_dir

    bench.setup_launch()            # warm-up: fills the bytecode cache
    origin = bench.charlab_origin
    if origin is not None and not Path(origin).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: charlab did not import from this checkout's src/ "
              f"({origin}); see {run_dir}", file=sys.stderr)
        return 2
    setup = []
    if not args.trace:
        setup = [bench.setup_launch() for _ in range(SETUP_LAUNCHES)]
    bench.prepare()

    cycles = []
    t0 = time.perf_counter()
    # start another cycle only if, at the mean cycle time so far, it ends
    # within --seconds, so a run's length stays near --seconds on a slow
    # machine too; with --trace 1, cycles alternate untraced and traced,
    # at least one each
    while len(cycles) < 1 + args.trace or (
            (time.perf_counter() - t0) * (1 + 1 / len(cycles)) <= args.seconds):
        cycles.append(bench.cycle(traced=bool(args.trace) and len(cycles) % 2 == 1))

    if args.trace:
        metrics, samples = per_layer(cycles), {}
    else:
        metrics, samples = end_to_end(cycles, setup)
    env = environment(args.seed, origin)
    print_report(wl, args, env, bench, cycles, samples, metrics)
    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": len(bench.failures), "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"env": env, "samples": samples, "failures": bench.failures,
         "cycles": cycles, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
