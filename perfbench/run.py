"""llgeo benchmark: one command per workload run, from the repository root.

    python3 perfbench/run.py --workload evolve --seed 0 --seconds 28 --trace 0

Workloads: evolve, survey, bracket, cli_pipeline (see README.md for what
each one stresses and why).  Every operation's output is checked; a failed
check counts in `failed` and its time is never reported.

--trace 0 measures the end-to-end metrics with no tracing installed; the
set-up and pass times are scaled to the quiet host's speed (see Reference).
--trace 1 runs the workload untraced for half the time, then one traced
pass that wraps llgeo's public functions, and reports the per-layer
metrics.  The metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A run record (versions, CPU, thread settings, seed) is printed before it
and written, with the traced run's spans, under .perfbench_out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import TRACED_MODULES, Spans, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# Time of reference_kernel() on the 2-core Xeon (KVM guest) the bounds were
# set on, when its shared host was quiet.  Timings are scaled to this speed
# (see Reference).
REFERENCE_KERNEL_S = 0.033


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def declared_metrics():
    """name -> unit for the end-to-end and the per-layer metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------- timing

_REFERENCE_IN = np.linspace(0.0, 1.0, 1 << 18)    # two 2 MiB arrays: beyond L2
_REFERENCE_OUT = np.empty_like(_REFERENCE_IN)


def reference_kernel():
    """A fixed mix of interpreter work and numpy passes over preallocated
    arrays (no allocation, so the process's heap history cannot change its
    cost); returns its wall time."""
    t0 = perf_counter()
    total = 0
    for i in range(80_000):
        total += i % 7
    for _ in range(40):
        np.multiply(_REFERENCE_IN, _REFERENCE_IN, out=_REFERENCE_OUT)
        np.add(_REFERENCE_OUT, 1.0, out=_REFERENCE_OUT)
        np.sqrt(_REFERENCE_OUT, out=_REFERENCE_OUT)
    return perf_counter() - t0


class Reference:
    """Times reference_kernel() before and after each timed call.  On a
    shared host whose speed drifts, a call's time multiplied by
    REFERENCE_KERNEL_S / (mean of the two kernel times around it) reads as
    on the quiet host: host drift cancels, while a change to llgeo does not,
    because the kernel calls no llgeo code."""

    def __init__(self):
        self.times = []

    def sample(self):
        self.times.append(reference_kernel())

    def scaled(self, elapsed):
        """elapsed, timed since the last sample, at the quiet host's speed.
        Samples the kernel again, which also starts the next bracket."""
        before = self.times[-1]
        self.sample()
        return elapsed * REFERENCE_KERNEL_S / ((before + self.times[-1]) / 2)


class Samples:
    """Per operation kind: measured and, with a Reference, scaled wall times
    and the outcomes of the operations that passed their checks, plus
    attempt and failure counts."""

    def __init__(self, kinds, reference=None):
        self.kinds = kinds
        self.reference = reference
        self.times = {k: [] for k in kinds}
        self.scaled = {k: [] for k in kinds}
        self.outcomes = {k: [] for k in kinds}
        self.attempted = 0
        self.failed = 0

    def record(self, kind, op):
        self.attempted += 1
        t0 = perf_counter()
        try:
            outcome = op(kind)
        except Exception:   # any failure of one operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            if self.reference is not None:
                self.reference.sample()
            return None
        elapsed = perf_counter() - t0
        self.times[kind].append(elapsed)
        if self.reference is not None:
            self.scaled[kind].append(self.reference.scaled(elapsed))
        self.outcomes[kind].append(outcome)
        return elapsed

    def wall_s(self, scaled=False):
        """Median time of one pass: the sum over kinds of each kind's median."""
        times = self.scaled if scaled else self.times
        return sum(statistics.median(t) for t in times.values() if t)

    def all_outcomes(self):
        return [o for k in self.kinds for o in self.outcomes[k]]


def run_closed_loop(kinds, op, seconds, reference):
    """Run operations one after another, cycling through the kinds: every
    kind once, then more while the next one is expected (from its median so
    far) to end within `seconds`."""
    samples = Samples(kinds, reference)
    reference.sample()
    t_start = perf_counter()
    for kind in kinds:
        samples.record(kind, op)
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        expected = statistics.median(samples.times[kind]) if samples.times[kind] else 0.0
        if perf_counter() - t_start + expected > seconds:
            return samples
        samples.record(kind, op)
        i += 1


def measure_setup(name, seed, env, reference):
    """Median wall time, measured and scaled, of SETUP_REPEATS fresh
    processes that import llgeo and generate the inputs (for cli_pipeline:
    interpreter plus import)."""
    if name == "cli_pipeline":
        cmd = [sys.executable, "-c", "import llgeo.cli"]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)]
    measured, scaled = [], []
    reference.sample()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                       timeout=120)
        measured.append(perf_counter() - t0)
        scaled.append(reference.scaled(measured[-1]))
    return statistics.median(measured), statistics.median(scaled)


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli_pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6   # ru_maxrss is KiB


# ---------------------------------------------------------------- operations

def make_op(name, inputs, scale, workdir, env, launcher_spans=None):
    """kind -> Outcome for one operation of the workload."""
    import workloads as w

    if name == "evolve":
        return lambda leg: w.evolve_leg(inputs, leg, scale)
    if name == "survey":
        return lambda snap: w.survey_snapshot(inputs, snap)
    if name == "bracket":
        return lambda m: w.bracket_verdict(inputs, m)
    if launcher_spans is None:
        prefix = [sys.executable, "-m", "llgeo.cli"]
    else:
        prefix = [sys.executable, str(BENCH_DIR / "launcher.py"), str(launcher_spans)]
    return lambda chain: w.cli_chain(inputs, chain, workdir, prefix, env)


def workload_figures(name, samples):
    """Rates and accuracy figures of the untraced operations."""
    outs = samples.all_outcomes()
    times = [t for k in samples.kinds for t in samples.times[k]]
    fig = {
        "workload.cell_steps_per_s": 0.0,
        "workload.snapshots_per_s": 0.0,
        "workload.bracket_s": 0.0,
        "workload.energy_drift_rel": 0.0,
        "workload.route_gap_rel": 0.0,
        "workload.bracket_rel_err": 0.0,
        "workload.failed_ratio": samples.failed / samples.attempted,
    }
    worst = max((o.accuracy for o in outs), default=0.0)
    if name == "evolve" and outs:
        fig["workload.cell_steps_per_s"] = (sum(o.cell_steps for o in outs)
                                            / sum(o.simulate_s for o in outs))
        fig["workload.energy_drift_rel"] = worst
    elif name == "survey" and outs:
        fig["workload.snapshots_per_s"] = len(outs) / sum(times)
        fig["workload.route_gap_rel"] = worst
    elif name == "bracket" and outs:
        fig["workload.bracket_s"] = statistics.median(times)
        fig["workload.bracket_rel_err"] = worst
    return fig


# ---------------------------------------------------------------- traced pass

def traced_pass(name, seed, scale, workdir, env):
    """Generate the inputs and run each operation kind once with every
    wrapper installed.  Returns (spans, op seconds, total seconds, meta)."""
    import workloads as w

    tracer = Tracer()
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    samples = Samples(w.operations(name))
    op_seconds = 0.0
    t_start = perf_counter()
    tracer.install()
    try:
        inputs = w.make_inputs(name, seed, scale)
        op = make_op(name, inputs, scale, workdir, env, launcher_spans=spans_dir)
        for run_id, kind in enumerate(samples.kinds, start=1):
            tracer.run_id = run_id
            op_seconds += samples.record(kind, op) or 0.0
    finally:
        tracer.uninstall()
    total = perf_counter() - t_start

    parts = [tracer.spans()]
    launches = []
    for run_id, path in enumerate(sorted(spans_dir.glob("spans-*.npz")), start=100):
        part, meta = Spans.load(path, run_id)
        parts.append(part)
        launches.append(meta)
    spans = Spans.merge(parts)
    return spans, op_seconds, total, {"launches": launches, "attempted": samples.attempted,
                                      "failed": samples.failed}


def layer_metrics(spans, op_seconds, total_s, untraced_wall, launches):
    ms = lambda label: spans.median(label) * 1e3          # noqa: E731
    per = lambda a, b: a / b if b else 0.0                # noqa: E731
    m = {}
    for kind in ("rk4_2d", "midpoint_2d", "rk4_3d"):
        m[f"dynamics.step.{kind}.ms"] = ms(f"dynamics.step.{kind}")
    for kind in ("rk4_2d", "midpoint_2d"):
        m[f"dynamics.rhs_evals_per_step.{kind}"] = per(
            spans.children_of("dynamics.variational_derivative_energy",
                              f"dynamics.step.{kind}"),
            spans.count(f"dynamics.step.{kind}"))
    for fn in ("variational_derivative_energy", "make_report", "energy"):
        m[f"dynamics.{fn}.ms"] = ms(f"dynamics.{fn}")

    for fn in ("degree", "momentum_P_general", "rotational_momentum", "lift_psi",
               "momentum_JH", "reduced_momentum_lift", "check_lift_identity",
               "gauge_invariance_residual", "momentum_P_cross"):
        m[f"momenta.{fn}.ms"] = ms(f"momenta.{fn}")
    partial_in_report = spans.mask("calculus.partial") & spans.under("dynamics.make_report")
    m["momenta.partial.calls_per_report"] = per(int(partial_in_report.sum()),
                                                spans.count("dynamics.make_report"))

    counters = spans.counters
    for fn in ("right_gradient_stack", "so3_log", "so3_exp", "functional_derivative",
               "partial"):
        m[f"calculus.{fn}.ms"] = ms(f"calculus.{fn}")
    m["calculus.so3_log.cells"] = float(counters["calculus.so3_log.cells"])
    m["calculus.so3_log.useful_ratio"] = per(counters["calculus.so3_log.useful_cells"],
                                             counters["calculus.so3_log.cells"])
    m["calculus.functional_evals_per_cell"] = per(
        spans.children_of("momenta.momentum_P_general", "calculus.functional_derivative"),
        counters["calculus.functional_derivative.cells"])

    m["cocycle.check_px_py_bracket.s"] = spans.median("cocycle.check_px_py_bracket")
    for fn in ("lie_poisson_bracket", "cocycle_direct", "cocycle_via_pairing"):
        m[f"cocycle.{fn}.ms"] = ms(f"cocycle.{fn}")

    for label in ("fields.check_invariants", "grid.boundary_mask"):
        m[f"{label}.calls"] = float(spans.count(label))
        m[f"{label}.ms"] = ms(label)
    for fn in ("make_bp_soliton", "make_random_smooth"):
        m[f"generators.{fn}.ms"] = ms(f"generators.{fn}")
    for fn in ("write_snapshot", "read_snapshot", "write_report_csv"):
        m[f"io.{fn}.ms"] = ms(f"io.{fn}")
    m["io.bytes_written"] = float(counters["io.bytes_written"])
    m["io.bytes_read"] = float(counters["io.bytes_read"])

    m["cli.import_s"] = (statistics.median(x["import_s"] for x in launches)
                         if launches else 0.0)
    for cmd in ("init", "simulate", "diagnose", "cocycle", "lift-check"):
        m[f"cli.{cmd}.s"] = spans.median(f"cli.{cmd}")
    m["cli.nonzero_exits"] = float(sum(1 for x in launches if x["exit_code"] != 0))

    m["trace.overhead_ratio"] = per(op_seconds, untraced_wall)
    for module in TRACED_MODULES:
        m[f"{module}.self_share"] = spans.self_share(module, total_s)
    return m


# ---------------------------------------------------------------- run record

def run_record(name, seed, seconds, trace):
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cache(level):
        try:
            proc = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                  capture_output=True, text=True)
        except OSError:
            return None
        return int(proc.stdout) if proc.stdout.strip().isdigit() else None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "cpu": cpu,
        "l2_bytes": cache(2), "l3_bytes": cache(3),
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "LLGEO_THREADS")},
        "git_commit": commit or "unknown (not a git checkout)",
    }


# ---------------------------------------------------------------- entry point

def benchmark(name, seed, seconds, trace, scale="full"):
    """Run one workload; returns (result dict, run record)."""
    import workloads as w

    env = _child_env()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        kinds = w.operations(name)
        reference = Reference()
        if trace:
            inputs = w.make_inputs(name, seed, scale)
            untraced = run_closed_loop(
                kinds, make_op(name, inputs, scale, workdir, env), seconds / 2, reference)
            spans, op_s, total_s, meta = traced_pass(name, seed, scale, workdir, env)
            spans.save(OUT_DIR / f"spans-{name}.npz")
            metrics = layer_metrics(spans, op_s, total_s, untraced.wall_s(),
                                    meta["launches"])
            metrics.update(workload_figures(name, untraced))
            metrics["workload.reference_kernel_ms"] = statistics.median(reference.times) * 1e3
            attempted = untraced.attempted + meta["attempted"]
            failed = untraced.failed + meta["failed"]
        else:
            setup_measured, setup_s = measure_setup(name, seed, env, reference)
            inputs = w.make_inputs(name, seed, scale)
            samples = run_closed_loop(kinds, make_op(name, inputs, scale, workdir, env),
                                      seconds, reference)
            metrics = {"setup_s": setup_s, "wall_s": samples.wall_s(scaled=True),
                       "peak_rss_mb": peak_rss_mb(name)}
            measured = {"setup_s": setup_measured, "wall_s": samples.wall_s(),
                        "reference_kernel_s": statistics.median(reference.times)}
            attempted, failed = samples.attempted, samples.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, layers = declared_metrics()
    units = layers if trace else e2e
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = run_record(name, seed, seconds, trace)
    if not trace:
        record["unscaled"] = measured
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("evolve", "survey", "bracket", "cli_pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "llgeo" / "__init__.py").is_file():
        return _fail(f"no llgeo sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import llgeo

    if Path(llgeo.__file__).resolve().parent != SRC / "llgeo":
        return _fail(f"imported llgeo from {llgeo.__file__}, not from {SRC}")

    result, record = benchmark(args.workload, args.seed, args.seconds, args.trace)
    with open(OUT_DIR / f"record-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print("run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
