"""Round-based benchmark of bbcells, run from the root of a checkout.

    python3 bench/run.py --workload monoids --seed 1 --seconds 20 --trace 0

Workloads: monoids, counting (see bench/README.md).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured with tracing off; with --trace 1 they are the
per-layer ones from a traced run (bench/tracing.py).

The process started here measures set-up in fresh processes and runs the
workload in one more; it imports nothing from bbcells itself.  Each worker
is this same file with --role.  Details of every run, the spans of a traced
run and, while a worker runs, its CLI input files are written under
bench/out/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads
from oracles import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5    # fresh processes whose median set-up time is setup_s
MIN_ROUNDS = 100    # so that ten or more rounds lie beyond the 90th percentile
CAP_FACTOR = 2      # a run stops at CAP_FACTOR * seconds even below MIN_ROUNDS
SPAN_CAP = 100_000  # a traced run stops early once this many spans are held
STARTUP_PROBES = 5  # subprocesses per cli.interpreter_ms / cli.startup_ms


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "probe", "run", "trace"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- main process

def child_argv(args, role):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role]


def setup_probe(args):
    """Seconds from starting a fresh worker until it has imported bbcells,
    built its inputs and finished one warm-up round."""
    t0 = perf_counter()
    proc = subprocess.Popen(child_argv(args, "probe"), cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


def run_child(args, role):
    proc = subprocess.run(child_argv(args, role), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main_process(args):
    if not (SRC / "bbcells" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bbcells sources under {SRC}; run from a checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)
    detail = {}
    if args.trace:
        result = run_child(args, "trace")
    else:
        setups = [setup_probe(args) for _ in range(SETUP_PROBES)]
        result = run_child(args, "run")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        detail["setup_samples_s"] = setups
    detail.update(result.pop("detail"))
    name = f"result-{args.workload}-{args.seed}-{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- workers

class Raised:
    """Output slot of an operation that raised; equal to nothing."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return False

    __hash__ = None


def run_round(ops):
    outs = []
    t0 = perf_counter_ns()
    for op in ops:
        try:
            outs.append(op.run())
        except Exception as exc:  # a failing instance is counted, not fatal
            outs.append(Raised(exc))
    return perf_counter_ns() - t0, outs


class Verifier:
    """Checks the warm-up outputs with the oracles, then every later output
    against them; an output that differs is checked with its oracle again."""

    def __init__(self, ops, outs):
        self.ops = ops
        self.correct = True
        self.errors = []
        self.reference = list(outs)
        self.bad = set()
        for i, (op, out) in enumerate(zip(ops, outs)):
            if not self._oracle(i, out):
                self.bad.add(i)

    def _oracle(self, i, out):
        if isinstance(out, Raised):
            self.errors.append(f"{self.ops[i].name}: {out.text}")
            return False
        try:
            self.ops[i].check(out)
        except CheckFailed as exc:
            self.correct = False
            self.errors.append(f"{self.ops[i].name}: {exc}")
            return False
        return True

    def failures(self, outs):
        failed = 0
        for i, out in enumerate(outs):
            if i in self.bad:
                failed += 1
            elif out != self.reference[i] and not self._oracle(i, out):
                failed += 1
        return failed


def import_bbcells():
    sys.path.insert(0, str(SRC))
    import bbcells
    if not Path(bbcells.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"bbcells imported from {bbcells.__file__}, not {SRC}")
    return bbcells


def timed_rounds(ops, verifier, seconds):
    times, failed = [], 0
    start = perf_counter()
    while True:
        dt, outs = run_round(ops)
        failed += verifier.failures(outs)
        times.append(dt)
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(times) >= MIN_ROUNDS) or elapsed >= CAP_FACTOR * seconds:
            break
    return times, len(times) * len(ops), failed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(args):
    import_bbcells()
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.make_batch(args.workload, args.seed, str(workdir))
        _, warm = run_round(ops)
        if args.role == "probe":
            sys.stdout.write("ready\n")
            sys.stdout.flush()
            return 0
        verifier = Verifier(ops, warm)
        if args.role == "run":
            attempted, failed, metrics, detail = measure(args, ops, verifier)
        else:
            attempted, failed, metrics, detail = traced(args, ops, verifier, warm)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": verifier.correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": dict(detail, batch=len(ops), errors=verifier.errors[:20]),
    }))
    return 0


def measure(args, ops, verifier):
    times, attempted, failed = timed_rounds(ops, verifier, args.seconds)
    total_s = sum(times) / 1e9
    metrics = {
        "solved_per_s": (attempted / total_s, "1/s"),
        "round_ms_p50": (statistics.median(times) / 1e6, "ms"),
        "round_ms_p90": (statistics.quantiles(times, n=10)[8] / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return attempted, failed, metrics, {"rounds": len(times)}


def subprocess_ms(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    samples = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter_ns()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        samples.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)


def traced(args, ops, verifier, warm):
    """Untraced and traced rounds in turn, for --seconds or until SPAN_CAP
    spans are held.  Alternating keeps a drift in machine speed out of
    trace.overhead_pct, which compares the median rounds of the two kinds;
    per-layer figures are per traced round."""
    import bbcells
    from tracing import Tracer

    tracer = Tracer(bbcells)
    times = ([], [])  # untraced, traced
    attempted = failed = 0
    start = perf_counter()
    i = 0
    while True:
        traced_round = i % 2 == 1
        if traced_round:
            tracer.new_round()
            tracer.install()
        try:
            dt, outs = run_round(ops)
        finally:
            tracer.uninstall()
        failed += verifier.failures(outs)
        attempted += len(ops)
        times[traced_round].append(dt)
        i += 1
        if i % 2 == 0 and (perf_counter() - start >= args.seconds
                           or tracer.span_count() >= SPAN_CAP):
            break
    plain, spans = times
    rounds = len(spans)
    totals = tracer.layer_totals()
    c = tracer.counters

    def calls(layer):
        return (totals[layer][0] / rounds, "count")

    def self_ms(layer):
        return (totals[layer][1] / 1e6 / rounds, "ms")

    def ratio(distinct, layer):
        n = totals[layer][0]
        return (distinct / n if n else 0.0, "ratio")

    m = {
        "intlinalg.calls": calls("intlinalg"),
        "intlinalg.self_ms": self_ms("intlinalg"),
        "polyhedra.self_ms": self_ms("polyhedra"),
        "polyhedra.fm_constraints": (c["fm_constraints"] / rounds, "count"),
        "polyhedra.feasibility_tests": (c["feasibility_tests"] / rounds, "count"),
        "lattice.cone.calls": calls("lattice.cone"),
        "lattice.cone.self_ms": self_ms("lattice.cone"),
        "lattice.kempf.calls": calls("lattice.kempf"),
        "lattice.kempf.self_ms": self_ms("lattice.kempf"),
        "lattice.kempf.distinct_ratio": ratio(c["kempf_distinct"], "lattice.kempf"),
        "lattice.reduce.self_ms": self_ms("lattice.reduce"),
        "algebra.truncate.calls": calls("algebra.truncate"),
        "algebra.truncate.self_ms": self_ms("algebra.truncate"),
        "algebra.graded_dimension.calls": calls("algebra.graded_dimension"),
        "algebra.graded_dimension.self_ms": self_ms("algebra.graded_dimension"),
        "algebra.count.self_ms": self_ms("algebra.count"),
        "algebra.count.monomials": (c["count_monomials"] / rounds, "count"),
        "algebra.count.distinct_ratio": ratio(c["count_distinct"], "algebra.truncate"),
        "algebra.present.self_ms": self_ms("algebra.present"),
        "polyparse.self_ms": self_ms("polyparse"),
        "hilb.linalg.calls": calls("hilb.linalg"),
        "hilb.linalg.self_ms": self_ms("hilb.linalg"),
        "hilb.armleg.calls": calls("hilb.armleg"),
        "hilb.armleg.self_ms": self_ms("hilb.armleg"),
        "hilb.cells.self_ms": self_ms("hilb.cells"),
        "hilb.partitions.self_ms": self_ms("hilb.partitions"),
        "cli.interpreter_ms": (subprocess_ms([sys.executable, "-c", "pass"]), "ms"),
        "cli.startup_ms": (subprocess_ms([sys.executable, "-c", "import bbcells.cli"]), "ms"),
        "cli.main_ms": self_ms("cli"),
        "cli.output_bytes": (output_bytes(ops, warm), "B"),
        "trace.overhead_pct": ((statistics.median(spans) / statistics.median(plain) - 1) * 100,
                               "%"),
    }
    detail = {"plain_rounds": len(plain), "traced_rounds": rounds,
              "spans": tracer.span_count()}
    tracer.write(OUT / f"trace-{args.workload}.json", {
        "workload": args.workload, "seed": args.seed, "traced_rounds": rounds,
        "counters": c, "layer_totals": totals})
    return attempted, failed, m, detail


def output_bytes(ops, warm):
    """Mean bytes a `cli.main` call of the batch writes to stdout."""
    sizes = [len(out[1].encode()) for op, out in zip(ops, warm) if op.name.startswith("cli ")]
    return sum(sizes) / len(sizes)


def main(argv=None):
    args = parse_args(argv)
    if args.role == "main":
        return main_process(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
