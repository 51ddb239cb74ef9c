"""Benchmark runner for rankworth.

    python3 perfbench/run.py --workload stress --seed 3 --seconds 25 --trace 0

Runs closed-loop passes of one workload (one process, one caller, each
pass starting after the previous one ends) for ``--seconds`` seconds,
checks every pass's outputs against ``reference.json`` and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

Other modes:
    --record       write reference.json from the current program
    --self-check   run every workload once in both modes and check the
                   printed metrics and the correctness check itself
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported (here or in
# a child process, which inherits the environment).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
CACHE = WORK / "inputs"
RESULTS = WORK / "results"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sushi", "stress", "tree", "race")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import rankworth from this checkout's ``src`` and nowhere else."""
    if not (SRC / "rankworth" / "__init__.py").is_file():
        fail(f"no rankworth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rankworth

    if Path(rankworth.__file__).resolve().parent != (SRC / "rankworth").resolve():
        fail(f"imported rankworth from {rankworth.__file__}, not from {SRC}")
    return rankworth


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload: str, seed: int) -> None:
    """Child process (the program is imported): make the workload ready."""
    import workloads

    workloads.load(workload, seed, CACHE)
    print("ready", flush=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh process to a ready workload.
    The caller has imported the same files already, so they are cached."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            fail(f"set-up probe for {workload} failed (exit {code})")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes


class Ledger:
    """Operations attempted and failed, and whether any output was wrong."""

    def __init__(self, workloads, workload, reference, tolerance):
        self.w = workloads
        self.workload = workload
        self.reference = reference
        self.tolerance = tolerance
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = Counter()

    def expected_ops(self) -> int:
        if self.workload == "tree":
            return len(self.reference)
        return len(self.w.OPERATIONS[self.workload])

    def record(self, out, error, inp) -> None:
        if error is not None:
            n = self.expected_ops()
            self.attempted += n
            self.failed += n
            self.correct = False
            self.notes[f"pass raised {error}"] += 1
            return
        ops = self.w.operations(self.workload, out, inp)
        self.attempted += max(len(ops), self.expected_ops())
        self.failed += max(0, self.expected_ops() - len(ops))
        for op in ops:
            ref = self.reference.get(op.ref_key)
            bad = (["no reference entry"] if ref is None
                   else self.w.mismatches(op, ref, self.tolerance))
            if not op.ok:
                self.failed += 1
                self.notes[f"{op.name}: reported converged=False"] += 1
            elif bad:
                self.failed += 1
                self.correct = False
                for b in bad:
                    self.notes[b] += 1


def run_pass(workloads, workload, inp):
    try:
        return workloads.PASSES[workload](inp), None
    except Exception as exc:  # a failing pass is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import rankworth as rw
    import tracing
    import workloads

    spec = load_spec()
    reference = load_reference(workloads, workload, seed)
    tolerance = workloads.Tolerance(rw.FitConfig().tol)
    workloads.prepare(workload, seed, CACHE)
    setup_s = setup_seconds(workload, seed) if not traced else None
    inp = workloads.load(workload, seed, CACHE)
    ledger = Ledger(workloads, workload, reference, tolerance)
    tracer = tracing.Tracer() if traced else None

    warm, error = run_pass(workloads, workload, inp)      # warm-up, checked, untimed
    ledger.record(warm, error, inp)
    del warm
    times = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        trace_this = traced and k % 2 == 1
        gc.collect()
        if trace_this:
            tracer.begin_pass(k)
        start = time.perf_counter()
        out, error = run_pass(workloads, workload, inp)
        elapsed = time.perf_counter() - start
        if trace_this:
            tracer.end_pass()
        times[trace_this].append(elapsed)
        ledger.record(out, error, inp)
        del out
        k += 1
        enough = times[False] and (times[True] or not traced)
        if enough and time.perf_counter() >= deadline:
            break

    plain = times[False]
    if traced:
        gc.collect()
        tracer.memory_pass(lambda: run_pass(workloads, workload, inp))
        values = tracer.layer_metrics()
        values["trace.overhead"] = tracing.overhead(times[True], plain)
        section = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "pass_s_p50": statistics.median(plain),
            "rankings_per_s": inp.size["rows"] * len(plain) / sum(plain),
            "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"

    metrics, absent = {}, []
    for m in spec[section]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        else:
            absent.append(m["name"])
    record = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "env": environment(), "input": dict(inp.size),
        "passes": {"timed": len(plain), "traced": len(times[True]), "warmup": 1},
        "pass_s": plain,
        "tolerance": tolerance.describe(),
        "failures": dict(ledger.notes), "absent": absent,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}"
    stem.with_suffix(".json").write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    if traced:
        tracer.write(stem.with_suffix(".spans.tsv"))
    for key in ("env", "input", "passes", "failures", "absent"):
        print(f"{key} {json.dumps(record[key])}")
    return {"correct": ledger.correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# reference outputs


def load_reference(workloads, workload: str, seed: int) -> dict:
    if not REFERENCE.is_file():
        fail(f"{REFERENCE} not found")
    data = json.loads(REFERENCE.read_text())
    return data["workloads"][workload][str(workloads.base_seed(seed))]


def record_reference() -> None:
    """Record every workload's outputs for every base seed."""
    import rankworth as rw
    import workloads

    data = {"tol": rw.FitConfig().tol, "base_seeds": workloads.BASE_SEEDS,
            "workloads": {}}
    for workload in WORKLOAD_NAMES:
        entries = data["workloads"][workload] = {}
        for base in range(workloads.BASE_SEEDS):
            workloads.prepare(workload, base, CACHE)
            inp = workloads.load(workload, base, CACHE)
            out = workloads.PASSES[workload](inp)
            entries[str(base)] = workloads.reference_entry(
                workloads.operations(workload, out, inp))
            print(f"recorded {workload} seed {base}", flush=True)
    REFERENCE.write_text(json.dumps(data, indent=0) + "\n")


# ---------------------------------------------------------------------------
# self-check


def perturb(entry: dict, field: str, tolerance) -> None:
    """Move one reference value ten tolerances away."""
    if field == "coef":
        entry[field][-1] += 10 * tolerance.coef_abs
    elif field == "loglik":
        entry[field] += 10 * tolerance.loglik_rel * abs(entry[field])
    elif field == "splits":
        entry[field][0][3] += 1e-3
    else:
        entry[field][-1] *= 1 + 10 * tolerance.se_rel


def self_check() -> None:
    """One short run of every workload in both modes: every metric of
    BENCHMARK.json is printed with its unit, outputs check as correct,
    and a perturbed reference makes the check fail."""
    import rankworth as rw
    import workloads

    spec = load_spec()
    tolerance = workloads.Tolerance(rw.FitConfig().tol)
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(want) ^ set(got))}"
                                " missing or extra, or units differ")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: outputs not correct")
            print(f"{workload} trace={trace}: {len(got)} metrics, attempted "
                  f"{result['attempted']}, failed {result['failed']}", flush=True)

        # the check must reject outputs that drift from the reference
        inp = workloads.load(workload, 0, CACHE)
        ops = workloads.operations(workload, workloads.PASSES[workload](inp), inp)
        reference = load_reference(workloads, workload, 0)
        clean = [b for op in ops for b in workloads.mismatches(op, reference[op.ref_key],
                                                                tolerance)]
        if clean:
            problems.append(f"{workload}: unperturbed reference rejected: {clean}")
        for key, field in (("fit", "coef"), ("fit", "loglik"), ("summary", "se"),
                           ("qv", "quasi_se"), ("node1", "coef"), ("node1", "loglik"),
                           ("tree", "splits")):
            if key not in reference:
                continue
            bad_ref = copy.deepcopy(reference)
            perturb(bad_ref[key], field, tolerance)
            caught = [b for op in ops if op.ref_key == key
                      for b in workloads.mismatches(op, bad_ref[key], tolerance)]
            if not caught:
                problems.append(f"{workload}: perturbed {key}.{field} not detected")
    if problems:
        print("self-check FAILED:\n  " + "\n  ".join(problems))
        sys.exit(1)
    print("self-check passed")


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    warnings.simplefilter("ignore")   # non-convergence is read from the fits
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.record:
        record_reference()
    elif args.self_check:
        self_check()
    else:
        if args.workload is None:
            parser.error("--workload is required")
        seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
        result = measure(args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))


if __name__ == "__main__":
    main()
