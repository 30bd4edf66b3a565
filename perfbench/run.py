"""qpwave benchmark: one seeded workload, a closed loop with one caller.

    python3 perfbench/run.py --workload {sweep-b1,solve-b2,lde-scan} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qpwave is imported from ``src/`` of
that checkout and nowhere else.  BLAS/OpenMP pools are pinned to one thread
before numpy loads.

A run imports qpwave, builds input 0 from the seed and runs it once untimed
(the warm-up op).  It then runs inputs 1, 2, ... until the ops' own wall time
is within half an op (half a cycle for lde-scan) of ``--seconds``, checking
every output outside the clock.  At the end op
0 is run again and must reproduce the sha256 of its output (byte-identical
reruns).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
the set-ups of this process and of fresh child processes (five in all, three
for solve-b2), each timed from the first line of this script through import,
input generation and the warm-up op (interpreter start-up before the first
line is not included).  The children run one at a time, outside the clock,
between groups of ops at evenly spaced points of the run (any the run ends
before run after it), so that the median does not rest on one stretch of it;
they double as reruns of op 0 in fresh processes.
``ops_per_s`` is the ops that passed over the wall time of the timed ops.

``--trace 1`` runs every input twice, untraced and then traced, in one
process, requires equal output digests, reruns op 0 in-process at the end,
and reports per-layer metrics (per-op means over the traced ops, see
spans.py) together with the tracing overhead.

Every metric is printed as ``name value unit``; the last line is one JSON
object with the metrics BENCHMARK.json names.  The full result (environment,
every metric, per-phase breakdown, op digests, failures) is written to
``.perfbench_out/`` in the checkout, with the spans of a traced run.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170          # exit non-zero rather than overrun the 180 s limit
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Abort(BaseException):
    """The run hit DEADLINE_S or got SIGTERM.  A BaseException, so that the
    per-op error handling in :func:`execute` cannot swallow it; unwinding
    kills a running set-up child and removes the work directory."""


def import_qpwave():
    if not (SRC / "qpwave" / "__init__.py").is_file():
        raise BenchError(f"no qpwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpwave
    if Path(qpwave.__file__).resolve().parent != (SRC / "qpwave").resolve():
        raise BenchError(f"imported qpwave from {qpwave.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    wall: float
    phases: dict        # phase name -> seconds
    digest: Optional[str]
    notes: dict         # counts of correct-but-notable outcomes
    error: Optional[str]  # None when the op ran and passed its checks

    @property
    def ok(self):
        return self.error is None


def execute(wl, op_id, inp, tracer=None) -> OpResult:
    """Run one op (timed) and check it (untimed)."""
    phases = {}

    @contextmanager
    def phase(name):
        idx = tracer.open("op." + name) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0
            if idx is not None:
                tracer.close(idx)

    wl.prepare(inp)
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    error = outputs = None
    try:
        t0 = time.perf_counter()
        try:
            outputs = wl.run(inp, phase)
        except Exception:
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest, notes = None, {}
    if error is None:
        try:
            digest, notes = wl.check(inp, outputs)
        except Exception:
            error = traceback.format_exc(limit=4)
    return OpResult(wall, phases, digest, notes, error)


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------

def tail(values):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it (nearest rank), or None when there are too few."""
    xs = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(xs))
        if rank >= 1 and len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "qpwave").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def setup_probe(args) -> dict:
    """Set-up time and op-0 digest from a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"setup_s": None, "digest": None,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(args):
    import_qpwave()
    import spans
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](workdir)
    try:
        first = execute(wl, 0, wl.make_input(args.seed, 0))
        setup_main = time.perf_counter() - _T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main, "digest": first.digest,
                              "error": first.error}))
            return 0
        return measure(args, wl, first, setup_main, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, first, setup_main, spans):
    tracer = spans.Tracer() if args.trace else None
    failures = {}                       # op id -> message
    if not first.ok:
        failures[0] = first.error
    results = []                        # (op id, untraced, traced or None)
    setups = [setup_main]
    # set-up children run when the timed total passes these marks
    marks = [] if args.trace else [
        args.seconds * (k + 0.5) / wl.setup_children
        for k in range(wl.setup_children)]

    def setup_child():
        child = setup_probe(args)
        if child["setup_s"] is not None:
            setups.append(child["setup_s"])
        if child["error"]:
            failures.setdefault(0, f"op 0 in a fresh process failed: "
                                   f"{child['error']}")
        elif child["digest"] != first.digest:
            failures.setdefault(0, "op 0 in a fresh process changed its "
                                   "output digest")

    timed = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    i = 1
    while True:
        inp = wl.make_input(args.seed, i)
        plain = execute(wl, i, inp)
        traced = execute(wl, i, inp, tracer) if tracer is not None else None
        timed += plain.wall + (traced.wall if traced else 0.0)
        results.append((i, plain, traced))
        for res in (plain, traced):
            if res is not None and not res.ok:
                failures.setdefault(i, res.error)
        if traced is not None and plain.ok and traced.ok \
                and plain.digest != traced.digest:
            failures.setdefault(i, "traced output digest differs from "
                                   "the untraced one")
        i += 1
        if len(results) % wl.group:
            continue
        groups = len(results) // wl.group
        # stop on a whole group once the next one would end nearer past the
        # target than this one ends before it, so runs average --seconds
        if timed + 0.5 * timed / groups >= args.seconds:
            break
        if marks and timed >= marks[0]:
            marks.pop(0)
            child_t0 = time.perf_counter()
            setup_child()
            wall0 += time.perf_counter() - child_t0   # not in cpu_per_wall
    # cpu_per_wall counts this process only, so its wall excludes children
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    if args.trace:
        rerun = execute(wl, 0, wl.make_input(args.seed, 0))
        if first.ok and rerun.digest != first.digest:
            failures.setdefault(0, "rerun of op 0 changed its output digest")
    for _ in marks:
        setup_child()

    attempted = 1 + len(results)
    passed = [plain for i, plain, _t in results if i not in failures]
    metrics, notes = {}, {}
    for _i, plain, _t in results:
        for key, value in plain.notes.items():
            notes[key] = notes.get(key, 0) + value
    notes["fail_frac"] = f"{len(failures)} of {attempted} ops"
    if args.trace:
        walls = {i: t.wall for i, _p, t in results}
        layer, layer_notes = spans.layer_metrics(tracer, walls)
        metrics.update(layer)
        notes.update(layer_notes)
        metrics["trace_overhead_s"] = (statistics.median(
            t.wall - p.wall for _i, p, t in results), "s")
        metrics["process.cpu_per_wall"] = (cpu_per_wall, "ratio")
        notes["traced_ops"] = len(walls)
        leftover = spans.leftover_wrappers()
        if leftover:
            failures.setdefault(-1, f"names still wrapped: {leftover}")
    else:
        op_walls = [p.wall for _i, p, _t in results]
        metrics["setup_s"] = (statistics.median(setups), "s")
        notes["setup_s"] = f"median of {len(setups)} set-ups " + \
            ", ".join(f"{s:.3f}" for s in setups)
        metrics["ops_per_s"] = (len(passed) / sum(op_walls), "1/s")
        notes["ops_per_s"] = f"{len(passed)} passed in {sum(op_walls):.3f} s"
        metrics["op_s.p50"] = (statistics.median(op_walls), "s")
        for name in sorted({ph for p in passed for ph in p.phases}):
            xs = [p.phases[name] for p in passed if name in p.phases]
            metrics[f"{name}_s.p50"] = (statistics.median(xs), "s")
            tl = tail(xs)
            if tl is None:
                notes[f"{name}_s.tail"] = f"undefined: {len(xs)} samples"
            else:
                metrics[f"{name}_s.tail"] = (tl[1], "s")
                notes[f"{name}_s.tail"] = f"p{tl[0]:g} of {len(xs)} samples"
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["fail_frac"] = (len(failures) / attempted, "ratio")
        metrics["process.cpu_per_wall"] = (cpu_per_wall, "ratio")

    chosen = listed_metrics(args.trace, metrics)
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv.gz")
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "ops": [{"op": i, "wall": p.wall, "phases": p.phases,
                 "digest": p.digest,
                 "traced_wall": t.wall if t is not None else None}
                for i, p, t in [(0, first, None)] + results],
        "failures": {str(k): v for k, v in failures.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, note in notes.items():
        if name not in metrics and isinstance(note, (str, int)):
            print(f"# {name}: {note}")
    for op, msg in sorted(failures.items()):
        print(f"# FAILED op {op}: {msg.strip().splitlines()[-1]}")

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": chosen}))
    return 0


def listed_metrics(trace, metrics):
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        if entry["name"] not in metrics:
            raise BenchError(f"BENCHMARK.json names {entry['name']}, "
                             "which this run does not measure")
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise BenchError(f"{entry['name']}: unit {unit} here, "
                             f"{entry['unit']} in BENCHMARK.json")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-b1", "solve-b2", "lde-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    def abort(signum, frame):
        raise Abort(f"{signal.Signals(signum).name}: stopped "
                    f"(the run may take at most {DEADLINE_S} s)")

    signal.signal(signal.SIGALRM, abort)
    signal.signal(signal.SIGTERM, abort)
    signal.alarm(DEADLINE_S)
    try:
        return run(args)
    except (BenchError, Abort) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
