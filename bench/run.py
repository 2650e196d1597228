#!/usr/bin/env python3
"""Closed-loop benchmark of photonprep, one workload per process.

    python3 bench/run.py --workload herald_qudit --seed 1 --seconds 30 --trace 0

One client sends the next op only after the previous one returns. Op i's
input comes from (seed, i), and every output is checked outside the timer
(see workloads.py).

Latencies are the process CPU time of the op alone. The op runs on one
thread (BLAS is pinned below), so on an idle machine this equals its wall
time; on a shared virtual machine it leaves out hypervisor steal and
preemption by other tenants, which otherwise make the tail. Between ops,
outside the timer, a fixed reference kernel is timed the same way, and each
op's time is divided by the machine speed the reference measured just before
and just after it, so that drift in machine speed divides out. Set-up time
(import plus one warm-up op, in fresh processes) is CPU time too, but not
normalized: in a process that young the reference kernel reads erratically.
The raw wall figures are reported as machine.* and in the context.

With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json.
With --trace 1 every other op runs with spans around photonprep's public
functions (tracer.py); the result holds the per-layer metrics, counted per
traced op, and the spans are written under bench/out/. The last line of
stdout is the result object; the line before it gives the run's context:
versions, seed, the tail percentile with its sample count, layer shares.
"""

import os

# One BLAS thread, for this process and its set-up probes: with default
# threading a two-core machine mostly measures the scheduler. This has to
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import machine  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 5
# A 30-second run leaves about 20 to 60 samples beyond the 95th percentile;
# fewer than that made the tail of fixed-cost ops swing with single outliers.
TAIL_PERCENTILE = 95.0
TAIL_MIN_BEYOND = 10
SHOWN_FAILURES = 3


def fail(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="stop after this many ops (smoke runs)")
    return parser.parse_args()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "photonprep").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def setup_probes(workload: str, seed: int) -> list[dict]:
    """Import plus one warm-up op, each in a fresh process (probe_setup.py)."""
    probes = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["source"]).resolve().is_relative_to(SRC):
            fail(f"set-up probe imported photonprep from {probe['source']}, not {SRC}")
        probes.append(probe)
    return probes


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at TAIL_PERCENTILE, or, if a
    run is too short for ten samples beyond it, at the highest percentile
    that has them (the maximum below 20 samples)."""
    n = len(values)
    percentile = TAIL_PERCENTILE
    beyond = int(n * (100.0 - percentile) / 100.0 + 1e-9)
    if beyond < TAIL_MIN_BEYOND:
        percentile = 100.0 * (1.0 - TAIL_MIN_BEYOND / n) if n >= 2 * TAIL_MIN_BEYOND else 100.0
        beyond = int(n * (100.0 - percentile) / 100.0 + 1e-9)
    return percentile, float(np.percentile(values, percentile)), beyond


def main() -> None:
    args = parse_args()
    if not (SRC / "photonprep" / "__init__.py").is_file():
        fail(f"no photonprep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scipy

    import photonprep
    import tracer as tracing
    import workloads

    if not Path(photonprep.__file__).resolve().is_relative_to(SRC):
        fail(f"photonprep imported from {photonprep.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    w = workloads.WORKLOADS[args.workload]
    reference = machine.Reference()

    probes = setup_probes(args.workload, args.seed)

    tracer = tracing.Tracer(list(layer_map["functions"])) if args.trace else None
    w.op(w.make_input(np.random.default_rng([args.seed, 0])))  # warm-up
    reference.time()

    ops = []  # per attempted op: (traced, verified, wall s, cpu s)
    refs = [reference.time()]  # before the first op, then after each op
    raised = wrong = 0
    worst_infidelity = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds and (args.ops is None or len(ops) < args.ops):
        i = len(ops)
        rng = np.random.default_rng([args.seed, 1, i])
        inputs = w.make_input(rng)
        naive = rng if rng.random() < w.naive_fraction else None
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            output = w.op(inputs)
        except Exception:
            output = None
            error = traceback.format_exc()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if traced:
            tracer.uninstall()
        verified = False
        if output is None:
            raised += 1
            if raised + wrong <= SHOWN_FAILURES:
                print(f"op {i} raised:\n{error}", file=sys.stderr)
        else:
            try:
                worst_infidelity = max(worst_infidelity, w.check(inputs, output, naive))
                verified = True
            except workloads.CheckFailed as exc:
                wrong += 1
                if raised + wrong <= SHOWN_FAILURES:
                    print(f"op {i} failed its check: {exc}", file=sys.stderr)
        ops.append((traced, verified, wall, cpu))
        refs.append(reference.time())

    speed = [machine.speed(sample, w.python_share) for sample in refs]
    untraced = [(verified, wall, cpu / (0.5 * (speed[i] + speed[i + 1])))
                for i, (traced, verified, wall, cpu) in enumerate(ops) if not traced]
    latencies_s = [norm for verified, _, norm in untraced if verified]
    wall_s = [wall for verified, wall, _ in untraced if verified]
    traced_wall_s = [wall for traced, verified, wall, _ in ops if traced and verified]
    attempted = len(ops)
    if not latencies_s:
        fail(f"no op of {attempted} was verified")
    correct = wrong == 0
    ops_per_s = len(latencies_s) / sum(norm for _, _, norm in untraced)
    wall_ops_per_s = len(wall_s) / sum(wall for _, wall, _ in untraced)
    tail_p, tail_value, tail_beyond = tail(latencies_s)
    ref_ms = statistics.median(py + la for py, la in refs)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "raised": raised,
        "wrong": wrong,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "ref_ms_median": ref_ms,
        "speed_median": statistics.median(speed),
        "latency_samples": len(latencies_s),
        "tail_percentile": tail_p,
        "tail_samples_beyond": tail_beyond,
        "wall_ops_per_s": wall_ops_per_s,
        "wall_latency_p50_ms": statistics.median(wall_s) * 1e3,
        "setup_probes": probes,
    }

    if args.trace:
        totals = tracer.layer_totals()
        traced_ops = attempted // 2  # the odd-numbered ops
        traced_ms = sum(traced_wall_s) * 1e3
        missing_calls = [
            name for name, on in layer_map["functions"].items()
            if args.workload in on and name not in tracer.missing and totals[name]["calls"] == 0
        ]
        if missing_calls:
            correct = False
            print(f"trace self-check: no calls recorded for {missing_calls}", file=sys.stderr)
        extra = {
            "herald.identity_check_ms": totals["herald.identity_check"]["ms"] / max(traced_ops, 1),
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "setup.warmup_s": statistics.median(p["warmup_s"] for p in probes),
            "verify.worst_infidelity": worst_infidelity,
            "machine.ref_ms": ref_ms,
            "machine.wall_ops_per_s": wall_ops_per_s,
            "machine.wall_latency_p50_ms": context["wall_latency_p50_ms"],
            "machine.trace_overhead": len(traced_wall_s) / traced_ms * 1e3 / wall_ops_per_s if traced_ms else 0.0,
        }
        metrics = {}
        for spec in benchmark["per_layer"]:
            name = spec["name"]
            if name in extra:
                value = extra[name]
            else:
                function, kind = name.rsplit(".", 1)
                value = totals[function][kind] / max(traced_ops, 1)
            metrics[name] = {"value": value, "unit": spec["unit"]}
        context["traced_ops"] = traced_ops
        context["missing_functions"] = tracer.missing
        context["self_share"] = {
            name: round(entry["self_ms"] / traced_ms, 4) for name, entry in sorted(totals.items()) if traced_ms and entry["calls"]
        }
        context["permanent_share"] = totals["fock.permanent"]["ms"] / traced_ms if traced_ms else 0.0
        spans_file = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_file)
        context["spans_file"] = spans_file.relative_to(ROOT).as_posix()
    else:
        values = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(latencies_s) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "setup_s": statistics.median(p["import_s"] + p["warmup_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in benchmark["end_to_end"]}

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": raised + wrong, "metrics": metrics}))


if __name__ == "__main__":
    main()
