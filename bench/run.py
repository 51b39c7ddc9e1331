"""seidelkit benchmark: three seeded workloads through the public API.

    python3 bench/run.py --workload adj-docs --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json, from a
closed loop with one client in a fresh child process. --trace 1 prints the
per-layer metrics from a separate traced run of a fixed, seed-determined op
list, plus the CLI wall times. Human-readable lines come first; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

Every child runs with one BLAS thread (see BLAS_THREADS). All
scratch files live under .bench_work/ in the checkout and are removed at the
end; trace spans are kept in .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("adj-docs", "lq-states", "strength-scan")
SETUP_REPS = 7
CLI_REPS = 3
# One BLAS thread: with one per CPU, a busy sibling CPU on a shared machine
# stalls every multi-threaded call, and run-to-run spread rises several-fold.
BLAS_THREADS = 1
SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; reads cpuid, not the filesystem


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer")


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=cap,
        OMP_NUM_THREADS=cap,
        MKL_NUM_THREADS=cap,
        PYTHONHASHSEED="0",
    )
    return env


def child_timeout(seconds: float) -> float:
    """A timed child spends `seconds` in ops plus up to about 0.7x that on
    generation and oracles; the other children take a few seconds."""
    return 3.0 * seconds + 60.0


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[float, int]:
    """Run a child to completion; returns (wall seconds, peak RSS in KiB).

    The child is reaped with wait4 so its own resource usage is read, not
    the sum over every child this process ever had.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    deadline = t0 + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError(f"child timed out after {timeout:.0f} s: {argv[1:4]}")
        time.sleep(0.005)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {' '.join(argv[1:4])}")
    return wall, usage.ru_maxrss


def worker(mode: str, args, out: Path, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out), *extra]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = int(ctypes.CDLL(None).sysconf(SC_LEVEL3_CACHE_SIZE))
    except (OSError, AttributeError):
        l3 = -1
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "l3_bytes": l3,
    }


def measure_setup(args, work: Path, env: dict) -> list[float]:
    """Fresh interpreter to `import seidelkit` done, plus one warm-up op on
    an input that does not depend on the seed."""
    times = []
    for rep in range(SETUP_REPS):
        out = work / f"setup{rep}.json"
        t_spawn = time.perf_counter()
        run_child(worker("setup", args, out), env, child_timeout(args.seconds))
        r = json.loads(out.read_text())
        times.append(r["import_done"] - t_spawn + r["warm_s"])
    return times


def export_fixtures(work: Path) -> Path:
    sys.path.insert(0, str(SRC))
    import seidelkit as sk

    fixtures = work / "fixtures"
    fixtures.mkdir()
    for name in ("fig2", "fig4_left"):
        sk.write_document(sk.load_fixture(name), fixtures / f"{name}.graph")
    return fixtures


def cli_walls(fixtures: Path, env: dict, timeout: float) -> dict:
    py = sys.executable
    commands = {
        "cli.import_s": [py, "-c", "import seidelkit"],
        "cli.help_wall_s": [py, "-m", "seidelkit.cli", "--help"],
        "cli.switch_fig2_verify_wall_s": [py, "-m", "seidelkit.cli", "switch",
                                          str(fixtures / "fig2.graph"), "--verify",
                                          "--out", str(fixtures / "wall_fig2.graph")],
        "cli.strength_scan_100_wall_s": [py, "-m", "seidelkit.cli", "strength-scan",
                                         "--max-order", "100", "--include-blocks",
                                         "--out", str(fixtures / "wall_scan.csv")],
    }
    return {name: statistics.median(run_child(argv, env, timeout)[0] for _ in range(CLI_REPS))
            for name, argv in commands.items()}


def describe_mix(workload: str, r: dict) -> str:
    mix = r["mix"]
    if not mix["edges"]:
        return f"mix {workload}: fixed input strength_scan(200, include_blocks=True)"
    p, q, rr = mix["pqr"]
    orders = sorted((int(k), v) for k, v in mix["orders"].items())
    shown = orders if len(orders) <= 4 else f"{len(orders)} distinct in {orders[0][0]}..{orders[-1][0]}"
    return (f"mix {workload}: inputs={r['attempted']} orders={shown} "
            f"edges(min/median/max)={'/'.join(map(str, mix['edges']))} cells={mix['cells']} "
            f"hub categories p/q/r={p}/{q}/{rr} asymmetric={mix['asymmetric']}/{r['attempted']} "
            f"cancelling category-1 vectors={mix['cancelling']}")


def untraced(args, work: Path, env: dict) -> tuple[dict, dict, list[str]]:
    setup = measure_setup(args, work, env)
    out, inputs = work / "timed.json", work / "inputs.pickle"
    timeout = child_timeout(args.seconds)
    run_child(worker("timed", args, out, "--inputs", str(inputs)), env, timeout)
    # peak RSS of the ops alone: the timed child also holds inputs' ground
    # truth and runs the oracles
    rss_out = work / "rss.json"
    _, rss_kib = run_child(worker("rss", args, rss_out, "--inputs", str(inputs)), env, timeout)
    r = json.loads(out.read_text())
    rss_ops = json.loads(rss_out.read_text())["ops"]
    samples = r["samples"]
    n = len(samples)
    metrics = {
        "ops_per_s": statistics.median(r["window_rates"]),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "peak_rss_mb": rss_kib / 1024.0,
        "setup_s": statistics.median(setup),
    }
    fail_share = r["failed"] / r["attempted"]
    lines = [
        describe_mix(args.workload, r),
        f"metric {args.workload} ops_per_s {metrics['ops_per_s']:.6g} op/s "
        f"n={len(r['window_rates'])} windows (median; {r['completed']} completed ops "
        f"in {r['busy_s']:.3f} s of op time, {r['completed'] / r['busy_s']:.6g} op/s overall)",
        f"metric {args.workload} op_p50_ms {metrics['op_p50_ms']:.6g} ms n={n}",
    ]
    if n >= 100:  # at least ten samples beyond p90
        p90 = 1e3 * statistics.quantiles(samples, n=10)[-1]
        lines.append(f"metric {args.workload} op_p90_ms {p90:.6g} ms n={n} beyond={n // 10}")
    lines += [
        f"metric {args.workload} fail_share {fail_share:.6g} ratio "
        f"n={r['attempted']} failures={r['failures'] or '{}'}",
        f"metric {args.workload} peak_rss_mb {metrics['peak_rss_mb']:.6g} MB n=1 child process "
        f"running the first window's {rss_ops} ops once, unchecked",
        f"metric {args.workload} setup_s {metrics['setup_s']:.6g} s n={len(setup)} "
        f"(median of fresh processes: {', '.join(f'{t:.3f}' for t in setup)})",
    ]
    lines += [f"failure {d}" for d in r["details"]]
    return r, metrics, lines


def traced(args, work: Path, env: dict) -> tuple[dict, dict, list[str]]:
    fixtures = export_fixtures(work)
    timeout = child_timeout(args.seconds)
    walls = cli_walls(fixtures, env, timeout)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    out = work / "trace.json"
    run_child(worker("trace", args, out, "--fixtures", str(fixtures), "--spans", str(spans)), env, timeout)
    r = json.loads(out.read_text())
    metrics = dict(r["metrics"], **walls)
    lines = [
        describe_mix(args.workload, r),
        f"trace {args.workload}: {r['attempted']} ops, untraced {r['untraced_s']:.4f} s, "
        f"traced {r['traced_s']:.4f} s; bench.trace_overhead is traced/untraced - 1 "
        f"on that base; spans in {spans.relative_to(ROOT)}",
    ]
    lines += [f"failure {d}" for d in r["details"]]
    return r, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seidelkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seidelkit" / "__init__.py").is_file():
        print(f"error: no seidelkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        e2e_units, layer_units = declared_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    env = child_env()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # compile and cache seidelkit's bytecode once so no timed child pays it
        run_child([sys.executable, "-c", "import seidelkit"], env, child_timeout(args.seconds))
        run = traced if args.trace else untraced
        r, metrics, lines = run(args, work, env)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    units = layer_units if args.trace else e2e_units
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not declared "
              "as printed", file=sys.stderr)
        return 1
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for line in lines:
        print(line)
    if args.trace:
        for name in units:
            print(f"metric {args.workload} {name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
