"""Benchmark of the moment laboratory, run from the root of a checkout.

    python3 bench/run.py --workload validate-multimode --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One controlling process runs invocations of one workload as a closed loop: one
client, each invocation in a fresh child process, the next one started
only after the previous one has exited and its output has been checked.
With --trace 0 it prints the end-to-end metrics (medians over the
invocations); with --trace 1 it alternates untraced and traced
invocations and prints the per-layer metrics from the traced ones. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --smoke runs every workload at tiny sizes,
plain and traced, and shows that a corrupted output fails its check.

Child processes run with one BLAS/OpenMP thread (at most nproc = 2 on the
benchmark machine), so the two cores never compete within an invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 100.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
# zero on a healthy run, so not a bounded metric: the JSON line carries it
# as failed / attempted
FAILED_FRAC = ("failed_frac", "1")
PER_LAYER = [
    ("config.build_s", "s"), ("pg.assemble_s", "s"), ("pg.load_s", "s"),
    ("pg.picard_s", "s"), ("pg.picard_iterations", "count"), ("pg.picard_iter_s", "s"),
    ("pg.inf_sup_s", "s"), ("pg.field_mb", "MiB"),
    ("oracle.lyapunov_s", "s"), ("oracle.lyapunov_calls", "count"),
    ("oracle.qform_s", "s"), ("oracle.qform_calls", "count"), ("oracle.two_time_s", "s"),
    ("mc.simulate_s", "s"), ("mc.path_steps", "count"), ("mc.path_steps_per_s", "1/s"),
    ("mc.g_apply_s", "s"), ("levy.sample_s", "s"), ("levy.sample_calls", "count"),
    ("mc.estimate_s", "s"), ("mc.batch_buffer_mb", "MiB"), ("mc.within_z_frac", "1"),
    ("cli.self_s", "s"), ("cli.table_rows", "count"), ("cli.table_mb", "MiB"),
    ("cli.write_mb_per_s", "MiB/s"),
    ("pg.rss_rise_mb", "MiB"), ("oracle.rss_rise_mb", "MiB"),
    ("mc.rss_rise_mb", "MiB"), ("cli.rss_rise_mb", "MiB"),
    ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
]
# times of layers that some workload never enters: printed, but left out of
# the JSON line, where they would read 0 on every run of that workload
PRINTED_ONLY = {
    "oracle.lyapunov_s", "oracle.two_time_s", "mc.simulate_s", "mc.path_steps_per_s",
    "mc.g_apply_s", "levy.sample_s", "mc.estimate_s", "cli.self_s", "cli.write_mb_per_s",
}
# counts that must repeat exactly between invocations of one run
EXACT_COUNTS = [
    "pg.picard_iterations", "oracle.qform_calls", "oracle.lyapunov_calls",
    "levy.sample_calls", "mc.path_steps", "cli.table_rows", "cli.table_mb",
]
# the subset an untraced invocation shows in its own output
OUTPUT_COUNTS = ["pg.picard_iterations", "cli.table_rows", "cli.table_mb"]
COMPUTED = ("pg.field_mb", "mc.batch_buffer_mb")


@dataclass
class Invocation:
    traced: bool
    wall_s: float
    setup_s: float
    rss_mb: float
    exit_code: int
    checks: list
    counts: dict          # read from the output files
    record: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(c.counted and not c.ok for c in self.checks)


class Runner:
    """Runs and checks invocations of one workload at one seed."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        from workloads import Checker, child_spec, make_config

        self.workload = workload
        config = make_config(ROOT, workload, seed, smoke)
        config_path = WORK / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        self.spec = child_spec(workload, config, config_path)
        self.checker = Checker(workload, config, seed)
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.count = 0
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=CHILD_TIMEOUT_S)
        self.launcher.stdout.close()

    def launch(self, argv: list[str], log_path: Path) -> dict:
        request = {"argv": [sys.executable, str(BENCH / "child.py"), *argv],
                   "env": self.env, "log": str(log_path), "timeout": CHILD_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    def warm_up(self) -> None:
        """Import everything once, so byte code and file caches are warm."""
        log_path = WORK / "warm-up.txt"
        if self.launch([], log_path)["exit"] != 0:
            raise RuntimeError(f"warm-up import failed:\n{log_path.read_text()[-2000:]}")
        log_path.unlink()

    def invoke(self, traced: bool, keep_output: bool = False) -> Invocation:
        from workloads import Check, table_counts

        self.count += 1
        out = WORK / f"out-{self.count}"
        record_path = WORK / f"record-{self.count}.json"
        spec_path = WORK / f"spec-{self.count}.json"
        log_path = WORK / f"log-{self.count}.txt"
        spec = {**self.spec, "out": str(out), "trace": traced, "record": str(record_path)}
        spec_path.write_text(json.dumps(spec))
        run = self.launch([str(spec_path)], log_path)
        code, wall = run["exit"], run["wall_s"]
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        setup = record["setup_mark"] - run["start"] if "setup_mark" in record else wall
        try:
            checks, counts = self.checker.check(code, out)
            counts.update(table_counts(out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks, counts = [Check(f"output_readable ({exc})", 0.0, 1.0, False)], {}
        inv = Invocation(traced, wall, setup, run["maxrss_kib"] / 1024.0, code, checks, counts,
                         record)
        if inv.failed:
            print(f"invocation {self.count} failed; its log ends:\n"
                  f"{log_path.read_text()[-2000:]}", file=sys.stderr)
        if not keep_output:
            shutil.rmtree(out, ignore_errors=True)
        for path in (record_path, spec_path, log_path):
            path.unlink(missing_ok=True)
        return inv


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(inv: Invocation) -> dict:
    """Per-layer metrics of one traced invocation."""
    spans = inv.record["spans"]
    counts = {**inv.counts, **inv.record["counts"]}

    def incl(*names: str) -> float:
        return sum(spans[n]["incl_s"] for n in names if n in spans)

    def calls(name: str) -> int:
        return spans[name]["calls"] if name in spans else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    config_s = incl(*(n for n in spans if n.startswith("config.")))
    picard_s = incl("pg.picard_solve_second_moment", "pg.solve_covariance")
    iterations = counts.get("pg.picard_iterations", 0)
    simulate_s = incl("mc.simulate_ensemble")
    cli_self = spans["cli.main"]["self_s"] if "cli.main" in spans else 0.0
    rss = inv.record["rss_rise_mb"]
    m = {
        "config.build_s": config_s,
        "pg.assemble_s": incl("pg.assemble_per_mode"),
        "pg.load_s": incl("pg.rhs_second_moment", "pg.rhs_covariance"),
        "pg.picard_s": picard_s,
        "pg.picard_iterations": iterations,
        "pg.picard_iter_s": ratio(picard_s, iterations),
        "pg.inf_sup_s": incl("pg.discrete_inf_sup", "pg.per_mode_inf_sup",
                             "pg.per_mode_operator_bound"),
        "pg.field_mb": counts.get("pg.field_mb", 0.0),
        "oracle.lyapunov_s": incl("oracle.lyapunov_solve"),
        "oracle.lyapunov_calls": calls("oracle.lyapunov_solve"),
        "oracle.qform_s": incl("oracle.noise_quadratic_form"),
        "oracle.qform_calls": calls("oracle.noise_quadratic_form"),
        "oracle.two_time_s": incl("oracle.two_time_extend"),
        "mc.simulate_s": simulate_s,
        "mc.path_steps": counts.get("mc.path_steps", 0),
        "mc.path_steps_per_s": ratio(counts.get("mc.path_steps", 0), simulate_s),
        "mc.g_apply_s": incl("mc.g_apply"),
        "levy.sample_s": incl("levy.sample_increments"),
        "levy.sample_calls": calls("levy.sample_increments"),
        "mc.estimate_s": incl("mc.estimate_moments"),
        "mc.batch_buffer_mb": counts.get("mc.batch_buffer_mb", 0.0),
        "mc.within_z_frac": counts.get("mc.within_z_frac", 0.0),
        "cli.self_s": cli_self,
        "cli.table_rows": counts.get("cli.table_rows", 0),
        "cli.table_mb": counts.get("cli.table_mb", 0.0),
        "cli.write_mb_per_s": ratio(counts.get("cli.table_mb", 0.0), cli_self),
        "trace.unattributed_s": inv.wall_s - sum(s["self_s"] for s in spans.values()),
    }
    for layer in ("pg", "oracle", "mc", "cli"):
        m[f"{layer}.rss_rise_mb"] = rss.get(layer, 0.0)
    return m


def print_invocation(i: int, inv: Invocation) -> None:
    kind = "traced" if inv.traced else f"plain, setup {inv.setup_s:.4f} s"
    print(f"invocation {i} ({kind}): wall {inv.wall_s:.4f} s, "
          f"peak rss {inv.rss_mb:.1f} MiB, exit {inv.exit_code}, "
          f"{'FAILED' if inv.failed else 'ok'}")
    for c in inv.checks:
        print(f"    check {c.line()}")


def print_spans(inv: Invocation) -> None:
    """Self-time table of one traced invocation; it sums to the wall time."""
    spans = inv.record["spans"]
    print(f"    {'span':<40} {'calls':>7} {'incl_s':>10} {'self_s':>10}")
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:<40} {s['calls']:>7} {s['incl_s']:>10.4f} {s['self_s']:>10.4f}")
    total = sum(s["self_s"] for s in spans.values())
    rest = inv.wall_s - total
    print(f"    span self times {total:.4f} s + trace.unattributed_s {rest:.4f} s "
          f"= traced wall {inv.wall_s:.4f} s")


def count_mismatches(per_inv: list[dict], names: list[str]) -> list[str]:
    problems = []
    for name in names:
        values = {repr(counts.get(name)) for counts in per_inv}
        if len(values) > 1:
            problems.append(f"{name} differs between invocations: {sorted(values)}")
    return problems


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, list[Invocation], list]:
    """Closed loop for about `seconds`; returns metrics, invocations, count problems."""
    invs: list[Invocation] = []
    cycles: list[float] = []  # invocation plus check
    start = time.monotonic()

    def more() -> bool:
        if not invs or (trace and sum(i.traced for i in invs) < 2):
            return True  # traced runs need two traced invocations to compare counts
        # start another only if a typical one still ends within the budget
        return time.monotonic() - start + _median(cycles) <= seconds

    while more():
        traced = trace and len(invs) % 2 == 1  # plain, traced, plain, traced, ...
        cycle_start = time.monotonic()
        inv = runner.invoke(traced)
        cycles.append(time.monotonic() - cycle_start)
        invs.append(inv)
        print_invocation(len(invs), inv)
        if "spans" in inv.record:
            print_spans(inv)

    plain = [i for i in invs if not i.traced]
    problems = count_mismatches([i.counts for i in invs], OUTPUT_COUNTS)
    if not trace:
        metrics = {
            "wall_s": _median(i.wall_s for i in plain),
            "setup_s": _median(i.setup_s for i in plain),
            "peak_rss_mb": _median(i.rss_mb for i in plain),
        }
        return metrics, invs, problems

    traced = [i for i in invs if i.traced]
    recorded = [i for i in traced if "spans" in i.record]  # a crashed child leaves none
    per_inv = [layer_metrics(i) for i in recorded] or [dict.fromkeys(dict(PER_LAYER), 0.0)]
    problems += count_mismatches(per_inv, EXACT_COUNTS)
    for inv, m in zip(recorded, per_inv):
        shown = inv.counts.get("pg.picard_iterations", m["pg.picard_iterations"])
        if m["pg.picard_iterations"] != shown:
            problems.append("pg.picard_iterations of the spans differs from the output's")
    metrics = {name: _median(m[name] for m in per_inv) for name, _ in PER_LAYER
               if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (_median(i.wall_s for i in traced)
                                   - _median(i.wall_s for i in plain))
    return metrics, invs, problems


def report(workload: str, seed: int, trace: bool, metrics: dict, invs: list[Invocation],
           problems: list) -> list[str]:
    """Print the metrics by name with their units; returns the printed lines."""
    failed = sum(i.failed for i in invs)
    plain_n = sum(not i.traced for i in invs)
    lines = [f"workload {workload}, seed {seed}, closed loop with one client, "
             f"{len(invs)} invocations ({plain_n} plain), BLAS threads {BLAS_THREADS}, "
             f"nproc {os.cpu_count()}"]
    specs = PER_LAYER if trace else END_TO_END
    for name, unit in specs:
        note = ""
        if name in ("wall_s", "setup_s", "peak_rss_mb"):
            note = f"  (median of {plain_n} invocations)"
        elif name in COMPUTED:
            note = "  (computed)"
        elif name in EXACT_COUNTS:
            note = "  (exact count)"
        lines.append(f"{name} {metrics[name]:.6g} {unit}{note}")
    lines.append(f"{FAILED_FRAC[0]} {failed / len(invs):.6g} {FAILED_FRAC[1]}"
                 f"  ({failed} of {len(invs)} invocations)")
    for p in problems:
        lines.append(f"count check failed: {p}")
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in specs if name not in PRINTED_ONLY},
    }
    print(json.dumps(result))
    return lines


def smoke_workload(runner: Runner, workload: str, seed: int) -> list[str]:
    from workloads import corrupt

    problems, printed = [], []
    for trace in (False, True):
        metrics, invs, count_problems = measure(runner, 0.0, trace)
        printed += report(workload, seed, trace, metrics, invs, count_problems)
        if count_problems or any(i.failed for i in invs):
            problems.append(f"{workload}: trace={trace} run failed")
    lines = "\n".join(printed).splitlines()
    for name, unit in END_TO_END + PER_LAYER + [FAILED_FRAC]:
        if not any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines):
            problems.append(f"{workload}: metric {name} [{unit}] not printed")
    inv = runner.invoke(traced=False, keep_output=True)
    out = WORK / f"out-{runner.count}"
    corrupt(workload, out)
    checks, _ = runner.checker.check(inv.exit_code, out)
    caught = [c for c in checks if c.counted and not c.ok]
    print(f"{workload}: corrupted output fails "
          f"{', '.join(c.name for c in caught) or 'no check'}")
    if not caught:
        problems.append(f"{workload}: corrupted output passed every check")
    return problems


def run_smoke() -> int:
    """Tiny sizes: every workload plain and traced, plus a corrupted output."""
    from workloads import WORKLOADS, DEFAULT_SEED

    problems = []
    for workload in WORKLOADS:
        seed = DEFAULT_SEED[workload]
        runner = Runner(workload, seed, smoke=True)
        try:
            problems += smoke_workload(runner, workload, seed)
        finally:
            runner.close()
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "all workloads passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # the program is built from this checkout's sources; without them there
    # is nothing to measure
    for needed in (ROOT / "src" / "spde_moments" / "__init__.py",
                   ROOT / "configs" / "multimode.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED

    if not args.smoke and args.workload not in DEFAULT_SEED:
        parser.error(f"--workload must be one of {', '.join(DEFAULT_SEED)}")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.smoke:
            return run_smoke()
        seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed
        runner = Runner(args.workload, seed, smoke=False)
        try:
            runner.warm_up()
            metrics, invs, problems = measure(runner, args.seconds, bool(args.trace))
        finally:
            runner.close()
        report(args.workload, seed, bool(args.trace), metrics, invs, problems)
        return 0
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
