"""Benchmark of fairksel: one workload, one seed, one run.

    python3 perfbench/run.py --workload {lp-scale,exact-scale,desk}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run starts one workload process
(worker.py, one thread for BLAS/OpenMP, the package imported from ./src),
bounds its wall time, and reads the records it leaves.  It prints a
readable report, then as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.  With
--trace 1 the run makes half its rounds untraced and half traced, and the
metrics are the per-layer ones plus the tracing overhead.  The exit code is
0 when every solve and every check passed, 1 otherwise, and 2 with no result
when the run cannot start (no ./src/fairksel, bad arguments).

See perfbench/README.md for the metrics, the workloads and why they were
chosen, and the cliffs left out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# On the seed code a run's rounds take about --seconds, and set-up and checks
# (bytecode compiled on a checkout's first run included) under 30 s.  The
# bound allows the rounds twice that, for a slow moment of a shared machine or
# a slower change; past it a solve is a cliff.  At --seconds 30 it is 150 s,
# so the run ends within 180 s.
SETUP_MARGIN_S = 90.0


def wall_bound_s(seconds: float) -> float:
    return 2.0 * seconds + SETUP_MARGIN_S


# one thread for BLAS/OpenMP, set for the workload process only
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")

# The tail is the highest of these percentiles with at least ten samples
# beyond it; a fixed ladder keeps the choice stable while the sample count
# moves a little from run to run.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s", "solve_total_s": "s", "solve_p50_s": "s",
    "solve_tail_s": "s", "solve_max_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.load_s": "s", "core.preprocess_s": "s", "core.objective_s": "s",
    "lp.tstar_s": "s", "lp.feasibility_solves": "count", "lp.feasibility_s": "s",
    "lp.feasibility_max_s": "s", "lp.infeasible_share": "ratio",
    "lp.normalize_s": "s", "lp.trim_s": "s", "lp.residual_max": "1",
    "rounding.pipage_s": "s", "rounding.lll_s": "s",
    "rounding.lll_phase2_share": "ratio", "rounding.lll_selected_over_k": "ratio",
    "exact.delta2_s": "s", "exact.red_blue_calls": "count", "exact.red_blue_s": "s",
    "exact.laminar_s": "s", "exact.laminar_detect_s": "s",
    "exact.laminar_tree_s": "s", "exact.laminar_dp_s": "s", "exact.oracle_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
    "quality.pipage_value_over_tstar": "ratio",
    "quality.lll_value_over_tstar": "ratio", "quality.value_over_opt": "ratio",
}


def read_records(path: Path) -> list[dict]:
    records = []
    if not path.exists():
        return records
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # the last line of a killed run
            break
    return records


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with at least
    ten samples beyond it; the median when there are fewer than 20."""
    n = len(samples)
    if n < 2:
        return 50.0, samples[0]
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, cuts[round(p * 10) - 1]
    return 50.0, statistics.median(samples)


def mean_ratio(pairs) -> tuple[float, int]:
    ratios = [v / d for v, d in pairs if d]
    return (statistics.fmean(ratios) if ratios else 0.0), len(ratios)


class Run:
    """What one workload process left behind, and the metrics it gives."""

    def __init__(self, records: list[dict], peak_rss_mb: float, killed: bool) -> None:
        self.records = records
        self.peak_rss_mb = peak_rss_mb
        self.killed = killed
        self.env = self._one("env") or {}
        self.setup = self._one("setup")
        self.cases = {r["name"]: r for r in records if r["type"] == "case"}
        self.solves = [r for r in records if r["type"] == "solve"]
        self.done = self._one("done") is not None
        self.notes = [r["text"] for r in records if r["type"] == "note"]
        reference = self._one("reference")
        if reference is not None and not reference["found"]:
            self.notes.append(f"no reference optimum for seed {reference['seed']}: "
                              "the exact-scale values are not checked against one")
        plan = self._one("plan")
        recorded = len(self.solves)
        # the run makes a fixed number of rounds: every planned solve that
        # did not finish is unfinished
        self.unfinished = 0 if self.done or plan is None else plan["solves"] - recorded
        self.attempted = recorded + self.unfinished
        # a failed instance check is among the problems of each of its solves
        self.failed = sum(1 for s in self.solves if s["problems"]) + self.unfinished

    def _one(self, kind: str):
        return next((r for r in self.records if r["type"] == kind), None)

    @property
    def correct(self) -> bool:
        return self.done and self.failed == 0

    def rounds(self, phase: str) -> list[list[dict]]:
        """Complete rounds of a phase, as lists of solve records."""
        planned = {r["round"]: r["planned"] for r in self.records
                   if r["type"] == "round" and r["phase"] == phase}
        by_round: dict[int, list[dict]] = {}
        for s in self.solves:
            if s["phase"] == phase:
                by_round.setdefault(s["round"], []).append(s)
        return [by_round[i] for i in sorted(by_round)
                if len(by_round[i]) == planned[i]]

    def fastest(self, phase: str) -> list[float]:
        """Each solve's fastest wall time over the complete rounds of a phase.

        A solve is one (instance, algorithm) pair.  On a shared machine the
        processor itself can run at half speed for tens of seconds; the
        fastest of several rounds spread over the run is the steadiest
        estimate of what the code costs, and a cliff, slow in every round,
        still shows.  The number of rounds is fixed by the workload and
        --seconds, not by the code's speed, so a faster change does not get
        a lower minimum from more samples.
        """
        walls: dict[tuple[str, str], list[float]] = {}
        for rnd in self.rounds(phase):
            for s in rnd:
                walls.setdefault((s["case"], s["alg"]), []).append(s["wall_s"])
        return [min(w) for w in walls.values()]

    def end_to_end(self) -> tuple[dict[str, float], list[str]]:
        samples = self.fastest("plain")
        if not samples or self.setup is None:
            return {}, ["no complete untraced round: no end-to-end metrics"]
        totals = [sum(s["wall_s"] for s in rnd) for rnd in self.rounds("plain")]
        p, tail_value = tail(samples)
        beyond = sum(1 for x in samples if x > tail_value)
        metrics = {
            "setup_s": self.setup["setup_s"],
            "solve_total_s": sum(samples),
            "solve_p50_s": statistics.median(samples),
            "solve_tail_s": tail_value,
            "solve_max_s": max(samples),
            "peak_rss_mb": self.peak_rss_mb,
        }
        lines = [
            "setup_s: median import ("
            + ", ".join(f"{x:.4f}" for x in self.setup["imports"])
            + " s) + median build ("
            + ", ".join(f"{x:.4f}" for x in self.setup["builds"]) + " s)",
            f"solve_*: over n = {len(samples)} solves, each its fastest of "
            f"{len(totals)} rounds (round totals "
            + ", ".join(f"{x:.4f}" for x in totals) + " s)",
            f"solve_tail_s: p{p:g}, {beyond} solves beyond"
            + ("" if p > 50 else " (too few solves for a higher percentile)"),
        ]
        return metrics, lines

    def quality(self) -> tuple[dict[str, float], list[str]]:
        # one value per (instance, algorithm): a seeded solve repeats exactly,
        # and a mean over a varying number of rounds would not
        ok = list({(s["case"], s["alg"]): s for s in self.solves
                   if "value" in s}.values())
        metrics, lines = {}, []
        for route in ("pipage", "lll"):
            ratio, n = mean_ratio((s["value"], self.cases[s["case"]].get("t_star"))
                                  for s in ok if s["route"] == route)
            metrics[f"quality.{route}_value_over_tstar"] = ratio
            lines.append(f"{route}_value_over_tstar: mean over {n} solves"
                         + ("" if n else " (no such solve on this workload)"))
        ratio, n = mean_ratio((s["value"], self.cases[s["case"]].get("opt"))
                              for s in ok)
        metrics["quality.value_over_opt"] = ratio
        lines.append(f"value_over_opt: mean over {n} solves"
                     + ("" if n else " (no optimum known on this workload)"))
        return metrics, lines

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        layers = [r["metrics"] for r in self.records
                  if r["type"] == "layers" and r["phase"] == "traced"]
        if not layers:
            return {}, ["no traced round: no per-layer metrics"]
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics["exact.oracle_s"] = sum(c.get("oracle_s", 0.0) for c in self.cases.values())
        metrics["lp.residual_max"] = max(
            (c.get("residual", 0.0) for c in self.cases.values()), default=0.0)
        plain, traced = sum(self.fastest("plain")), sum(self.fastest("traced"))
        lines = [f"per-layer times: median over {len(layers)} traced rounds of the "
                 "summed span time per round"]
        if plain and traced:
            metrics["trace.overhead_s"] = traced - plain
            lines.append(
                f"tracing overhead on solve_total_s: {traced - plain:+.4f} s "
                f"({100 * (traced - plain) / plain:+.2f}%; "
                f"{len(self.rounds('traced'))} traced vs "
                f"{len(self.rounds('plain'))} untraced rounds)")
        quality, quality_lines = self.quality()
        metrics.update(quality)
        return metrics, lines + quality_lines


def report(args, run: Run) -> tuple[dict, list[str]]:
    env = run.env
    lines = [
        f"fairksel benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}",
        f"environment: nproc {env.get('nproc')}, cpu_count {env.get('cpu_count')}, "
        f"{env.get('machine')}, python {env.get('python')}, numpy {env.get('numpy')}, "
        f"scipy {env.get('scipy')}, threads {env.get('threads')}",
    ]
    if args.trace:
        metrics, detail = run.per_layer()
        units = PER_LAYER_UNITS
    else:
        metrics, detail = run.end_to_end()
        quality, quality_lines = run.quality()
        detail += quality_lines
        units = END_TO_END_UNITS
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"  {name:34s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        for name, value in quality.items():
            lines.append(f"  {name[len('quality.'):]:34s} {value:.6g} ratio")
    lines.append(f"  {'failed_ratio':34s} {run.failed}/{run.attempted}")
    lines += ["  " + d for d in detail]
    routes: dict[str, int] = {}
    for s in run.solves:
        if "route" in s:
            routes[s["route"]] = routes.get(s["route"], 0) + 1
    lines.append(f"  routes: {routes}")
    lines += [f"  note: {n}" for n in run.notes]
    if run.killed:
        lines.append(f"  FAILED: the workload process passed its "
                     f"{wall_bound_s(args.seconds):g} s "
                     f"bound; {run.unfinished} unfinished solves count as failed")
    elif not run.done:
        lines.append("  FAILED: the workload process stopped before the end")
    shown = 0
    for s in run.solves:
        if s["problems"] and shown < 10:
            lines.append(f"  FAILED solve {s['case']}/{s['alg']}: {'; '.join(s['problems'])}")
            shown += 1
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "fairksel" / "__init__.py").is_file():
        print(f"error: no fairksel package under {src}; run from a checkout",
              file=sys.stderr)
        return 2

    # one directory per workload and mode: a run replaces the last one's
    run_dir = ROOT / ".perfbench" / f"{args.workload}-trace{args.trace}"
    workdir = run_dir / "instances"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    records = run_dir / "records.jsonl"
    # bytecode is written, whatever the caller's environment says, to
    # .perfbench/, kept across runs: neither the caller's setting nor
    # __pycache__ directories in the checkout (say, after a test run) change
    # what set-up costs
    env = dict(os.environ, PYTHONPATH=str(src),
               PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench" / "pycache"),
               **{v: "1" for v in THREAD_ENV})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--records", str(records),
           "--workdir", str(workdir)]
    killed = False
    try:
        # the worker's own output is diagnostics only: keep stdout for the result
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                       timeout=wall_bound_s(args.seconds), check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        killed = True
    shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6

    run = Run(read_records(records), peak_rss_mb, killed)
    if run.attempted == 0:
        print("error: the workload process stopped before it planned a solve; "
              f"see {records}", file=sys.stderr)
        return 1
    result, lines = report(args, run)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
