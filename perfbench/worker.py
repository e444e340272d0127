"""The workload process: set up, check, and time `fairksel solve` in-process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --records FILE --workdir DIR

Started by run.py, which bounds its wall time, reads FILE and reports.  One
JSON record per line goes to FILE as soon as it is known, so a run that is
killed still shows how far it got.  Solves run through
``cli.main(["solve", file, "--alg", A, "--seed", s, "--oracle-cap", "0"])``:
the oracle never runs inside a timed solve.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
from fairksel import cli, core, exact
from fairksel.gen import gen_gap_instance

import tracer as tracing
import workloads

# A set-up's two parts are timed apart, each several times: the import is
# short and cheap to repeat, and a slow moment of a shared machine lands in
# full on one; the median of each part damps it.
IMPORT_REPEATS = 9
BUILD_REPEATS = 5
RESIDUAL_LIMIT = 1e-9
REL_TOL = 1e-9
EXACT_ROUTES = ("delta2", "laminar")
REFERENCE = Path(__file__).with_name("reference.json")

# keep the original: the checks must not be traced or timed as a layer
max_disagreement = core.max_disagreement


class Records:
    def __init__(self, path: str) -> None:
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, kind: str, **fields) -> None:
        self._fh.write(json.dumps({"type": kind, **fields}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _is_unit(instance) -> bool:
    return all(w == 1 for w in instance.weights)


IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import numpy, scipy, fairksel.cli; print(time.perf_counter() - t)")


def import_s() -> float:
    """Import time of numpy, scipy and the package in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                           capture_output=True, text=True, timeout=60)
    return float(probe.stdout)


def set_up(workload: str, seed: int, workdir: Path):
    """Generate the cases, write their files, and warm up on a small solve.

    ``workdir`` must be new: rewriting a file in place can make the file
    system write it back to disk at once, which times the disk, not the
    set-up.
    """
    workdir.mkdir(parents=True)
    cases = workloads.CASES[workload](seed)
    paths = {}
    for case in cases:
        path = workdir / f"{case.name}.json"
        core.save_instance(case.instance, str(path), sets=case.sets)
        paths[case.name] = str(path)
    warm = workdir / "warm-up.json"
    core.save_instance(gen_gap_instance(2), str(warm))
    code, _, err = run_cli(["solve", str(warm), "--alg", "pipage", "--oracle-cap", "0"])
    if code != 0:
        raise RuntimeError(f"warm-up solve failed with exit {code}: {err.strip()}")
    return cases, paths


def check_case(workload: str, case, path: str, reference) -> dict:
    """Untimed per-instance checks: LP residuals and T*, oracle, reference."""
    out: dict = {"name": case.name, "k": case.instance.demand,
                 "unit": _is_unit(case.instance), "problems": []}
    if workload in workloads.LP_WORKLOADS:
        code, stdout, err = run_cli(["lp", path])
        if code != 0:
            out["problems"].append(f"fairksel lp exit {code}: {err.strip()[-200:]}")
        else:
            lp = json.loads(stdout)
            out["t_star"] = lp["t_star"]
            out["residual"] = max(lp["residuals"].values(), default=0.0)
            if out["residual"] > RESIDUAL_LIMIT:
                out["problems"].append(f"LP residual {out['residual']:.3e} > 1e-9")
    if workload == "desk":
        t = time.perf_counter()
        out["opt"] = exact.brute_force_opt(case.instance, cap=16).value
        out["oracle_s"] = time.perf_counter() - t
    out["reference"] = reference is not None
    if reference is not None:
        out["opt"] = reference[case.name]
    return out


def check_solve(case, info: dict, code: int, stdout: str, err: str):
    """Return (problems, report fields) for one solve's output."""
    if code != 0:
        return [f"exit {code}: {err.strip()[-200:]}"], {}
    try:
        rep = json.loads(stdout)
        chosen, route = rep["chosen"], rep["algorithm"]
        value = float(max_disagreement(case.instance, chosen))
    except (ValueError, KeyError, TypeError) as exc:  # InstanceError is a ValueError
        return [f"unusable report: {exc!r}"], {}
    k = case.instance.demand
    problems = list(info["problems"])
    if len(set(chosen)) < k:
        problems.append(f"selected {len(set(chosen))} < k = {k}")
    if value != rep["value"]:
        problems.append(f"reported value {rep['value']} != recomputed {value}")
    t_star = info.get("t_star")
    if t_star is not None:
        if info["unit"] and t_star > value:
            problems.append(f"T* = {t_star} exceeds the value {value}")
        if not info["unit"] and t_star > 2.0 * value * (1.0 + REL_TOL):
            problems.append(f"weighted T* = {t_star} exceeds twice the value {value}")
    opt = info.get("opt")
    if opt is not None and (route in EXACT_ROUTES or info["reference"]) \
            and not close(value, float(opt)):
        problems.append(f"route {route} value {value} != optimum {opt}")
    return problems, {"route": route, "value": value, "selected": len(set(chosen))}


def measure(rec: Records, phase: str, n_rounds: int, plan, infos, paths,
            tracer=None) -> None:
    """Solve every planned (case, alg) once a round, for ``n_rounds`` rounds."""
    for rnd in range(n_rounds):
        rec.write("round", phase=phase, round=rnd, planned=len(plan))
        first_span = len(tracer.spans) if tracer else 0
        for case, alg in plan:
            argv = ["solve", paths[case.name], "--alg", alg,
                    "--seed", str(case.solve_seed), "--oracle-cap", "0"]
            t = time.perf_counter()
            if tracer is None:
                code, stdout, err = run_cli(argv)
            else:
                code, stdout, err = tracer.solve(f"{phase}/{rnd}/{case.name}/{alg}",
                                                 lambda: run_cli(argv))
            wall = time.perf_counter() - t
            problems, fields = check_solve(case, infos[case.name], code, stdout, err)
            rec.write("solve", phase=phase, round=rnd, case=case.name, alg=alg,
                      wall_s=wall, problems=problems, **fields)
        if tracer is not None:
            rec.write("layers", phase=phase, round=rnd,
                      metrics=tracer.summary(first_span))


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    workdir = Path(args.workdir)

    rec = Records(args.records)
    try:
        rec.write("env", **environment())
        # run.py caches bytecode under .perfbench/: one untimed import fills
        # the cache, so that no timed set-up compiles the package from source
        import_s()
        # set-up: import in a fresh interpreter, then build, write and warm
        # up in this one
        imports = [import_s() for _ in range(IMPORT_REPEATS)]
        builds = []
        for i in range(BUILD_REPEATS):
            t = time.perf_counter()
            cases, paths = set_up(args.workload, args.seed, workdir / f"set-up-{i}")
            builds.append(time.perf_counter() - t)
        rec.write("setup", imports=imports, builds=builds,
                  setup_s=statistics.median(imports) + statistics.median(builds))

        plan = [(case, alg) for case in cases for alg in case.algs]
        n_rounds = workloads.rounds(args.workload, args.seconds)
        # the traced run spends half its rounds untraced: the base the
        # tracing overhead is taken from
        phases = ({"plain": n_rounds} if not args.trace else
                  {"plain": max(1, n_rounds // 2), "traced": max(1, n_rounds // 2)})
        rec.write("plan", solves=len(plan) * sum(phases.values()), rounds=phases)
        reference = None
        if args.workload == "exact-scale":
            reference = json.loads(REFERENCE.read_text()).get(str(args.seed))
            rec.write("reference", seed=args.seed, found=reference is not None)
        infos = {}
        for case in cases:
            info = check_case(args.workload, case, paths[case.name], reference)
            infos[case.name] = info
            rec.write("case", **info)

        measure(rec, "plain", phases["plain"], plan, infos, paths)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            measure(rec, "traced", phases["traced"], plan, infos, paths, tracer)
            for note in tracer.notes:
                rec.write("note", text=note)
            tracer.write(workdir.parent / "spans.jsonl")
        rec.write("done")
    finally:
        rec.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
