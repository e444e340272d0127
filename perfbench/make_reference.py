"""Regenerate perfbench/reference.json: the exact-scale optimum per seed.

    PYTHONPATH=src python3 perfbench/make_reference.py [first_seed] [last_seed]

The benchmark fails an exact-scale solve whose value differs from the
optimum stored here for its seed.  The values come from the package's exact
solvers, called directly rather than through `fairksel solve`; rerun this
only when the exact-scale instances in workloads.py change, never to make a
failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

REFERENCE = Path(__file__).with_name("reference.json")


def optima(seed: int) -> dict[str, float]:
    from fairksel.core import candidate_degrees
    from fairksel.exact import (solve_delta2_unweighted, solve_delta2_weighted,
                                solve_laminar)

    out = {}
    for case in workloads.exact_scale(seed):
        inst = case.instance
        if case.sets is not None:
            sel = solve_laminar(inst, case.sets)
        else:
            if min(candidate_degrees(inst)) == 0:
                raise SystemExit(f"{case.name}: isolated candidate; the "
                                 "degree-2 solvers need a preprocessed instance")
            unit = all(w == 1 for w in inst.weights)
            sel = (solve_delta2_unweighted(inst) if unit
                   else solve_delta2_weighted(inst))
        out[case.name] = sel.value
    return out


def main(argv: list[str]) -> int:
    first = int(argv[0]) if argv else 0
    last = int(argv[1]) if len(argv) > 1 else 199
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in range(first, last + 1):
        table[str(seed)] = optima(seed)
        REFERENCE.write_text(json.dumps(dict(sorted(table.items(),
                                                    key=lambda kv: int(kv[0]))),
                                        indent=0) + "\n")
        print(f"seed {seed}: {table[str(seed)]}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
