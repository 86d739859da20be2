"""``python -m repro.experiments [NAME ...]``, run from the repository root:
for each NAME (default: all), ``run()`` the experiment module of that name,
``check(rows)`` the paper's shape and write ``format_table(rows)`` to
``results/NAME.md``. A failed check exits non-zero and leaves that file as it
was. One timing line per table goes to stderr.
"""
from __future__ import annotations

import importlib
import pathlib
import sys
import time

NAMES = (
    "figure3_endtoend", "figure4_gap", "figure5_alpha_sweep",
    "figure6_eps_sweep", "table1_alpha", "table2_ablation",
)


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in NAMES]
    if unknown:
        print(f"unknown table {', '.join(unknown)}; valid: {' '.join(NAMES)}", file=sys.stderr)
        return 2
    for name in names or NAMES:
        mod = importlib.import_module(f"repro.experiments.{name}")
        t0 = time.perf_counter()
        rows = mod.run()
        try:
            mod.check(rows)
        except ValueError as e:
            print(f"{name}: {e}; results/{name}.md left as it was", file=sys.stderr)
            return 1
        pathlib.Path("results", f"{name}.md").write_text(mod.format_table(rows) + "\n")
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
