#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes; takes a few seconds.

Run from the repository root:

    python3 bench/selftest.py

For toy versions of every workload, in both modes, it checks that the
result line carries exactly the metrics BENCHMARK.json names, with their
units and finite values, and that the ungated figures of importance and
cca appear exactly where those commands run. It then drops a dimension
from the embedding the embed command writes, which the command itself
accepts, and checks that the output check counts the damage in
``failed`` and ``failed_frac``. Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run

TOY = {
    "desk": dict(n=40, p=12, q=12, setups=2, epochs=3, repeats=2),
    "wide": dict(n=30, p=20, q=25, setups=2, epochs=2),
}

BY_COMMAND = {
    "repeats": ("importance_s", "signal_recall", "matrix_core.permute_column.s",
                "importance.permutation_importance.s", "importance.columns_per_s"),
    "cca": ("cca_s", "acc_cca", "cca_baseline.fit_cca.s", "matrix_core.svd_thin.s",
            "matrix_core.cholesky.s", "matrix_core.solve_triangular.s"),
}

# In the ungated figures of one mode; the rest appear in both.
TRACE_ONLY = {"matrix_core.permute_column.s", "importance.permutation_importance.s",
              "importance.columns_per_s", "cca_baseline.fit_cca.s",
              "matrix_core.svd_thin.s", "matrix_core.cholesky.s",
              "matrix_core.solve_triangular.s"}


def toy(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TOY[name])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def check_declared() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        expect(declared == names, f"BENCHMARK.json {key} differs from run.py")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.py")


def check_run(name: str, trace: bool) -> None:
    work = toy(name)
    result = run.run(work, seed=3, seconds=0, trace=trace, label=f"selftest-{name}")
    where = f"{name} trace={int(trace)}"
    expect(result["correct"] and result["failed"] == 0,
           f"{where}: failures {result['reasons']}")
    names = run.PER_LAYER if trace else run.END_TO_END
    got = [(k, m["unit"]) for k, m in result["metrics"].items()]
    expect(got == names, f"{where}: metrics {got}")
    for k, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{where}: {k} = {m['value']!r}")
    extra = result["extra"]
    for field, extra_names in BY_COMMAND.items():
        runs_command = bool(getattr(work, field))
        for k in extra_names:
            if k in TRACE_ONLY and not trace:
                continue
            expect((k in extra) == runs_command, f"{where}: {k} presence")
    for k in ("filter_s", "embed_s", "plot_s", "final_loss", "acc_embed", "embed_rank",
              "failed_frac"):
        expect(k in extra, f"{where}: {k} missing")


def check_corruption_counted() -> None:
    original = run.cli.embed
    run.cli.embed = lambda model, x: original(model, x)[:, :-1]
    try:
        result = run.run(toy("desk"), seed=3, seconds=0, trace=False, label="selftest-corrupt")
    finally:
        run.cli.embed = original
    expect(not result["correct"] and result["failed"] >= 1,
           "a truncated embedding was not counted as a failure")
    expect(result["extra"]["failed_frac"]["value"] > 0, "failed_frac stayed 0")
    expect(any(r.startswith("embed") and "embedding is" in r for r in result["reasons"]),
           f"the embed output check did not catch it: {result['reasons']}")


def main() -> int:
    check_declared()
    for name in run.WORKLOADS:
        for trace in (False, True):
            check_run(name, trace)
    check_corruption_counted()
    for path in (run.WORK / "traces").glob("selftest-*"):
        path.unlink()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
