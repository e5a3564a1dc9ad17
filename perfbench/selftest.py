"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For each workload it runs a tiny plan through the benchmark's own loop and
checks that every metric named in BENCHMARK.json is emitted, with its unit,
in both modes, and that the outputs check out.  It then runs each tiny plan
against a deliberately wrong reference and checks that every operation is
counted as failed.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY_SWEEP = {**wl.SWEEP, "L": 6}
TINY_COMMUTATOR = {**wl.COMMUTATOR, "l_range": [4, 6]}
TINY_AP_L = 4


def tiny_plans(workdir, wrong=False):
    """Tiny plans of the four workloads; ``wrong`` perturbs each reference."""
    ref = wl.load_reference()
    bad = copy.deepcopy(ref)
    bad["commutator-growth"]["norms"][0] *= 1 + 1e-5
    for row in bad["ap-lowner"][str(TINY_AP_L)]:
        row["apchar"]["characteristic_integral"] *= 1 + 1e-6
    a2 = (lambda a: (1 + 1e-9) * wl.a2_closed_form(a)) if wrong else wl.a2_closed_form
    use = bad if wrong else ref
    return {
        "sweep-p2": wl.SweepPlan(0, mkdir(workdir, "s"), sweep=TINY_SWEEP, a2_of=a2),
        "ap-lowner": wl.ApPlan(0, mkdir(workdir, "a"), L=TINY_AP_L, reference=use),
        "commutator-growth": wl.CommutatorPlan(0, mkdir(workdir, "c"),
                                               config=TINY_COMMUTATOR, reference=use),
        "ensemble-small": wl.EnsemblePlan(0, workdir, count=8,
                                          weak_n=0.0 if wrong else wl.WEAK_TYPE_N),
    }


def mkdir(parent, name):
    path = os.path.join(parent, name)
    os.makedirs(path, exist_ok=True)
    return path


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json names the benchmark's workloads")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, plan in tiny_plans(tmp).items():
            passes, lat, failed = run.run_passes(plan, 0.0)
            expect(failed == 0 and lat, f"{name}: tiny run passes its checks")
            e2e = run.end_to_end(passes, lat, run.time_setup(name, 0, mkdir(tmp, "probe")))
            tracer = Tracer()
            tracer.install()
            try:
                passes, lat, failed = run.run_passes(plan, 0.0, tracer)
            finally:
                tracer.uninstall()
            layers = run.per_layer(tracer, passes)
            for kind, got in (("end_to_end", e2e), ("per_layer", layers)):
                units = {k: u for k, (_, u) in got.items()}
                expect(units == declared[kind],
                       f"{name}: every {kind} metric emitted with its declared unit")
            expect(abs(layers["trace.coverage"][0] - 1.0) <= 0.05,
                   f"{name}: self times sum to the traced wall time within 5%")
        for name, plan in tiny_plans(tmp, wrong=True).items():
            _, lat, failed = run.run_passes(plan, 0.0)
            expect(failed == len(lat) > 0,
                   f"{name}: a wrong reference fails every operation")


if __name__ == "__main__":
    main()
