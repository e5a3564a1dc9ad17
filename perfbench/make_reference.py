"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted: it overwrites
perfbench/reference.json with what the current code computes.  The values
checked in were recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as wl  # noqa: E402

# apchar/stopping references per grid depth: the benchmark's and the self-test's
AP_DEPTHS = (wl.AP_L, 4)


def main():
    ref = {"commutator-growth": {**wl.COMMUTATOR}, "ap-lowner": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cfg = wl.write_cfg(os.path.join(tmp, "c.json"), wl.COMMUTATOR)
        if wl.run_cli("counterexample", cfg, tmp) != 0:
            sys.exit("counterexample failed; no reference written")
        with open(os.path.join(tmp, "counterexample_commutator_alpha0.1.json")) as fh:
            ref["commutator-growth"]["norms"] = json.load(fh)["norms"]
        for L in AP_DEPTHS:
            rows = []
            for w in wl.ap_table():
                spec = {"kind": "rotated", **w}
                row = dict(w)
                for cmd, p in wl.AP_P.items():
                    cfg = wl.write_cfg(os.path.join(tmp, "a.json"),
                                       {"weight": spec, "grid": {"d": 1, "L": L}, "p": p})
                    if wl.run_cli(cmd, cfg, tmp) != 0:
                        sys.exit(f"{cmd} failed on {w}; no reference written")
                    with open(os.path.join(tmp, f"{cmd}.json")) as fh:
                        row[cmd] = json.load(fh)
                    row[cmd].pop("passed", None)
                rows.append(row)
                print(L, row, flush=True)
            ref["ap-lowner"][str(L)] = rows
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)


if __name__ == "__main__":
    main()
