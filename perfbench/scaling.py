"""Layer-scaling table: single layer calls at growing rank, cold.

    python3 perfbench/scaling.py > scaling.json

For the search-vs-closed-form cross-check on the (2,2) grid at n = 2, 4, 6
and 8, and the quantum graph at n = 10, runs one untraced and one traced
fresh interpreter each.  Prints the call's time, both process wall times
and the traced self time of every layer that took at least 1 ms.  Takes a
few minutes; it is a one-off table, not one of the gated workloads.
"""

import json
import sys

import run
import tracing

CASES = (("cross_check", 2), ("cross_check", 4), ("cross_check", 6), ("cross_check", 8), ("build_qbg", 10))


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    rows = []
    for layer, n in CASES:
        name = f"layer-{layer}-{n}"
        plain = run.run_child(["layer", layer, str(n)], False, name)
        traced = run.run_child(["layer", layer, str(n)], True, name)
        summary = traced["meta"]["trace"]
        self_s = {k: v / 1e9 for k, v in summary["self_ns"].items()}
        self_s.update({k: h["self_ns"] / 1e9 for k, h in summary["hot"].items()})
        rows.append({
            "layer": layer,
            "n": n,
            "ok": plain["meta"]["ok"] and traced["meta"]["ok"],
            "call_s": plain["meta"]["layer_ns"] / 1e9,
            "wall_s": plain["wall_ns"] / 1e9,
            "traced_call_s": traced["meta"]["layer_ns"] / 1e9,
            "traced_self_s": {k: round(v, 4) for k, v in sorted(self_s.items(), key=lambda kv: -kv[1]) if v >= 1e-3},
            "trace_problems": tracing.check_summary(summary),
        })
        sys.stderr.write(f"{layer} n={n}: {rows[-1]['call_s']:.2f} s\n")
    print(json.dumps({"commit": run.commit(), "machine": run.machine(), "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
