"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py META TRACE MODE [ARGS...]

MODE is ``setup`` (import only), ``cli ARGS...`` (run the oddflag CLI),
``query-mix INPUTS`` (answer the queries in the JSON file INPUTS) or
``layer cross_check|build_qbg N`` (one layer call, for the scaling table).
TRACE is ``0``, or the path the traced run writes its spans to.  The child
writes a JSON object to META: the monotonic time at which ``import
oddflag`` returned, and the mode's own figures.  oddflag must be
importable, e.g. through PYTHONPATH.
"""

import json
import sys
import time

import oddflag

IMPORT_DONE_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import tracing  # noqa: E402  (perfbench/tracing.py, beside this script)


def _weyl_caches() -> dict:
    weyl = sys.modules["oddflag.weyl"]
    return {
        f"weyl.{name}": fn
        for name, fn in vars(weyl).items()
        if hasattr(fn, "cache_info")
    }


def _query_mix(path: str, tracer) -> dict:
    from oddflag import Degree, parse_label

    with open(path) as fh:
        spec = json.load(fh)
    n = spec["n"]
    parsed = []
    for q in spec["queries"]:
        if q[0] == "cf":
            parsed.append((0, parse_label(q[1], n), Degree(q[2], q[3])))
        elif q[0] == "lat":
            parsed.append((1, parse_label(q[1], n)))
        else:
            parsed.append((
                2,
                parse_label(q[1], n), Degree(q[2], q[3]),
                parse_label(q[4], n), Degree(q[5], q[6]),
            ))
    # Looked up after the tracer is installed, so traced runs call wrappers.
    closed_form = oddflag.gamma_closed_form
    build_lattice = oddflag.build_cn_lattice
    distributive = oddflag.is_distributive
    shape = oddflag.classify_shape
    leq = oddflag.union_leq
    clock = time.perf_counter_ns

    results = [None] * len(parsed)
    latency = [0] * len(parsed)
    loop_start = clock()
    for i, q in enumerate(parsed):
        tracer.request = i
        t0 = clock()
        try:
            kind = q[0]
            if kind == 0:
                r = closed_form(q[1], q[2])
            elif kind == 1:
                lat = build_lattice(q[1])
                r = (lat.size, distributive(lat), shape(lat))
            else:
                r = leq(closed_form(q[1], q[2]), closed_form(q[3], q[4]))
        except Exception as exc:  # a failed query is counted, not fatal
            r = exc
        latency[i] = clock() - t0
        results[i] = r
    loop_ns = clock() - loop_start

    answers = []
    for r in results:
        if isinstance(r, Exception):
            answers.append(f"error: {r!r}")
        elif isinstance(r, (bool, tuple)):
            answers.append(r if isinstance(r, bool) else list(r))
        else:
            answers.append(str(r))
    return {"loop_ns": loop_ns, "latency_ns": latency, "answers": answers}


def _layer(name: str, n: int) -> dict:
    start = time.perf_counter_ns()
    if name == "cross_check":
        report = oddflag.cross_check(n, oddflag.Degree(2, 2))
        ok = report.ok
    elif name == "build_qbg":
        ok = len(oddflag.build_qbg(n).edges) > 0
    else:
        raise SystemExit(f"unknown layer {name!r}")
    return {"layer_ns": time.perf_counter_ns() - start, "ok": ok}


def _peak_rss_kb() -> int:
    """This process's peak resident set since exec.

    Not ``ru_maxrss``: a child started by vfork-style spawning inherits the
    parent's high-water mark in it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class _NoTracer:
    request = 0


def main(argv: list[str]) -> int:
    meta_path, trace_path, mode, args = argv[0], argv[1], argv[2], argv[3:]
    if mode == "cli":
        import oddflag.cli  # noqa: F401  (loaded before wrapping, so main is wrapped too)
    tracer = _NoTracer()
    if trace_path != "0":
        caches = _weyl_caches()
        tracer = tracing.Tracer()
        tracer.install()
    meta: dict = {"import_done_ns": IMPORT_DONE_NS}
    rc = 0
    if mode == "cli":
        rc = sys.modules["oddflag.cli"].main(args)
        sys.stdout.flush()
    elif mode == "query-mix":
        meta.update(_query_mix(args[0], tracer))
    elif mode == "layer":
        meta.update(_layer(args[0], int(args[1])))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    if trace_path != "0":
        meta["trace"] = tracer.summary(caches)
        with open(trace_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    meta["peak_rss_kb"] = _peak_rss_kb()
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
