"""oddflag benchmark: cold CLI runs and a seeded library query mix.

    python3 perfbench/run.py --workload verify|qbg-build|query-mix \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; oddflag is imported from ``src``.
Every repetition runs in a fresh interpreter, because the caches of
``weyl``, ``moment`` and ``qbg`` are process-wide and a CLI user starts
cold.  Repetitions follow each other in one closed loop with no threads.
Repetitions start until the next one would end after ``--seconds``; at
least one always runs.

Workloads:

* ``verify``: ``oddflag verify --n-max 4``.  ~90% of it is the
  search-vs-closed-form cross-check, whose Bruhat comparisons nearly all
  hit the cache.
* ``qbg-build``: ``oddflag qbg --n 12 --format json``.  ~95k Bruhat
  comparisons computed; never runs the search.
* ``query-mix``: 20 000 seeded library queries at rank 12 in one process
  (60% closed-form neighborhoods, 20% lattice builds with distributivity
  and shape, 20% containment of two neighborhoods).  Few, lazy Bruhat
  comparisons; shows work moved up front.  Only this workload uses --seed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; on the
two CLI workloads one "query" is one whole cold CLI run.  Timings are given
in units of a reference loop timed beside each repetition (see
``ReferenceLoop``).  With ``--trace 1`` each repetition is an untraced and a
traced run, and the last line holds the per-layer metrics (see tracing.py).
The line before it is the full record: commit, machine, error rate, sample
counts and the timings in seconds.  Every run checks the outputs against
reference.json, recorded at the baseline commit.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import time
import zlib
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CLI_ARGS = {
    "verify": ["verify", "--n-max", "4"],
    "qbg-build": ["qbg", "--n", "12", "--format", "json"],
}
WORKLOADS = ("verify", "qbg-build", "query-mix")
RANK = 12
DEGREE_MAX = 3
MIX = (("cf", 12000), ("lat", 4000), ("leq", 4000))
SETUP_PROBES = 2  # per repetition
TIME_LIMIT_S = 170  # the whole run; a hung child is killed

# Every per-layer figure of a traced run; all go into the record.
LAYER_TABLE = (
    ("weyl.bruhat_leq.calls", "count"),
    ("weyl.bruhat_leq.computed", "count"),
    ("weyl.bruhat_leq.hit_ratio", "ratio"),
    ("weyl.bruhat_leq.self_s", "s"),
    ("weyl.down_set.calls", "count"),
    ("weyl.down_set.self_s", "s"),
    ("weyl.cache_entries", "count"),
    ("moment.build_moment_graph.self_s", "s"),
    ("moment.edges", "count"),
    ("neighborhoods.cross_check.cells", "count"),
    ("neighborhoods.gamma_bfs.calls", "count"),
    ("neighborhoods.gamma_bfs.self_s", "s"),
    ("neighborhoods.maximal_union.self_s", "s"),
    ("neighborhoods.gamma_closed_form.calls", "count"),
    ("neighborhoods.gamma_closed_form.self_s", "s"),
    ("neighborhoods.union_leq.self_s", "s"),
    ("lattice.build_cn_lattice.self_s", "s"),
    ("lattice.is_distributive.self_s", "s"),
    ("lattice.classify_shape.self_s", "s"),
    ("qbg.build_qbg.self_s", "s"),
    ("qbg.edges", "count"),
    ("qbg.property_o_verdict.self_s", "s"),
    ("verify.run_suite.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
# The ones in the result line: every count, and only the times that no
# workload leaves at 0 (a layer a workload never calls has 0 self time).
PER_LAYER = tuple(
    (name, unit) for name, unit in LAYER_TABLE
    if unit != "s" or name in (
        "weyl.bruhat_leq.self_s", "neighborhoods.gamma_closed_form.self_s",
        "trace.wall_s", "trace.overhead_s",
    )
)


# --- inputs --------------------------------------------------------------

def label_strings(n: int) -> list[str]:
    """The 4n^2 odd labels ``a|b`` of rank n, in a fixed order."""
    letters = [1] + [s * k for k in range(2, n + 2) for s in (1, -1)]
    return [f"{a}|{b}" for a in letters for b in letters if abs(a) != abs(b)]


def make_queries(seed: int) -> list[list]:
    """The query-mix inputs; the same seed gives the same list."""
    rng = random.Random(seed)
    labels = label_strings(RANK)

    def degree():
        return [rng.randint(0, DEGREE_MAX), rng.randint(0, DEGREE_MAX)]

    kinds = [kind for kind, count in MIX for _ in range(count)]
    rng.shuffle(kinds)
    queries = []
    for kind in kinds:
        if kind == "cf":
            queries.append(["cf", rng.choice(labels), *degree()])
        elif kind == "lat":
            queries.append(["lat", rng.choice(labels)])
        else:
            queries.append(["leq", rng.choice(labels), *degree(), rng.choice(labels), *degree()])
    return queries


# --- statistics ----------------------------------------------------------

def percentile(samples, p: float) -> dict:
    """Nearest-rank percentile, with its sample count and the samples beyond it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(N * p / 100)
    rank = int(rank)
    return {"value": ordered[rank - 1], "samples": len(ordered), "beyond": len(ordered) - rank}


# --- environment ---------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def machine() -> dict:
    """nproc, CPU model, Python version and the cgroup CPU limit (read only)."""
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    limit = (_read("/sys/fs/cgroup/cpu.max") or "unknown").strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cgroup_cpu_max": limit,
    }


def commit() -> dict:
    """The checkout's git commit when it has one, and a digest of the source."""
    sha = None
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is not None:
        head = head.strip()
        if head.startswith("ref: "):
            ref = head[5:]
            sha = _read(str(ROOT / ".git" / ref))
            if sha is None:
                for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
                    if line.endswith(" " + ref):
                        sha = line.split()[0]
        else:
            sha = head
    digest = hashlib.sha256()
    pkg = SRC / "oddflag"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return {"sha": sha.strip() if sha else None, "source_sha256": digest.hexdigest()}


# --- child processes -----------------------------------------------------

def _monotonic_ns() -> int:
    # The same clock the child reads when its import returns.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


_current_child = None


def _on_alarm(signum, frame):
    if _current_child is not None:
        os.kill(_current_child, signal.SIGKILL)
        os.waitpid(_current_child, 0)
    sys.stderr.write(f"perfbench: run exceeded {TIME_LIMIT_S} s\n")
    raise SystemExit(3)


def spawn(args: list[str], stdout_path: Path) -> dict:
    """Run ``python child.py ARGS`` to completion; its wall time and exit code."""
    global _current_child
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(OUT / "child.stderr"), flags, 0o644),
    ]
    argv = [sys.executable, str(HERE / "child.py"), *args]
    start = _monotonic_ns()
    _current_child = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status = os.waitpid(_current_child, 0)
    wall = _monotonic_ns() - start
    _current_child = None
    return {
        "start_ns": start,
        "wall_ns": wall,
        "exit": os.waitstatus_to_exitcode(status),
    }


def run_child(mode_args: list[str], traced: bool, workload: str) -> dict:
    """One repetition; adds the child's META and its setup time."""
    meta_path = OUT / "meta.json"
    meta_path.unlink(missing_ok=True)
    trace = str(OUT / f"spans-{workload}.jsonl") if traced else "0"
    stdout_path = OUT / f"{workload}.stdout"
    rep = spawn([str(meta_path), trace, *mode_args], stdout_path)
    rep["stdout"] = stdout_path.read_bytes()
    text = _read(str(meta_path))
    rep["meta"] = json.loads(text) if text else None
    if rep["meta"] is not None:
        rep["setup_ns"] = rep["meta"]["import_done_ns"] - rep["start_ns"]
    if rep["exit"] not in (0, 1):
        sys.stderr.write(_read(str(OUT / "child.stderr")) or "")
    return rep


# --- correctness gates ---------------------------------------------------

def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def unpack_bits(blob: str) -> bytes:
    return zlib.decompress(base64.b64decode(blob))


def index_at(data: bytes, k: int) -> int:
    return int.from_bytes(data[2 * k : 2 * k + 2], "little")


def gate_verify(rep: dict, ref: dict) -> tuple[int, int, list[str]]:
    """Each check must have the status recorded at the baseline commit."""
    expected = {(name, n): status for name, n, status in ref["verify"]["checks"]}
    try:
        got = {(c["name"], c["n"]): c["status"] for c in json.loads(rep["stdout"])["checks"]}
    except (ValueError, KeyError, TypeError):
        return len(expected), len(expected), ["verify output is not a verify report"]
    checks = expected.keys() | got.keys()
    off = sorted(k for k in checks if got.get(k) in ("fail", None) or got[k] != expected.get(k))
    problems = [f"verify exited {rep['exit']}"] if rep["exit"] != 0 else []
    if off:
        problems.append(f"checks off the record: {[(k, got.get(k), expected.get(k)) for k in off]}")
    return len(checks), len(off), problems


def gate_qbg(rep: dict, ref: dict) -> tuple[int, int, list[str]]:
    """The output must match the recorded digest and Property O must hold."""
    problems = []
    if rep["exit"] != 0:
        problems.append(f"qbg exited {rep['exit']}")
    if hashlib.sha256(rep["stdout"]).hexdigest() != ref["qbg"]["sha256"]:
        problems.append("qbg output differs from the recorded sha256")
    try:
        if json.loads(rep["stdout"])["verdict"]["holds"] is not True:
            problems.append("Property O does not hold")
    except (ValueError, KeyError, TypeError):
        problems.append("qbg output is not a qbg report")
    return 1, int(bool(problems)), problems


class QueryReference:
    """Expected query-mix answers for every input the generator can make."""

    def __init__(self, ref: dict):
        qm = ref["query_mix"]
        self.labels = {w: i for i, w in enumerate(qm["labels"])}
        self.values = qm["closed_form_values"]
        self.closed_form = unpack_bits(qm["closed_form"])
        self.lattice_values = qm["lattice_values"]
        self.lattice = unpack_bits(qm["lattice"])
        self.leq = unpack_bits(qm["bruhat_leq"])
        self.size = len(self.labels)
        self.digests = qm["answer_sha256"]

    def gamma(self, w: str, d1: int, d2: int) -> str:
        cell = (self.labels[w] * (DEGREE_MAX + 1) + d1) * (DEGREE_MAX + 1) + d2
        return self.values[index_at(self.closed_form, cell)]

    def bruhat(self, u: str, v: str) -> bool:
        k = self.labels[u] * self.size + self.labels[v]
        return bool(self.leq[k >> 3] >> (k & 7) & 1)

    def answer(self, q: list):
        if q[0] == "cf":
            return self.gamma(*q[1:4])
        if q[0] == "lat":
            return self.lattice_values[index_at(self.lattice, self.labels[q[1]])]
        lhs, rhs = self.gamma(*q[1:4]).split(", "), self.gamma(*q[4:7]).split(", ")
        return all(any(self.bruhat(u, v) for v in rhs) for u in lhs)


def gate_query_mix(rep: dict, queries: list, expected: list, seed: int, ref: QueryReference):
    """Each answer must equal the recorded one; raised queries count as failed."""
    if rep["meta"] is None or rep["exit"] != 0:
        return len(queries), len(queries), [f"query-mix child exited {rep['exit']}"]
    answers = rep["meta"]["answers"]
    wrong = [i for i, (a, e) in enumerate(zip(answers, expected)) if a != e]
    wrong += range(len(answers), len(queries))
    problems = []
    if wrong:
        i = wrong[0]
        problems.append(f"{len(wrong)} wrong answers; first: {queries[i]} gave {answers[i] if i < len(answers) else None}, expected {expected[i]}")
    recorded = ref.digests.get(str(seed))
    if recorded is not None and answers_digest(answers) != recorded:
        problems.append(f"answers differ from the digest recorded for seed {seed}")
    return len(queries), len(wrong), problems


def answers_digest(answers: list) -> str:
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def output_digest(rep: dict) -> str:
    if rep["meta"] is not None and "answers" in rep["meta"]:
        return answers_digest(rep["meta"]["answers"])
    return hashlib.sha256(rep["stdout"]).hexdigest()


# --- metrics -------------------------------------------------------------

def end_to_end(workload: str, reps: list[dict], setup_ns: list[int]) -> tuple[dict, dict]:
    """The end-to-end metrics and the record's extra detail.

    Gated timings are in units of the reference loop (``ref``): the sum of a
    timing over the repetitions divided by the sum of the reference times
    beside them.  Of the estimators tried on a shared 2-vCPU virtual machine
    (per-run medians and minima of raw or divided times) this one varied
    least from run to run.  The record keeps the medians in seconds.  Set-up time is
    the median of its samples; memory is the median over repetitions.
    """
    per_rep = []
    for r in reps:
        if workload == "query-mix":
            latency_us = [ns / 1e3 for ns in r["meta"]["latency_ns"]]
            busy_s = r["meta"]["loop_ns"] / 1e9
        else:  # one query is one whole cold CLI run
            latency_us = [r["wall_ns"] / 1e3]
            busy_s = r["wall_ns"] / 1e9
        p50, p99, p999 = (percentile(latency_us, p) for p in (50, 99, 99.9))
        per_rep.append({
            "ref_s": r["ref_s"],
            "wall_s": r["wall_ns"] / 1e9,
            "peak_rss_mb": r["meta"]["peak_rss_kb"] / 1024,
            "queries_per_s": len(latency_us) / busy_s,
            "query_p50_us": p50["value"],
            "query_p99_us": p99["value"],
            "query_p999_us_not_gated": p999["value"],
            "samples": p50["samples"],
            "beyond_p99": p99["beyond"],
            "beyond_p999": p999["beyond"],
        })
    ref_total = sum(r["ref_s"] for r in per_rep)

    def in_ref(key: str, scale=1.0) -> float:
        return sum(r[key] * scale for r in per_rep) / ref_total

    metrics = {
        "wall_ref": (in_ref("wall_s"), "ref"),
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in per_rep), "MB"),
        "queries_per_ref": (ref_total / sum(1 / r["queries_per_s"] for r in per_rep), "1/ref"),
        "query_p50_ref": (in_ref("query_p50_us", 1e-6), "ref"),
        "query_p99_ref": (in_ref("query_p99_us", 1e-6), "ref"),
    }
    detail = {
        "query": "one library query" if workload == "query-mix" else "one cold CLI run",
        "setup_samples": len(setup_ns),
        "median_seconds": {
            key: statistics.median(r[key] for r in per_rep)
            for key in ("wall_s", "queries_per_s", "query_p50_us", "query_p99_us")
        },
        "repetitions": per_rep,
    }
    return metrics, detail


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: the best traced repetition's, as for end-to-end."""
    rows = []
    for rep in traced:
        t = rep["meta"]["trace"]
        bl = t["caches"]["weyl.bruhat_leq"]
        base = bl["hits"] + bl["misses"]
        row = {
            "weyl.bruhat_leq.calls": t["hot"]["weyl.bruhat_leq"]["calls"],
            "weyl.bruhat_leq.computed": bl["misses"],
            "weyl.bruhat_leq.hit_ratio": bl["hits"] / base if base else 0.0,
            "weyl.bruhat_leq.self_s": t["hot"]["weyl.bruhat_leq"]["self_ns"] / 1e9,
            "weyl.down_set.calls": t["hot"]["weyl.down_set"]["calls"],
            "weyl.down_set.self_s": t["hot"]["weyl.down_set"]["self_ns"] / 1e9,
            "weyl.cache_entries": sum(c["currsize"] for c in t["caches"].values()),
            "trace.wall_s": rep["wall_ns"] / 1e9,
        }
        for name, unit in LAYER_TABLE:
            if name in row:
                continue
            if name.endswith(".self_s"):
                row[name] = t["self_ns"].get(name[: -len(".self_s")], 0) / 1e9
            elif name.endswith(".calls"):
                row[name] = t["calls"].get(name[: -len(".calls")], 0)
            else:
                row[name] = t["counters"].get(name, 0)
        rows.append(row)
    out = {name: min(r[name] for r in rows) for name, _ in LAYER_TABLE if name != "trace.overhead_s"}
    # Each traced run follows its untraced twin, so the pair shares the machine's phase.
    out["trace.overhead_s"] = statistics.median(
        t["wall_ns"] - u["wall_ns"] for u, t in zip(untraced, traced)
    ) / 1e9
    return out


# --- reference work ------------------------------------------------------

class ReferenceLoop:
    """A fixed pure-Python loop timed beside every repetition.

    Other tenants of a shared machine slow it for tens of seconds at a time,
    by up to half.  Timings divided by this loop's time, measured just before
    and just after each repetition, move with the program and much less with
    the machine.  The loop mixes random list reads (cache misses) with tuple
    hashing and dict updates, as oddflag's code does; it uses no oddflag code.
    """

    STEPS = 200_000

    def __init__(self, size: int = 1 << 18):
        rng = random.Random(0)
        order = list(range(size))
        rng.shuffle(order)
        self.next = [0] * size
        for a, b in zip(order, order[1:] + order[:1]):
            self.next[a] = b
        self.time_s()  # first pass grows the heap; not used

    def time_s(self) -> float:
        nxt, counts, i = self.next, {}, 0
        start = _monotonic_ns()
        for k in range(self.STEPS):
            i = nxt[i]
            key = (i & 1023, k & 7)
            counts[key] = counts.get(key, 0) + 1
        return (_monotonic_ns() - start) / 1e9


# --- the run -------------------------------------------------------------

def repeat(seconds: float, once) -> list:
    """Call ``once`` until the next call would end after ``seconds``."""
    results = []
    start = _monotonic_ns()
    while True:
        results.append(once())
        elapsed = (_monotonic_ns() - start) / 1e9
        if elapsed + elapsed / len(results) > seconds:
            return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oddflag" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no oddflag source under {SRC}; run from a checkout\n")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    ref = load_reference()

    if args.workload == "query-mix":
        queries = make_queries(args.seed)
        qref = QueryReference(ref)
        expected = [qref.answer(q) for q in queries]
        inputs = OUT / "query-mix-inputs.json"
        inputs.write_text(json.dumps({"n": RANK, "queries": queries}))
        mode_args = ["query-mix", str(inputs)]

        def gate(rep):
            return gate_query_mix(rep, queries, expected, args.seed, qref)
    else:
        mode_args = ["cli", *CLI_ARGS[args.workload]]
        gate_fn = gate_verify if args.workload == "verify" else gate_qbg

        def gate(rep):
            return gate_fn(rep, ref)

    run_child(["setup"], False, "setup")  # compiles bytecode; not measured
    probes = []
    reference = ReferenceLoop()
    ref_times = [reference.time_s()]

    def once():
        # Set-up samples are spread over the run, like the repetitions.
        probes.extend(run_child(["setup"], False, "setup") for _ in range(SETUP_PROBES))
        rep = run_child(mode_args, False, args.workload)
        ref_times.append(reference.time_s())
        rep["ref_s"] = (ref_times[-2] + ref_times[-1]) / 2
        if not args.trace:
            return (rep,)
        return rep, run_child(mode_args, True, args.workload)

    rounds = repeat(args.seconds, once)
    untraced = [r[0] for r in rounds]
    traced = [r[1] for r in rounds] if args.trace else []

    attempted = failed = 0
    problems: list[str] = []
    for rep in untraced + traced:
        a, f, p = gate(rep)
        attempted, failed = attempted + a, failed + f
        problems += p
    ran = all(r["meta"] is not None for r in untraced + traced + probes)
    if not ran:
        problems.append("a child process wrote no result")
    else:
        for u, t in zip(untraced, traced):
            if output_digest(u) != output_digest(t):
                problems.append("traced output differs from untraced output")
            problems += [f"trace: {p}" for p in tracing.check_summary(t["meta"]["trace"])]

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "machine": machine(),
        "error_rate": {"value": failed / attempted if attempted else 1.0, "failed": failed, "attempted": attempted},
        "problems": problems[:20],
    }
    metrics: dict = {}
    if ran:
        setup_ns = [r["setup_ns"] for r in probes + untraced]
        e2e, record["detail"] = end_to_end(args.workload, untraced, setup_ns)
        if args.trace:
            record["layers"] = per_layer(traced, untraced)
            metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in PER_LAYER}
            record["end_to_end_untraced"] = {k: v for k, (v, _u) in e2e.items()}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps(record))
    for line in problems:
        sys.stderr.write(f"perfbench: {line}\n")
    print(json.dumps({
        "correct": ran and not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
