"""Command-line interface, and the one module that writes an output format.

Subcommands: enumerate, moment-graph, nbhd, lattice, qbg, verify.  The
graph and lattice modules only compute; this module turns their values
into JSON, DOT and table text and writes it in pieces, a line or an edge
record at a time, so no format builds its whole text first.  Output is
byte-deterministic for fixed flags.  Exit codes: 0 success, 1 a
verification failed, 2 usage error (including an ``--out`` file or a
standard output that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

from . import lattice as lattice_mod
from . import moment as moment_mod
from . import qbg as qbg_mod
from . import verify as verify_mod
from .errors import DomainError, VerificationError
from .lattice import CNLattice
from .moment import Degree
from .neighborhoods import gamma_bfs, gamma_closed_form
from .weyl import FlagLabel, _plain_int, enumerate_labels, length, parse_label

USAGE_ERROR = 2
CHECK_FAILED = 1

# Largest rank --n and --n-max accept.  verify --n-max 16 takes about 1 s
# at a peak RSS of about 28 MB (qbg --n 16 about 0.1 s; 2 vCPUs, CPython
# 3.11), so a larger rank is refused up front rather than left to run for an
# unbounded time.
MAX_RANK = 16


def _parse_degree(text: str) -> Degree:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"degree must look like 'd1,d2', got {text!r}")
    try:
        d1, d2 = map(_plain_int, parts)
    except ValueError:
        raise DomainError(f"degree parts must be integers, got {text!r}") from None
    return Degree(d1, d2)


def _rank_value(text: str) -> int:
    """An ``--n`` or ``--n-max`` value, in the grammar of label sides and degree parts."""
    try:
        return _plain_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write each string of ``chunks`` in turn to ``out`` or stdout."""
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            # The text that failed stays buffered.  Point the descriptor at
            # the null device, so the interpreter's final flush cannot fail
            # a second time and print its own traceback.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise DomainError(f"cannot write <stdout>: {exc.strerror}") from None
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


# Edge color of the moment and quantum graphs in DOT, one per degree class.
_EDGE_COLORS = {
    Degree(1, 0): "green",
    Degree(0, 1): "orange",
    Degree(1, 1): "blue",
    Degree(1, 2): "purple",
}


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# One record of an "edges" list as _json_text lays it out, per edge shape.
# Labels, roots and degrees print as ASCII letters, digits, "|", "-" and
# "+", which JSON writes unescaped.
_QBG_CLASSICAL = '    {\n      "u": "%s",\n      "v": "%s",\n      "kind": "classical"\n    }'
_QBG_QUANTUM = (
    '    {\n      "u": "%s",\n      "v": "%s",\n      "kind": "quantum",\n'
    '      "deg": [\n        %d,\n        %d\n      ]\n    }'
)
_MOMENT_EDGE = (
    '    {\n      "u": "%s",\n      "v": "%s",\n'
    '      "deg": [\n        %d,\n        %d\n      ],\n      "root": "%s"\n    }'
)


def _json_chunks(envelope: dict, records: Iterable[str]) -> Iterator[str]:
    """``_json_text(envelope)`` in pieces, the records filling its empty "edges".

    Each record must be an edge's entry as ``_json_text`` lays it out.
    Writing them one by one from templates skips the payload's per-edge
    dicts, the pure-Python encoder that ``indent`` selects and the whole
    text at once.
    """
    head, tail = _json_text(envelope).split('"edges": []', 1)
    yield head + '"edges": ['
    sep = "\n"
    for record in records:
        yield sep + record
        sep = ",\n"
    yield ("]" if sep == "\n" else "\n  ]") + tail


def _cmd_enumerate(args: argparse.Namespace) -> int:
    labs = enumerate_labels(args.n)
    if args.format == "json":
        payload = {
            "schema": "oddflag.labels/1",
            "n": args.n,
            "labels": [{"label": str(w), "length": length(w)} for w in labs],
        }
        _emit((_json_text(payload),), args.out)
    else:
        _emit((f"{str(w):>8}  {length(w)}\n" for w in labs), args.out)
    return 0


def _graph_dot(head: str, vertices: Iterable[FlagLabel], edges: Iterable[str]) -> Iterator[str]:
    """A DOT graph of one plaintext node per label, then the given edge lines."""
    yield f"{head} {{\n  node [shape=plaintext];\n"
    for v in vertices:
        yield f'  "{v}";\n'
    yield from edges
    yield "}\n"


def _cmd_moment_graph(args: argparse.Namespace) -> int:
    g = moment_mod.build_moment_graph(args.n)
    if args.format == "dot":
        edges = (f'  "{e.u}" -- "{e.v}" [color={_EDGE_COLORS[e.degree]}];\n' for e in g.edges)
        _emit(_graph_dot(f"graph moment_n{g.n}", g.vertices, edges), args.out)
    elif args.format == "json":
        envelope = {
            "schema": "oddflag.moment-graph/1",
            "n": g.n,
            "vertices": [str(v) for v in g.vertices],
            "edges": [],
        }
        records = (_MOMENT_EDGE % (e.u, e.v, e.degree.d1, e.degree.d2, e.root) for e in g.edges)
        _emit(_json_chunks(envelope, records), args.out)
    else:
        lines = (f"{str(e.u):>8} -- {str(e.v):<8} {e.degree}  {e.root}\n" for e in g.edges)
        _emit(lines, args.out)
    return 0


def _cmd_nbhd(args: argparse.Namespace) -> int:
    w = parse_label(args.w, args.n)
    d = _parse_degree(args.d)
    union = gamma_closed_form(w, d)
    oracle = gamma_bfs(w, d) if args.oracle else None
    if oracle is not None and oracle != union:
        sys.stderr.write(
            f"oddflag: closed form [{union}] disagrees with the search [{oracle}]\n"
        )
        return CHECK_FAILED
    if args.format == "json":
        payload = {
            "schema": "oddflag.nbhd/1",
            "w": str(w),
            "d": [d.d1, d.d2],
            "components": [str(c) for c in union],
        }
        if oracle is not None:
            payload["oracle"] = [str(c) for c in oracle]
        _emit((_json_text(payload),), args.out)
    else:
        _emit((f"{union}\n",), args.out)
    return 0


def _lattice_dot(lat: CNLattice, hasse: Iterable[tuple[int, int]]) -> Iterator[str]:
    """The Hasse diagram drawn bottom-up, one node per neighborhood value."""
    yield "digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n"
    for i, e in enumerate(lat.elements):
        yield f'  v{i} [label="{e}"];\n'
    for i, j in hasse:
        yield f"  v{i} -> v{j} [arrowhead=none];\n"
    yield "}\n"


def _lattice_table(lat: CNLattice, shape: str, hasse: Iterable[tuple[int, int]]) -> Iterator[str]:
    yield f"base {lat.base}: {shape}, {lat.size} elements\n"
    for i, (e, d) in enumerate(zip(lat.elements, lat.witnesses)):
        yield f"  [{i}] {e}  (degree {d})\n"
    for i, j in hasse:
        yield f"  {i} < {j}\n"


def _cmd_lattice(args: argparse.Namespace) -> int:
    lat = lattice_mod.build_cn_lattice(parse_label(args.w, args.n))
    hasse = lattice_mod.hasse_edges(lat)
    if args.format == "dot":
        _emit(_lattice_dot(lat, hasse), args.out)
    elif args.format == "json":
        payload = {
            "schema": "oddflag.lattice/1",
            "base": str(lat.base),
            "elements": [[str(w) for w in e] for e in lat.elements],
            "hasse": [list(p) for p in hasse],
            "shape": lattice_mod.classify_shape(lat),
        }
        _emit((_json_text(payload),), args.out)
    else:
        _emit(_lattice_table(lat, lattice_mod.classify_shape(lat), hasse), args.out)
    return 0


def _qbg_table(g: qbg_mod.QBGraph, verdict: qbg_mod.PropertyOVerdict | None) -> Iterator[str]:
    for e in g.edges:
        degree = "" if e.degree is None else f" {e.degree}"
        yield f"{str(e.u):>8} -> {str(e.v):<8} {e.kind}{degree}\n"
    if verdict is not None:
        yield f"property-o: holds={verdict.holds} gcd={verdict.gcd} fano={verdict.fano_index}\n"


def _cmd_qbg(args: argparse.Namespace) -> int:
    g = qbg_mod.build_qbg(args.n, strict=args.strict_qbg)
    verdict = None if args.strict_qbg else qbg_mod.property_o_verdict(args.n)
    if args.format == "dot":
        # Classical edges black, quantum edges by degree class.
        edges = (
            f'  "{e.u}" -> "{e.v}" [color=black];\n'
            if e.degree is None
            else f'  "{e.u}" -> "{e.v}" [color={_EDGE_COLORS[e.degree]}, label="{e.degree}"];\n'
            for e in g.edges
        )
        _emit(_graph_dot(f"digraph qbg_n{g.n}", g.vertices, edges), args.out)
    elif args.format == "json":
        envelope: dict = {"schema": "oddflag.qbg/1", "n": g.n, "strict": g.strict, "edges": []}
        if verdict is not None:
            envelope["verdict"] = {
                "strongly_connected": verdict.strongly_connected,
                "gcd": verdict.gcd,
                "fano_index": verdict.fano_index,
                "holds": verdict.holds,
                "witness_cycles": [
                    [str(w) for w in cycle] for cycle in verdict.witness_cycles
                ],
            }
        records = (
            _QBG_CLASSICAL % (e.u, e.v)
            if e.degree is None
            else _QBG_QUANTUM % (e.u, e.v, e.degree.d1, e.degree.d2)
            for e in g.edges
        )
        _emit(_json_chunks(envelope, records), args.out)
    else:
        _emit(_qbg_table(g, verdict), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_suite(args.n_max, strict_qbg=args.strict_qbg)
    passed = verify_mod.suite_passed(results)
    payload = {
        "schema": "oddflag.verify/1",
        "passed": passed,
        "checks": [
            {"name": r.name, "n": r.n, "status": r.status, "detail": r.detail}
            for r in results
        ],
    }
    _emit((_json_text(payload),), args.out)
    return 0 if passed else CHECK_FAILED


def _add_common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    p.add_argument("--format", choices=list(formats), default=formats[0])
    p.add_argument("--out", metavar="FILE", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddflag",
        description=(
            "Moment graph, curve neighborhoods, neighborhood lattices and the "
            "combinatorial quantum Bruhat graph of the odd symplectic flag "
            "family, with a built-in verification suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all labels with their lengths")
    p.add_argument("--n", type=_rank_value, required=True)
    _add_common(p, ("table", "json"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("moment-graph", help="build the degree-labeled moment graph")
    p.add_argument("--n", type=_rank_value, required=True)
    _add_common(p, ("json", "dot", "table"))
    p.set_defaults(func=_cmd_moment_graph)

    p = sub.add_parser("nbhd", help="curve neighborhood of one Schubert variety")
    p.add_argument("--n", type=_rank_value, required=True)
    p.add_argument("--w", required=True, metavar="LABEL", help="base label, e.g. '1|2' or '-2|1'")
    p.add_argument("--d", required=True, metavar="D1,D2", help="degree, e.g. '1,1'")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the budgeted graph search and require agreement",
    )
    _add_common(p, ("table", "json"))
    p.set_defaults(func=_cmd_nbhd)

    p = sub.add_parser("lattice", help="curve-neighborhood lattice of one base label")
    p.add_argument("--n", type=_rank_value, required=True)
    p.add_argument("--w", required=True, metavar="LABEL")
    _add_common(p, ("json", "dot", "table"))
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("qbg", help="build the combinatorial quantum Bruhat graph")
    p.add_argument("--n", type=_rank_value, required=True)
    p.add_argument(
        "--strict-qbg",
        action="store_true",
        help="require quantum targets to be neighborhood components themselves",
    )
    _add_common(p, ("json", "dot", "table"))
    p.set_defaults(func=_cmd_qbg)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--n-max", type=_rank_value, required=True)
    p.add_argument("--strict-qbg", action="store_true")
    p.add_argument("--out", metavar="FILE", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


# Options whose values may begin with "-": a barred first letter ("-2|1")
# or a negative degree, which argparse would otherwise take for an option.
_DASH_VALUE_OPTIONS = ("--w", "--d")


def _attach_dash_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--w -2|1`` as ``--w=-2|1`` (likewise for ``--d``)."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _DASH_VALUE_OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_dash_values(sys.argv[1:] if argv is None else argv)
    )
    n = args.n_max if args.command == "verify" else args.n
    if n < 2:
        sys.stderr.write(f"oddflag: rank must be at least 2, got {n}\n")
        return USAGE_ERROR
    if n > MAX_RANK:
        sys.stderr.write(f"oddflag: rank must be at most {MAX_RANK}, got {n}\n")
        return USAGE_ERROR
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"oddflag: {exc}\n")
        return USAGE_ERROR
    except VerificationError as exc:
        sys.stderr.write(f"oddflag: verification failure: {exc}\n")
        return CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
