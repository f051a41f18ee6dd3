"""Command-line interface.

Subcommands: enumerate, moment-graph, nbhd, lattice, qbg, verify.  Output
is byte-deterministic for fixed flags.  Exit codes: 0 success, 1 a
verification failed, 2 usage error (including an ``--out`` file or a
standard output that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import lattice as lattice_mod
from . import moment as moment_mod
from . import qbg as qbg_mod
from . import verify as verify_mod
from .errors import DomainError, VerificationError
from .moment import Degree
from .neighborhoods import gamma_bfs, gamma_closed_form
from .weyl import enumerate_labels, length, parse_label

USAGE_ERROR = 2
CHECK_FAILED = 1

# Largest rank --n and --n-max accept.  verify --n-max 16 takes about 2.3 s
# at a peak RSS of about 31 MB (qbg --n 16 about 0.2 s), so a larger rank
# is refused up front rather than left to run for an unbounded time.
MAX_RANK = 16


def _parse_degree(text: str) -> Degree:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"degree must look like 'd1,d2', got {text!r}")
    try:
        d1, d2 = (int(p.strip()) for p in parts)
    except ValueError:
        raise DomainError(f"degree parts must be integers, got {text!r}") from None
    return Degree(d1, d2)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
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
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_enumerate(args: argparse.Namespace) -> int:
    labs = enumerate_labels(args.n)
    if args.format == "json":
        payload = {
            "schema": "oddflag.labels/1",
            "n": args.n,
            "labels": [{"label": str(w), "length": length(w)} for w in labs],
        }
        _emit(_json_text(payload), args.out)
    else:
        lines = [f"{str(w):>8}  {length(w)}" for w in labs]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_moment_graph(args: argparse.Namespace) -> int:
    g = moment_mod.build_moment_graph(args.n)
    if args.format == "dot":
        _emit(moment_mod.to_dot(g), args.out)
    elif args.format == "json":
        _emit(_json_text(moment_mod.to_json_dict(g)), args.out)
    else:
        lines = [
            f"{str(e.u):>8} -- {str(e.v):<8} {e.degree}  {e.root}" for e in g.edges
        ]
        _emit("\n".join(lines) + "\n", args.out)
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
        _emit(_json_text(payload), args.out)
    else:
        _emit(str(union) + "\n", args.out)
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    w = parse_label(args.w, args.n)
    lat = lattice_mod.build_cn_lattice(w)
    if args.format == "dot":
        _emit(lattice_mod.to_dot(lat), args.out)
    elif args.format == "json":
        _emit(_json_text(lattice_mod.to_json_dict(lat)), args.out)
    else:
        shape = lattice_mod.classify_shape(lat)
        lines = [f"base {w}: {shape}, {lat.size} elements"]
        lines.extend(
            f"  [{i}] {e}  (degree {d})"
            for i, (e, d) in enumerate(zip(lat.elements, lat.witnesses))
        )
        lines.extend(
            f"  {i} < {j}" for i, j in lattice_mod.hasse_edges(lat)
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_qbg(args: argparse.Namespace) -> int:
    g = qbg_mod.build_qbg(args.n, strict=args.strict_qbg)
    verdict = None if args.strict_qbg else qbg_mod.property_o_verdict(args.n)
    if args.format == "dot":
        _emit(qbg_mod.to_dot(g), args.out)
    elif args.format == "json":
        _emit(_json_text(qbg_mod.to_json_dict(g, verdict)), args.out)
    else:
        lines = [
            f"{str(e.u):>8} -> {str(e.v):<8} {e.kind}"
            + (f" {e.degree}" if e.degree else "")
            for e in g.edges
        ]
        if verdict is not None:
            lines.append(
                f"property-o: holds={verdict.holds} gcd={verdict.gcd} "
                f"fano={verdict.fano_index}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_suite(args.n_max, strict_qbg=args.strict_qbg)
    _emit(_json_text(verify_mod.to_json_dict(results)), args.out)
    return 0 if verify_mod.suite_passed(results) else CHECK_FAILED


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
    p.add_argument("--n", type=int, required=True)
    _add_common(p, ("table", "json"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("moment-graph", help="build the degree-labeled moment graph")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, ("json", "dot", "table"))
    p.set_defaults(func=_cmd_moment_graph)

    p = sub.add_parser("nbhd", help="curve neighborhood of one Schubert variety")
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True, metavar="LABEL")
    _add_common(p, ("json", "dot", "table"))
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("qbg", help="build the combinatorial quantum Bruhat graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--strict-qbg",
        action="store_true",
        help="require quantum targets to be neighborhood components themselves",
    )
    _add_common(p, ("json", "dot", "table"))
    p.set_defaults(func=_cmd_qbg)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--n-max", type=int, required=True)
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
