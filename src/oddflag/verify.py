"""One-shot verification suite backing the ``verify`` CLI command.

The suite is one ordered table of ``(name, check, strict)`` rows, run
once per rank 2..n_max.  A check takes the rank and returns
``(status, detail)``, or ``None`` at a rank where it does not apply;
``run_suite`` alone turns an outcome into a ``CheckResult``.  ``strict``
picks the rows: ``None`` runs in every suite, ``False`` only in the
default one and ``True`` only under ``strict_qbg``, whose rank-2 golden
comparison fails by design and which reports no Property O verdict.

Each status is ``pass`` or ``fail``, or ``flagged``: a discrepancy between
a computed ground truth and a shipped reference table or edge list that is
characterized exactly and does not fail the suite.  Any uncharacterized
difference is a failure.
"""

from __future__ import annotations

import json
from collections import Counter

from .lattice import build_cn_lattice, classify_shape, is_distributive, is_lattice
from .moment import Degree, build_moment_graph, degree_of_root
from .moment import _reflections, moment_masks
from .neighborhoods import cross_check, degree_grid, gamma_closed_form
from .qbg import build_qbg, chern_data, moment_discrepancies, property_o_verdict
from .weyl import _check_rank, enumerate_labels, length, moment_roots, parse_label
from .weyl import top_label
from .errors import DomainError, VerificationError, _Frozen

__all__ = ["CheckResult", "run_suite", "suite_passed", "load_golden"]

# The single quantum edge present in the built graph at n=2 but absent
# from the reference figure: it follows from the two-component value of
# the (0,1)-neighborhood of X(2|1).
KNOWN_EXTRA_QBG_EDGE = ("2|1", "1|-2", (0, 1))

Outcome = tuple[str, str] | None


class CheckResult(_Frozen):
    name: str
    n: int
    status: str  # "pass" | "fail" | "flagged"
    detail: str
    __slots__ = __match_args__ = ("name", "n", "status", "detail")

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def load_golden(name: str) -> dict:
    from importlib import resources  # not at module top: ~11 ms of a bare import

    path = resources.files("oddflag") / "golden" / name
    return json.loads(path.read_text())


def _check_enumeration(n: int) -> Outcome:
    labs = enumerate_labels(n)
    if len(labs) != 4 * n * n:
        return "fail", f"expected {4*n*n} labels, found {len(labs)}"
    if n == 2:
        levels = Counter(length(w) for w in labs)
        if dict(levels) != {0: 1, 1: 2, 2: 3, 3: 4, 4: 3, 5: 2, 6: 1}:
            return "fail", f"level distribution {dict(levels)}"
    return "pass", f"{len(labs)} labels"


def _check_moment_graph(n: int) -> Outcome:
    classes = {r: degree_of_root(r).key for r in moment_roots(n)}
    sizes = Counter(classes.values())
    if dict(sizes) != {(1, 0): 1, (0, 1): 2 * n - 1, (1, 1): 2 * n - 1, (1, 2): 1}:
        return "fail", f"degree classes sized {dict(sizes)}"
    if n == 2:
        g = build_moment_graph(n)
        want_edges = {
            (frozenset((parse_label(e["u"], 2), parse_label(e["v"], 2))), tuple(e["deg"]))
            for e in load_golden("moment_graph_n2.json")["edges"]
        }
        got_edges = {(frozenset((e.u, e.v)), e.degree.key) for e in g.edges}
        if want_edges != got_edges:
            differ = len(got_edges ^ want_edges)
            return "fail", f"{differ} edges differ from the reference figure"
        counts = {k.key: v for k, v in g.degree_counts().items()}
        if counts != {(1, 0): 8, (0, 1): 18, (1, 1): 18, (1, 2): 4}:
            return "fail", f"edge counts {counts}"
    # The search reads the letter rule's masks; the reflections must agree.
    nlabels = 4 * n * n
    want = {c: [0] * nlabels for c in sizes}
    for i, j, root in _reflections(n):
        want[classes[root]][i] |= 1 << j
    got = moment_masks(n)
    zero, keys = (0,) * nlabels, want.keys() | got.keys()
    differ = [
        i for i in range(nlabels)
        if any(want.get(c, zero)[i] != got.get(c, zero)[i] for c in keys)
    ]
    if differ:
        return "fail", (
            f"{len(differ)} labels have other neighbours by the letter rule, "
            f"first {enumerate_labels(n)[differ[0]]}"
        )
    edges = sum(m.bit_count() for masks in want.values() for m in masks) // 2
    return "pass", f"{edges} edges"


def _check_neighborhoods(n: int) -> Outcome:
    try:
        report = cross_check(n, Degree(2, 2))
    except VerificationError as exc:
        return "fail", str(exc)
    if not report.ok:
        return "fail", report.summary()
    if n == 2:
        for cell in load_golden("neighborhoods_n2.json")["cells"]:
            w = parse_label(cell["w"], 2)
            d = Degree(*cell["d"])
            got = [str(c) for c in gamma_closed_form(w, d)]
            if got != cell["components"]:
                return "fail", f"reference cell w={w}, d={d}: got {got}"
    return "pass", report.summary()


def _check_second_component(n: int) -> Outcome:
    """Flag the bases whose (0, d2) value exceeds the single-label sweep.

    The one-component sweep value X(a|-3) for a in {2,-2}, else X(a|-2),
    is the reference-table form of the (0, d2 >= 1) regime; the true
    value carries the extra component X(1|-2) exactly when a = 2.
    """
    offending = []
    for w in enumerate_labels(n):
        sweep = (w.a, -3 if w.a in (2, -2) else -2)
        got = gamma_closed_form(w, Degree(0, 1)).components
        extra = [c for c in got if (c.a, c.b) != sweep]
        if w.a == 2:
            if [(c.a, c.b) for c in extra] != [(1, -2)]:
                return "fail", (
                    f"base {w}: expected the extra component 1|-2, got "
                    f"{[str(c) for c in got]}"
                )
            offending.append(str(w))
        elif extra:
            return "fail", f"base {w}: unexpected components {[str(c) for c in got]}"
    return "flagged", (
        "the (0,d2>=1) neighborhood of X(2|b) carries the second component "
        f"X(1|-2), beyond the single-label reference value, for bases: "
        f"{', '.join(offending)}"
    )


def _check_lattices(n: int) -> Outcome:
    shapes: dict[str, str] = {}
    sweep_grid = degree_grid(Degree(3, 3))
    for w in enumerate_labels(n):
        lat = build_cn_lattice(w)
        if not is_lattice(lat):
            return "fail", f"base {w}: not a lattice"
        if not is_distributive(lat):
            return "fail", f"base {w}: not distributive"
        try:
            shapes[str(w)] = classify_shape(lat)
        except VerificationError as exc:
            return "fail", str(exc)
        # Equal lower-set masks mean equal values (lattice module docstring).
        swept = {gamma_closed_form(w, d)._lower for d in sweep_grid}
        if swept != {value._lower for value in lat.elements}:
            return "fail", (
                f"base {w}: the representative degrees miss values of the (3,3) sweep"
            )
    if n == 2:
        gold = load_golden("lattice_shapes_n2.json")["shapes"]
        if shapes != gold:
            diff = {k: (shapes.get(k), gold.get(k)) for k in set(shapes) | set(gold)
                    if shapes.get(k) != gold.get(k)}
            return "fail", f"shape table differs: {diff}"
    tally = Counter(shapes.values())
    return "pass", (
        f"{len(shapes)} distributive lattices; shapes {dict(sorted(tally.items()))}"
    )


def _edge_key_set(g) -> set[tuple[str, str, tuple[int, int] | None]]:
    """Each quantum-graph edge as (u, v, degree key or None if classical)."""
    return {
        (str(e.u), str(e.v), e.degree.key if e.degree else None) for e in g.edges
    }


def _golden_edge_keys() -> set[tuple[str, str, tuple[int, int] | None]]:
    """The rank-2 reference figure's edges, keyed like ``_edge_key_set``."""
    return {
        (e["u"], e["v"], tuple(e["deg"]) if "deg" in e else None)
        for e in load_golden("qbg_n2.json")["edges"]
    }


def _golden_difference(strict: bool) -> tuple[list, list]:
    """(missing, extra) sorted edge keys of the rank-2 graph against the figure."""
    want, got = _golden_edge_keys(), _edge_key_set(build_qbg(2, strict=strict))
    return sorted(want - got), sorted(got - want)


def _check_qbg_golden(n: int) -> Outcome:
    if n != 2:
        return None
    missing, extra = _golden_difference(strict=False)
    if not missing and extra == [KNOWN_EXTRA_QBG_EDGE]:
        return "flagged", (
            "graph reproduces the reference figure plus the single edge "
            "2|1 -> 1|-2 at degree (0,1) implied by the two-component "
            "(0,1)-neighborhood of X(2|1)"
        )
    if not missing and not extra:
        return "pass", "exact match"
    return "fail", f"uncharacterized difference: missing {missing}, extra {extra}"


def _check_qbg_strict_golden(n: int) -> Outcome:
    if n != 2:
        return None
    missing, extra = _golden_difference(strict=True)
    return "fail", (
        f"strict mode differs from the reference figure: "
        f"missing {missing}, extra {extra}"
    )


def _check_property_o(n: int) -> Outcome:
    try:
        verdict = property_o_verdict(n)
    except VerificationError as exc:
        return "fail", str(exc)
    fano_index = chern_data(n).fano_index
    if verdict.holds and verdict.gcd == fano_index == 1:
        lens = [len(c) - 1 for c in verdict.witness_cycles]
        return "pass", f"strongly connected, cycle gcd 1, witness cycle lengths {lens}"
    return "fail", (
        f"holds={verdict.holds} strongly_connected={verdict.strongly_connected} "
        f"gcd={verdict.gcd} fano_index={fano_index}"
    )


def _check_discrepancies(n: int) -> Outcome:
    found = moment_discrepancies(n)
    for u, v, _ in found:
        if abs(length(u) - length(v)) < 2:
            return "fail", f"pair {u}, {v} has length gap below 2"
    if n == 2:
        gold = load_golden("discrepancies_n2.json")["pairs"]
        want = [(e["u"], e["v"], tuple(e["deg"])) for e in gold]
        got = [(str(u), str(v), d.key) for u, v, d in found]
        if got != want:
            return "fail", f"expected {want}, got {got}"
    return "pass", f"{len(found)} quantum edges join moment-nonadjacent pairs"


def _check_dimension(n: int) -> Outcome:
    top_len = length(top_label(n))
    if top_len != 4 * n - 2:
        return "fail", f"root counting gives length {top_len} for the top cell"
    return "flagged", (
        f"top-cell length by root counting is 4n-2 = {top_len}; the closed "
        f"formula 4n-6 = {4*n-6} is off by 4 and is reported, never asserted"
    )


# The suite's rows in report order; the module docstring says how strict
# picks them.
_CHECKS = (
    ("enumeration", _check_enumeration, None),
    ("moment-graph", _check_moment_graph, None),
    ("curve-neighborhoods", _check_neighborhoods, None),
    ("closed-form-second-component", _check_second_component, None),
    ("lattices", _check_lattices, None),
    ("qbg-golden", _check_qbg_golden, False),
    ("qbg-strict-golden", _check_qbg_strict_golden, True),
    ("property-o", _check_property_o, False),
    ("moment-discrepancies", _check_discrepancies, None),
    ("dimension-formula", _check_dimension, None),
)


def run_suite(n_max: int, strict_qbg: bool = False) -> tuple[CheckResult, ...]:
    """All checks for every rank 2..n_max, in deterministic order.

    ``strict_qbg`` picks the rows (module docstring), so a value that is
    not a bool raises ``DomainError`` rather than drop rows.
    """
    _check_rank(n_max)
    if type(strict_qbg) is not bool:
        raise DomainError(f"strict_qbg must be a bool, got {strict_qbg!r}")
    results: list[CheckResult] = []
    for n in range(2, n_max + 1):
        for name, check, strict in _CHECKS:
            if strict in (None, strict_qbg):
                outcome = check(n)
                if outcome is not None:
                    results.append(CheckResult(name, n, *outcome))
    return tuple(results)


def suite_passed(results: tuple[CheckResult, ...]) -> bool:
    return all(r.ok for r in results)
