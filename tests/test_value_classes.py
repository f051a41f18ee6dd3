"""The contract of the package's immutable value classes.

Each class is built positionally and by keyword, prints in the
``Name(field=value, ...)`` form, equals only objects of its own class with
equal fields, hashes as the tuple of its fields (so sets and dicts of
values iterate in a fixed order), refuses assignment and deletion, and
raises the same validation messages.  The records that check nothing are
built by the base's constructor, which refuses a value that is extra,
missing, unknown or given twice.  A copy or a pickled value is rebuilt
through the class's ``__init__``, and the classes that keep no computed
attribute store their fields in slots, with no instance dict.  The
test-side ``helpers.FinitePoset`` is held to the same contract.
"""

import copy
import importlib
import pickle
import tracemalloc

import pytest

import oddflag
from oddflag.errors import DomainError, VerificationError, _Frozen
from oddflag.lattice import CNLattice, build_cn_lattice
from oddflag.moment import Degree, MomentEdge, MomentGraph
from oddflag.neighborhoods import CrossCheckReport, SchubertUnion
from oddflag.qbg import (
    ChernData,
    PropertyOVerdict,
    QBGEdge,
    QBGraph,
    chern_data,
    property_o_verdict,
)
from oddflag.verify import CheckResult
from oddflag.weyl import FlagLabel, Root, label, top_label
from helpers import FinitePoset, _poset

W = FlagLabel(1, 2, 2)
V = FlagLabel(2, 1, 2)
W_REPR = "FlagLabel(a=1, b=2, n=2)"
V_REPR = "FlagLabel(a=2, b=1, n=2)"
R_REPR = "Root(kind='diff', i=1, j=2)"
D_REPR = "Degree(d1=1, d2=0)"
EDGE = MomentEdge(W, V, Degree(1, 0), Root("diff", 1, 2))
EDGE_REPR = f"MomentEdge(u={W_REPR}, v={V_REPR}, degree={D_REPR}, root={R_REPR})"
QEDGE = QBGEdge(W, V, None)
QEDGE_REPR = f"QBGEdge(u={W_REPR}, v={V_REPR}, degree=None)"
TOP = top_label(2)
TOP_REPR = "FlagLabel(a=-2, b=-3, n=2)"
TOP_VALUE = SchubertUnion((TOP,))
CHERN = chern_data(2)
VERDICT = property_o_verdict(2)
CYCLE_REPRS = (
    f"(({W_REPR}, {V_REPR}, {W_REPR}), "
    f"({W_REPR}, FlagLabel(a=1, b=-3, n=2), FlagLabel(a=1, b=3, n=2), {W_REPR}))"
)

# (class, field names, field values as given, expected repr); the values
# are given in the form the class stores them.
CASES = [
    (FlagLabel, ("a", "b", "n"), (1, 2, 2), W_REPR),
    (Root, ("kind", "i", "j"), ("diff", 1, 2), R_REPR),
    (Root, ("kind", "i", "j"), ("long", 1, None), "Root(kind='long', i=1, j=None)"),
    (Degree, ("d1", "d2"), (1, 0), D_REPR),
    (MomentEdge, ("u", "v", "degree", "root"), (W, V, Degree(1, 0), Root("diff", 1, 2)), EDGE_REPR),
    (
        MomentGraph,
        ("n", "vertices", "edges"),
        (2, (W, V), (EDGE,)),
        f"MomentGraph(n=2, vertices=({W_REPR}, {V_REPR}), edges=({EDGE_REPR},))",
    ),
    (
        SchubertUnion,
        ("components",),
        ((V, FlagLabel(1, -3, 2)),),
        f"SchubertUnion(components=({V_REPR}, FlagLabel(a=1, b=-3, n=2)))",
    ),
    (
        CrossCheckReport,
        ("n", "dmax", "cells", "mismatches"),
        (2, Degree(0, 1), 16, ()),
        "CrossCheckReport(n=2, dmax=Degree(d1=0, d2=1), cells=16, mismatches=())",
    ),
    (
        FinitePoset,
        ("order",),
        (((True, True), (False, True)),),
        "FinitePoset(order=((True, True), (False, True)))",
    ),
    (
        CNLattice,
        ("base", "elements", "witnesses"),
        (TOP, (TOP_VALUE,), (Degree(0, 0),)),
        f"CNLattice(base={TOP_REPR}, elements=(SchubertUnion(components=({TOP_REPR},)),), "
        "witnesses=(Degree(d1=0, d2=0),))",
    ),
    (
        ChernData,
        ("n", "a1", "a2", "div1", "div2", "fano_index"),
        (2, 2, 3, CHERN.div1, CHERN.div2, 1),
        "ChernData(n=2, a1=2, a2=3, div1=FlagLabel(a=-3, b=-2, n=2), "
        "div2=FlagLabel(a=-2, b=3, n=2), fano_index=1)",
    ),
    (QBGEdge, ("u", "v", "degree"), (W, V, None), QEDGE_REPR),
    (
        QBGraph,
        ("n", "strict", "vertices", "edges"),
        (2, False, (W, V), (QEDGE,)),
        f"QBGraph(n=2, strict=False, vertices=({W_REPR}, {V_REPR}), edges=({QEDGE_REPR},))",
    ),
    (
        PropertyOVerdict,
        ("n", "strongly_connected", "gcd", "fano_index", "holds", "witness_cycles"),
        (2, True, 1, 1, True, VERDICT.witness_cycles),
        "PropertyOVerdict(n=2, strongly_connected=True, gcd=1, fano_index=1, "
        f"holds=True, witness_cycles={CYCLE_REPRS})",
    ),
    (
        CheckResult,
        ("name", "n", "status", "detail"),
        ("enumeration", 2, "pass", "16 labels"),
        "CheckResult(name='enumeration', n=2, status='pass', detail='16 labels')",
    ),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_rest) in enumerate(CASES)]


def test_every_value_class_has_a_case():
    classes = {cls for cls, *_rest in CASES if cls.__module__.startswith("oddflag.")}
    assert len(classes) == 13


# The records that check nothing and take the base's constructor.
RECORDS = [case for case in CASES if case[0].__init__ is _Frozen.__init__]
RECORD_IDS = [case[0].__name__ for case in RECORDS]


def test_only_the_checking_classes_write_a_constructor():
    assert set(RECORD_IDS) == {
        "MomentEdge",
        "MomentGraph",
        "CrossCheckReport",
        "ChernData",
        "QBGEdge",
        "QBGraph",
        "PropertyOVerdict",
        "CheckResult",
    }


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=RECORD_IDS)
def test_the_base_constructor_refuses_a_bad_binding(cls, names, values, text):
    name = cls.__qualname__
    with pytest.raises(TypeError, match=rf"^{name}\(\) takes {len(names)} values, got"):
        cls(*values, None)
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing fields '{names[-1]}'$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unknown field 'extra'$"):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match=rf"^{name}\(\) got field '{names[0]}' twice$"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing fields "):
        cls()
    # Positions and keywords mix as in a written-out signature.
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert mixed == cls(*values) and repr(mixed) == text


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for obj in (by_position, by_keyword):
        assert type(obj) is cls
        assert tuple(getattr(obj, name) for name in names) == values
        assert repr(obj) == text
    assert by_position == by_keyword
    assert not by_position != by_keyword


def test_root_takes_one_index_by_default():
    assert Root("long", 2) == Root("long", 2, None) == Root(kind="long", i=2)
    assert Root("long", 2).j is None


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_equality_holds_only_within_a_class(cls, names, values, text):
    obj = cls(*values)
    assert obj != values and values != obj
    assert obj.__eq__(values) is NotImplemented
    others = [c(*v) for c, _n, v, _t in CASES if c is not cls]
    for other in others:
        assert obj != other
        assert obj.__eq__(other) is NotImplemented


@pytest.mark.parametrize(
    "first, second",
    [
        (FlagLabel(1, 2, 2), FlagLabel(2, 1, 2)),
        (FlagLabel(1, 2, 2), FlagLabel(1, 2, 3)),
        (Root("diff", 1, 2), Root("sum", 1, 2)),
        (Degree(1, 0), Degree(0, 1)),
        (SchubertUnion((W,)), SchubertUnion((V,))),
        (CheckResult("a", 2, "pass", ""), CheckResult("a", 2, "fail", "")),
        (QBGEdge(W, V, None), QBGEdge(W, V, Degree(0, 1))),
    ],
)
def test_a_differing_field_makes_values_unequal(first, second):
    assert first != second and not first == second


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_equal_values_hash_as_the_tuple_of_their_fields(cls, names, values, text):
    obj = cls(*values)
    copy = cls(**dict(zip(names, values)))
    assert obj is not copy and obj == copy
    assert hash(obj) == hash(copy) == hash(values)
    assert {obj: 1}[copy] == 1


def test_hashes_follow_the_stored_fields():
    # SchubertUnion stores its components sorted, the test-side FinitePoset
    # its order as tuples; the hash is that of the stored form.
    u = SchubertUnion([FlagLabel(1, -3, 2), V])
    assert u.components == (V, FlagLabel(1, -3, 2))
    assert hash(u) == hash((u.components,))
    p = FinitePoset([[True, True], [False, True]])
    assert p == FinitePoset(((True, True), (False, True)))
    assert hash(p) == hash((((True, True), (False, True)),))


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_values_refuse_assignment_and_deletion(cls, names, values, text):
    obj = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_values_of_the_class(cls, names, values, text):
    obj = cls(*values)
    clones = [copy.copy(obj), copy.deepcopy(obj)]
    clones += [
        pickle.loads(pickle.dumps(obj, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in clones:
        assert type(clone) is cls and clone == obj and repr(clone) == text
        assert hash(clone) == hash(obj)


# The classes that keep no computed attribute (errors._Frozen docstring).
PLAIN = (
    Root,
    Degree,
    MomentEdge,
    MomentGraph,
    CrossCheckReport,
    ChernData,
    QBGEdge,
    PropertyOVerdict,
    CheckResult,
)


def test_plain_value_classes_have_no_instance_dict():
    plain = [cls(*values) for cls, _names, values, _text in CASES if cls in PLAIN]
    assert {type(obj) for obj in plain} == set(PLAIN)
    for obj in plain:
        assert not hasattr(obj, "__dict__"), type(obj)
        assert type(obj).__slots__ == type(obj).__match_args__


def test_a_degree_takes_at_most_64_bytes():
    # Without slots each Degree also carries the per-instance attribute
    # store behind a __dict__.  Small parts are shared ints, and the list
    # is made first, so only the Degrees themselves are counted.
    count = 20_000
    kept = [None] * count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            kept[i] = Degree(i % 7, i % 5)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / count <= 64, used / count


def _message(call):
    try:
        call()
    except (DomainError, VerificationError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


# The 4-chain of (2|1) at rank 2 with (1|2), which lies below its base.
LATTICE = build_cn_lattice(label(2, 1, 2))
BELOW_BASE = (SchubertUnion((W,)), *LATTICE.elements)
BELOW_WITNESSES = (Degree(0, 0), *LATTICE.witnesses)

VALIDATION = [
    (lambda: FlagLabel(1, 2, 1), DomainError, "rank must be an integer >= 2, got 1"),
    (lambda: FlagLabel(1, 2, 2.0), DomainError, "rank must be an integer >= 2, got 2.0"),
    (lambda: FlagLabel(1.0, 2, 2), DomainError, "letters are ints, got 1.0"),
    (lambda: FlagLabel(1, True, 2), DomainError, "letters are ints, got True"),
    (lambda: FlagLabel(4, 2, 2), DomainError, "letter 4 out of range for rank 2"),
    (lambda: FlagLabel(1, 0, 2), DomainError, "letter 0 out of range for rank 2"),
    (lambda: FlagLabel(-1, 2, 2), DomainError, "odd labels may not contain -1"),
    (lambda: FlagLabel(2, -2, 2), DomainError, "positions share the letter 2"),
    (lambda: Root("short", 1, 2), DomainError, "unknown root kind 'short'"),
    (lambda: Root("long", 1, 2), DomainError, "long roots take a single index"),
    (lambda: Root("diff", 2, 1), DomainError, "need i < j, got (2, 1)"),
    (lambda: Root("sum", 1), DomainError, "need i < j, got (1, None)"),
    (lambda: Root("long", 0), DomainError, "root indices start at 1"),
    (lambda: Degree(1.0, 0), DomainError, "degrees are ints, got (1.0,0)"),
    (lambda: Degree(0, True), DomainError, "degrees are ints, got (0,True)"),
    (lambda: Degree(-1, 0), DomainError, "degrees are nonnegative, got (-1,0)"),
    (lambda: SchubertUnion(()), DomainError, "a Schubert union has at least one component"),
    (
        lambda: SchubertUnion((W, FlagLabel(2, 1, 3))),
        DomainError,
        "components must share one rank",
    ),
    (lambda: SchubertUnion([V, W]), DomainError, "components 1|2 and 2|1 are comparable"),
    (lambda: SchubertUnion((5,)), DomainError, "components must be labels, got 5"),
    (lambda: SchubertUnion(("x", "y")), DomainError, "components must be labels, got 'x'"),
    (lambda: _poset(((True, True),)), DomainError, "order matrix must be square"),
    (lambda: _poset(((False,),)), DomainError, "order must be reflexive"),
    (
        lambda: _poset(((True, True), (True, True))),
        DomainError,
        "order not antisymmetric at (0,1)",
    ),
    (
        lambda: _poset(
            ((True, True, False), (False, True, True), (False, False, True))
        ),
        DomainError,
        "order not transitive at (0,1,2)",
    ),
    (
        lambda: CNLattice(W, (TOP_VALUE,), (Degree(0, 0),)),
        VerificationError,
        "lattice must contain its base and the top",
    ),
    (
        lambda: CNLattice(LATTICE.base, BELOW_BASE, BELOW_WITNESSES),
        VerificationError,
        "base must be the minimum and the top the maximum",
    ),
    (
        lambda: CNLattice(TOP, (TOP_VALUE, TOP_VALUE), (Degree(0, 0), Degree(1, 0))),
        DomainError,
        "lattice elements must be distinct",
    ),
    (
        lambda: CNLattice(TOP, (TOP_VALUE,), ()),
        DomainError,
        "elements and witnesses differ in number",
    ),
]


@pytest.mark.parametrize("call, kind, message", VALIDATION)
def test_validation_messages_are_unchanged(call, kind, message):
    assert _message(call) == (kind, message)


# The package's exported names; a change here is an API change, to be
# listed in the README and CHANGES.md.
EXPORTS = [
    "CNLattice",
    "ChernData",
    "Degree",
    "DomainError",
    "FlagLabel",
    "MomentGraph",
    "QBGraph",
    "Root",
    "SchubertUnion",
    "VerificationError",
    "bruhat_leq",
    "build_cn_lattice",
    "build_moment_graph",
    "build_qbg",
    "chern_data",
    "classify_shape",
    "covers",
    "cross_check",
    "degree_of_root",
    "down_set",
    "enumerate_labels",
    "gamma_bfs",
    "gamma_closed_form",
    "is_distributive",
    "is_lattice",
    "label",
    "length",
    "moment_discrepancies",
    "parse_label",
    "property_o_verdict",
    "reflect",
    "run_suite",
    "top_label",
    "union_leq",
]


def test_the_package_exports_are_pinned():
    assert len(EXPORTS) == 34
    assert oddflag.__all__ == EXPORTS


# The modules that declare an ``__all__``.
MODULES = ["oddflag"] + [
    f"oddflag.{m}" for m in ("weyl", "moment", "neighborhoods", "lattice", "qbg", "verify")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
