import itertools
import random
from fractions import Fraction

import pytest

from quantalg import (Bary, Contract, Exc, FinMetricSpace, ONE_POINT,
                      ParamPool, RATIONAL_LINE, Reader, Semi, Sum, TableMonoid,
                      Tensor, Var, Writer, apply_operation, axioms, discrete,
                      denote_with_plan, instantiate_generators,
                      labelled_mp_theory, layer_plan, markov_process_theory,
                      mdp_theory, mealy_theory, parse_monoids, parse_theory,
                      parse_term, bind, term_dist)
from quantalg.errors import DomainError, UnsupportedShape
from quantalg.extvalue import ZERO, ext
from quantalg.terms import conv, format_term, next_op, raise_, read, write

from helpers import random_space, random_term, theory_shapes

C12 = Fraction(1, 2)
POOL = ParamPool.make(weights=[C12, Fraction(1, 3)], epsilons=[1, 2],
                      monoid_elems=[0, 2, 3])


def test_signature_membership():
    # the layer plan is the signature: apply_operation admits an operation
    # exactly when its part of the plan exists
    def generated(th, op):
        plan = layer_plan(th)
        x = denote_with_plan(Var("x"), plan)
        try:
            apply_operation(plan, op, [x] * op.arity)
        except DomainError:
            return False
        return True

    assert generated(Bary(), conv(C12))
    assert not generated(Bary(), read(2))
    th = Sum(Bary(), Exc(ONE_POINT))
    assert generated(th, raise_("*"))
    assert not generated(th, raise_("other"))
    th = Tensor(Reader(("i1", "i2")), Writer(RATIONAL_LINE))
    assert generated(th, read(2))
    assert not generated(th, read(3))
    assert generated(th, write(Fraction(7, 3)))
    assert not generated(th, write("a"))
    mp = markov_process_theory(C12)
    assert generated(mp, next_op("next", C12))
    assert not generated(mp, next_op("next", Fraction(1, 3)))
    assert not generated(mp, next_op())  # unresolved factor


def test_signature_disjointness_enforced():
    with pytest.raises(DomainError):
        layer_plan(Sum(Bary(), Bary()))
    with pytest.raises(DomainError):
        layer_plan(Sum(Reader(("i",)), Reader(("j", "k"))))
    with pytest.raises(DomainError):
        layer_plan(Sum(Bary(), Semi()))  # one distribution-like atom only
    # a repeated atom would give one part of the plan two owners
    for th in (Sum(Sum(Sum(Bary(), Exc(ONE_POINT)), Contract("n", C12)),
                   Contract("n", Fraction(1, 3))),
               Tensor(Reader(("i",)), Reader(("j", "k"))),
               Tensor(Tensor(Bary(), Writer(RATIONAL_LINE)), Writer(RATIONAL_LINE)),
               Sum(Sum(Bary(), Exc(ONE_POINT)), Exc(discrete(["e"])))):
        with pytest.raises(DomainError):
            layer_plan(th)
    # distinct contraction names may coexist
    layer_plan(Sum(Sum(Bary(), Contract("a", C12)), Contract("b", Fraction(1, 3))))


def test_axioms_writer_includes_mult_instance():
    axs = axioms(Writer(RATIONAL_LINE), POOL)
    labels = {a.label for a in axs}
    assert "Mult[2,3]" in labels
    mult = next(a for a in axs if a.label == "Mult[2,3]")
    assert mult.lhs == parse_term("wr(2, wr(3, x))")
    assert mult.rhs == parse_term("wr(5, x)")
    assert mult.bound == ZERO and not mult.premises


def test_axioms_reader_idem():
    axs = axioms(Reader(("i1", "i2")), POOL)
    idem = next(a for a in axs if a.label == "Idem")
    assert idem.lhs == parse_term("x")
    assert idem.rhs == parse_term("rd(x, x)")


def test_axioms_contract_tight_bound():
    axs = axioms(Contract("next", C12), ParamPool.make(epsilons=[2]))
    lip = next(a for a in axs if a.label.startswith("Lip"))
    assert lip.premises == (("x1", "y1", ext(2)),)
    assert lip.bound == ext(1)


def test_axioms_exception_distances():
    E = FinMetricSpace(["e1", "e2"], {("e1", "e2"): ext("1/4")})
    axs = axioms(Exc(E), POOL)
    inst = next(a for a in axs if a.label == "Exc[e1,e2]")
    assert inst.bound == ext("1/4")
    # infinite pairs have no rational-indexed instance
    axs2 = axioms(Exc(discrete(["a", "b"])), POOL)
    assert all(not a.label.startswith("Exc[a,b") for a in axs2)


def test_axioms_sum_is_union_and_tensor_adds_commutation():
    lmp = labelled_mp_theory(["a1", "a2"], C12)
    axs = axioms(lmp, POOL)
    labels = [a.label for a in axs]
    assert "B1" in labels and "Idem" in labels and "Lip[next]" in labels
    com = [a for a in axs if a.label.startswith("Com[")]
    assert com, "tensor emits commutation instances"
    # conv x rd instance matches the displayed shape
    inst = next(a for a in com if "conv(1/2)" in a.label and "rd" in a.label)
    assert inst.bound == ZERO
    sum_axs = axioms(Sum(Bary(), Exc(ONE_POINT)), POOL)
    assert {a.label for a in sum_axs} <= set(labels)


def test_axioms_empty_pool_errors():
    with pytest.raises(DomainError):
        axioms(Bary(), ParamPool.make())
    with pytest.raises(DomainError):
        axioms(Writer(RATIONAL_LINE), ParamPool.make(epsilons=[1]))


def test_bound_monotone_under_weakening():
    axs = axioms(Bary(), POOL)
    ib = next(a for a in axs if a.label.startswith("IB"))
    e1, e2 = (p[2] for p in ib.premises)
    tight = ib.bound_fn(e1, e2)
    assert tight == ib.bound
    assert ib.bound_fn(e1 + ext(1), e2) >= tight


# Each atom's axioms at weights (1/4, 1/2), thresholds (0, 1/2, 2) and writer
# elements (0, 1), one line per instance: label | premises | lhs | rhs | bound.
_PINNED_AXIOMS = {
    "bary": """\
B1 |  | conv(1, x, y) | x | 0
B2[1/4] |  | conv(1/4, x, x) | x | 0
SC[1/4] |  | conv(1/4, x, y) | conv(3/4, y, x) | 0
B2[1/2] |  | conv(1/2, x, x) | x | 0
SC[1/2] |  | conv(1/2, x, y) | conv(1/2, y, x) | 0
SA[1/4,1/4] |  | conv(1/4, conv(1/4, x, y), z) | conv(1/16, x, conv(1/5, y, z)) | 0
SA[1/4,1/2] |  | conv(1/2, conv(1/4, x, y), z) | conv(1/8, x, conv(3/7, y, z)) | 0
SA[1/2,1/4] |  | conv(1/4, conv(1/2, x, y), z) | conv(1/8, x, conv(1/7, y, z)) | 0
SA[1/2,1/2] |  | conv(1/2, conv(1/2, x, y), z) | conv(1/4, x, conv(1/3, y, z)) | 0
IB[1/4] | x1 =_0 y1, x2 =_0 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 0
IB[1/4] | x1 =_0 y1, x2 =_1/2 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 3/8
IB[1/4] | x1 =_0 y1, x2 =_2 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 3/2
IB[1/4] | x1 =_1/2 y1, x2 =_0 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 1/8
IB[1/4] | x1 =_1/2 y1, x2 =_1/2 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 1/2
IB[1/4] | x1 =_1/2 y1, x2 =_2 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 13/8
IB[1/4] | x1 =_2 y1, x2 =_0 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 1/2
IB[1/4] | x1 =_2 y1, x2 =_1/2 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 7/8
IB[1/4] | x1 =_2 y1, x2 =_2 y2 | conv(1/4, x1, x2) | conv(1/4, y1, y2) | 2
IB[1/2] | x1 =_0 y1, x2 =_0 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 0
IB[1/2] | x1 =_0 y1, x2 =_1/2 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 1/4
IB[1/2] | x1 =_0 y1, x2 =_2 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 1
IB[1/2] | x1 =_1/2 y1, x2 =_0 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 1/4
IB[1/2] | x1 =_1/2 y1, x2 =_1/2 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 1/2
IB[1/2] | x1 =_1/2 y1, x2 =_2 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 5/4
IB[1/2] | x1 =_2 y1, x2 =_0 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 1
IB[1/2] | x1 =_2 y1, x2 =_1/2 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 5/4
IB[1/2] | x1 =_2 y1, x2 =_2 y2 | conv(1/2, x1, x2) | conv(1/2, y1, y2) | 2
""",
    "semi": """\
S0 |  | union(x, empty) | x | 0
S1 |  | union(x, x) | x | 0
S2 |  | union(x, y) | union(y, x) | 0
S3 |  | union(union(x, y), z) | union(x, union(y, z)) | 0
S4 | x1 =_0 y1, x2 =_0 y2 | union(x1, x2) | union(y1, y2) | 0
S4 | x1 =_0 y1, x2 =_1/2 y2 | union(x1, x2) | union(y1, y2) | 1/2
S4 | x1 =_0 y1, x2 =_2 y2 | union(x1, x2) | union(y1, y2) | 2
S4 | x1 =_1/2 y1, x2 =_0 y2 | union(x1, x2) | union(y1, y2) | 1/2
S4 | x1 =_1/2 y1, x2 =_1/2 y2 | union(x1, x2) | union(y1, y2) | 1/2
S4 | x1 =_1/2 y1, x2 =_2 y2 | union(x1, x2) | union(y1, y2) | 2
S4 | x1 =_2 y1, x2 =_0 y2 | union(x1, x2) | union(y1, y2) | 2
S4 | x1 =_2 y1, x2 =_1/2 y2 | union(x1, x2) | union(y1, y2) | 2
S4 | x1 =_2 y1, x2 =_2 y2 | union(x1, x2) | union(y1, y2) | 2
""",
    "writer{q}": """\
Zero |  | x | wr(0, x) | 0
Mult[0,0] |  | wr(0, wr(0, x)) | wr(0, x) | 0
Mult[0,1] |  | wr(0, wr(1, x)) | wr(1, x) | 0
Mult[1,0] |  | wr(1, wr(0, x)) | wr(1, x) | 0
Mult[1,1] |  | wr(1, wr(1, x)) | wr(2, x) | 0
Diff[0,0] | x1 =_0 y1 | wr(0, x1) | wr(0, y1) | 0
Diff[0,0] | x1 =_1/2 y1 | wr(0, x1) | wr(0, y1) | 1/2
Diff[0,0] | x1 =_2 y1 | wr(0, x1) | wr(0, y1) | 2
Diff[0,1] | x1 =_0 y1 | wr(0, x1) | wr(1, y1) | 1
Diff[0,1] | x1 =_1/2 y1 | wr(0, x1) | wr(1, y1) | 3/2
Diff[0,1] | x1 =_2 y1 | wr(0, x1) | wr(1, y1) | 3
Diff[1,0] | x1 =_0 y1 | wr(1, x1) | wr(0, y1) | 1
Diff[1,0] | x1 =_1/2 y1 | wr(1, x1) | wr(0, y1) | 3/2
Diff[1,0] | x1 =_2 y1 | wr(1, x1) | wr(0, y1) | 3
Diff[1,1] | x1 =_0 y1 | wr(1, x1) | wr(1, y1) | 0
Diff[1,1] | x1 =_1/2 y1 | wr(1, x1) | wr(1, y1) | 1/2
Diff[1,1] | x1 =_2 y1 | wr(1, x1) | wr(1, y1) | 2
""",
    "contr{next, 1/2}": """\
Lip[next] | x1 =_0 y1 | next(x1) | next(y1) | 0
Lip[next] | x1 =_1/2 y1 | next(x1) | next(y1) | 1/4
Lip[next] | x1 =_2 y1 | next(x1) | next(y1) | 1
""",
}


@pytest.mark.parametrize("theory", sorted(_PINNED_AXIOMS))
def test_axioms_are_pinned_in_order(theory):
    pool = ParamPool.make(weights=["1/4", "1/2"], epsilons=["0", "1/2", "2"],
                          monoid_elems=["0", "1"])
    axs = axioms(parse_theory(theory), pool)
    lines = []
    for ax in axs:
        premises = ", ".join(f"{x} =_{e} {y}" for x, y, e in ax.premises)
        lines.append(f"{ax.label} | {premises} | {format_term(ax.lhs)} | "
                     f"{format_term(ax.rhs)} | {ax.bound}")
    assert "".join(line + "\n" for line in lines) == _PINNED_AXIOMS[theory]
    # a continuous schema's bound is its bound function at its thresholds
    for ax in axs:
        if ax.premises:
            assert ax.bound_fn(*(e for _, _, e in ax.premises)) == ax.bound, ax.label
        else:
            assert ax.bound_fn is None, ax.label


def test_the_instances_of_a_schema_are_one_run():
    # check_theory checks each run of consecutive instances with equal sides
    # and bound function in one loop; grouping all of an atom's instances by
    # that key finds the same groups, in the same order, also when the pools
    # repeat a value
    S = FinMetricSpace(["z", "o"], {("z", "o"): ext(1)})
    mon = TableMonoid(S, "z", {("z", "z"): "z", ("z", "o"): "o",
                               ("o", "z"): "o", ("o", "o"): "o"})
    repeated = dict(weights=["1/4", "1/2", "2/4", "1/4", "0", "1"],
                    epsilons=["0", "1", "2/2", "0", "1/2"])
    pool = ParamPool.make(**repeated, monoid_elems=["0", "1", "0", "2/2"])
    named = ParamPool.make(**repeated, monoid_elems=["z", "o", "z"])
    E = FinMetricSpace(["e1", "e2", "e3"], {("e1", "e2"): ext("1/4")})
    atoms = [(Bary(), pool), (Semi(), pool), (Exc(E), pool), (Exc(ONE_POINT), pool),
             (Reader(("a", "b")), pool), (Writer(RATIONAL_LINE), pool),
             (Writer(mon), named), (Writer(mon), ParamPool.make(epsilons=["1", "1"])),
             (Contract("next", C12), pool)]

    def key(ax):
        return ax.lhs, ax.rhs, ax.bound_fn

    for atom, params in atoms:
        instances = axioms(atom, params)
        grouped = {}
        for ax in instances:
            grouped.setdefault(key(ax), []).append(ax)
        runs = [list(run) for _, run in itertools.groupby(instances, key)]
        assert runs == list(grouped.values()), atom


def test_layer_plans_of_the_four_composed_theories():
    mp = layer_plan(markov_process_theory(C12))
    assert [l[0] for l in mp.layers] == ["dist"]
    assert mp.exc_space is ONE_POINT and len(mp.guards) == 1

    lmp = layer_plan(labelled_mp_theory(["a", "b"], C12))
    assert [l[0] for l in lmp.layers] == ["func", "dist"]
    assert lmp.layers[0][1] == ("a", "b")

    mon = RATIONAL_LINE
    mm = layer_plan(mealy_theory(["i"], mon, C12))
    assert [l[0] for l in mm.layers] == ["func", "pair"]
    assert mm.exc_space is None

    mdp = layer_plan(mdp_theory(["a"], C12))
    assert [l[0] for l in mdp.layers] == ["func", "dist", "pair"]


def test_layer_plan_flattens_sums_and_swaps_tensors():
    a = layer_plan(Sum(Bary(), Sum(Exc(ONE_POINT), Contract("next", C12))))
    b = layer_plan(markov_process_theory(C12))
    assert [l[0] for l in a.layers] == [l[0] for l in b.layers]
    assert a.guards == b.guards
    swapped = layer_plan(Tensor(Reader(("i",)), Sum(Bary(), Exc(ONE_POINT))))
    assert [l[0] for l in swapped.layers] == ["func", "dist"]


def test_layer_plan_rejects_unsupported_shapes():
    with pytest.raises(UnsupportedShape):
        layer_plan(Sum(Reader(("i",)), Writer(RATIONAL_LINE)))  # sum, not tensor
    with pytest.raises(UnsupportedShape):
        layer_plan(Contract("next", C12))
    with pytest.raises(UnsupportedShape):
        layer_plan(Tensor(Bary(), Contract("next", C12)))
    with pytest.raises(UnsupportedShape):  # a writer over exceptions
        layer_plan(Tensor(Sum(Bary(), Exc(ONE_POINT)), Writer(RATIONAL_LINE)))
    with pytest.raises(UnsupportedShape):
        layer_plan(Tensor(Exc(ONE_POINT), Writer(RATIONAL_LINE)))


def test_layer_plan_accepts_only_sound_shapes():
    # every theory with at most two sum/tensor steps over the six atoms: each
    # shape layer_plan accepts satisfies its zero-bound axioms exactly
    shapes = theory_shapes(2)
    rng = random.Random(23)
    X = random_space(rng, ["x", "y"])
    pool = ParamPool.make(weights=[C12], epsilons=[1], monoid_elems=[0, 2])
    accepted = 0
    for th in shapes:
        try:
            layer_plan(th)
        except DomainError:
            continue
        accepted += 1
        for ax in axioms(th, pool):
            if ax.premises or ax.bound != ZERO:
                continue
            for _ in range(3):
                sigma = {v: random_term(rng, th, ["x", "y"], 2) for v in ax.variables()}
                assert term_dist(bind(ax.lhs, sigma), bind(ax.rhs, sigma), th, X) == ZERO, \
                    (th, ax.label)
    assert accepted == 163


def test_generator_instantiation_closes_derived_weights():
    ops = instantiate_generators(Bary(), ParamPool.make(weights=[C12]))
    weights = {op.param for op in ops}
    assert C12 in weights and Fraction(1) in weights
    assert Fraction(1, 4) in weights  # product from skew associativity
    assert Fraction(1, 3) in weights  # derived inner weight
    # first occurrences in order, a repeated pool entry once
    ops = instantiate_generators(Bary(), ParamPool.make(weights=[C12, C12]))
    assert [op.param for op in ops] == [C12, 1, 0, Fraction(1, 4), Fraction(1, 3)]
    ops = instantiate_generators(Writer(RATIONAL_LINE), ParamPool.make(monoid_elems=["1", "1"]))
    assert ops == [write(Fraction(1)), write(Fraction(2)), write(Fraction(0))]


def test_monoid_validation():
    S = FinMetricSpace(["0", "a"], {("0", "a"): ext(1)})
    mon = TableMonoid(S, "0", {("0", "0"): "0", ("0", "a"): "a",
                               ("a", "0"): "a", ("a", "a"): "a"})
    assert mon.mult("a", "a") == "a"
    with pytest.raises(DomainError):  # broken unit law
        TableMonoid(S, "0", {("0", "0"): "0", ("0", "a"): "0",
                             ("a", "0"): "a", ("a", "a"): "a"})


def test_theory_parser_round_trips():
    th = parse_theory("sum(sum(bary, exc{1}), contr{next, 1/2})")
    assert th == markov_process_theory(C12)
    th2 = parse_theory("sum(tensor(sum(bary, exc{*}), reader{a, b}), contr{next, 1/3})")
    assert th2 == labelled_mp_theory(["a", "b"], Fraction(1, 3))
    th3 = parse_theory("sum(tensor(reader{i}, writer{q}), contr{next, 1/2})")
    assert th3 == mealy_theory(["i"], RATIONAL_LINE, C12)
    assert parse_theory("exc{a, b}") == Exc(discrete(["a", "b"]))


def test_monoid_file_parsing():
    text = """
    monoid M {
      elements: z, a;
      unit = z;
      mult(z,z) = z; mult(z,a) = a; mult(a,z) = a; mult(a,a) = a;
      d(z,a) = 1;
    }
    """
    mon = parse_monoids(text)["M"]
    assert mon.mult("a", "a") == "a"
    assert mon.dist("z", "a") == ext(1)
    th = parse_theory("writer{M}", monoids=parse_monoids(text))
    assert isinstance(th, Writer)
