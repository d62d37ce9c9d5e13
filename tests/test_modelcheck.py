import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from quantalg import (INF, AxiomInstance, Bary, BOUNDED, Contract, Exc, ExtValue,
                      FinMetricSpace, FiniteAlgebra, FuncVal, ONE_POINT, ParamPool,
                      Reader, Semi, Sum, TableMonoid, Tensor, VarLeaf, Writer,
                      apply_operation, axioms, check_equation,
                      check_nonexpansive, check_theory,
                      distribution_model, denote_with_plan, ext, free_model,
                      layer_plan, make_set, markov_process_theory, parse_algebras,
                      parse_spaces, powerset_model, reader_model,
                      sem_dist_with_plan, writer_model)
from quantalg.terms import Var, conv, empty_op, next_op, raise_, read, union_op, write

from helpers import random_space, random_term
from oracles import (check_equation_reference, check_nonexpansive_reference,
                     check_theory_reference)

C12 = Fraction(1, 2)
X2 = FinMetricSpace(["p", "q"], {("p", "q"): ext(1)})
POOL = ParamPool.make(weights=[C12], epsilons=[0, "1/2", 1, 2])


def two_point_monoid() -> TableMonoid:
    S = FinMetricSpace(["z", "o"], {("z", "o"): ext(1)})
    return TableMonoid(S, "z", {("z", "z"): "z", ("z", "o"): "o",
                                ("o", "z"): "o", ("o", "o"): "o"})


def test_check_nonexpansive_identity_passes():
    ident = {(p,): p for p in X2.points}
    alg = FiniteAlgebra(X2, {write(Fraction(0)): ident})
    assert check_nonexpansive(alg, write(Fraction(0))).passed


def test_check_nonexpansive_catches_broken_contraction():
    ident = {(p,): p for p in X2.points}
    op = next_op("next", C12)
    alg = FiniteAlgebra(X2, {op: ident})
    entry = check_nonexpansive(alg, op)
    assert not entry.passed
    assert "1/2" in entry.counterexample.detail


def test_powerset_model_passes_semilattice_theory():
    model = powerset_model(X2)
    report = check_theory(model, Semi(), POOL)
    assert report.passed
    union_entry = next(e for e in report.entries
                       if e.label == "nonexpansive union")
    assert union_entry.passed and union_entry.checked > 0


def test_distribution_model_passes_barycentric_theory():
    model = distribution_model(X2, 4, [C12])
    report = check_theory(model, Bary(), POOL)
    assert report.passed
    ib = [e for e in report.entries if e.label.startswith("IB")]
    assert ib and all(e.checked > 0 for e in ib)


def test_reader_model_passes_reader_theory():
    model = reader_model(X2, ("i1", "i2"))
    report = check_theory(model, Reader(("i1", "i2")), POOL)
    assert report.passed
    diag = next(e for e in report.entries if e.label == "Diag")
    assert diag.checked == len(model.carrier.points) ** 4


def test_writer_model_passes_writer_theory():
    mon = two_point_monoid()
    model = writer_model(mon, X2)
    report = check_theory(model, Writer(mon), POOL)
    assert report.passed
    diff = [e for e in report.entries if e.label.startswith("Diff")]
    assert diff


def test_broken_writer_table_caught_by_mult():
    mon = two_point_monoid()
    model = writer_model(mon, X2)
    bad = dict(model.interp)
    table = dict(bad[write("o")])
    table[("(o,p)",)] = "(z,p)"  # o*o should stay o
    bad[write("o")] = table
    broken = FiniteAlgebra(model.carrier, bad)
    report = check_theory(broken, Writer(mon), POOL)
    assert not report.passed
    labels = {e.label for e in report.failures()}
    assert any(l.startswith("Mult") or l.startswith("Diff") or l.startswith("nonexpansive")
               for l in labels)


def test_check_equation_monotone_in_bound():
    model = powerset_model(X2)
    ax = axioms(Semi(), POOL)
    s4 = next(a for a in ax if a.label == "S4")
    assert check_equation(model, [s4])[0].passed
    looser = AxiomInstance("S4+", s4.premises, s4.lhs, s4.rhs,
                           s4.bound + ext(1),
                           lambda *e: s4.bound_fn(*e) + ext(1))
    assert check_equation(model, [looser])[0].passed


def test_commutation_passes_on_pointwise_lifted_model():
    # the powerset model lifted pointwise to functions from two inputs
    inputs = ("i1", "i2")
    subsets = [make_set(map(VarLeaf, s)) for s in ((), ("p",), ("q",), ("p", "q"))]
    values = [FuncVal(tuple(zip(inputs, f)))
              for f in itertools.product(subsets, repeat=len(inputs))]
    th = Tensor(Semi(), Reader(inputs))
    alg = free_model(th, X2, values)
    # the carrier is closed under every operation
    assert [len(t) for t in alg.interp.values()] == [16 * 16, 1, 16 * 16]
    report = check_theory(alg, th, ParamPool.make(epsilons=[1]))
    assert report.passed
    com = [e for e in report.entries if e.label.startswith("Com[")]
    assert com and all(e.passed for e in com)


def test_commutation_violation_names_the_pair():
    # rd constantly p does not commute with a swapping write
    mon = two_point_monoid()
    carrier = X2
    swap = {("p",): "q", ("q",): "p"}
    ident = {(p,): p for p in carrier.points}
    rd_const = {(a, b): "p" for a in carrier.points for b in carrier.points}
    alg = FiniteAlgebra(carrier, {
        write("o"): swap, write("z"): ident, read(2): rd_const})
    th = Tensor(Reader(("i1", "i2")), Writer(mon))
    report = check_theory(alg, th, ParamPool.make(epsilons=[1]))
    assert not report.passed
    assert any(e.label == "Com[rd,wr(o)]" for e in report.failures())


def test_free_algebra_is_a_model():
    th = markov_process_theory(C12)
    plan = layer_plan(th)
    rng = random.Random(5)
    X = FinMetricSpace(["x", "y"], {("x", "y"): ext("1/2")})
    from quantalg.terms import raise_

    values = [apply_operation(plan, raise_("*"), []),
              denote_with_plan(Var("x"), plan),
              denote_with_plan(Var("y"), plan)]
    for _ in range(12):
        v = denote_with_plan(random_term(rng, th, ["x", "y"], 2), plan)
        if v not in values:
            values.append(v)
    ids = {v: f"t{k}" for k, v in enumerate(values)}
    table = {}
    for v in values:
        for w in values:
            table[(ids[v], ids[w])] = sem_dist_with_plan(v, w, plan, X, BOUNDED)
    carrier = FinMetricSpace(list(ids.values()), table, validate=False)
    interp = {}
    for op in (conv(C12), conv(Fraction(1)), conv(Fraction(0)),
               conv(Fraction(1, 4)), conv(Fraction(1, 3)),
               conv(Fraction(3, 4)), conv(Fraction(2, 3)),
               conv(Fraction(1, 6)), conv(Fraction(2, 5)),
               conv(Fraction(1, 8)), conv(Fraction(3, 8)),
               conv(Fraction(5, 8)), conv(Fraction(1, 12)),
               next_op("next", C12)):
        t = {}
        for args in itertools.product(values, repeat=op.arity):
            out = apply_operation(plan, op, list(args))
            if out in ids:
                t[tuple(ids[a] for a in args)] = ids[out]
        interp[op] = t
    interp[raise_("*")] = {(): ids[values[0]]}
    alg = FiniteAlgebra(carrier, interp)
    pool = ParamPool.make(weights=[C12], epsilons=[0, "1/2", 1])
    report = check_theory(alg, th, pool)
    assert report.passed
    checked = sum(e.checked for e in report.entries)
    assert checked > 0
    # free_model builds the same table for each generator, and its
    # extended-mode metric gives a model too
    free = free_model(th, X, values, pool)
    rename = dict(zip(free.carrier.points, carrier.points))
    for op, t in free.interp.items():
        assert {tuple(map(rename.get, a)): rename[b] for a, b in t.items()} == interp[op]
    assert check_theory(free, th, pool).passed


def test_mutations_are_caught():
    rng = random.Random(2)
    mon = two_point_monoid()
    models = {
        "powerset": (powerset_model(X2), Semi()),
        "distribution": (distribution_model(X2, 4, [C12]), Bary()),
        "reader": (reader_model(X2, ("i1", "i2")), Reader(("i1", "i2"))),
        "writer": (writer_model(mon, X2), Writer(mon)),
    }
    for name, (model, th) in models.items():
        caught = 0
        for _ in range(4):
            interp = {op: dict(t) for op, t in model.interp.items()}
            ops = sorted(interp, key=str)
            op = rng.choice([o for o in ops if interp[o]])
            key = rng.choice(sorted(interp[op]))
            old = interp[op][key]
            alternatives = [p for p in model.carrier.points if p != old]
            interp[op][key] = rng.choice(alternatives)
            mutated = FiniteAlgebra(model.carrier, interp)
            report = check_theory(mutated, th, POOL)
            if not report.passed:
                caught += 1
                assert report.failures()[0].counterexample is not None
        assert caught == 4, f"{name}: only {caught}/4 mutations caught"


def test_missing_table_reported():
    alg = FiniteAlgebra(X2, {})
    report = check_theory(alg, Reader(("i1", "i2")), POOL)
    assert not report.passed
    assert any(e.kind == "table" for e in report.failures())


def test_algebra_file_parsing():
    spaces = parse_spaces("space S { points: p, q; d(p,q) = 1; }")
    text = """
    algebra A {
      carrier: S;
      op wr(0): (p) -> p; (q) -> q;
      op union: (p, p) -> p; (p, q) -> q; (q, p) -> q; (q, q) -> q;
      op empty: -> p;
    }
    """
    alg = parse_algebras(text, spaces)["A"]
    assert alg.lookup(write(Fraction(0)), ("p",)) == "p"
    assert alg.lookup(union_op(), ("p", "q")) == "q"
    assert alg.lookup(empty_op(), ()) == "p"
    # the 2-chain join-semilattice with bottom p is a genuine model
    report = check_theory(alg, Semi(), ParamPool.make(epsilons=[1]))
    assert report.passed
    broken = """
    algebra B {
      carrier: S;
      op union: (p, p) -> p; (p, q) -> q; (q, p) -> q; (q, q) -> p;
      op empty: -> p;
    }
    """
    alg2 = parse_algebras(broken, spaces)["B"]
    report2 = check_theory(alg2, Semi(), ParamPool.make(epsilons=[1]))
    assert not report2.passed  # union(q,q) != q violates idempotence
    assert any(e.label == "S1" for e in report2.failures())


def test_sum_report_decomposes_into_component_reports():
    model = powerset_model(X2)
    interp = dict(model.interp)
    from quantalg.terms import raise_

    interp[raise_("*")] = {(): "{}"}
    alg = FiniteAlgebra(model.carrier, interp)
    th = Sum(Semi(), Exc(ONE_POINT))
    report = check_theory(alg, th, ParamPool.make(epsilons=[1]))
    assert report.passed
    left = [e for e in report.entries if e.origin.startswith("L")]
    right = [e for e in report.entries if e.origin.startswith("R")]
    assert {e.label for e in left} >= {"S0", "S1", "S2", "S3"}
    assert all(e.label.startswith(("Exc", "nonexpansive raise")) for e in right)
    assert len(left) + len(right) == len(report.entries)


def test_half_integer_distribution_model_passes_b2():
    model = distribution_model(X2, 2, [C12])
    report = check_theory(model, Bary(), ParamPool.make(weights=[C12], epsilons=[1]))
    assert report.passed
    b2 = next(e for e in report.entries if e.label.startswith("B2"))
    assert b2.checked == len(model.carrier.points)


def test_tight_instance_accepted_iff_all_looser_accepted():
    # failing direction: a rejected tight instance stays rejected at any
    # bound below the witnessing distance
    mon = two_point_monoid()
    model = writer_model(mon, X2)
    bad = {op: dict(t) for op, t in model.interp.items()}
    bad[write("o")][("(o,p)",)] = "(z,p)"
    broken = FiniteAlgebra(model.carrier, bad)
    mult = next(a for a in axioms(Writer(mon), POOL)
                if a.label == "Mult[o,o]")
    [tight] = check_equation(broken, [mult])
    assert not tight.passed
    slightly_looser = AxiomInstance(
        "Mult~", mult.premises, mult.lhs, mult.rhs, mult.bound + ext("1/2"))
    assert not check_equation(broken, [slightly_looser])[0].passed
    beyond_witness = AxiomInstance(
        "Mult~~", mult.premises, mult.lhs, mult.rhs, mult.bound + ext(2))
    assert check_equation(broken, [beyond_witness])[0].passed


def test_builtin_models_pin_point_names_distances_and_tables():
    # Written out by hand: files written from these models name their
    # entries by these points, in this order.
    P = powerset_model(X2)
    assert P.carrier.points == ("{}", "{p}", "{q}", "{p,q}")
    assert P.carrier.d("{}", "{p}") == INF
    assert P.carrier.d("{p}", "{p,q}") == ext(1)
    assert list(P.interp) == [union_op(), empty_op()]
    assert list(P.interp[union_op()].items())[:5] == [
        (("{}", "{}"), "{}"), (("{}", "{p}"), "{p}"), (("{}", "{q}"), "{q}"),
        (("{}", "{p,q}"), "{p,q}"), (("{p}", "{}"), "{p}")]
    assert P.interp[empty_op()] == {(): "{}"}

    D = distribution_model(X2, 2, [C12])
    assert D.carrier.points == ("[q:1]", "[p:1/2;q:1/2]", "[p:1]")
    assert D.carrier.d("[q:1]", "[p:1/2;q:1/2]") == ext("1/2")
    assert D.carrier.d("[q:1]", "[p:1]") == ext(1)
    assert list(D.interp) == [conv(C12), conv(1), conv(0), conv("1/4"), conv("1/3")]
    # partial: conv(1/2) of [q:1] and the midpoint is [p:1/4;q:3/4], off the grid
    assert list(D.interp[conv(C12)].items()) == [
        (("[q:1]", "[q:1]"), "[q:1]"),
        (("[q:1]", "[p:1]"), "[p:1/2;q:1/2]"),
        (("[p:1/2;q:1/2]", "[p:1/2;q:1/2]"), "[p:1/2;q:1/2]"),
        (("[p:1]", "[q:1]"), "[p:1/2;q:1/2]"),
        (("[p:1]", "[p:1]"), "[p:1]")]
    apart = FinMetricSpace(["p", "q"], {})
    assert distribution_model(apart, 2, [C12]).carrier.d("[q:1]", "[p:1/2;q:1/2]") == INF

    R = reader_model(X2, ("i1", "i2"))
    assert R.carrier.points == ("<p,p>", "<p,q>", "<q,p>", "<q,q>")
    assert R.carrier.d("<p,q>", "<q,q>") == ext(1)
    assert list(R.interp) == [read(2)]
    assert R.interp[read(2)][("<p,q>", "<q,p>")] == "<p,p>"
    assert R.interp[read(2)][("<q,p>", "<p,q>")] == "<q,q>"

    W = writer_model(two_point_monoid(), X2)
    assert W.carrier.points == ("(z,p)", "(z,q)", "(o,p)", "(o,q)")
    assert W.carrier.d("(z,p)", "(o,q)") == ext(2)
    assert list(W.interp) == [write("z"), write("o")]
    assert list(W.interp[write("o")].items()) == [
        (("(z,p)",), "(o,p)"), (("(z,q)",), "(o,q)"),
        (("(o,p)",), "(o,p)"), (("(o,q)",), "(o,q)")]


def _verdict(entry):
    cx = entry.counterexample
    return (entry.origin, entry.label, entry.passed, entry.checked, entry.skipped,
            cx and cx.assignment, cx and cx.detail)


def _assert_matches_reference(alg, th, pool):
    """check_theory's entries, one by one, against the report the oracles
    give (one axiom instance, one pair of argument vectors at a time);
    returns them."""
    got = [_verdict(e) for e in check_theory(alg, th, pool).entries]
    assert got == [_verdict(e) for e in check_theory_reference(alg, th, pool).entries]
    return got


def _builtin_models():
    mon = two_point_monoid()
    return [(powerset_model(X2), Semi()),
            (distribution_model(X2, 4, [C12]), Bary()),
            (reader_model(X2, ("i1", "i2")), Reader(("i1", "i2"))),
            (writer_model(mon, X2), Writer(mon))]


def test_shared_loop_matches_reference_on_builtin_models_and_mutants():
    rng = random.Random(11)
    for model, th in _builtin_models():
        assert all(v[2] for v in _assert_matches_reference(model, th, POOL))
        interp = {op: dict(t) for op, t in model.interp.items()}
        op = rng.choice([o for o in sorted(interp, key=str) if interp[o]])
        key = rng.choice(sorted(interp[op]))
        interp[op][key] = rng.choice([p for p in model.carrier.points
                                      if p != interp[op][key]])
        mutant = FiniteAlgebra(model.carrier, interp)
        assert not all(v[2] for v in _assert_matches_reference(mutant, th, POOL))


def test_shared_loop_matches_reference_on_partial_tables():
    rng = random.Random(12)
    for model, th in _builtin_models():
        for _ in range(3):
            interp = {op: {a: b for a, b in t.items() if rng.random() < 0.7}
                      for op, t in model.interp.items()}
            alg = FiniteAlgebra(model.carrier, interp)
            verdicts = _assert_matches_reference(alg, th, POOL)
            assert any(v[4] for v in verdicts)  # some assignments were skipped
            # a passing non-expansiveness check sees every pair of defined
            # images, and skips an undefined first image once
            n = len(model.carrier.points)
            for op, table in interp.items():
                e = check_nonexpansive(alg, op)
                if e.passed:
                    k, rest = len(table), n ** op.arity - len(table)
                    assert (e.checked, e.skipped) == (k * k, rest + k * rest)


def test_shared_loop_matches_reference_on_tensor_and_contraction():
    # on X2 and on a carrier whose one pair is infinitely far apart
    rng = random.Random(13)
    mon = two_point_monoid()
    step = next_op("step", C12)
    cases = [(Tensor(Reader(("i1", "i2")), Writer(mon)), [write("z"), write("o"), read(2)]),
             (Sum(Contract("step", C12), Semi()), [step, union_op(), empty_op()])]
    for X in (X2, FinMetricSpace(["p", "q"], {})):
        for th, ops in cases:
            for _ in range(6):
                interp = {op: {args: rng.choice(X.points)
                               for args in itertools.product(X.points, repeat=op.arity)}
                          for op in ops}
                verdicts = _assert_matches_reference(FiniteAlgebra(X, interp), th, POOL)
                assert any(v[0].endswith(".com") for v in verdicts) == isinstance(th, Tensor)


@pytest.mark.parametrize("block", [1, 7])
def test_judging_in_blocks_matches_reference(block, monkeypatch):
    # a schema with more than _BLOCK assignments is judged in blocks of its
    # inner variables, with the outer ones fixed
    from quantalg import modelcheck

    monkeypatch.setattr(modelcheck, "_BLOCK", block)
    rng = random.Random(14)
    late = 0  # failures past the first assignment
    for model, th in _builtin_models():
        for _ in range(3):
            # a partial mutant: some entries dropped, one moved
            interp = {op: {a: b for a, b in t.items() if rng.random() < 0.8}
                      for op, t in model.interp.items()}
            op = rng.choice([o for o in sorted(interp, key=str) if interp[o]])
            key = rng.choice(sorted(interp[op]))
            interp[op][key] = rng.choice([p for p in model.carrier.points
                                          if p != interp[op][key]])
            verdicts = _assert_matches_reference(FiniteAlgebra(model.carrier, interp), th, POOL)
            late += sum(1 for v in verdicts if v[5] is not None and v[3] + v[4] > 1)
    assert late > 10


def test_shared_loop_keeps_each_instance_bound_and_both_violations():
    # one group: the IB and Diff instances at their tight bound and at bounds
    # above and below bound_fn(eps)
    mon = two_point_monoid()
    broken = writer_model(mon, X2)
    broken.interp[write("z")][("(z,p)",)] = "(z,q)"
    cases = [(distribution_model(X2, 4, [C12]), Bary(), f"IB[{C12}]"),
             (broken, Writer(mon), "Diff[z,o]")]
    forms = set()
    for model, th, label in cases:
        schema = [ax for ax in axioms(th, POOL) if ax.label == label]
        group = list(schema)
        for shift in (ext("1/2"), ext(1)):
            group += [AxiomInstance(ax.label, ax.premises, ax.lhs, ax.rhs,
                                    ax.bound + shift, ax.bound_fn) for ax in schema]
            group += [AxiomInstance(ax.label, ax.premises, ax.lhs, ax.rhs,
                                    ExtValue(ax.bound.rational - shift.rational), ax.bound_fn)
                      for ax in schema if ax.bound >= shift]
        got = check_equation(model, group, "o")
        assert [_verdict(e) for e in got] == [
            _verdict(check_equation_reference(model, ax, "o")) for ax in group]
        for ax, e in zip(group, got):
            if not e.passed:
                forms.add(e.counterexample.detail.endswith(f"> {ax.bound}"))
    assert forms == {True, False}  # the given-threshold and the tight violation


class _CountingTable(dict):
    """An op table that counts its reads."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def get(self, key, default=None):
        self.reads[0] += 1
        return super().get(key, default)


def _table_reads(model, group):
    reads = [0]
    alg = FiniteAlgebra(model.carrier, {op: _CountingTable(t, reads)
                                        for op, t in model.interp.items()})
    assert all(e.passed for e in check_equation(alg, group))
    return reads[0]


def test_each_subterm_table_is_read_once_per_value_of_its_variables():
    # a subterm with k distinct variables reads its op table n^k times,
    # whatever the schema's number of variables
    model = distribution_model(X2, 4, [C12])
    n = len(model.carrier.points)
    assert n == 5
    ib = [ax for ax in axioms(Bary(), POOL) if ax.label == f"IB[{C12}]"]
    assert len(ib) == 16 and len(ib[0].variables()) == 4
    assert _table_reads(model, ib) == 2 * n ** 2  # 25 per side, not 625
    X3 = FinMetricSpace(["x", "y", "z"], {("x", "y"): ext(1), ("y", "z"): ext(C12),
                                          ("x", "z"): ext(Fraction(3, 2))})
    reader = reader_model(X3, ("i1", "i2"))
    n = len(reader.carrier.points)
    assert n == 9
    diag = [ax for ax in axioms(Reader(("i1", "i2")), POOL) if ax.label == "Diag"]
    # rd(x0_0, x1_1), then rd(rd(x0_0, x0_1), rd(x1_0, x1_1)): the outer
    # read over four variables, each inner one over two
    assert _table_reads(reader, diag) == n ** 2 + (n ** 4 + 2 * n ** 2)


@settings(max_examples=200, deadline=None)
@given(hst.integers(0, 2 ** 32 - 1), hst.integers(1, 4), hst.integers(0, 3))
def test_nonexpansive_over_unordered_pairs_is_the_ordered_loop(seed, n, arity):
    # a random partial table on a random carrier (some points infinitely far
    # apart), its images mostly the first argument so that some tables pass:
    # verdict, counts and counterexample are those of the loop over every
    # ordered pair of argument vectors
    rng = random.Random(seed)
    X = random_space(rng, [f"p{i}" for i in range(n)], max_den=4, inf_prob=0.5)
    op = rng.choice([[raise_("e")],
                     [next_op("f", C12), next_op("g", Fraction(9, 10)), write(Fraction(0))],
                     [conv(C12), union_op()], [read(3)]][arity])
    density, noise = rng.random(), rng.random() / 2
    table = {vec: vec[0] if vec and rng.random() >= noise else rng.choice(X.points)
             for vec in itertools.product(X.points, repeat=arity) if rng.random() < density}
    alg = FiniteAlgebra(X, {op: table})
    assert _verdict(check_nonexpansive(alg, op)) == _verdict(
        check_nonexpansive_reference(alg, op))


def test_nonexpansive_counterexample_counts_only_the_pairs_met_before_it():
    # p, q, r on a line; q's image is undefined under f, p's under g
    X = FinMetricSpace(["p", "q", "r"], {("p", "q"): ext(1), ("q", "r"): ext(1),
                                         ("p", "r"): ext(2)})
    f, g = next_op("f", C12), next_op("g", C12)
    alg = FiniteAlgebra(X, {f: {("p",): "p", ("r",): "r"},
                            g: {("q",): "q", ("r",): "p"}})
    for op, counts, detail in (
            # at a = p: b = p checked, b = q skipped, b = r fails
            (f, (2, 1), "d(p,r) = 2 > 1"),
            # a = p skipped; at a = q: b = p skipped, b = q checked, b = r fails
            (g, (2, 2), "d(q,p) = 1 > 1/2")):
        got = check_nonexpansive(alg, op)
        assert _verdict(got) == _verdict(check_nonexpansive_reference(alg, op))
        assert (got.passed, (got.checked, got.skipped)) == (False, counts)
        assert got.counterexample.detail == detail
