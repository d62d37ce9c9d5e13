import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from quantalg import (BOUNDED, Bary, DistVal, EXTENDED, Exc, ExcLeaf, FinMetricSpace, discrete,
                      FuncVal, Guard, PairVal, RATIONAL_LINE, Reader, Semi,
                      SetVal, StateLeaf, Sum, VarLeaf, Writer, apply_operation, bind,
                      canon_key, denote,
                      denote_with_plan, ext, format_value, labelled_mp_theory,
                      layer_plan, make_dist, make_set, map_guards, markov_process_theory,
                      mdp_theory,
                      mealy_theory, parse_term, parse_theory, sem_dist,
                      sem_dist_with_plan, term_dist)
from quantalg.errors import DomainError
from quantalg import semantics
from quantalg.extvalue import INF, INT_INF, ONE, ZERO, ExtValue
from quantalg.semantics import PairGraph, SemValue
from quantalg.transport import min_cost_transport, solve_scaled
from quantalg.terms import (App, Var, conv, empty_op, next_op, raise_, read,
                            union_op, write)

from helpers import random_space, random_term, theory_shapes
from oracles import (canon_key_reference, dist_items_reference, enumerate_transport,
                     sem_dist_reference)

C12 = Fraction(1, 2)
MP = markov_process_theory(C12)
LMP = labelled_mp_theory(["a1", "a2"], C12)
MM = mealy_theory(["i1", "i2"], RATIONAL_LINE, C12)
MDP = mdp_theory(["a"], C12)

XY = FinMetricSpace(["x", "y"], {("x", "y"): ext(1)})


def D(*pairs):
    weights = [Fraction(w) for _, w in pairs]
    W = lcm(*(w.denominator for w in weights))
    return make_dist([(v, int(w * W)) for (v, _), w in zip(pairs, weights)], W)


def test_denote_merges_convex_duplicates():
    assert denote(parse_term("conv(1/2, x, x)"), Bary()) == D((VarLeaf("x"), 1))
    assert denote(parse_term("conv(1, x, y)"), Bary()) == D((VarLeaf("x"), 1))


def test_denote_writer_multiplies():
    v = denote(parse_term("wr(2, wr(3, x))"), Writer(RATIONAL_LINE))
    assert v == PairVal(Fraction(5), VarLeaf("x"))
    assert format_value(v) == "Pair(5, x)"


def test_two_guard_names_give_two_normal_forms():
    th = parse_theory("sum(sum(sum(bary, exc{1}), contr{a, 1/2}), contr{b, 1/3})")
    forms = [format_value(denote(parse_term(f"{g}(raise(*))", th), th)) for g in "ab"]
    assert forms == ["Dist{Guard[a](Dist{*: 1}): 1}", "Dist{Guard[b](Dist{*: 1}): 1}"]
    v = denote(parse_term("next(raise(*))", MP), MP)
    assert format_value(v) == "Dist{Guard(Dist{*: 1}): 1}"


def test_denote_reader_eta_expansion():
    R = Reader(("i1", "i2"))
    assert denote(parse_term("rd(x, x)"), R) == denote(parse_term("x"), R)
    v = denote(parse_term("rd(x, y)"), R)
    assert v == FuncVal((("i1", VarLeaf("x")), ("i2", VarLeaf("y"))))


def test_denote_reader_diagonal():
    R = Reader(("i1", "i2"))
    nested = parse_term("rd(rd(a, b), rd(c, d))", R)
    assert denote(nested, R) == denote(parse_term("rd(a, d)", R), R)


def test_denote_union_deduplicates():
    v = denote(parse_term("union(x, union(x, y))"), Semi())
    assert v == SetVal((VarLeaf("x"), VarLeaf("y")))
    assert denote(parse_term("empty"), Semi()) == SetVal(())


def test_denote_guard_wraps_whole_value():
    t = parse_term("next(conv(1/2, raise(*), x))", MP)
    v = denote(t, MP)
    inner = D((VarLeaf("x"), C12), (ExcLeaf("*"), C12))
    assert v == D((Guard("next", C12, inner), 1))


def test_denote_mealy_layers():
    t = parse_term("rd(wr(1, next(x)), wr(2, y))", MM)
    v = denote(t, MM)
    assert isinstance(v, FuncVal)
    i1 = dict(v.items)["i1"]
    assert isinstance(i1, PairVal) and i1.alpha == 1
    assert isinstance(i1.inner, Guard)


def test_denote_mdp_layers():
    t = parse_term("rd(conv(1/2, wr(3, next(x)), wr(0, y)))", MDP)
    v = denote(t, MDP)
    row = dict(v.items)["a"]
    assert isinstance(row, DistVal)
    alphas = {p.alpha for p, _ in row.items}
    assert alphas == {Fraction(3), Fraction(0)}


def test_denote_tensor_commutation_collapses():
    lhs = parse_term("rd(conv(1/2, a, b), conv(1/2, c, d))", LMP)
    rhs = parse_term("conv(1/2, rd(a, c), rd(b, d))", LMP)
    assert denote(lhs, LMP) == denote(rhs, LMP)


def test_sem_dist_kantorovich_case():
    v = D((VarLeaf("x"), C12), (VarLeaf("y"), C12))
    w = D((VarLeaf("y"), 1))
    assert sem_dist(v, w, XY) == ext("1/2")
    # cross-checked against the basis-enumeration oracle
    want = enumerate_transport([C12, C12], [Fraction(1)],
                               [[ext(1)], [ZERO]])
    assert want == ext("1/2")


def test_sem_dist_guard_scales():
    v = Guard("next", C12, D((VarLeaf("x"), 1)))
    w = Guard("next", C12, D((VarLeaf("y"), 1)))
    assert sem_dist(v, w, XY) == ext("1/2")


def test_sem_dist_exception_metric():
    E = FinMetricSpace(["e1", "e2"], {("e1", "e2"): ext("1/4")})
    assert sem_dist(ExcLeaf("e1"), ExcLeaf("e2"), exc_space=E) == ext("1/4")
    assert sem_dist(ExcLeaf("e1"), ExcLeaf("e1")) == ZERO


def test_sem_dist_coproduct_rule_and_modes():
    assert sem_dist(VarLeaf("x"), ExcLeaf("*"), XY, EXTENDED) == INF
    assert sem_dist(VarLeaf("x"), ExcLeaf("*"), XY, BOUNDED) == ext(1)


def test_empty_set_against_a_nonempty_set_in_both_orders():
    # every point of the nonempty side has no nearest point: one INF
    # candidate, whichever side is empty; the pair graph folds the slot to
    # INF at the build, so no strategy is asked
    from types import SimpleNamespace

    from quantalg.semantics import PairGraph
    from quantalg.spaces import hausdorff_candidates

    empty, full = SetVal(()), make_set([VarLeaf("x"), VarLeaf("y")])
    assert hausdorff_candidates([], 2) == [INF, INF]
    assert hausdorff_candidates([[], []], 0) == [INF, INF]
    for mode in (EXTENDED, BOUNDED):
        for pair in ((empty, full), (full, empty)):
            seen = []
            graph = PairGraph([pair], XY, mode)
            first = SimpleNamespace(pick=lambda k, c: seen.append(c) or c[0])
            assert graph.evaluate(strategy=first) == [INF]
            assert seen == [] and graph.ops == {}
            assert sem_dist(*pair, XY, mode) == INF


def test_sem_dist_matches_the_recursive_reference_on_every_shape():
    # the compiled pair graph against the pair recursion it compiles, on
    # random terms of every shape layer_plan accepts, in both modes
    rng = random.Random(31)
    compared = 0
    for th in theory_shapes(2):
        try:
            plan = layer_plan(th)
        except DomainError:
            continue
        mon = next((layer[1] for layer in plan.layers if layer[0] == "pair"), None)
        X = random_space(rng, ["x", "y"], max_den=4, inf_prob=0.2)
        depth = 0 if isinstance(th, Exc) else 3  # exc{1} alone has no operation
        for _ in range(3):
            try:
                v, w = (denote_with_plan(random_term(rng, th, ["x", "y"], depth), plan)
                        for _ in range(2))
            except DomainError:
                continue
            for mode in (EXTENDED, BOUNDED):
                want = sem_dist_reference(v, w, X, mode, plan.exc_space, mon)
                assert sem_dist_with_plan(v, w, plan, X, mode) == want, (th, mode)
                compared += 1
    assert compared > 600, compared


def test_sem_dist_shape_mismatch_raises():
    with pytest.raises(DomainError):
        sem_dist(D((VarLeaf("x"), 1)), SetVal((VarLeaf("x"),)), XY)


def test_term_dist_examples():
    assert term_dist(parse_term("conv(1/2, x, y)"), parse_term("y"),
                     Bary(), XY) == ext("1/2")
    R = Reader(("i1", "i2"))
    YZ = FinMetricSpace(["x", "y", "z"],
                        {("y", "z"): ext(3), ("x", "y"): ext(1), ("x", "z"): ext(3)})
    assert term_dist(parse_term("rd(x, y)", R), parse_term("rd(x, z)", R),
                     R, YZ) == ext(3)
    t = random_term(random.Random(1), MP, ["x", "y"], 3)
    assert term_dist(t, t, MP, XY) == ZERO
    assert term_dist(parse_term("wr(2, x)"), parse_term("wr(5, x)"),
                     Writer(RATIONAL_LINE), XY) == ext(3)


def test_term_dist_pseudometric_laws():
    rng = random.Random(42)
    for th, leaves in ((MP, ["x", "y"]), (LMP, ["x", "y"]), (MM, ["x", "y"]),
                       (Bary(), ["x", "y"]), (Semi(), ["x", "y"])):
        for _ in range(12):
            X = random_space(rng, ["x", "y", "z"], inf_prob=0.1)
            ts = [random_term(rng, th, leaves, 3) for _ in range(3)]
            for mode in (EXTENDED, BOUNDED):
                d01 = term_dist(ts[0], ts[1], th, X, mode)
                assert term_dist(ts[0], ts[0], th, X, mode) == ZERO
                assert d01 == term_dist(ts[1], ts[0], th, X, mode)
                d12 = term_dist(ts[1], ts[2], th, X, mode)
                d02 = term_dist(ts[0], ts[2], th, X, mode)
                assert d02 <= d01 + d12


def test_bounded_never_exceeds_extended_scaled():
    rng = random.Random(8)
    for _ in range(20):
        X = random_space(rng, ["x", "y"], inf_prob=0.2)
        t = random_term(rng, MP, ["x", "y"], 3)
        s = random_term(rng, MP, ["x", "y"], 3)
        assert term_dist(t, s, MP, X, BOUNDED) <= term_dist(t, s, MP, X, EXTENDED)


def test_nonexpansiveness_of_constructors():
    rng = random.Random(13)
    for _ in range(25):
        X = random_space(rng, ["x", "y", "z"])
        t1, s1 = (random_term(rng, MP, ["x", "y", "z"], 2) for _ in range(2))
        t2, s2 = (random_term(rng, MP, ["x", "y", "z"], 2) for _ in range(2))
        d1 = term_dist(t1, s1, MP, X)
        d2 = term_dist(t2, s2, MP, X)
        e = Fraction(rng.randint(0, 4), 4)
        lhs = term_dist(App(conv(e), (t1, t2)), App(conv(e), (s1, s2)), MP, X)
        bound = (d1.scaled(e) if e else ZERO) + (d2.scaled(1 - e) if e != 1 else ZERO)
        assert lhs <= bound
        step = next_op("next", C12)
        assert term_dist(App(step, (t1,)), App(step, (s1,)), MP, X) == d1.scaled(C12)


def test_nonexpansiveness_write_and_read():
    rng = random.Random(14)
    W = Writer(RATIONAL_LINE)
    for _ in range(20):
        X = random_space(rng, ["x", "y"])
        t, s = (random_term(rng, W, ["x", "y"], 2) for _ in range(2))
        d = term_dist(t, s, W, X)
        a, b = Fraction(2), Fraction(7, 2)
        lhs = term_dist(App(write(a), (t,)), App(write(b), (s,)), W, X)
        assert lhs <= ext(abs(a - b)) + d
        R = Reader(("i1", "i2"))
        u1, v1 = (random_term(rng, R, ["x", "y"], 2) for _ in range(2))
        u2, v2 = (random_term(rng, R, ["x", "y"], 2) for _ in range(2))
        lhs = term_dist(App(read(2), (u1, u2)), App(read(2), (v1, v2)), R, X)
        rhs = max(term_dist(u1, v1, R, X), term_dist(u2, v2, R, X))
        assert lhs <= rhs


def test_substitution_nonexpansive():
    rng = random.Random(15)
    for _ in range(20):
        X = random_space(rng, ["x", "y", "z"])
        t = random_term(rng, MP, ["x", "y"], 3)
        s = random_term(rng, MP, ["x", "y"], 3)
        sigma = {v: random_term(rng, MP, ["x", "y", "z"], 2) for v in ("x", "y")}
        before = term_dist(t, s, MP, X)
        after = term_dist(bind(t, sigma), bind(s, sigma), MP, X)
        assert after <= before


def test_monotone_in_ground_space():
    rng = random.Random(16)
    for _ in range(20):
        X = random_space(rng, ["x", "y", "z"])
        t = random_term(rng, MP, ["x", "y", "z"], 3)
        s = random_term(rng, MP, ["x", "y", "z"], 3)
        before = term_dist(t, s, MP, X)
        # raise one entry to its largest triangle-compatible value
        p, q = "x", "y"
        cap = min(X.d(p, r) + X.d(r, q) for r in X.points if r not in (p, q))
        Y = FinMetricSpace(X.points, {**{(a, b): X.d(a, b) for a in X.points for b in X.points},
                                      (p, q): cap, (q, p): cap})
        assert term_dist(t, s, MP, Y) >= before


def test_axiom_soundness_at_zero_smoke():
    # premise-free 0-axioms hold exactly under random closed substitutions
    from quantalg import ParamPool, axioms

    rng = random.Random(17)
    pool = ParamPool.make(weights=[C12], epsilons=[1], monoid_elems=[0, 2])
    X = random_space(rng, ["x", "y"])
    for th in (MP, LMP, MM):
        for ax in axioms(th, pool):
            if ax.premises or ax.bound != ZERO:
                continue
            for _ in range(5):
                sigma = {v: random_term(rng, th, ["x", "y"], 2)
                         for v in ax.variables()}
                assert term_dist(bind(ax.lhs, sigma), bind(ax.rhs, sigma),
                                 th, X) == ZERO, ax.label


def test_zero_distance_iff_canonical_equality():
    # over a separated ground space the value metric is itself separated,
    # which is what makes the canonical-equality fast path sound
    rng = random.Random(19)
    for th in (MP, LMP, MM, MDP):
        from quantalg import layer_plan, denote_with_plan, sem_dist_with_plan

        plan = layer_plan(th)
        for _ in range(30):
            X = random_space(rng, ["x", "y"], max_den=4)
            v = denote_with_plan(random_term(rng, th, ["x", "y"], 3), plan)
            w = denote_with_plan(random_term(rng, th, ["x", "y"], 3), plan)
            for mode in (EXTENDED, BOUNDED):
                d = sem_dist_with_plan(v, w, plan, X, mode)
                assert (d == ZERO) == (v == w)


_ANY_LEAVES = (Var("x"), App(raise_("*"), ()), App(raise_("zz"), ()), App(empty_op(), ()))
_ANY_OPS = (conv(C12), union_op(), read(1), read(2), write(Fraction(2)), write("m"),
            next_op("next", C12), next_op("next", Fraction(1, 3)), next_op())


def _any_term(rng, depth):
    """A random term over every operation kind, with parameters both inside
    and outside the shapes' signatures: raise(zz), rd of arity 1, wr(m, .)
    over q, and next with a wrong or unresolved factor."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_ANY_LEAVES)
    op = rng.choice(_ANY_OPS)
    return App(op, tuple(_any_term(rng, depth - 1) for _ in range(op.arity)))


def test_denote_is_total():
    # on every shape layer_plan accepts, any term denotes or is a DomainError
    rng = random.Random(29)
    outcomes = {True: 0, False: 0}
    for th in theory_shapes(2):
        try:
            plan = layer_plan(th)
        except DomainError:
            continue
        for _ in range(40):
            t = _any_term(rng, 3)
            try:
                denote_with_plan(t, plan)
            except DomainError:
                outcomes[False] += 1
            else:
                outcomes[True] += 1
    assert min(outcomes.values()) > 500, outcomes


@given(st.fractions(), st.fractions())
def test_the_distance_of_two_rational_outputs_is_their_fraction_distance(x, y):
    # a pair layer over the rational line: |x - y| cross-multiplied on ints
    got = PairGraph([])._alpha_dist(x, y)
    assert got == ExtValue(abs(x - y)) and got.ratio == (abs(x - y).numerator,
                                                         abs(x - y).denominator)


# Values of every kind for the int distributions' tests: leaves, guards over
# two factors, and sets, pairs, functions and distributions of values.
_LEAVES = st.one_of(st.sampled_from("xyz").map(VarLeaf), st.sampled_from("*e").map(ExcLeaf),
                    st.sampled_from("st").map(StateLeaf))


def _dists(values):
    return st.lists(st.tuples(values, st.integers(1, 3)), min_size=1, max_size=3).map(
        lambda ps: make_dist(ps, sum(n for _, n in ps)))


_VALUES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.builds(Guard, st.just("next"), st.sampled_from([C12, Fraction(1, 3)]), kids),
    st.lists(kids, max_size=3).map(make_set),
    st.builds(PairVal, st.sampled_from([Fraction(0), C12, "m"]), kids),
    st.lists(kids, min_size=2, max_size=2).map(lambda xs: FuncVal((("i", xs[0]), ("j", xs[1])))),
    _dists(kids)), max_leaves=6)


def _assert_is_reference(got, want):
    # the items, each W the lcm of its reduced weights' denominators, and the
    # stored keys, down to the leaves, equal to keys computed afresh
    assert isinstance(got, DistVal) and got.items == want
    assert got.W == lcm(*(w.denominator for _, w in want))
    assert canon_key(got) == canon_key_reference(got)


@given(st.lists(st.tuples(_VALUES, st.sampled_from([0, 1, 1, 2, 3, -1])), max_size=5),
       st.one_of(st.none(), st.integers(1, 8)))
def test_int_make_dist_is_the_fraction_reference(weighted, W):
    # W None: the weights' total, so the mass is 1 unless every weight is 0
    W = W or max(1, sum(n for _, n in weighted))
    try:
        want = dist_items_reference([(v, Fraction(n, W)) for v, n in weighted])
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{exc}$"):
            make_dist(weighted, W)
    else:
        _assert_is_reference(make_dist(weighted, W), want)


@given(_dists(_VALUES), _dists(_VALUES), st.fractions(0, 1, max_denominator=12))
def test_int_conv_is_the_fraction_reference(a, b, e):
    got = apply_operation(layer_plan(Bary()), conv(e), [a, b])
    want = dist_items_reference([(v, w * e) for v, w in a.items]
                                + [(v, w * (1 - e)) for v, w in b.items])
    _assert_is_reference(got, want)


@given(_dists(st.one_of(_LEAVES, st.builds(Guard, st.sampled_from(["next", "g"]), st.just(C12),
                                           _VALUES))), st.sampled_from(["x", "s", None]))
def test_int_map_guards_is_the_fraction_reference(v, target):
    # f sends every guard's inner value to one leaf (target None: keeps it),
    # so guards merge; it meets the guards in item order
    met = []

    def f(inner):
        met.append(inner)
        return inner if target is None else VarLeaf(target)

    got = map_guards(v, f)
    assert met == [x.inner for x, _ in v.items if isinstance(x, Guard)]
    want = dist_items_reference([(Guard(x.name, x.c, f(x.inner)) if isinstance(x, Guard)
                                  else x, w) for x, w in v.items])
    _assert_is_reference(got, want)
    if target is None:  # f changed nothing: v itself, and no value is rebuilt
        with mock.patch.object(semantics, "make_dist", side_effect=AssertionError):
            assert map_guards(v, lambda inner: inner) is v


_GROUND = st.one_of(st.just(INF), st.fractions(0, 3, max_denominator=6).map(ExtValue))


@given(st.lists(st.tuples(st.integers(0, 16), st.integers(1, 5), _GROUND,
                          st.fractions(0, 2, max_denominator=4)),
                min_size=1, max_size=16, unique_by=lambda c: c[0]),
       st.sampled_from([BOUNDED, EXTENDED]), st.booleans())
def test_a_point_mass_is_the_mean_of_its_ground(cells, mode, point_first):
    # (0, p0) against up to 16 pairs (a, p) of an output and one of the
    # points p0..p16, at the drawn ground distances, infinite ones among
    # them: a cell's distance a + d(p0, p) may pass the bounded cap; the one
    # coupling's cost, with no transport kept, is exactly the value of the
    # transport of the truncated ground; (0, p0) against itself is the zero
    # slot
    names = [f"p{k}" for k, _, _, _ in cells]
    space = FinMetricSpace(["p0"] + [p for p in names if p != "p0"],
                           {("p0", p): e for p, (_, _, e, _) in zip(names, cells) if p != "p0"},
                           validate=False)
    total = sum(n for _, n, _, _ in cells)
    nu = make_dist([(PairVal(a, VarLeaf(p)), n) for p, (_, n, _, a) in zip(names, cells)], total)
    delta = make_dist([(PairVal(Fraction(0), VarLeaf("p0")), 1)], 1)
    graph = PairGraph([(delta, nu) if point_first else (nu, delta)], space, mode)
    top = ONE if mode == BOUNDED else INF
    row = [(ExtValue(x.alpha) + space.d("p0", x.inner.name)).truncated(top) for x in nu.support]
    masses = [w for _, w in nu.items]
    want = min_cost_transport([Fraction(1)], masses, [row]) if point_first else \
        min_cost_transport(masses, [Fraction(1)], [[c] for c in row])
    assert graph.evaluate()[0] == want.value and graph.plans == {}


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([BOUNDED, EXTENDED]))
def test_sem_dist_transports_no_point_mass(seed, mode):
    # denotations of random terms over theories with a distribution layer:
    # no transport with one row or one column is solved; a 2 x 2 pair
    # shows that the patched name is the one sem_dist calls
    calls = []

    def solve(a, b, W, K, cost, start=None):
        assert len(a) > 1 and len(b) > 1, (a, b)
        calls.append((a, b))
        return solve_scaled(a, b, W, K, cost, start)

    rng = random.Random(seed)
    th = rng.choice([MP, LMP, MDP, Sum(Bary(), Exc(FinMetricSpace(["*"], {}))),
                     parse_theory("tensor(bary, reader{a, b})")])
    plan, X = layer_plan(th), random_space(rng, ["x", "y"], max_den=4)
    with mock.patch.object(semantics, "solve_scaled", solve):
        two = [make_dist([(VarLeaf("x"), 1), (VarLeaf("y"), 2)], 3),
               make_dist([(VarLeaf("x"), 2), (VarLeaf("y"), 1)], 3)]
        assert sem_dist(*two, XY) == ext("1/3") and len(calls) == 1
        for _ in range(3):
            t, s = (denote_with_plan(random_term(rng, th, ["x", "y"], 3), plan) for _ in "ts")
            sem_dist_with_plan(t, s, plan, X, mode)


def test_no_intern_key_holds_a_fraction():
    # the intern table hashes no Fraction: after denoting terms of every
    # shape with one guard, no key holds one at its top level (a guard's
    # factor and a rational output are held as their ints)
    rng = random.Random(41)
    live, shapes = [], 0
    for th in theory_shapes(2):
        try:
            plan = layer_plan(th)
        except DomainError:
            continue
        if len(plan.guards) != 1:
            continue
        shapes += 1
        live += [denote_with_plan(random_term(rng, th, ["x", "y"], 3), plan) for _ in range(4)]
    assert shapes > 50 and live
    kinds = {ident[0] for ident in semantics._interned}
    assert Guard in kinds and PairVal in kinds, kinds
    assert [ident for ident in semantics._interned
            if any(isinstance(x, Fraction) for x in ident)] == []


def test_a_value_builds_its_key_when_first_read():
    # the key slot of an intermediate conv result stays unset until a read
    slot = SemValue.__dict__["key"]
    x, y, z = (D((VarLeaf(p), 1)) for p in "xyz")
    inner = apply_operation(layer_plan(Bary()), conv(Fraction(1, 3)), [x, y])
    outer = apply_operation(layer_plan(Bary()), conv(C12), [inner, z])
    for v in (inner, outer):
        with pytest.raises(AttributeError):
            slot.__get__(v)
    assert canon_key(outer) == canon_key_reference(outer) == slot.__get__(outer)
    with pytest.raises(AttributeError, match="has no attribute 'weight'"):
        outer.weight


# Value pairs for the fold of INF slots: distributions, sets and functions
# over leaves that mix variables, exception points and guards over either,
# the second side often with the first's mass on each kind of leaf (so that
# an extended-mode coupling can avoid the INF cells), often not.
_KIND_LEAVES = {"var": st.sampled_from("xy").map(VarLeaf),
                "raise": st.sampled_from("ef").map(ExcLeaf)}
_KIND_LEAVES.update({f"next {k}": s.map(lambda v: Guard("next", C12, v))
                     for k, s in _KIND_LEAVES.items()})
_KINDS = st.sampled_from(sorted(_KIND_LEAVES))


@st.composite
def _kind_pair(draw, make, weighted):
    kinds = draw(st.lists(st.tuples(_KINDS, st.integers(1, 3)), min_size=weighted,
                          max_size=4))
    if draw(st.booleans()):  # the same mass on each kind, split anew over its leaves
        other = [(k, n) for k, w in kinds for n in ([w] if w == 1 or draw(st.booleans())
                                                    else [1, w - 1])]
    else:
        other = draw(st.lists(st.tuples(_KINDS, st.integers(1, 3)), min_size=weighted,
                              max_size=4))
    return tuple(make([(draw(_KIND_LEAVES[k]), n) for k, n in side]) for side in (kinds, other))


def _dist_of(pairs):
    return make_dist(pairs, sum(n for _, n in pairs))


_FOLD_PAIRS = st.one_of(
    _kind_pair(_dist_of, 1), _kind_pair(lambda ps: make_set(v for v, _ in ps), 0),
    st.tuples(_KINDS, _KINDS).flatmap(lambda ks: st.tuples(*map(_KIND_LEAVES.get, ks))))
_FOLD_PAIRS = st.one_of(_FOLD_PAIRS, st.lists(_FOLD_PAIRS, min_size=2, max_size=2).map(
    lambda ps: tuple(FuncVal((("i", ps[0][k]), ("j", ps[1][k]))) for k in (0, 1))))


_EF = FinMetricSpace(["e", "f"], {("e", "f"): ext("1/2")})


@settings(max_examples=300, deadline=None)
@given(_FOLD_PAIRS, st.sampled_from(["XY", "discrete"]), st.booleans(),
       st.sampled_from([BOUNDED, EXTENDED]))
@example(tuple(_dist_of([(VarLeaf("x"), 1), (ExcLeaf(e), 1)]) for e in "ef"), "XY", False,
         EXTENDED)
@example(tuple(_dist_of([(VarLeaf("x"), 1), (ExcLeaf("e"), n)]) for n in (1, 2)), "XY", True,
         EXTENDED)
@example((_dist_of([(VarLeaf("x"), 1), (ExcLeaf("e"), 1)]),
          _dist_of([(VarLeaf("y"), 1), (ExcLeaf("f"), 1)])), "XY", True, EXTENDED)
@example(tuple(FuncVal((("i", leaf), ("j", Guard("next", C12, VarLeaf(p)))))
               for leaf, p in ((ExcLeaf("e"), "x"), (VarLeaf("x"), "y"))), "XY", False, EXTENDED)
@example((_dist_of([(SetVal(()), 1)]), _dist_of([(SetVal(()), 1), (make_set([VarLeaf("x")]), 1)])),
         "XY", False, BOUNDED)
def test_infinite_slots_fold_when_the_graph_is_built(pair, space, ef, mode):
    # the answer is the recursive reference's; an INF answer keeps no op and
    # is decided by transports over {0, INF} grounds alone; every kept op is
    # finite and read from the root through kept ops.  Exception points are
    # INF apart, or 1/2 (ef).  The examples: transports with an INF cell in
    # every row and column, finite and not (with per-kind masses that do
    # and do not match), a guard op read only by an INF function slot, and
    # a bounded point mass over an INF cell
    space = XY if space == "XY" else discrete(["x", "y"])
    grounds = []

    def solve(a, b, W, K, cost, start=None):
        grounds.append(set(cost))
        return solve_scaled(a, b, W, K, cost, start)

    exc_space = _EF if ef else None
    with mock.patch.object(semantics, "solve_scaled", solve):
        graph = PairGraph([pair], space, mode, exc_space)
        got = graph.evaluate()[0]
    assert got == sem_dist_reference(*pair, space, mode, exc_space)
    if got.is_inf:
        assert graph.ops == {} and all(g <= {0, INT_INF} for g in grounds)
    assert not any(graph.evaluated[k].is_inf for k in graph.ops)
    read, todo = set(), list(graph.roots)
    while todo:
        k = todo.pop()
        if k in graph.ops and k not in read:
            read.add(k)
            todo.extend(semantics._READS[graph.ops[k][0]](graph.ops[k]))
    assert read == set(graph.ops)
