"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value here is either forced by a definition, derived with an
independent oracle (transport-basis enumeration, hand-solved fixed points),
or a desk-scale reproduction of a worked object."""

import random
import time
from fractions import Fraction

from quantalg import (BOUNDED, Bary, EXTENDED, Exc, FinMetricSpace, ParamPool,
                      PseudoMetric, RATIONAL_LINE, Reader, Semi, Writer, axioms, bind,
                      disjoint_union, ext, kantorovich_general, labelled_mp_theory,
                      markov_process_theory, mdp_theory, mealy_theory,
                      parse_coalgebras, parse_term, psi_step, solve_bisim,
                      term_dist, unfold_term)
from quantalg.extvalue import ZERO

from helpers import random_coalgebra, random_dist, random_space, random_term
from oracles import enumerate_transport

C12 = Fraction(1, 2)
MP = markov_process_theory(C12)
LMP = labelled_mp_theory(["a1", "a2"], C12)
MM = mealy_theory(["i1", "i2"], RATIONAL_LINE, C12)
MDP = mdp_theory(["a1", "a2"], C12)

EXC2 = FinMetricSpace(["e1", "e2"], {("e1", "e2"): ext("1/4")})

BASE_THEORIES = [
    ("bary", Bary()),
    ("semi", Semi()),
    ("exc", Exc(EXC2)),
    ("reader", Reader(("i1", "i2"))),
    ("writer", Writer(RATIONAL_LINE)),
]
COMPOSED_THEORIES = [("U_MP", MP), ("U_LMP", LMP), ("U_MM", MM), ("U_MDP", MDP)]

POOL = ParamPool.make(weights=["1/2"], epsilons=["1/2", "2"], monoid_elems=[0, 2])


def _ground_space(rng):
    return random_space(rng, ["x", "y"], max_den=4)


def test_acceptance_1_axiom_soundness():
    started = time.monotonic()
    rng = random.Random(101)
    zero_axioms = 0
    bounded_axioms = 0
    for name, th in BASE_THEORIES + COMPOSED_THEORIES:
        X = _ground_space(rng)
        leaves = ["x", "y"]
        for ax in axioms(th, POOL):
            if not ax.premises and ax.bound == ZERO:
                zero_axioms += 1
                for _ in range(200):
                    sigma = {v: random_term(rng, th, leaves, 2)
                             for v in ax.variables()}
                    d = term_dist(bind(ax.lhs, sigma), bind(ax.rhs, sigma),
                                  th, X, EXTENDED)
                    assert d == ZERO, (name, ax.label)
            else:
                bounded_axioms += 1
                checked = 0
                for _ in range(50):
                    sigma = {v: random_term(rng, th, leaves, 2)
                             for v in ax.variables()}
                    lhs, rhs = bind(ax.lhs, sigma), bind(ax.rhs, sigma)
                    # bounded mode: premises are always finite
                    prem = [term_dist(sigma[x], sigma[y], th, X, BOUNDED)
                            for x, y, _ in ax.premises]
                    bound = ax.bound_fn(*prem) if ax.bound_fn else ax.bound
                    assert term_dist(lhs, rhs, th, X, BOUNDED) <= bound, \
                        (name, ax.label)
                    checked += 1
                    # extended mode wherever the premises stay finite
                    prem = [term_dist(sigma[x], sigma[y], th, X, EXTENDED)
                            for x, y, _ in ax.premises]
                    if any(p.is_inf for p in prem):
                        continue
                    bound = ax.bound_fn(*prem) if ax.bound_fn else ax.bound
                    assert term_dist(lhs, rhs, th, X, EXTENDED) <= bound, \
                        (name, ax.label)
                assert checked == 50, (name, ax.label)
    elapsed = time.monotonic() - started
    assert zero_axioms >= 30 and bounded_axioms >= 10
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 PASS: {zero_axioms} zero-axioms x200 and "
          f"{bounded_axioms} bounded axioms sound exactly ({elapsed:.1f}s)")


def test_acceptance_2_kantorovich_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(202)
    for _ in range(500):
        pts = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        X = random_space(rng, pts, max_den=12, inf_prob=0.2)
        mu = random_dist(rng, pts, 12)
        nu = random_dist(rng, pts, 12)
        got = kantorovich_general(mu, nu, X.d)
        want = enumerate_transport(
            [w for _, w in mu.items], [w for _, w in nu.items],
            [[X.d(p, q) for q, _ in nu.items] for p, _ in mu.items])
        assert got == want
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"\nACCEPTANCE 2 PASS: 500 LP results equal basis enumeration "
          f"exactly ({elapsed:.1f}s)")


def test_acceptance_3_metric_laws():
    rng = random.Random(303)
    for th, leaves in ((MP, ["x", "y"]), (LMP, ["x", "y"]), (MM, ["x", "y"])):
        for _ in range(8):
            X = random_space(rng, ["x", "y", "z"], inf_prob=0.1)
            ts = [random_term(rng, th, leaves, 3) for _ in range(3)]
            for mode in (EXTENDED, BOUNDED):
                assert term_dist(ts[0], ts[0], th, X, mode) == ZERO
                d01 = term_dist(ts[0], ts[1], th, X, mode)
                assert d01 == term_dist(ts[1], ts[0], th, X, mode)
                d12 = term_dist(ts[1], ts[2], th, X, mode)
                d02 = term_dist(ts[0], ts[2], th, X, mode)
                assert d02 <= d01 + d12
    for kind in ("mp", "lmp", "mealy", "mdp"):
        for _ in range(5):
            C = random_coalgebra(rng, kind, 4)
            d, _ = solve_bisim(C, BOUNDED)
            assert psi_step(C, d, BOUNDED) == d
            for u in C.states:
                assert d.d(u, u) == ZERO
                for v in C.states:
                    assert d.d(u, v) == d.d(v, u)
                    for w in C.states:
                        assert d.d(u, w) <= d.d(u, v) + d.d(v, w)
    print("\nACCEPTANCE 3 PASS: zero diagonal, symmetry, triangle hold "
          "(solver answers exact fixed points)")


def test_acceptance_4_markov_chain_reproduction():
    t = parse_term(
        "next(conv(1/2, next(raise(*)), conv(1/2, next(next(raise(*))), raise(*))))",
        MP)
    C, root = unfold_term(t, MP)
    chain = parse_coalgebras(
        "mp chain { c = 1/2; state s0: 1 -> s1;"
        " state s1: 1/2 -> s2, 1/4 -> s3, 1/4 -> bot;"
        " state s2: 1 -> bot; state s3: 1 -> s2; }")["chain"]
    assert root == "s0" and len(C.states) == 4
    assert C.step == chain.step
    print("\nACCEPTANCE 4 PASS: displayed term unfolds to the pictured "
          "4-node chain with edges 1, 1/2, 1/4, 1")


def _random_closed_mp_term(rng, c, depth):
    th = markov_process_theory(c)
    t = random_term(rng, th, [], depth)
    return th, t


def test_acceptance_5_term_bisimilarity_correspondence():
    started = time.monotonic()
    rng = random.Random(505)
    terms_used = 0
    extended_checked = 0
    while terms_used < 100:
        c = rng.choice([Fraction(1, 2), Fraction(1, 4)])
        th = markov_process_theory(c)
        t = random_term(rng, th, [], 4)
        s = random_term(rng, th, [], 4)
        terms_used += 2
        Ct, rt = unfold_term(t, th)
        Cs, rs = unfold_term(s, th)
        U = disjoint_union(Ct, Cs)
        d, cert = solve_bisim(U, BOUNDED)
        assert cert.exact, "acyclic systems must hit the fixed point exactly"
        assert cert.iterations <= 6
        assert d.d(f"a.{rt}", f"b.{rs}") == term_dist(t, s, th, None, BOUNDED)
        d_ext, cert_ext = solve_bisim(U, EXTENDED)
        extended_checked += 1
        assert cert_ext.exact
        assert d_ext.d(f"a.{rt}", f"b.{rs}") == term_dist(t, s, th, None, EXTENDED)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(f"\nACCEPTANCE 5 PASS: termDist equals solveBisim exactly on "
          f"{terms_used} closed terms, in both modes ({extended_checked} extended-mode "
          f"instances) ({elapsed:.1f}s)")


def test_acceptance_6_closed_form_fixed_points():
    systems = parse_coalgebras(
        "mealy mealy { c = 1/2; inputs: i;"
        " state p on i -> (p, 1); state q on i -> (q, 2); }"
        " mp mp { c = 1/2; state u: 1/2 -> u, 1/2 -> bot;"
        " state v: 1/4 -> v, 3/4 -> bot; }")
    mealy, mp = systems["mealy"], systems["mp"]
    d, _ = solve_bisim(mealy, BOUNDED)
    assert d.d("p", "q") == ext(2)
    d, _ = solve_bisim(mp, BOUNDED)
    assert d.d("u", "v") == ext("2/7")
    # value-iteration cross-check of the hand-derived 2/7
    it = PseudoMetric(mp.states)
    for _ in range(60):
        it = psi_step(mp, it, BOUNDED)
    assert abs(it.d("u", "v").rational - Fraction(2, 7)) <= Fraction(1, 2**55)
    print("\nACCEPTANCE 6 PASS: Mealy p/q is exactly 2 and MP u/v exactly 2/7")


def test_acceptance_7_banach_certificates():
    rng = random.Random(707)
    total = 0
    for kind in ("mp", "lmp", "mealy", "mdp"):
        for _ in range(50):
            c = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
            C = random_coalgebra(rng, kind, rng.randint(2, 4), c=c)
            d, cert = solve_bisim(C, BOUNDED)
            assert psi_step(C, d, BOUNDED) == d
            assert cert.exact and cert.residual == ZERO == cert.a_priori_bound
            total += 1
    assert total == 200
    print("\nACCEPTANCE 7 PASS: Psi(d) == d, residual 0, on 200 random "
          "systems across all four kinds")


def test_acceptance_8_model_checker_positives_and_negatives():
    import itertools

    from quantalg import (FiniteAlgebra, TableMonoid, check_theory,
                          distribution_model, powerset_model, reader_model,
                          writer_model)

    X2 = FinMetricSpace(["p", "q"], {("p", "q"): ext(1)})
    S = FinMetricSpace(["z", "o"], {("z", "o"): ext(1)})
    mon = TableMonoid(S, "z", {("z", "z"): "z", ("z", "o"): "o",
                               ("o", "z"): "o", ("o", "o"): "o"})
    pool = ParamPool.make(weights=["1/2"], epsilons=[0, "1/2", 1, 2])
    cases = [
        ("powerset", powerset_model(X2), Semi()),
        ("distribution", distribution_model(X2, 4, [C12]), Bary()),
        ("reader", reader_model(X2, ("i1", "i2")), Reader(("i1", "i2"))),
        ("writer", writer_model(mon, X2), Writer(mon)),
    ]
    rng = random.Random(2)
    for name, model, th in cases:
        report = check_theory(model, th, pool)
        assert report.passed, (name, [e.label for e in report.failures()])
        caught = 0
        for _ in range(4):
            interp = {op: dict(t) for op, t in model.interp.items()}
            op = rng.choice(sorted((o for o in interp if interp[o]), key=str))
            key = rng.choice(sorted(interp[op]))
            old = interp[op][key]
            interp[op][key] = rng.choice(
                [p for p in model.carrier.points if p != old])
            mutated = FiniteAlgebra(model.carrier, interp)
            bad = check_theory(mutated, th, pool)
            if not bad.passed:
                assert bad.failures()[0].counterexample is not None
                caught += 1
        assert caught == 4, f"{name}: {caught}/4 mutations caught"
    print("\nACCEPTANCE 8 PASS: four concrete models pass their theories; "
          "4 seeded mutations of each are caught with counterexamples")
