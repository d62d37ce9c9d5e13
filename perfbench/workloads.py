"""Seeded workloads: each builder writes its input files into a directory and
returns the requests the driver sends to ``quantalg.cli.main``.

The inputs depend only on the seed.  Every request carries what a correct
answer must satisfy when that is known by construction, and the builders add
relations between requests that need no reference output (symmetry, the
term/coalgebra bridge, equal normal forms).

Every workload poses the same problems on every seed, drawn once from a
fixed stream, and lets the seed choose only how they are written: the names
of variables, states and points, the order of a row's cells, the order of
the pool.  So the cost does not depend on the seed, and the answers can be
checked against the reference on every seed once the seed's names are
mapped back (`canonical`).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import terms as T

TOL = Fraction(1, 1000)
HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


@dataclass
class Request:
    rid: str
    verb: str
    argv: List[str]
    expect: Dict[str, object] = field(default_factory=dict)


@dataclass
class Workload:
    requests: List[Request]
    # ("same", rid, rid): equal stdout; ("bridge", dist rid, bisim rid).
    relations: List[Tuple[str, str, str]]
    warmup: List[Request]


def canonical(req: Request, out: str) -> str:
    """An answer with the seed's names mapped back to the base names."""
    names = req.expect.get("names")
    if not names:
        return out
    return _NAME.sub(lambda m: names.get(m.group(), m.group()), out)


_NAME = re.compile(r"\b[a-z]\d{3}\b")


def seeded_names(rng: random.Random, prefix: str, n: int) -> List[str]:
    """n distinct names prefix + three digits, in increasing order, so that
    sorting them keeps the order of the base names they stand for."""
    return [f"{prefix}{v}" for v in sorted(rng.sample(range(100, 1000), n))]


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](random.Random(f"{name}/{seed}"), workdir)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# terms: dist (60%), normalize (20%), unfold (10%), bisim (10%)

def _terms(rng: random.Random, d: Path) -> Workload:
    # The terms come from a fixed stream; the seed draws the names of the
    # free variables and the order of the pool.
    base = random.Random("terms/base")
    variables = seeded_names(rng, "v", len(T.VARIABLES))
    space = _write(d, "S.space", T.space_text(variables))
    reqs: List[Request] = []
    rel: List[Tuple[str, str, str]] = []

    def dist_pair(tag, theory, mode, t_text, s_text, open_terms, expect=None):
        a = _write(d, f"{tag}.t.term", t_text + "\n")
        b = _write(d, f"{tag}.s.term", s_text + "\n")
        base = ["dist", "--theory", theory, "--mode", mode]
        if open_terms:
            base += ["--space", space]
        ts = Request(f"{tag}.ts", "dist", base + [a, b], dict(expect or {}))
        st = Request(f"{tag}.st", "dist", base + [b, a], dict(expect or {}))
        reqs.extend([ts, st])
        rel.append(("same", ts.rid, st.rid))
        return ts.rid, a, b

    # Wide pairs: every (theory, discount, mode) cell gets two pairs, with
    # depths cycling through 6, 7, 8 so that each seed sends the same sizes.
    # Depth-8 MP pairs take a step every fifth level, so their distributions
    # flatten to up to 16 leaves and their transports reach 16 x 16 cells;
    # the others every fourth level (up to 8 x 8).
    variants = [(k, c) for k in ("mp", "lmp", "mealy", "mdp") for c in (HALF, QUARTER)]
    variants.append(("semi", HALF))
    k = 0
    for kind, c in variants:
        for mode in ("extended", "bounded"):
            for _ in range(2):
                depth = 6 + k % 3
                period = 5 if (kind, depth) == ("mp", 8) else 4
                t = T.full_tree(base, kind, depth, period=period, variables=variables)
                s = T.full_tree(base, kind, depth, period=period, variables=variables)
                dist_pair(f"wide{k:02d}", T.theory_text(kind, c), mode,
                          T.fmt(t), T.fmt(s), True)
                k += 1

    # Closed MP pairs: dist both ways, unfold of one side, and bisim on the
    # disjoint union of both unfoldings (built here, independently of
    # quantalg), whose root distance must equal the bounded dist.
    for k in range(20):
        c = HALF if k % 2 == 0 else QUARTER
        t = T.full_tree(base, "mp", 6, closed=True)
        s = T.full_tree(base, "mp", 6, closed=True)
        theory = T.theory_text("mp", c)
        ts, t_path, s_path = dist_pair(f"bridge{k:02d}", theory, "bounded",
                                       T.fmt(t), T.fmt(s), False)
        rows_t, rows_s = T.unfold_mp(t, "a"), T.unfold_mp(s, "b")
        path, rows = (t_path, rows_t) if k % 2 == 0 else (s_path, rows_s)
        reqs.append(Request(f"unfold{k:02d}", "unfold", ["unfold", "--theory", theory, path],
                            {"states": len(rows)}))
        coalg = _write(d, f"bridge{k:02d}.coalg", T.union_text(c, rows_t, rows_s))
        reqs.append(Request(f"bisim{k:02d}", "bisim",
                            ["bisim", "--tol", str(TOL), "--mode", "bounded", coalg],
                            {"exact": True}))
        rel.append(("bridge", ts, f"bisim{k:02d}"))

    # Deep-narrow pairs next^n vs next^m: bounded distance c^min(n, m).  One
    # pair from each quarter of 60..200; the upper ones exceed the current
    # recursion limit and count as failures.
    theory = T.theory_text("mp", HALF)
    for k in range(4):
        n = 60 + 35 * k + base.randint(0, 5)
        m = n + 2 * base.randint(1, 5)
        dist_pair(f"deep{k}", theory, "bounded", T.next_chain(n), T.next_chain(m),
                  False, {"value": str(HALF ** n)})

    # Normalize: small terms and their mirror images share one normal form.
    for k in range(20):
        kind, c = variants[k % len(variants)]
        t = T.small_tree(base, kind, 4, variables)
        theory = T.theory_text(kind, c)
        pair = []
        for side, term in (("t", t), ("m", T.mirror(t))):
            path = _write(d, f"norm{k:02d}.{side}.term", T.fmt(term) + "\n")
            pair.append(Request(f"norm{k:02d}.{side}", "normalize",
                                ["normalize", "--theory", theory, path]))
        reqs.extend(pair)
        rel.append(("same", pair[0].rid, pair[1].rid))

    rng.shuffle(reqs)
    names = dict(zip(variables, T.VARIABLES))
    for req in reqs:
        req.expect["names"] = names

    th = T.theory_text("mp", HALF)
    w1 = _write(d, "warm.t.term", "conv(1/2, raise(*), next(raise(*)))\n")
    w2 = _write(d, "warm.s.term", "next(raise(*))\n")
    wc = _write(d, "warm.coalg", "mp W { c = 1/2; state u: 1 -> v; state v: 1 -> bot; }\n")
    warmup = [
        Request("warm.dist", "dist", ["dist", "--theory", th, "--space", space, w1, w2]),
        Request("warm.normalize", "normalize", ["normalize", "--theory", th, w1]),
        Request("warm.unfold", "unfold", ["unfold", "--theory", th, w1]),
        Request("warm.bisim", "bisim", ["bisim", "--tol", str(TOL), wc]),
    ]
    return Workload(reqs, rel, warmup)


# ---------------------------------------------------------------------------
# bisim-dense: Kleene iteration on cyclic systems with c = 9/10

DENSE_C = Fraction(9, 10)
DENSE_SYSTEMS = (("mp", 4), ("mp", 4), ("mp", 4), ("lmp", 4), ("lmp", 4),
                 ("mdp", 4), ("mdp", 4), ("mdp", 4), ("mealy", 20), ("mealy", 20))
ROW_DENOMINATOR = 12
REWARDS = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


def _split(rng: random.Random, total: int, parts: int) -> List[Fraction]:
    """A random composition of total/12 into `parts` positive twelfths."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [Fraction(b - a, ROW_DENOMINATOR) for a, b in zip(bounds, bounds[1:])]


def dense_system(rng: random.Random, kind: str, n: int):
    """A cyclic system as rows (state, label, cells), with states and cell
    targets numbered 0 .. n-1 (or "bot") and a cell (weight, target, extra)
    whose extra is an mdp reward or a Mealy output.  Rows reach n - 1 of the
    n states (and bot, for mp and lmp).  States 0 and 1 are built to be as
    far apart after one step as the generator allows (bot mass 1/12 vs 7/12,
    rewards 0 vs 1/2, outputs 0 vs 2), which fixes ||Psi(0)|| and with it
    the number of iterations the a-priori bound needs."""
    rows = []
    for k in range(n):
        if kind == "mealy":
            for inp in ("i", "j"):
                out = (Fraction(0), Fraction(2))[k] if k < 2 and inp == "i" \
                    else rng.choice(T.OUTPUTS)
                rows.append((k, inp, [(None, rng.randrange(n), out)]))
            continue
        for act in (("a", "b") if kind != "mp" else (None,)):
            targets = rng.sample(range(n), n - 1)
            if kind == "mdp":
                weights = _split(rng, ROW_DENOMINATOR, n - 1)
                rewards = [(REWARDS[0], REWARDS[-1])[k] if k < 2 else rng.choice(REWARDS)
                           for _ in targets]
                cells = list(zip(weights, targets, rewards))
            else:
                bot = (1, 7)[k] if k < 2 else rng.randint(1, 7)
                weights = _split(rng, ROW_DENOMINATOR - bot, n - 1)
                cells = [(w, t, None) for w, t in zip(weights, targets)]
                cells.append((Fraction(bot, ROW_DENOMINATOR), "bot", None))
            rows.append((k, act, cells))
    return rows


def dense_text(kind: str, n: int, rows, names: List[str], rng: random.Random) -> str:
    """A system of `dense_system` as a coalgebra file, its states named by
    `names` and the cells of each row in an order drawn from `rng`."""
    lines = [f"{kind} D {{", f"  c = {DENSE_C};"]
    if kind in ("lmp", "mdp"):
        lines.append("  actions: a, b;")
    if kind == "mealy":
        lines.append("  inputs: i, j;")
    for k, label, cells in rows:
        if kind == "mealy":
            _, t, out = cells[0]
            lines.append(f"  state {names[k]} on {label} -> ({names[t]}, {out});")
            continue
        cells = rng.sample(cells, len(cells))
        shown = []
        for w, t, extra in cells:
            target = "bot" if t == "bot" else names[t]
            shown.append(f"{w} -> ({target}, {extra})" if kind == "mdp" else f"{w} -> {target}")
        head = f"  state {names[k]}" + (f" on {label}" if label else "")
        lines.append(f"{head}: {', '.join(shown)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _bisim_dense(rng: random.Random, d: Path) -> Workload:
    base = random.Random("bisim-dense/base")
    reqs = []
    for k, (kind, n) in enumerate(DENSE_SYSTEMS):
        rows = dense_system(base, kind, n)
        names = seeded_names(rng, "s", n)
        path = _write(d, f"{kind}{n}.{k}.coalg", dense_text(kind, n, rows, names, rng))
        reqs.append(Request(f"{kind}{n}.{k}", "bisim",
                            ["bisim", "--tol", str(TOL), "--mode", "bounded", path],
                            {"pseudometric": True,
                             "names": {v: f"s{i}" for i, v in enumerate(names)}}))
    wc = _write(d, "warm.coalg", "mp W { c = 9/10; state u: 1 -> v; state v: 1 -> bot; }\n")
    warmup = [Request("warm.bisim", "bisim", ["bisim", "--tol", str(TOL), wc])]
    return Workload(reqs, [], warmup)


# ---------------------------------------------------------------------------
# check-model: built-in models and one mutant of each

MONOID_TEXT = ("monoid M { elements: z, o; unit = z; mult(z,z) = z; mult(z,o) = o;\n"
               "  mult(o,z) = o; mult(o,o) = o; d(z,o) = 1; }\n")
def _model_files(rng: random.Random, d: Path, tag: str, alg, mutate=None):
    """Write the carrier as a space file and the tables as an algebra file,
    renaming carrier points to names drawn from `rng` (in the carrier's
    order); `mutate` edits the tables."""
    pts = alg.carrier.points
    ren = dict(zip(pts, seeded_names(rng, "e", len(pts))))
    dist = []
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            v = alg.carrier.d(p, q)
            if not v.is_inf:
                dist.append(f"d({ren[p]},{ren[q]}) = {v};")
    space = _write(d, f"{tag}.space", f"space C{tag} {{ points: {', '.join(ren.values())};\n  "
                   + "\n  ".join(dist) + "\n}\n")
    tables = {op: dict(t) for op, t in alg.interp.items()}
    if mutate is not None:
        mutate(tables)
    lines = [f"algebra {tag} {{", f"  carrier: C{tag};"]
    for op, table in tables.items():
        lines.append(f"  op {_opspec(op)}:")
        for args, out in sorted(table.items()):
            lhs = "(" + ", ".join(ren[a] for a in args) + ") " if args else ""
            lines.append(f"    {lhs}-> {ren[out]};")
    lines.append("}")
    return space, _write(d, f"{tag}.alg", "\n".join(lines) + "\n")


def _opspec(op) -> str:
    if op.kind == "conv":
        return f"conv({op.param})"
    if op.kind == "read":
        return f"rd({op.param})"
    if op.kind == "write":
        return f"wr({op.param})"
    return op.kind


def _check_model(rng: random.Random, d: Path) -> Workload:
    from quantalg import (FinMetricSpace, distribution_model, ext, parse_monoids,
                          powerset_model, reader_model, writer_model)
    from quantalg.terms import conv, read, union_op, write

    monoid_path = _write(d, "M.monoid", MONOID_TEXT)
    monoid = parse_monoids(MONOID_TEXT)["M"]
    # The spaces are the same on every seed: the cost of a mutant's check
    # swings up to sevenfold with the metric.  The powerset model has 2
    # points and the distribution grid is 1/4 so that a pass takes about a
    # second: on 3 points and at grid 1/6 a pass took 4.5 s, and a 35 s run
    # saw each request too few times for a steady median.
    x3 = FinMetricSpace(["x", "y", "z"], {("x", "y"): ext(1), ("y", "z"): ext(HALF),
                                          ("x", "z"): ext(Fraction(3, 2))})
    x2 = FinMetricSpace(["x", "y"], {("x", "y"): ext(1)})
    inputs = ("i1", "i2")

    # A mutant moves the last entry of its kind to the least other point.
    def diagonal(op):
        """Move the last diagonal entry op(a, ..., a) away from a."""
        def mutate(tables):
            table = tables[op]
            args = max(args for args in table if len(set(args)) == 1)
            table[args] = min(set(table.values()) - {args[0]})
        return mutate

    def unit_entry(tables):
        """Make the unit write move its last point."""
        table = tables[write(monoid.unit)]
        args = max(table)
        table[args] = min(set(table.values()) - {table[args]})

    models = [
        ("powerset", "semi", powerset_model(x2), diagonal(union_op()), "S1"),
        ("distribution", "bary", distribution_model(x2, 4, [HALF]),
         diagonal(conv(HALF)), f"B2[{HALF}]"),
        ("reader", f"reader{{{', '.join(inputs)}}}", reader_model(x3, inputs),
         diagonal(read(len(inputs))), "Idem"),
        ("writer", "writer{M}", writer_model(monoid, x3), unit_entry, "Zero"),
    ]
    reqs = []
    for name, theory, alg, mutate, broken in models:
        for tag, edit, verdict in ((name, None, None), (f"{name}_mut", mutate, broken)):
            space, path = _model_files(rng, d, tag, alg, edit)
            argv = ["check-model", "--theory", theory, "--space", space,
                    "--weights", "1/2", "--epsilons", "0,1/2,1,2", "--format", "record"]
            if name == "writer":
                argv += ["--monoid", monoid_path]
            reqs.append(Request(tag, "check-model", argv + [path],
                                {"exit": 0 if verdict is None else 1, "broken": verdict}))
    warmup = [next(r for r in reqs if r.rid == "writer")]
    return Workload(reqs, [], warmup)


BUILDERS = {"terms": _terms, "bisim-dense": _bisim_dense, "check-model": _check_model}
