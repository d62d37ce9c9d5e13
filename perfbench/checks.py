"""Answer checks.

Each request's first answer is kept; every later answer to it must repeat
it.  At the end of a run each kept answer is checked against what is known
by construction (closed forms, state counts, model verdicts, certificate
fields), against the relations between requests (symmetry, the bridge,
equal normal forms), and against the committed reference outputs, which
hold on every seed once the seed's names are mapped back.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import permutations
from typing import Dict, Optional, Tuple

from workloads import TOL, Request, Workload, canonical

_PAIR = re.compile(r"^\s*d\((\S+?),(\S+?)\) = (\S+)$", re.M)
_CERT = re.compile(r"a_priori_bound=(\S+) residual=(\S+) exact=(yes|no)")

Answer = Tuple[object, str]  # (exit code or exception name, stdout)
UNREADABLE = (ValueError, KeyError, TypeError)  # raised on malformed output


def ext(text: str) -> Optional[Fraction]:
    """A distance as printed: a rational, or None for inf."""
    return None if text == "inf" else Fraction(text)


def bisim_table(out: str) -> Dict[Tuple[str, str], Optional[Fraction]]:
    return {(u, v): ext(x) for u, v, x in _PAIR.findall(out)}


def check_request(req: Request, code, out: str) -> Optional[str]:
    """What is wrong with one answer, or None."""
    try:
        return _check_request(req, code, out)
    except UNREADABLE as exc:
        return f"unreadable answer: {exc!r}"


def _check_request(req: Request, code, out: str) -> Optional[str]:
    want_exit = req.expect.get("exit", 0)
    if code != want_exit:
        return f"exit {code}, expected {want_exit}"
    e = req.expect
    if req.verb == "dist":
        value = out.strip()
        if value != "inf" and Fraction(value) < 0:
            return f"negative distance {value}"
        if "value" in e and value != e["value"]:
            return f"distance {value}, closed form {e['value']}"
    if req.verb == "unfold":
        states = sum(1 for line in out.splitlines() if line.lstrip().startswith("state "))
        if not out.startswith("# root = ") or states != e["states"]:
            return f"{states} states, expected {e['states']}"
    if req.verb == "bisim":
        certs = _CERT.findall(out)
        if not certs:
            return "no certificate"
        if e.get("exact") and any(x != "yes" for _, _, x in certs):
            return "acyclic system not solved exactly"
        if any(ext(bound) is None or ext(bound) > TOL for bound, _, _ in certs):
            return "a-priori bound above tol"
        if e.get("pseudometric"):
            return _pseudometric_problem(bisim_table(out))
    if req.verb == "check-model":
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        if len(records) != 1:
            return f"{len(records)} verdicts"
        broken = e["broken"]
        if broken is None and not records[0]["passed"]:
            return f"model fails {records[0]['failures']}"
        if broken is not None and broken not in records[0]["failures"]:
            return f"mutant does not fail {broken}: {records[0]['failures']}"
    return None


def _pseudometric_problem(table) -> Optional[str]:
    """Every Kleene iterate from 0 is a pseudometric."""
    states = sorted({u for u, _ in table} | {v for _, v in table})

    def d(u, v):
        return Fraction(0) if u == v else table.get((u, v), table.get((v, u)))

    for u, v in table:
        if table[(u, v)] is None or table[(u, v)] < 0:
            return f"d({u},{v}) = {table[(u, v)]}"
    for u, v, w in permutations(states, 3):
        if d(u, w) > d(u, v) + d(v, w):
            return f"triangle inequality fails at ({u}, {v}, {w})"
    return None


def check_relations(workload: Workload, answers: Dict[str, Answer]) -> Dict[str, str]:
    """Relations between answered requests; returns rid -> problem."""
    bad = {}
    for kind, a, b in workload.relations:
        if a not in answers or b not in answers:
            continue  # a request raised; that is already a failure
        out_a, out_b = answers[a][1], answers[b][1]
        if kind == "same" and out_a != out_b:
            bad[a] = bad[b] = f"{a} and {b} differ"
        if kind == "bridge":
            try:
                want = bisim_table(out_b).get(("a0", "b0"))
                same = ext(out_a.strip()) == want
            except UNREADABLE:
                same, want = False, "unreadable"
            if not same:
                bad[a] = bad[b] = f"bridge: dist {out_a.strip()} vs bisim {want}"
    return bad


def check_reference(workload: Workload, reference: dict, answers: Dict[str, Answer],
                    raised) -> Dict[str, str]:
    """Compare with the frozen outputs: exactly, except `bisim-dense`, whose
    metrics must agree within 2 * tol in the sup norm, after mapping the
    seed's names back to the base names.  A request that answered when the
    reference was frozen must not raise now (one that raised then may
    answer now: its answer is checked like any other)."""
    bad = {}
    outputs = reference["outputs"]
    for req in workload.requests:
        rid = req.rid
        if rid in raised and rid in outputs:
            bad[rid] = "raised, but answered in the reference"
        if rid not in answers or rid not in outputs:
            continue
        code, out = outputs[rid]
        got_code, got = answers[rid][0], canonical(req, answers[rid][1])
        if got_code != code:
            bad[rid] = f"exit {got_code}, reference {code}"
        elif req.verb == "bisim" and req.expect.get("pseudometric"):
            want, have = _pairs(bisim_table(out)), _pairs(bisim_table(got))
            try:
                near = want.keys() == have.keys() and all(
                    abs(want[k] - have[k]) <= 2 * TOL for k in want)
            except UNREADABLE:
                near = False
            if not near:
                bad[rid] = "metric further than 2 * tol from the reference"
        elif got != out:
            bad[rid] = "output differs from the reference"
    return bad


def _pairs(table):
    return {tuple(sorted(k)): v for k, v in table.items()}
