"""Outside-in tracing of quantalg's layers.

``Tracer.install`` replaces each traced function with a wrapper in every
quantalg module namespace that bound it at import, so calls through a
module-level name (``spaces.min_cost_transport``, ``bisim.psi_step``, the
local import of ``kantorovich_general`` inside ``psi_step``) all pass a
wrapper.  A wrapper opens a span (name, start, end, parent, request id); a
layer entered again while it is the innermost open span (``denote_with_plan``
recursing, ``denote`` calling ``denote_with_plan``) gets one span, at the
outermost call.  The ground callback handed to a Kantorovich or Hausdorff
kernel gets its own span whose self time is charged back to the layer that
called the kernel.

A span's self time is its duration minus the time its child spans cover.
Spans are kept in flat arrays and written out by ``dump``.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from quantalg import bisim, cli, modelcheck, semantics, spaces, terms, theories, transport

PARSERS = (terms.parse_term, theories.parse_theory, theories.parse_monoids,
           spaces.parse_spaces, bisim.parse_coalgebras, modelcheck.parse_algebras)

# layer name -> the functions it covers
LAYERS = {
    "cli": (cli.main,),
    "front.parse": PARSERS,
    "theories.layer_plan": (theories.layer_plan,),
    "semantics.denote": (semantics.denote, semantics.denote_with_plan),
    "semantics.sem_dist": (semantics.term_dist, semantics.sem_dist_with_plan,
                           semantics.sem_dist),
    "spaces.kantorovich": (spaces.kantorovich_general,),
    "spaces.hausdorff": (spaces.hausdorff_general,),
    "transport": (transport.min_cost_transport,),
    "bisim.solve": (bisim.solve_bisim,),
    "bisim.psi_step": (bisim.psi_step,),
    "bisim.unfold": (bisim.unfold_term,),
    "modelcheck.check_theory": (modelcheck.check_theory,),
    "modelcheck.check_equation": (modelcheck.check_equation,),
    "modelcheck.check_nonexpansive": (modelcheck.check_nonexpansive,),
}
GROUND = "spaces.ground"


class Tracer:
    def __init__(self):
        self.names = list(LAYERS) + [GROUND]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.request = -1
        # open spans: [span index, child time, start, charged layer id,
        #              called transport, layer id]
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.maximum = defaultdict(int)
        self.cli_self_s = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, funcs in LAYERS.items():
            for f in funcs:
                wrappers[id(f)] = self._wrap(f, layer)
        for name, module in list(sys.modules.items()):
            if name != "quantalg" and not name.startswith("quantalg."):
                continue
            for attr, value in list(vars(module).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    setattr(module, attr, w)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- spans ----------------------------------------------------------------

    def _open(self, layer_id: int, charge: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(layer_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        frame = [idx, 0.0, 0.0, charge, False, layer_id]
        self.stack.append(frame)
        frame[2] = perf_counter()
        self.span_start.append(frame[2])
        return frame

    def _close(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        self.span_end[frame[0]] = end
        dur = end - frame[2]
        own = dur - frame[1]
        self.self_s[frame[3]] += own
        if self.stack:
            self.stack[-1][1] += dur
        return own

    def _wrap(self, f, layer: str):
        tr = self
        lid = self.ids[layer]
        gid = self.ids[GROUND]
        kernel = layer in ("spaces.kantorovich", "spaces.hausdorff")

        def ground_for(ground, charge):
            def traced_ground(a, b):
                tr.calls[gid] += 1
                frame = tr._open(gid, charge)
                try:
                    return ground(a, b)
                finally:
                    tr._close(frame)
            return traced_ground

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if tr.stack and tr.stack[-1][5] == lid:
                return f(*args, **kwargs)
            if kernel:
                charge = tr.stack[-1][3] if tr.stack else lid
                mu, nu, ground = args
                args = (mu, nu, ground_for(ground, charge))
            tr.calls[lid] += 1
            frame = tr._open(lid, lid)
            try:
                out = f(*args, **kwargs)
            finally:
                own = tr._close(frame)
            t = perf_counter()
            tr._observe(layer, frame, own, args, out)
            if tr.stack:  # keep the bookkeeping out of the caller's self time
                tr.stack[-1][1] += perf_counter() - t
            return out

        return wrapper

    def _observe(self, layer, frame, own, args, out):
        count, maximum = self.count, self.maximum
        if layer == "cli":
            self.cli_self_s.append(own)
        elif layer == "front.parse":
            count["front.parse.bytes"] += len(args[0])
        elif layer == "spaces.kantorovich":
            count["spaces.kantorovich.shortcuts"] += not frame[4]
        elif layer == "transport":
            if self.stack:
                self.stack[-1][4] = True
            m, n = len(args[0]), len(args[1])
            count["transport.cells"] += m * n
            count["transport.trivial"] += m == 1 or n == 1
            maximum["transport.cells.max"] = max(maximum["transport.cells.max"], m * n)
        elif layer == "bisim.solve":
            metric, cert = out
            count["bisim.iterations"] += cert.iterations
            count["bisim.exact"] += cert.exact
            digits = max((len(str(v.rational.denominator)) for _, v in metric.pairs()
                          if not v.is_inf), default=1)
            maximum["bisim.denominator_digits.max"] = max(
                maximum["bisim.denominator_digits.max"], digits)
        elif layer == "modelcheck.check_theory":
            count["modelcheck.assignments.checked"] += sum(e.checked for e in out.entries)
            count["modelcheck.assignments.skipped"] += sum(e.skipped for e in out.entries)

    def reset_stack(self):
        """Forget spans left open by a request that escaped its wrappers."""
        self.stack.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, passes: int, factor: float = 1.0) -> dict:
        """Per-layer metrics, averaged over `passes` identical traced passes,
        with times multiplied by `factor`."""
        ids, calls, self_s, count = self.ids, self.calls, self.self_s, self.count

        def c(layer):
            return calls[ids[layer]] / passes

        def s(layer):
            return self_s[ids[layer]] / passes * factor

        def share(part, whole):
            return part / whole if whole else 0.0

        checked = count["modelcheck.assignments.checked"]
        skipped = count["modelcheck.assignments.skipped"]
        kant = calls[ids["spaces.kantorovich"]]
        trans = calls[ids["transport"]]
        solves = calls[ids["bisim.solve"]]
        cli_ms = statistics.median(self.cli_self_s) * 1000 * factor if self.cli_self_s else 0.0
        out = {"cli.self_ms.p50": (cli_ms, "ms")}
        for layer in ("front.parse", "theories.layer_plan", "semantics.denote",
                      "semantics.sem_dist", "spaces.kantorovich", "spaces.hausdorff",
                      "transport", "bisim.solve", "bisim.psi_step", "bisim.unfold",
                      "modelcheck.check_theory"):
            out[f"{layer}.calls"] = (c(layer), "count")
            out[f"{layer}.self_s"] = (s(layer), "s")
        out.update({
            "front.parse.bytes": (count["front.parse.bytes"] / passes, "B"),
            "spaces.kantorovich.shortcut_share": (
                share(count["spaces.kantorovich.shortcuts"], kant), "ratio"),
            "spaces.ground.calls": (c(GROUND), "count"),
            "transport.cells": (count["transport.cells"] / passes, "count"),
            "transport.cells.max": (self.maximum["transport.cells.max"], "count"),
            "transport.trivial_share": (share(count["transport.trivial"], trans), "ratio"),
            "bisim.iterations": (count["bisim.iterations"] / passes, "count"),
            "bisim.exact_share": (share(count["bisim.exact"], solves), "ratio"),
            "bisim.denominator_digits.max": (
                self.maximum["bisim.denominator_digits.max"], "digits"),
            "modelcheck.check_equation.self_s": (s("modelcheck.check_equation"), "s"),
            "modelcheck.check_nonexpansive.self_s": (
                s("modelcheck.check_nonexpansive"), "s"),
            "modelcheck.assignments.checked": (checked / passes, "count"),
            "modelcheck.assignments.skipped": (skipped / passes, "count"),
            "modelcheck.skip_share": (share(skipped, checked + skipped), "ratio"),
        })
        return out

    def dump(self, path):
        """Write the spans as CSV: name, start, end, parent, request."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,request\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]},"
                         f"{self.span_request[i]}\n")
