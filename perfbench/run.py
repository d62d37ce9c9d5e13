"""Closed-loop benchmark of quantalg's CLI verbs.

One process, one thread, one client: each request calls
``quantalg.cli.main(argv)`` in-process on files generated from the seed, and
the next request is sent only after the previous one returns.  The request
pool of a workload is sent in whole passes until ``--seconds`` have passed.

    python3 perfbench/run.py --workload terms --seed 0 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracer.py).  Times are reported at the
reference speed of the machine, as measured by a yardstick (see Speed).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--workload all`` runs every workload, each in its own fresh process;
``--repeat N`` runs the seed N times, each in a fresh process, and prints
each metric's median and quartiles (``--vary-seed`` uses seeds seed ..
seed+N-1 instead; ``--sets K`` makes K such sets and compares their
medians); ``--freeze`` rewrites the reference outputs of the default seed
after cross-checking them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
WORKLOADS = ("terms", "bisim-dense", "check-model")
DEFAULT_SEED = 0
SETUP_ROUNDS = 9  # this process and eight fresh ones

# The yardstick: fixed integer work that shares no code with quantalg.  On a
# shared host the machine slows by up to half for minutes at a time, and the
# yardstick slows with it; YARDSTICK_REF_S is its time on a 2-vCPU Intel
# Xeon VM when nothing else runs.
YARDSTICK_REF_S = 0.00125
YARDSTICK_EVERY_S = 0.1
YARDSTICK_REPS = 3


def yardstick():
    s = 0
    for i in range(20000):
        s += i * i
    return s


class Speed:
    """Yardstick times, sampled between requests at most every
    YARDSTICK_EVERY_S, and the factor that takes times measured meanwhile to
    the reference speed: YARDSTICK_REF_S / their median."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self, force=False):
        if force or perf_counter() - self.last >= YARDSTICK_EVERY_S:
            for _ in range(YARDSTICK_REPS):
                t = perf_counter()
                yardstick()
                self.samples.append(perf_counter() - t)
            self.last = perf_counter()

    def factor(self) -> float:
        return YARDSTICK_REF_S / statistics.median(self.samples)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1, metavar="N")
    p.add_argument("--vary-seed", action="store_true",
                   help="with --repeat: run k uses seed + k")
    p.add_argument("--sets", type=int, default=1, metavar="K",
                   help="with --repeat: make K sets of N runs and compare their medians")
    p.add_argument("--freeze", action="store_true",
                   help="cross-check and rewrite the default seed's reference outputs")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "quantalg").is_dir():
        print(f"no quantalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        *_, workdir, seconds = setup(args.workload, args.seed)
        shutil.rmtree(workdir)
        print(seconds)
        return 0
    if args.freeze:
        return freeze(args.workload)
    if args.workload == "all" or args.repeat > 1:
        return orchestrate(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# One workload in this process

def call(cli, argv):
    """One request: (exit code or exception name, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed request, never fatal
            code = type(exc).__name__
        t = perf_counter() - t
    return code, out.getvalue(), t


class Session:
    """The answers and timings of one run over a workload's request pool."""

    def __init__(self, cli, name, seed, workload):
        self.cli, self.name, self.seed, self.workload = cli, name, seed, workload
        self.answers = {}      # rid -> (code, stdout) of its first answer
        self.times = {}        # rid -> seconds of each attempt, one per pass
        self.factors = []      # pass -> speed factor (see Speed)
        self.work = []         # pass -> seconds spent in cli.main
        self.raised = {}       # rid -> attempts that raised
        self.raised_untraced = set()
        self.wrong = {}        # rid -> problem

    def one_pass(self, tracer=None):
        """Send the pool once, sampling the yardstick between requests."""
        speed = Speed()
        speed.sample(force=True)
        work = 0.0
        for k, req in enumerate(self.workload.requests):
            if tracer is not None:
                tracer.request = k
            code, out, t = call(self.cli, req.argv)
            if tracer is not None:
                tracer.reset_stack()
            speed.sample()
            work += t
            self.times.setdefault(req.rid, []).append(t)
            if isinstance(code, str):
                self.raised[req.rid] = self.raised.get(req.rid, 0) + 1
                if tracer is None:
                    self.raised_untraced.add(req.rid)
            elif req.rid not in self.answers:
                self.answers[req.rid] = (code, out)
            elif self.answers[req.rid] != (code, out):
                self.wrong[req.rid] = "answer changed between passes"
        speed.sample(force=True)
        self.factors.append(speed.factor())
        self.work.append(work)

    def passes_for(self, seconds, tracer=None):
        """Whole passes over the pool until `seconds` have elapsed (at least
        one).  Returns each pass's time in cli.main at the reference speed."""
        start = perf_counter()
        first = len(self.work)
        while len(self.work) == first or perf_counter() - start < seconds:
            self.one_pass(tracer)
        return [w * f for w, f in zip(self.work[first:], self.factors[first:])]

    def finish(self):
        """Check the kept answers; returns (correct, attempted, failed)."""
        import checks

        problems = {}
        for req in self.workload.requests:
            if req.rid in self.answers:
                problems[req.rid] = checks.check_request(req, *self.answers[req.rid])
        problems.update(checks.check_relations(self.workload, self.answers))
        ref = REFERENCE / f"{self.name}.json"
        if self.seed is not None and ref.exists():
            problems.update(checks.check_reference(
                self.workload, json.loads(ref.read_text()), self.answers,
                self.raised_untraced))
        for rid, problem in problems.items():
            if problem:
                self.wrong.setdefault(rid, problem)
        attempted = sum(len(t) for t in self.times.values())
        failed = sum(len(t) if rid in self.wrong else self.raised.get(rid, 0)
                     for rid, t in self.times.items())
        return not self.wrong, attempted, failed

    def failed_rid(self, rid) -> bool:
        return rid in self.wrong or rid in self.raised

    def median_ms(self):
        """Each request's median time over the run's passes, in ms at the
        reference speed.  Every request is sent once per pass, so each has
        the same number of samples."""
        return {rid: statistics.median(t * f for t, f in zip(ts, self.factors)) * 1000
                for rid, ts in self.times.items()}

    def latencies(self, med, verb=None):
        """Median times of the pool's requests; inf for a failed request."""
        return [math.inf if self.failed_rid(r.rid) else med[r.rid]
                for r in self.workload.requests if verb in (None, r.verb)]


def percentile(values, q):
    """Nearest-rank percentile."""
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def setup(name, seed):
    """Import quantalg, generate the inputs and warm up.  Returns (cli
    module, workload, workdir, seconds at the reference speed), with the
    yardstick sampled before and after."""
    speed = Speed()
    for _ in range(5):
        speed.sample(force=True)
    t = perf_counter()
    from quantalg import cli
    import workloads

    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = workloads.build(name, seed, workdir)
    for req in wl.warmup:
        code, out, _ = call(cli, req.argv)
        if code != 0:
            raise RuntimeError(f"warm-up {req.rid} gave {code}")
    t = perf_counter() - t
    for _ in range(5):
        speed.sample(force=True)
    return cli, wl, workdir, t * speed.factor()


def setup_seconds(name, seed, own):
    """Median set-up time over this process's set-up and SETUP_ROUNDS - 1
    more, each in a fresh process, so that every round imports cold."""
    times = [own]
    for _ in range(SETUP_ROUNDS - 1):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(seed), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(name, seed, seconds, traced):
    cli, wl, workdir, own = setup(name, seed)
    try:
        session = Session(cli, name, seed, wl)
        if traced:
            metrics = traced_run(session, seconds, f"{name}-{seed}")
        else:
            setup_s = setup_seconds(name, seed, own)
            start = perf_counter()
            session.passes_for(seconds)
            elapsed = perf_counter() - start
        correct, attempted, failed = session.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_env(name, seed)
    for rid, problem in sorted(session.wrong.items()):
        print(f"wrong: {rid}: {problem}")
    if traced:
        return result(correct, attempted, failed, metrics)
    med = session.median_ms()
    answered = [rid for rid in med if not session.failed_rid(rid)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(answered) / (sum(med[r] for r in answered) / 1000), "1/s"),
        "latency_ms.p50": (statistics.median(session.latencies(med)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"passes {len(session.work)} in {elapsed:.3f} s ({attempted / elapsed:.3f} requests/s "
          f"as measured); attempted {attempted}, failed {failed}, "
          f"fail_share {failed / attempted:.4f}")
    print("speed factor per pass (reference / measured yardstick): "
          + " ".join(f"{f:.3f}" for f in session.factors))
    print_verbs(session, med)
    return result(correct, attempted, failed, metrics)


def traced_run(session, seconds, tag):
    """Untraced passes for about half the time, then traced passes for the
    rest (at least one of each).  Per-layer metrics are per traced pass, with
    times at the reference speed (scaled by the traced passes' median speed
    factor); the overhead compares the median traced pass with the median
    untraced one."""
    import tracer as tracing

    start = perf_counter()
    untraced = session.passes_for(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = session.passes_for(seconds - (perf_counter() - start), tracer)
    finally:
        tracer.uninstall()
    factor = statistics.median(session.factors[-len(traced):])
    metrics = tracer.layer_metrics(len(traced), factor)
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    spans = OUT / f"spans-{tag}.csv"
    tracer.dump(spans)
    print(f"spans: {len(tracer.span_start)} written to {spans.relative_to(ROOT)}; "
          f"passes untraced {len(untraced)}, traced {len(traced)}")
    return metrics


def result(correct, attempted, failed, metrics):
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def print_verbs(session, med):
    """Per-verb latencies; p90 only where a verb has at least 100
    requests in the pool."""
    for verb in sorted({r.verb for r in session.workload.requests}):
        lat = session.latencies(med, verb)
        name = verb.replace("-", "_")
        line = f"{name}_ms.p50 {statistics.median(lat):.3f} ms"
        if len(lat) >= 100:
            line += f"  {name}_ms.p90 {percentile(lat, 0.9):.3f} ms"
        print(f"{line}  (n={len(lat)})")


def print_env(name, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    print("env: " + json.dumps({
        "workload": name, "seed": seed, "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": commit()}))


def commit() -> str:
    """HEAD of the repository around the benchmark, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# Several runs, each in a fresh process

def orchestrate(args) -> int:
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for name in names:
        medians = []
        for s in range(args.sets):
            runs = []
            for k in range(args.repeat):
                seed = args.seed + k if args.vary_seed else args.seed
                cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    status = 1
                    continue
                runs.append(json.loads(lines[-1]))
                if args.repeat == 1:
                    print(f"== {name}")
                    print("\n".join(lines[:-1]))
                else:
                    print(f"{name} seed {seed}: correct={runs[-1]['correct']} "
                          f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}",
                          flush=True)
            if len(runs) > 1:
                medians.append(summarize(f"{name} set {s + 1}", runs, bounds))
        if len(medians) > 1:
            compare(name, medians, bounds)
    return status


def summarize(title, runs, bounds):
    """Print each metric's median, quartiles and spread; returns the medians."""
    print(f"== {title}: {len(runs)} runs; median [q1, q3], spread = (q3 - q1) / median")
    medians = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        unit = runs[0]["metrics"][key]["unit"]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[key] = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(key)
        flag = ""
        if bound is not None:
            flag = f" bound {bound}" + ("" if spread < bound / 3 else "  <-- above bound/3")
        print(f"  {key:40s} {med:12.6g} [{q1:.6g}, {q3:.6g}] {unit:6s} "
              f"spread {spread:.4f}{flag}", flush=True)
    return medians


def compare(name, medians, bounds):
    """Each later set's median against the first set's, as a share of it."""
    print(f"== {name}: medians of {len(medians)} sets, change against set 1")
    for key, first in medians[0].items():
        changes = [m[key] / first - 1 if first else 0.0 for m in medians[1:]]
        bound = bounds.get(key)
        flag = "" if bound is None or all(abs(c) <= bound for c in changes) \
            else "  <-- beyond bound"
        print(f"  {key:40s} {first:12.6g} " + " ".join(f"{c:+.4f}" for c in changes)
              + (f" bound {bound}" if bound is not None else "") + flag, flush=True)


# ---------------------------------------------------------------------------
# Reference outputs

def freeze(which) -> int:
    """Run the default seed once per workload, cross-check every answer by
    the routes that need no reference, and write the answers out, with the
    seed's names mapped back to the base names, and the requests that
    raised."""
    from quantalg import cli
    import workloads

    names = WORKLOADS if which == "all" else (which,)
    for name in names:
        workdir = OUT / f"freeze-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            session = Session(cli, name, None, workloads.build(name, DEFAULT_SEED, workdir))
            session.one_pass()
            session.finish()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if session.wrong:
            for rid, problem in sorted(session.wrong.items()):
                print(f"{name}: {rid}: {problem}")
            print(f"{name}: not frozen")
            return 1
        outputs = {req.rid: (session.answers[req.rid][0],
                             workloads.canonical(req, session.answers[req.rid][1]))
                   for req in session.workload.requests if req.rid in session.answers}
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{name}.json").write_text(json.dumps(
            {"seed": DEFAULT_SEED, "outputs": outputs, "raised": sorted(session.raised)},
            indent=0, sort_keys=True) + "\n")
        print(f"{name}: froze {len(outputs)} answers; raised: {sorted(session.raised)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
