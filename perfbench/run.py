"""meetlogic benchmark: seeded workloads, end-to-end and per-layer metrics,
and a correctness gate.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Other modes:

    --out FILE              also append the full result as one JSON line to FILE
    --series N --out FILE   run N seeds (seed, seed+1, ...) in child processes
    --compare A B           before/after ratio per workload and metric
    --record [W.KIND ...]   re-record perfbench/expected.json (seed commit only)

Load is one client in a closed loop: each query is issued when the previous
one returns, in one process and one thread. A run executes a fixed, seeded
query plan, sized by ``--seconds`` at the seed commit's speed, so a seed gives
the same queries, outcomes and failure count on every run. Latencies are
reported at reference machine speed (see ``speed.py``).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
DIGEST_CYCLES = 8

SPAN_METRICS = (
    "syntax.parse", "syntax.print", "combination.project", "combination.embed",
    "semantics.product_build", "semantics.holds", "semantics.entails", "semantics.soundness",
    "calculus.assemble", "calculus.search_component", "calculus.search_meet", "calculus.template",
    "calculus.check", "admissibility.decide_meet", "admissibility.bruteforce", "presets.load",
    "presets.theorem", "treetools.tree_build", "treetools.equiv", "treetools.equalize",
    "formats.serialize", "formats.parse",
)
COUNT_METRICS = {
    "calculus.search_found": "search_found", "calculus.search_inconclusive": "search_inconclusive",
    "calculus.derivation_lines": "derivation_lines", "calculus.mutants_rejected": "mutants_rejected",
    "admissibility.oracle_calls": "oracle_calls", "admissibility.substitution_bound": "substitution_bound",
    "semantics.assignments": "assignments", "formats.roundtrip_failures": "roundtrip_failures",
    "cli.uncaught": "uncaught", "cli.exit_mismatch": "exit_mismatch",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put the checkout's ``src`` first on the path and make sure meetlogic
    comes from there."""
    src = ROOT / "src"
    if not (src / "meetlogic" / "__init__.py").is_file():
        fail(f"no meetlogic sources under {src}")
    sys.path.insert(0, str(src))
    import meetlogic

    if Path(meetlogic.__file__).resolve().parent != (src / "meetlogic").resolve():
        fail(f"meetlogic imported from {meetlogic.__file__}, not from {src}")
    return meetlogic


def g4ip_cache():
    from meetlogic import presets

    return getattr(presets, "_g4ip", None)


# ---------------------------------------------------------------------------
# the closed loop

class Plan:
    """The seeded sequence of queries: whole cycles of the workload's kinds,
    each kind drawn from its pool without replacement."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.draws = {k: gen.Draw(seed, f"{wl.name}.{k}", wl.pool_size, wl.strata[k]) for k in wl.cycle}
        self.digest = hashlib.sha256()
        self.cycles = 0

    def entries(self, first: int, cycles: int) -> list:
        return [e for c in range(first, first + cycles) for e in self.next_cycle(c)]

    def next_cycle(self, index: int) -> list:
        entries = []
        for kind in self.wl.cycle:
            i = self.draws[kind].next(index % self.wl.strata[kind])
            spec = self.wl.item(kind, i)
            entries.append((kind, i, spec))
            if self.cycles < DIGEST_CYCLES:
                self.digest.update(json.dumps([kind, i, spec], sort_keys=True).encode())
        self.cycles += 1
        return entries

    def wrapped(self) -> bool:
        return any(d.wraps > 0 for d in self.draws.values())


def execute(wl, entry, tr, qid):
    """Run one query; returns its outcome, start time and latency."""
    kind, _, spec = entry
    wl.prepare(spec)
    t = time.perf_counter()
    try:
        with tr.query(qid, f"query.{kind}"):
            out = wl.run(kind, spec, tr)
    except Exception as exc:  # an escaping exception is a failed query
        out = workloads.Outcome(error=f"uncaught {type(exc).__name__}: {str(exc)[:160]}")
        wl.counts["uncaught"] += 1
    dt = time.perf_counter() - t
    if tr.on:
        wl.account(kind, spec)
    return out, t, dt


def loop(wl, entries, tr, pause=None):
    """Run ``entries`` in order, sampling machine speed between queries and
    calling ``pause(qid)``, if given, before each. Returns
    [(entry, outcome, measured latency)] and the clock."""
    done = []
    with speed.Clock() as clock:
        for qid, e in enumerate(entries):
            if pause is not None:
                pause(qid)
            out, t, dt = execute(wl, e, tr, qid)
            clock.record(t, dt)
            done.append((e, out, dt))
    return done, clock


# ---------------------------------------------------------------------------
# correctness gate

def load_expected() -> dict:
    if not EXPECTED.is_file():
        fail(f"missing {EXPECTED}")
    with open(EXPECTED) as fh:
        return json.load(fh)


def settle(wl, done, expected) -> list:
    """Classify finished queries (errors, decided) and return wrong verdicts."""
    wrong = []
    for (kind, i, spec), out, _ in done:
        recorded = expected[f"{wl.name}.{kind}"]["answers"] if kind in wl.recorded else None
        if isinstance(wl, workloads.CliBatch):
            if out.answer is None:
                continue
            want = wl.expected(spec)
            if want is None:
                seed_answer = recorded[i]
                want = workloads.EXIT_CONTRACT if seed_answer == "E" else int(seed_answer)
            code = int(out.answer)
            if isinstance(want, int) and {code, want} == {0, 1}:
                wrong.append(f"{kind}#{i}: exit {code}, expected {want}: {spec['argv'][:6]}")
            wl.judge(spec, out, want)
        elif out.error is None or out.answer is not None:
            if recorded is not None and out.answer != recorded[i]:
                wrong.append(f"{kind}#{i}: answer {out.answer}, recorded {recorded[i]}")
        if out.answer is not None or out.data is not None:
            wrong += [f"{kind}#{i}: {w}" for w in wl.gate(kind, spec, out)]
    return wrong


# ---------------------------------------------------------------------------
# metrics

def e2e_metrics(done, clock, setup_samples, rss_mb) -> tuple:
    """The end-to-end metrics, from latencies at reference speed."""
    norm = clock.normalized()
    lat = sorted(norm)
    raw = [dt for _, _, dt in done]
    n = len(lat)
    failed = sum(out.error is not None for _, out, _ in done)
    decided = sum(bool(out.decided) for _, out, _ in done)
    tail_at = max(n - 11, 0)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup_samples), "s"),
        "queries_per_s": (n / sum(lat), "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "query_tail_ms": (lat[tail_at] * 1e3, "ms"),
        "decided_ratio": (decided / n, "share"),
        "ok_ratio": (1 - failed / n, "share"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    by_kind: dict = {}
    kind_decided: dict = {}
    for ((kind, _, _), out, _), dt in zip(done, norm):
        by_kind.setdefault(kind, []).append(dt * 1e3)
        kind_decided[kind] = kind_decided.get(kind, 0) + bool(out.decided)
    detail = {"kind_p50_ms": {k: statistics.median(v) for k, v in by_kind.items()},
              "kind_samples": {k: len(v) for k, v in by_kind.items()}, "kind_decided": kind_decided,
              "error_ratio": failed / n, "tail_percentile": 100 * (n - 10) / n if n > 10 else 0.0,
              "tail_samples_beyond": n - 1 - tail_at, "samples": n, "setup_samples": setup_samples,
              "speed": clock.speed(), "speed_samples": len(clock.durs), "raw_queries_per_s": n / sum(raw),
              "raw_query_p50_ms": statistics.median(raw) * 1e3,
              "raw_query_tail_ms": sorted(raw)[tail_at] * 1e3}
    return metrics, failed, detail


def layer_metrics(wl, tr, done, overhead) -> dict:
    summ = tr.summary()
    total = lambda name: summ.get(name, {}).get("total_s", 0.0)
    rate = lambda count, secs: count / secs if secs > 0 else 0.0
    c = wl.counts
    m = {f"{name}_s": (total(name), "s") for name in SPAN_METRICS}
    m.update({name: (c[key], "count") for name, key in COUNT_METRICS.items()})
    sem_s = total("semantics.holds") + total("semantics.entails") + total("semantics.soundness")
    m["syntax.parse_nodes_per_s"] = (rate(c["parse_nodes"], total("syntax.parse")), "1/s")
    m["semantics.node_evals_per_s"] = (rate(c["node_evals"], sem_s), "1/s")
    m["calculus.check_lines_per_s"] = (rate(c["checked_lines"], total("calculus.check")), "1/s")
    cache = g4ip_cache()
    info = cache.cache_info() if cache is not None and hasattr(cache, "cache_info") else None
    m["presets.g4ip_hits"] = (info.hits if info else 0, "count")
    m["presets.g4ip_misses"] = (info.misses if info else 0, "count")
    for verb in workloads.VERBS:
        spans = [e - s for name, s, e, _, _ in tr.spans if name == f"cli.{verb}"]
        m[f"cli.{verb}_p50_ms"] = (statistics.median(spans) * 1e3 if spans else 0.0, "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def environment(load_start) -> dict:
    load_end = os.getloadavg()
    nproc = os.cpu_count() or 1
    return {"python": platform.python_version(), "nproc": nproc, "platform": platform.platform(),
            "loadavg_start": load_start, "loadavg_end": load_end,
            "overloaded": max(load_start[0], load_end[0]) > nproc}


def setup_probe_sample(name: str) -> tuple:
    """Set-up time of a fresh interpreter (import plus the workload's set-up)
    as an (at reference speed, measured) pair."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe", name],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    secs, probe = map(float, proc.stdout.strip().splitlines()[-1].split())
    return secs * speed.REF_S / probe, secs


def setup_probe(name: str) -> None:
    """Time import plus set-up in this fresh interpreter, with speed probes
    before and after it; prints the time and the median probe."""
    speed.sample()  # warm the probe
    before = [speed.sample() for _ in range(5)]
    t0 = time.perf_counter()
    import_program()
    workloads.make(name, None).setup(spans.NULL)
    secs = time.perf_counter() - t0
    after = [speed.sample() for _ in range(5)]
    print(secs, statistics.median(before + after))


# ---------------------------------------------------------------------------
# modes

def run_workload(args) -> dict:
    load_start = os.getloadavg()
    import_program()
    expected = load_expected()
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as workdir:
        wl = workloads.make(args.workload, workdir)
        tr = spans.Tracer() if args.trace else spans.NULL
        wl.setup(tr)
        plan = Plan(wl, args.seed)
        warm, _ = loop(wl, plan.entries(0, wl.warmup_cycles), spans.NULL)
        cache = g4ip_cache()
        if not args.trace:
            entries = plan.entries(wl.warmup_cycles, max(1, round(wl.rate * args.seconds)))
            # Set-up probes are spread over the timed run, so that their
            # median covers the machine's fast and slow phases as the
            # queries' figures do; they run between queries, untimed.
            setup_samples = []
            stride = max(1, len(entries) // SETUP_PROBES)

            def pause(qid):
                if qid % stride == 0 and len(setup_samples) < SETUP_PROBES:
                    setup_samples.append(setup_probe_sample(args.workload))

            done, clock = loop(wl, entries, spans.NULL, pause)
            while len(setup_samples) < SETUP_PROBES:
                setup_samples.append(setup_probe_sample(args.workload))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wrong = settle(wl, warm + done, expected)
            metrics, failed, detail = e2e_metrics(done, clock, setup_samples, rss_mb)
        else:
            # A third of the plan, so per-layer totals and counts compare
            # across commits: run once to settle the heap, then untraced and
            # traced; the last two give the tracing overhead.
            entries = plan.entries(wl.warmup_cycles, max(1, round(wl.rate * args.seconds / 3)))
            loop(wl, entries, spans.NULL)
            if cache is not None:
                cache.cache_clear()
            plain, plain_clock = loop(wl, entries, spans.NULL)
            if cache is not None:
                cache.cache_clear()
            wl.counts.clear()
            with wl.instrument(tr):
                done, clock = loop(wl, entries, tr)
            plain_s, traced_s = sum(plain_clock.normalized()), sum(clock.normalized())
            wrong = settle(wl, done, expected)
            metrics = layer_metrics(wl, tr, done, traced_s / plain_s)
            wrong += settle(wl, warm + plain, expected)
            failed = sum(out.error is not None for _, out, _ in done)
            detail = {"samples": len(done), "untraced_s": plain_s, "traced_s": traced_s,
                      "speed": clock.speed()}
            OUT_DIR.mkdir(exist_ok=True)
            tr.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    errors = {}
    for _, out, _ in done:
        if out.error is not None:
            key = out.error.split(":")[0]
            errors[key] = errors.get(key, 0) + 1
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": not wrong, "attempted": len(done), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail, "errors": errors, "wrong": wrong[:20],
        "inputs_digest": plan.digest.hexdigest(), "pool_wrapped": plan.wrapped(),
        "env": environment(load_start),
    }


def report(result: dict, out_file) -> None:
    for name, m in result["metrics"].items():
        print(f"{result['workload']:10s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("detail", "errors", "wrong", "inputs_digest",
                                             "pool_wrapped", "env")}, sort_keys=True))
    if out_file:
        with open(out_file, "a") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def read_results(path) -> dict:
    """(workload, trace, metric) -> values, from a JSON-lines result file."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                r = json.loads(line)
                for name, m in r["metrics"].items():
                    out.setdefault((r["workload"], r["trace"], name), []).append(m["value"])
    return out


def compare(a_path, b_path) -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = read_results(a_path), read_results(b_path)
    print(f"{'workload':10s} {'metric':34s} {'before':>12s} {'after':>12s} {'after/before':>12s}  verdict")
    for key in sorted(set(a) & set(b)):
        wl, _, name = key
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        ratio = mb / ma if ma else float("nan")
        bound = bounds.get(name, {}).get("bound")
        if bound is None:
            verdict = "per-layer"
        elif spread(a[key]) > bound or spread(b[key]) > bound:
            verdict = "unresolved"
        else:
            worse = ratio - 1 if better.get(name) == "lower" else 1 - ratio
            verdict = "worse" if worse > bound else ("better" if worse < -bound else "within bound")
        print(f"{wl:10s} {name:34s} {ma:12.6g} {mb:12.6g} {ratio:12.4f}  {verdict}")


def series(args) -> None:
    if not args.out:
        fail("--series needs --out FILE")
    for seed in range(args.seed, args.seed + args.series):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        print(proc.stdout.strip().splitlines()[-1] if proc.returncode == 0 else proc.stderr[-400:])
    values = read_results(args.out)
    for (wl, tr_, name), vs in sorted(values.items()):
        if wl == args.workload and tr_ == args.trace:
            print(f"{wl:10s} {name:34s} median {statistics.median(vs):12.6g} spread {spread(vs):.4f}")


def record(only) -> None:
    """Answers only the seed commit can give, for every item of the recorded
    pools (``only``: just these ``workload.kind`` keys, merged into the file)."""
    import_program()
    answers = load_expected() if only else {}
    with tempfile.TemporaryDirectory(dir=HERE, prefix="tmp-") as workdir:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, workdir)
            kinds = [k for k in sorted(wl.recorded) if not only or f"{name}.{k}" in only]
            if not kinds:
                continue
            wl.setup(spans.NULL)
            for kind in kinds:
                chars = []
                for i in range(wl.pool_size):
                    entry = (kind, i, wl.item(kind, i))
                    out, _, _ = execute(wl, entry, spans.NULL, i)
                    chars.append("E" if out.answer is None else out.answer)
                answers[f"{name}.{kind}"] = {"size": len(chars), "answers": "".join(chars)}
                print(name, kind, {ch: chars.count(ch) for ch in sorted(set(chars))}, flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--series", type=int)
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    p.add_argument("--record", nargs="*", metavar="WORKLOAD.KIND")
    p.add_argument("--setup-probe", choices=workloads.WORKLOADS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.compare:
        compare(*args.compare)
        return 0
    if args.record is not None:
        record(args.record)
        return 0
    if not args.workload:
        fail("give --workload, --compare, --record or --series")
    if args.series:
        series(args)
        return 0
    result = run_workload(args)
    report(result, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
