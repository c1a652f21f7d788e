#!/usr/bin/env python3
"""Benchmark for synchromata: one workload per process, every output checked.

Run from the root of the repository:

    python3 perfbench/run.py --workload reset --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics; the last line of standard output is
one JSON object.  Without ``--workload`` it runs every workload, each in
a fresh process.  README.md in this directory explains the workloads and
metrics; a fuller report of every run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
KERNEL_SIZES = (16, 24)
KERNEL_BATCH = 20000
KERNEL_REPEATS = 5


def fresh_import():
    """Import the library from this checkout, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "synchromata" or m.startswith("synchromata.")]:
        del sys.modules[name]
    sm = importlib.import_module("synchromata")
    importlib.import_module("synchromata.cli")
    if Path(sm.__file__).resolve().parent != ROOT / "src" / "synchromata":
        raise RuntimeError(f"imported synchromata from {sm.__file__}, not this checkout")
    return sm


def set_up(name, seed, workdir, tracer):
    """Import, generate and write the inputs SETUP_REPEATS times.

    Returns the modules and items of the last round, the wall time of
    each round and, when traced, the family-build time of each round.
    """
    seconds, build_seconds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        sm = fresh_import()
        if tracer is not None:
            tracer.spans.clear()
            tracer.install()
        items = workloads.generate(name, seed, sm, workdir)
        seconds.append(perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            build_seconds.append(sum(s.seconds for s in tracer.spans
                                     if s.name == "families.build_family"))
    return sm, items, seconds, build_seconds


def kernel_ns(sm, helpers):
    """ns per call of image_mask and preimage_mask on a fixed seeded batch."""
    rng = random.Random("kernel-batch-1")
    metrics, problems = {}, []
    for n in KERNEL_SIZES:
        rows = [[rng.randint(1, n) for _ in range(n)] for _ in range(2)]
        dfa = sm.Dfa(n, 2, rows)
        batch = [(rng.getrandbits(n), rng.randrange(2)) for _ in range(KERNEL_BATCH)]
        for kernel, oracle in (("image_mask", helpers.o_image),
                               ("preimage_mask", helpers.o_preimage_word)):
            fn = getattr(sm.automaton, kernel)
            for mask, a in batch[:200]:
                states = {q for q in range(1, n + 1) if mask >> (q - 1) & 1}
                want = sum(1 << (q - 1) for q in oracle(rows, states, [a]))
                if fn(dfa, mask, a) != want:
                    problems.append(f"{kernel} n={n} mask={mask:#x} letter={a}")
                    break
            runs = []
            for _ in range(KERNEL_REPEATS):
                t0 = perf_counter()
                for mask, a in batch:
                    fn(dfa, mask, a)
                runs.append(perf_counter() - t0)
            metrics[f"automaton.{kernel}_ns.n{n}"] = statistics.median(runs) / KERNEL_BATCH * 1e9
    for kernel in ("image_mask", "preimage_mask"):
        metrics[f"automaton.{kernel}_ns"] = statistics.fmean(
            metrics[f"automaton.{kernel}_ns.n{n}"] for n in KERNEL_SIZES)
    return metrics, problems


def layer_metrics(spans, analysis_seconds, analyses):
    """Per-layer figures of one traced pass; times are seconds per pass."""
    seconds, calls, child = defaultdict(float), Counter(), defaultdict(float)
    widths, bound_images = [], 0
    for s in spans:
        seconds[s.name] += s.seconds
        calls[s.name] += 1
        if s.parent >= 0:
            child[s.parent] += s.seconds
        counts = s.counts or {}
        widths += counts.get("layer_widths", [])
        bound_images += counts.get("bound_images", 0)
    io_outer = [s for s in spans if s.name.startswith("io.")
                and (s.parent < 0 or not spans[s.parent].name.startswith("io."))]
    return {
        "reset.forward_s": seconds["reset.shortest_reset_word"],
        "reset.forward_calls_per_analysis": calls["reset.shortest_reset_word"] / analyses,
        "reset.layers_s": seconds["reset.inverse_layers"],
        "reset.layer_sets": sum(widths),
        "reset.layer_width_max": max(widths, default=0),
        "extension.profile_s": seconds["extension.extension_profile"],
        "extension.image_bound_s": seconds["extension.image_extension_bound"],
        "extension.reachable_image_count": bound_images,
        "extension.extending_s": seconds["extension.shortest_extending_word"],
        "extension.extending_calls": calls["extension.shortest_extending_word"],
        "extension.avoiding_s": seconds["extension.shortest_avoiding_word"],
        "extension.reachable_images_s": seconds["extension.reachable_images"],
        "extension.irreducible_s": seconds["extension.is_irreducibly_synchronizing"],
        "automaton.is_synchronizing_s": seconds["automaton.is_synchronizing"],
        "automaton.is_strongly_connected_s": seconds["automaton.is_strongly_connected"],
        "io.load_s": sum(s.seconds for s in io_outer),
        "io.load_calls": len(io_outer),
        "cli.main_s": seconds["cli.main"],
        "cli.self_s": sum(s.seconds - child[i] for i, s in enumerate(spans)
                          if s.name == "cli.main"),
        "trace.coverage_frac": sum(s.seconds for s in spans if s.parent < 0)
        / analysis_seconds,
    }


def work_counts(items, spans):
    """Deterministic work per input, read off one traced pass."""
    per_item = {item.key: {"states": item.n, "letters": item.k, "calls": Counter(),
                           "layer_widths": [], "reachable_images": [],
                           "bound_images": []} for item in items}
    for s in spans:
        entry = per_item[s.item]
        entry["calls"][s.name] += 1
        for key, value in (s.counts or {}).items():
            entry[key].append(value)
    return per_item


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment():
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model,
            "commit": commit()}


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-30 else 1e-30)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-30 else 1e-30
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            return front * (f - 1.0)
    raise ArithmeticError("incomplete beta did not converge")


def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics.  With a few dozen
    inputs, a single order statistic jumps between neighbouring inputs
    from run to run; this estimate moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def tail_percentile(n):
    """The highest percentile with TAIL_BEYOND of n samples above it."""
    return 100 * max(n - TAIL_BEYOND, 1) / n


def run_workload(args) -> int:
    name, seed, trace = args.workload, args.seed, bool(args.trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    workdir = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    try:
        sm, items, setup_runs, build_runs = set_up(name, seed, workdir, tracer)
        sys.path.insert(0, str(ROOT / "tests"))
        import helpers
        expected = json.loads((HERE / "expected.json").read_text())
        report = measure(name, args, sm, helpers, expected, items, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = report.pop("metrics")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = statistics.median(setup_runs)
    if trace:
        metrics["families.build_s"] = statistics.median(build_runs)
        kernels, problems = kernel_ns(sm, helpers)
        metrics.update(kernels)
        report["attempted"] += 2 * len(KERNEL_SIZES)
        report["failed"] += len(problems)
        report["problems"] += problems
    metrics["failed_frac"] = report["failed"] / report["attempted"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    report.update(workload=name, seed=seed, trace=args.trace, seconds=args.seconds,
                  environment=environment(), setup_runs_s=setup_runs,
                  metrics=shown, all_metrics=metrics)
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{name}-seed{seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=repr) + "\n")

    env = report["environment"]
    print(f"workload {name} seed {seed} trace {args.trace}: "
          f"python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}, "
          f"commit {env['commit']}")
    lat = report["latency"]
    print(f"  {lat['passes']} passes, {lat['analyses']} analyses of {lat['samples']} inputs; "
          f"tail = p{lat['tail_percentile']:.1f} of per-input means")
    for key, value in shown.items():
        print(f"  {key:40s} {value['value']:14.6g} {value['unit']}")
    print(f"  answers digest {report['answers_digest']}"
          + (f", work digest {report['work_digest']}" if trace else ""))
    for problem in report["problems"][:20]:
        print(f"  FAILED {problem}")
    print(f"  full report: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": shown}))
    return 0


def measure(name, args, sm, helpers, expected, items, tracer):
    """Run whole passes over the items until ``args.seconds`` have passed.

    Every answer is checked on its first pass and must be identical on
    later ones.  Traced runs alternate untraced and traced passes.
    """
    run = workloads.RUNNERS[name]
    if name == "sweep":
        def check(item, answer):
            return checks.check_sweep(item, answer, sm, helpers)
    else:
        def check(item, answer):
            return checks.check_cli(item, answer, expected, sm)

    times = defaultdict(list)  # untraced seconds per item
    first, problems = {}, []
    attempted = failed = 0
    untraced_totals, traced_passes = [], []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(untraced_totals) > len(traced_passes)
        if traced:
            tracer.spans.clear()
            tracer.install()
        total = 0.0
        for item in items:
            attempted += 1
            if traced:
                tracer.item = item.key
            try:
                elapsed, answer = run(item, sm)
                wrong = (check(item, answer) if item.key not in first
                         else [] if answer == first[item.key]
                         else ["answer differs from the first pass"])
            except Exception:
                elapsed, wrong = None, [traceback.format_exc(limit=3)]
            if wrong:
                failed += 1
                problems += [f"{item.key}: {w}" for w in wrong]
                continue
            first.setdefault(item.key, answer)
            total += elapsed
            if not traced:
                times[item.key].append(elapsed)
        if traced:
            tracer.uninstall()
            traced_passes.append((total, list(tracer.spans)))
        else:
            untraced_totals.append(total)
        done = perf_counter() - start >= args.seconds
        if done and (tracer is None or traced_passes):
            break

    if not times:
        raise RuntimeError(f"every analysis failed, for example {problems[0]}")
    means = [statistics.fmean(t) for t in times.values()]
    percentile = tail_percentile(len(means))
    analyses = sum(len(t) for t in times.values())
    metrics = {
        "analyses_per_s": analyses / sum(untraced_totals),
        "latency_ms.p50": quantile(means, 0.5) * 1e3,
        "latency_ms.tail": quantile(means, percentile / 100) * 1e3,
    }
    report = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "latency": {"passes": len(untraced_totals), "analyses": analyses,
                    "samples": len(means), "tail_percentile": percentile},
        "answers_digest": digest([first.get(item.key) for item in items]),
        "items": {key: {"mean_ms": statistics.fmean(t) * 1e3,
                        "runs_ms": [x * 1e3 for x in t]}
                  for key, t in sorted(times.items())},
    }
    if tracer is not None:
        per_pass = [layer_metrics(spans, total, len(items))
                    for total, spans in traced_passes]
        for key in per_pass[0]:
            metrics[key] = statistics.median(p[key] for p in per_pass)
        metrics["trace.overhead_frac"] = (
            statistics.median(t for t, _ in traced_passes)
            / statistics.median(untraced_totals) - 1)
        counts = work_counts(items, traced_passes[0][1])
        report["work_counts"] = counts
        report["work_digest"] = digest(counts)
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; all of them, one process each, if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "synchromata" / "__init__.py").is_file():
        print(f"error: no synchromata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in workloads.WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
