"""The preassoc benchmark: one workload, one seed, one process.

Usage, from the repository root:

    python3 bench/run.py --workload {sweep,deep,cli} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout (nothing is installed).
A run sets up at least five times and for at least 1.5 s (fresh import,
seeded inputs, cache warm-up) and reports the median set-up, then
runs closed-loop passes over the seeded items until ``--seconds`` is used
up, keeping at least the workload's minimum number of passes.  Every item's
answer is checked against ``golden.json`` and against known answers that do
not come from the checkers under test.  All timed work runs under the
speedometer of ``speed.py``, and the end-to-end times are reported in its
reference seconds; the raw wall times go to the report beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run makes the same passes untraced, then traced, and
reports the per-layer metrics per traced pass.  Details go to
``bench/out/``: a JSON report per run and, for traced runs, every span.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import platform
import random
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import REFERENCE_KERNEL_S, Speedometer
from workloads import PROPERTIES, WORKLOADS, payload_digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"
PACKAGE = "preassoc"
#: set up at least this many times, and until this many seconds are spent
SETUPS = 5
SETUP_SECONDS = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mib": "MiB",
}


def _per_layer_spec():
    """(metric name, span name, quantity, unit) for every per-layer metric."""
    spec = []
    for prop in PROPERTIES:
        span = f"checks.{prop}"
        spec += [(f"{span}.calls", span, "calls", "count"),
                 (f"{span}.self_s", span, "self_s", "s"),
                 (f"{span}.cases", span, "cases", "count"),
                 (f"{span}.holds_ratio", span, "holds/verdicts", "ratio")]
    rows = [
        ("enumeration.epsilon_standard_at", ("calls", "self_s")),
        ("enumeration.equivalence_sweep", ("self_s",)),
        ("enumeration.all_epsilon_standard", ("yielded", "self_s")),
        ("enumeration.all_operations", ("yielded", "self_s")),
        ("enumeration.binary_associative", ("calls", "self_s", "true_ratio")),
        ("enumeration.all_associative_extensions", ("yielded", "self_s", "yield_ratio")),
        ("core.TableFn", ("calls", "self_s")),
        ("core.tabulate", ("calls", "self_s")),
        ("families.make_median_family", ("calls", "self_s")),
        ("families.make_variadic_seed", ("calls", "self_s")),
        ("families.make_quasi_sum", ("calls", "self_s")),
        ("quasi_inverse.canonical_quasi_inverse", ("calls", "self_s")),
        ("quasi_inverse.is_quasi_inverse", ("calls", "self_s")),
        ("factorize.factorize", ("calls", "self_s", "precondition_failed")),
        ("factorize.extend_unary_binary", ("calls", "self_s", "condition_failed")),
        ("factorize.build_from_f1_h2", ("calls", "self_s")),
        ("serialization.dumps_function", ("calls", "self_s", "bytes")),
        ("serialization.dumps_function_compact", ("calls", "self_s", "bytes")),
        ("serialization.loads_function", ("calls", "self_s", "bytes")),
        ("serialization.function_digest", ("calls", "self_s")),
        ("serialization.save_function", ("calls", "self_s")),
        ("serialization.dumps_report", ("calls", "self_s")),
        ("cli.check", ("self_s",)),
        ("cli.factorize", ("self_s",)),
        ("cli.generate", ("self_s",)),
        ("cli.enumerate", ("self_s", "emitted_ratio")),
    ]
    quantity = {
        "true_ratio": ("true/calls", "ratio"),
        "yield_ratio": ("yielded/tried", "ratio"),
        "emitted_ratio": ("emitted/scanned", "ratio"),
        "self_s": ("self_s", "s"),
        "bytes": ("bytes", "bytes"),
    }
    for span, metrics in rows:
        for metric in metrics:
            q, unit = quantity.get(metric, (metric, "count"))
            spec.append((f"{span}.{metric}", span, q, unit))
    spec.append(("trace_overhead", None, "trace_overhead", "ratio"))
    return spec


PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_package():
    """Import the package and all its modules afresh from ``src/``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError(f"imported {PACKAGE} from {package.__file__}, not from {SRC}")
    lib = {}
    for info in pkgutil.iter_modules(package.__path__):
        lib[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return SimpleNamespace(**lib)


def warm_up(lib, shapes):
    """Run every checker on two cheap probes per (chain, arity) shape.

    The checkers cache their tuple universes per shape; the probes fill
    those caches without the quadratic value-class scans of real inputs: an
    operation (first projection) for the operation-only checkers, and a
    nearly injective function for the others.
    """
    checks, core = lib.checks, lib.core
    general = [p for p in checks.PROPERTY_NAMES if p not in checks.OPERATION_ONLY]
    operation_only = [p for p in checks.PROPERTY_NAMES if p in checks.OPERATION_ONLY]
    for elements, n in shapes:
        chain = core.Chain(elements)
        tuples = [t for k in range(1, n + 1) for t in chain.tuples(k)]
        projection = core.TableFn(chain, elements, n, core.EPSILON, {t: t[0] for t in tuples})
        checks.run_checks(projection, operation_only)
        labels = {t: ",".join(t) for t in tuples}
        for k in range(1, n + 1):
            labels[(elements[0],) * k] = labels[(elements[-1],) * k] = f"pair{k}"
        codomain = tuple(dict.fromkeys(labels.values()))
        checks.run_checks(core.TableFn(chain, codomain, n, core.EPSILON, labels), general)


def setup(workload, seed):
    t0 = perf_counter()
    lib = import_package()
    t1 = perf_counter()
    items = workload.draw(random.Random(seed))
    t2 = perf_counter()
    warm_up(lib, workload.shapes(lib))
    t3 = perf_counter()
    times = {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
             "start": t0, "end": t3}
    return lib, items, times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_item(workload, lib, item, tmp, tracer=None):
    """Execute one item (timed), then check its answer (untimed)."""
    if tracer is not None:
        tracer.enter("bench.item")
    t0 = perf_counter()
    try:
        if tracer is not None and workload.name == "cli":
            output = _traced_cli(tracer, workload, lib, item, tmp)
        else:
            output = workload.execute(lib, item, tmp)
        error = None
    except Exception:
        output, error = None, traceback.format_exc(limit=3)
    t1 = perf_counter()
    if tracer is not None:
        tracer.exit()
        tracer.enabled = False
    try:
        if error is not None:
            digest, problems = None, [f"raised: {error.strip()}"]
        else:
            checked = workload.check(lib, item, output, tmp)
            digest, problems = payload_digest(checked.payload), list(checked.problems)
    except Exception:
        digest, problems = None, [f"check raised: {traceback.format_exc(limit=3).strip()}"]
    finally:
        if tracer is not None:
            tracer.enabled = True
    return {"key": item.key, "latency_s": t1 - t0, "start": t0, "end": t1,
            "candidates": item.candidates, "digest": digest, "problems": problems}


def _traced_cli(tracer, workload, lib, item, tmp):
    """Run a CLI item inside a ``cli.<command>`` span, counting enumerate output."""
    name = f"cli.{item.kind}"
    tracer.stat(name).calls += 1
    tracer.enter(name)
    try:
        output = workload.execute(lib, item, tmp)
    finally:
        tracer.exit()
    if item.kind == "enumerate":
        for line in output[2].splitlines():
            words = line.split()
            if len(words) == 5 and words[0] == "scanned" and words[3] == "emitted":
                tracer.stat(name).add("scanned", int(words[1]))
                tracer.stat(name).add("emitted", int(words[4]))
    return output


def run_passes(workload, lib, items, tmp, golden, budget_s, min_passes, tracer=None):
    """Closed loop: whole passes until the next one would overrun the budget."""
    passes = []
    start = perf_counter()
    while True:
        results = []
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.item = len(passes) * len(items) + index
            result = run_item(workload, lib, item, tmp, tracer)
            frozen = golden.get(workload.name, {}).get(item.key)
            if result["digest"] is not None and result["digest"] != frozen:
                result["problems"].append(f"answer digest differs from frozen {frozen}")
            results.append(result)
        wall = sum(r["latency_s"] for r in results)
        passes.append({"wall_s": wall, "items": results})
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + wall > budget_s:
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values, percentile):
    rank = max(1, -(-percentile * len(sorted_values) // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(samples):
    """The highest whole percentile that leaves at least ten of ``samples`` beyond it."""
    return max(p for p in range(50, 100) if samples - -(-p * samples // 100) >= 10)


def to_reference(passes, setups, speedometer):
    """Add wall seconds without the speedometer's samples, and reference seconds."""
    for entry in [r for p in passes for r in p["items"]] + setups:
        entry["wall_s"] = speedometer.wall_seconds(entry["start"], entry["end"])
        entry["ref_s"] = speedometer.reference_seconds(entry["start"], entry["end"])
    for p in passes:
        p["wall_s"] = sum(r["wall_s"] for r in p["items"])
        p["ref_s"] = sum(r["ref_s"] for r in p["items"])


def pass_time(passes, key="ref_s"):
    """One pass at each item's median time over the run's passes."""
    return sum(statistics.median(p["items"][i][key] for p in passes)
               for i in range(len(passes[0]["items"])))


def end_to_end(workload, passes, setups):
    wall = pass_time(passes)
    items = len(passes[0]["items"])
    per_pass = sum(r["candidates"] for r in passes[0]["items"])
    metrics = {
        "setup_s": statistics.median(s["ref_s"] for s in setups),
        "wall_s": wall,
        "items_per_s": per_pass / wall,
    }
    if items == 1:
        # one library call per pass: the per-item latency is the pass mean
        mean_ms = 1000 * wall / per_pass
        metrics["item_ms_p50"] = metrics["item_ms_tail"] = mean_ms
        tail = {"percentile": None, "samples": 1, "beyond": 0, "passes": len(passes),
                "note": "one library call per pass; p50 and tail are the per-candidate mean"}
    else:
        # every item of every pass is a sample; the percentile is fixed by
        # the samples of the workload's minimum passes, so it is the same in
        # every run
        latencies = sorted(1000 * r["ref_s"] for p in passes for r in p["items"])
        percentile = tail_percentile(items * workload.min_passes)
        metrics["item_ms_p50"] = statistics.median(latencies)
        value, beyond = nearest_rank(latencies, percentile)
        metrics["item_ms_tail"] = value
        tail = {"percentile": percentile, "samples": len(latencies),
                "beyond": beyond, "passes": len(passes)}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, tail


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _per_pass(total, passes):
    return total // passes if total % passes == 0 else total / passes


def per_layer(stats, traced_passes, overhead):
    metrics = {}
    for name, span, quantity, unit in PER_LAYER:
        if span is None:
            metrics[name] = (overhead, unit)
            continue
        st = stats.get(span)
        calls = st.calls if st else 0
        counts = st.counts if st else {}
        if quantity == "self_s":
            value = (st.self_s if st else 0.0) / traced_passes
        elif quantity == "calls":
            value = _per_pass(calls, traced_passes)
        elif "/" in quantity:
            num, den = quantity.split("/")
            value = _ratio(counts.get(num, 0), calls if den == "calls" else counts.get(den, 0))
        else:
            value = _per_pass(counts.get(quantity, 0), traced_passes)
        metrics[name] = (value, unit)
    return metrics


# ---------------------------------------------------------------------------
# machine and noise
# ---------------------------------------------------------------------------


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = None
    return {"nproc": os.cpu_count(), "usable_cpus": usable, "cpu_model": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summarize(passes):
    attempted = failed = 0
    problems = []
    for p in passes:
        for r in p["items"]:
            attempted += r["candidates"]
            if r["problems"]:
                failed += r["candidates"]
                problems += [f"{r['key']}: {msg}" for msg in r["problems"]]
    return attempted, failed, problems


def digests_of(passes):
    return {r["key"]: r["digest"] for p in passes for r in p["items"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package source {SRC / PACKAGE} not found", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: frozen answers {GOLDEN} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "setups": setups}
    with Speedometer() as speedometer, \
            tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as tmp:
        # a cheap set-up (sweep's is mostly the import) is repeated more often,
        # so that its median rests on enough samples
        first = perf_counter()
        while len(setups) < SETUPS or perf_counter() - first < SETUP_SECONDS:
            lib, items, times = setup(workload, args.seed)
            setups.append(times)
            gc.collect()
        if args.trace == 0:
            all_passes = run_passes(workload, lib, items, tmp, golden, args.seconds,
                                    workload.min_passes)
        else:
            from tracer import Tracer

            # per-layer figures are per traced pass, so one pass per half is enough
            half = args.seconds / 2
            untraced = run_passes(workload, lib, items, tmp, golden, half, 1)
            with Tracer(lib) as tracer:
                traced = run_passes(workload, lib, items, tmp, golden, half, 1, tracer)
            all_passes = untraced + traced
    to_reference(all_passes, setups, speedometer)
    if args.trace == 0:
        metrics, tail = end_to_end(workload, all_passes, setups)
        report["tail"] = tail
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        base, traced_wall = pass_time(untraced), pass_time(traced)
        overhead = traced_wall / base
        layer = per_layer(tracer.stats, len(traced), overhead)
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        # self times are plain wall time, speedometer samples included
        total_self = sum(st.self_s for st in tracer.stats.values())
        total_traced = sum(r["latency_s"] for p in traced for r in p["items"])
        mismatched = sorted(
            k for k, d in digests_of(traced).items() if digests_of(untraced).get(k) != d
        )
        report["tracing"] = {
            "untraced_ref_s": base,
            "traced_ref_s": traced_wall,
            "untraced_wall_s": [p["wall_s"] for p in untraced],
            "traced_wall_s": [p["wall_s"] for p in traced],
            "trace_overhead": overhead,
            "bench_loop_self_s": tracer.stats["bench.item"].self_s / len(traced),
            "self_time_coverage": total_self / total_traced,
            "digests_match_untraced": not mismatched,
            "spans": len(tracer.spans),
            "self_s_per_pass": {
                name: st.self_s / len(traced)
                for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
            },
        }
        tracer.write_spans(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl.gz")
    attempted, failed, problems = summarize(all_passes)
    if args.trace == 1 and mismatched:
        problems.append(f"traced digests differ from untraced ones: {mismatched}")
        failed = max(failed, 1)
    correct = failed == 0 and not problems
    kernel_ms = speedometer.kernel_ms()
    report.update({
        "items": [it.key for it in items],
        "passes": [{"ref_s": p["ref_s"], "wall_s": p["wall_s"],
                    "ref_latencies_s": [r["ref_s"] for r in p["items"]],
                    "wall_latencies_s": [r["wall_s"] for r in p["items"]]}
                   for p in all_passes],
        "digests": digests_of(all_passes),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "problems": problems, "metrics": result_metrics,
        "speedometer_kernel_ms": kernel_ms,
    })
    detail_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, ensure_ascii=False)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(all_passes)}  items/pass {len(items)}")
    m = report["machine"]
    print(f"machine  nproc {m['nproc']}  cpu {m['cpu_model']}  python {m['python']}")
    split = sorted(setups, key=lambda t: t["ref_s"])[len(setups) // 2]
    print(f"setup    median of {len(setups)}: {split['ref_s']:.4f} reference s, wall "
          + "  ".join(f"{k} {split[k]:.4f}" for k in ("import_s", "inputs_s", "warmup_s", "wall_s")))
    print(f"noise    speedometer kernel ms  min {min(kernel_ms):.3f}  "
          f"median {statistics.median(kernel_ms):.3f}  max {max(kernel_ms):.3f}  "
          f"samples {len(kernel_ms)}  (reference speed: {1000 * REFERENCE_KERNEL_S:.3f})")
    print("passes   reference s " + " ".join(f"{p['ref_s']:.3f}" for p in all_passes)
          + "  wall s " + " ".join(f"{p['wall_s']:.3f}" for p in all_passes))
    print(f"answers  attempted {attempted}  failed {failed}  error_rate {failed / attempted:.6f}")
    for line in problems[:20]:
        print(f"PROBLEM  {line}")
    if args.trace == 1:
        t = report["tracing"]
        print(f"trace    overhead {t['trace_overhead']:.3f} (traced {traced_wall:.3f} / "
              f"untraced {base:.3f} reference s)  self-time coverage {t['self_time_coverage']:.6f}")
    else:
        print(f"tail     {json.dumps(report['tail'])}")
    for name, value in result_metrics.items():
        if args.trace == 0 or value["value"]:
            print(f"metric   {name} = {value['value']:.6g} {value['unit']}")
    print(f"detail   {detail_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
