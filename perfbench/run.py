"""Closed-loop benchmark of the systolica library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the library is imported from
the checkout's own ``src/`` and nowhere else, so the command fails (exit
code 1, no result line) when ``src/systolica`` is absent.

One caller, one process, one thread: each item starts after the previous
one and its check have finished, so nothing ever queues and the wait time
of every layer is zero by construction.  Items come in whole rounds (see
``workloads.py``); the run stops at the first round boundary after
``--seconds`` of wall time once at least ``MIN_ITEMS`` items have run, so
``item_ms_p90`` always has at least ten items beyond it.

``--trace 0`` prints the end-to-end metrics, with every time paced to the
reference host's speed (``pace.py``).  ``--trace 1`` runs every
item twice, once through the span recorder and once without it, in
alternating order, and prints the per-layer metrics plus
``trace.overhead_frac``, the drop in items per second caused by tracing;
the spans themselves go to ``.perfbench-out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
the items that fail in a way the workload does not list among its known
failures at the seed commit (``known_defect``), and ``correct`` is false
when there is one.  Every failed item, known or not, counts against
``pass_frac``, and the summary line gives all of them as ``fail_frac``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_ITEMS = 100
# Set-up is timed on the wall clock, not paced: starting an interpreter
# and mapping numpy's libraries does not track the pacing loop's speed.
SETUP_REPEATS = 9
WARMUP_ITEMS = 5
# The runner's environment: BLAS and OpenMP on one thread, and a fixed
# glibc mmap threshold, so that large arrays always go back to the system
# when freed and the peak resident set does not depend on the order of
# earlier allocations.  The allocator reads it at process start.
RUNNER_ENV = {
    **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
    "MALLOC_MMAP_THRESHOLD_": "131072",
}

E2E_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "pass_frac": "frac",
    "pass_digits_p10": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import the checkout's library and the workloads that drive it, with
    BLAS and OpenMP pinned to one thread."""
    os.environ.update(RUNNER_ENV)
    src = ROOT / "src"
    if not (src / "systolica" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {src}")
    sys.path.insert(0, str(src))
    import systolica
    if Path(systolica.__file__).resolve().parent != src / "systolica":
        raise SystemExit(f"perfbench: imported {systolica.__file__}, "
                         f"not the checkout's copy under {src}")
    import workloads
    return workloads


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "runner_env": {var: os.environ.get(var) for var in RUNNER_ENV},
        "wait_ms": 0.0,
        "wait_note": "closed loop, one caller: no queue, zero by construction",
    }


class Tally:
    """What one pass measured, kept in flat arrays so that a fast workload
    with many items adds little to the benchmark's own memory."""

    def __init__(self):
        self.ms = array("d")  # latency of every item
        self.paced = 0  # items before this one have been paced
        self.digits = array("d")  # digits of every item; 0 when it failed
        self.passed_digits = array("d")
        self.failed = 0
        self.unknown = 0  # failures outside the workload's known defects
        self.exceptions = Counter()

    def __len__(self):
        return len(self.ms)

    def rescale(self, factor):
        """Scale the latencies added since the last call."""
        for i in range(self.paced, len(self.ms)):
            self.ms[i] *= factor
        self.paced = len(self.ms)

    def add(self, seconds, verdict, known, errors):
        self.ms.append(seconds * 1e3)
        self.digits.append(verdict.digits)
        if verdict.passed:
            self.passed_digits.append(verdict.digits)
        else:
            self.failed += 1
            self.unknown += not known
        self.exceptions.update(type(e).__name__ for e in errors)


def run_item(wl, item, recorder, tally):
    """Time one item through ``recorder`` (``Direct`` or ``Tracer``), then
    check it outside the timed region."""
    t0, t1, outcome = wl.attempt(item, recorder.call)
    recorder.item(item.size, t0, t1)
    verdict = wl.check(item, outcome)
    known = verdict.passed or wl.known_defect(item, outcome, verdict)
    tally.add(t1 - t0, verdict, known, outcome.errors)


def import_seconds() -> float:
    """Median wall time for a fresh interpreter to start and import the
    library, numpy and the workloads, as a run does before anything else."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "import workloads")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(wl, seed: int) -> tuple:
    """Generate the first round and warm up on its smallest items,
    repeatedly; returns the first round and the median time."""
    from spans import Direct
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        first = wl.make_round(seed, 0)
        for item in sorted(first, key=lambda it: it.size)[:WARMUP_ITEMS]:
            run_item(wl, item, Direct(), Tally())
        times.append(time.perf_counter() - t0)
    return first, statistics.median(times)


def rounds(wl, seed, first):
    yield first
    r = 1
    while True:
        yield wl.make_round(seed, r)
        r += 1


def measure(wl, seed, seconds, first, passes, min_items, pacer=None) -> list:
    """Run whole rounds until ``seconds`` of wall time and ``min_items``
    items.  Each item runs once through each of ``passes`` (recorders),
    back to back and in an order that alternates from item to
    item, so paired passes see the same machine.  One tally per pass;
    with a ``pacer``, their latencies are paced."""
    tallies = [Tally() for _ in passes]
    order = list(zip(passes, tallies))
    start = time.perf_counter()
    for items in rounds(wl, seed, first):
        for item in items:
            if pacer is not None and pacer.due():
                pacer.close(tallies)
            for recorder, tally in order:
                run_item(wl, item, recorder, tally)
            order.reverse()
        if (time.perf_counter() - start >= seconds
                and len(tallies[0]) >= min_items):
            if pacer is not None:
                pacer.close(tallies)
            return tallies


def quantile(values, q: int, of: int = 10) -> float:
    """The q-th of ``of`` cut points, as ``statistics.quantiles`` places them."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=of)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally, setup_s, rss_mb) -> dict:
    return {
        "items_per_s": len(tally) / (sum(tally.ms) / 1e3),
        "item_ms_p50": statistics.median(tally.ms),
        "item_ms_p90": quantile(tally.ms, 9),
        "pass_frac": 1.0 - tally.failed / len(tally),
        "pass_digits_p10": quantile(tally.passed_digits, 1),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(wl, tracer, traced, untraced) -> dict:
    """Calls, busy time and errors per function, busy time, share and
    errors by class per module, the scaling fits, and trace overhead."""
    out = {}
    for module, names in wl.FUNCTIONS.items():
        module_ms = 0.0
        for fn in names:
            key = f"{module}.{fn}"
            busy = tracer.busy_s[key] * 1e3
            module_ms += busy
            out[f"{key}.calls"] = (tracer.calls[key], "count")
            out[f"{key}.self_ms"] = (busy, "ms")
            out[f"{key}.errors"] = (sum(c for (name, _), c in tracer.errors.items()
                                        if name == key), "count")
        out[f"{module}.self_ms"] = (module_ms, "ms")
        out[f"{module}.share"] = (module_ms / sum(traced.ms), "frac")
        for cls in wl.ERROR_CLASSES:
            count = sum(c for (name, got), c in tracer.errors.items()
                        if name.startswith(module + ".")
                        and (got == cls or (cls == "other"
                                            and got not in wl.ERROR_CLASSES)))
            out[f"{module}.errors.{cls}"] = (count, "count")
    for key in wl.SCALING:
        out[f"{key}.exp"] = (tracer.exponent(key), "1")
    overhead = 1.0 - sum(untraced.ms) / sum(traced.ms)
    out["trace.overhead_frac"] = (overhead, "frac")
    return out


def summary(name, seed, tallies) -> dict:
    """fail_frac and digits_p10 (failed items scoring 0), printed but not
    gated: both read exactly zero on workloads where nothing fails."""
    items = sum(len(t) for t in tallies)
    return {
        "workload": name,
        "seed": seed,
        "items": items,
        "fail_frac": sum(t.failed for t in tallies) / items,
        "digits_p10": quantile([d for t in tallies for d in t.digits], 1),
        "failed_outside_known": sum(t.unknown for t in tallies),
        "exceptions": dict(sum((t.exceptions for t in tallies), Counter())),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = load_library()
    from spans import Direct, Tracer
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    first, setup_s = setup(wl, seed)
    setup_s += import_seconds()
    if trace:
        tracer = Tracer()
        tallies = measure(wl, seed, seconds, first, (Direct(), tracer), 1)
        metrics = per_layer(workloads, tracer, tallies[1], tallies[0])
        OUT_DIR.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump["environment"] = environment()
        dump["summary"] = summary(name, seed, tallies[1:])
        path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps(dump))
    else:
        pacer = pace.Pacer()
        tallies = measure(wl, seed, seconds, first, (Direct(),), MIN_ITEMS,
                          pacer)
        # read before the statistics below allocate their sorted copies
        rss_mb = peak_rss_mb()
        metrics = {k: (v, E2E_UNITS[k]) for k, v in
                   end_to_end(tallies[0], setup_s, rss_mb).items()}
    report = summary(name, seed, tallies)
    if not trace:
        report["host_speed"] = pacer.speed()
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"summary": report}))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    return {
        "correct": not any(t.unknown for t in tallies),
        "attempted": sum(len(t) for t in tallies),
        "failed": sum(t.unknown for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in RUNNER_ENV.items()):
        # restart once, in place, so the settings apply from process start
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **RUNNER_ENV})
    sys.exit(main())
