"""symquot benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is driven from ``src/``
with ``PYTHONPATH``, as the tier-1 tests drive it.  Workloads are
described in workloads.py and README.md.  Every operation's output is
checked against reference.json.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from a
traced pass, plus the tracing overhead against an untraced pass over
the same inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import spans
import worker
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 41
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import symquot; "
    "print(time.perf_counter() - t)"
)
WORKER_TIMEOUT = 170
REQUEST_TIMEOUT = 60
# A run must end within 180 s, however slow the program has become: no
# child outlives RUN_LIMIT_S from the start of main(), and no round
# starts that the previous one says would overrun it.
RUN_LIMIT_S = 170
deadline = math.inf  # perf_counter() seconds


def time_left(cap: float) -> float:
    return max(1.0, min(cap, deadline - time.perf_counter()))

END_TO_END = (
    ("setup_s", "s"),
    ("triples_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "frac"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for name in spans.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{layer}.errors", "count") for layer in spans.LAYERS]
    out += [
        ("cli.process_start_ms", "ms"),
        ("groups_catalog.cache_hit_frac", "frac"),
        ("permgroup.chain_degree_max", "count"),
        ("permgroup.transversal_entries", "count"),
        ("permgroup.transversal_ints", "count"),
        ("graphs.is_g_symmetric.arcs", "count"),
        ("graphs.serialize.bytes", "bytes"),
        ("constructions.vertices", "count"),
        ("constructions.edges", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "frac"),
        ("trace.spans", "count"),
    ]
    return out


class Tally:
    """Operations attempted and checks failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(what)


# ---------------------------------------------------------------------------
# Processes.


def child_env(hashseed: str) -> dict:
    env = dict(os.environ)
    # an installed package has its bytecode cached; recompiling every
    # module in every fresh process would be a cost no user pays
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hashseed
    return env


def measure_setup(env: dict) -> float:
    """Median seconds of ``import symquot`` in a fresh process, timed
    inside it.  One untimed import first writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_PROBE]
    times = []
    for i in range(SETUP_PROBES + 1):
        p = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=time_left(REQUEST_TIMEOUT), check=True,
        )
        if i:
            times.append(float(p.stdout))
    return statistics.median(times)


def run_worker(args: list[str], env: dict, trace: "Trace | None" = None) -> list[dict]:
    """The operations of one worker process.  A worker that crashes or
    hangs still yields its operations, each failed, so the run goes on
    and reports them."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    if trace is not None:
        path = _scratch("worker-spans")
        cmd += ["--spans", str(path)]
    t0 = time.perf_counter_ns()
    try:
        p = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=time_left(WORKER_TIMEOUT),
        )
        error = None if p.returncode == 0 else f"worker exited {p.returncode}: {p.stderr[-500:]}"
    except subprocess.TimeoutExpired as exc:
        error = f"worker timed out after {exc.timeout:.0f} s"
    if trace is not None and path.exists():
        trace.absorb(_read_spans(path))
    if error is None:
        return json.loads(p.stdout.splitlines()[-1])["ops"]
    wall = time.perf_counter_ns() - t0
    if args[0] == "census":
        return [{"verb": "census", "wall_ns": wall, "error": error, "rows": []}]
    return [
        {"verb": verb, "tag": args[1], "wall_ns": wall // len(worker.LIFT_VERBS),
         "rc": None, "error": error, "content": None}
        for verb, _, _ in worker.LIFT_VERBS
    ]


def cli_request(request, env: dict, trace: "Trace | None" = None):
    """One fresh CLI process; returns (start_ns, end_ns, rc, stdout, stderr).
    Traced, the process is the worker's cli-child stand-in, and its spans
    hang off a ``bench.request`` root span timed here."""
    args = wl.argv(request)
    if trace is None:
        cmd = [sys.executable, "-m", "symquot.cli"] + args
    else:
        path = _scratch("child-spans")
        cmd = [sys.executable, str(HERE / "worker.py"), "cli-child", str(path)] + args
    t0 = time.perf_counter_ns()
    try:
        p = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=time_left(REQUEST_TIMEOUT),
        )
        rc, stdout, stderr = p.returncode, p.stdout, p.stderr
    except subprocess.TimeoutExpired as exc:
        rc, stdout, stderr = None, "", f"timed out after {exc.timeout:.0f} s"
    t1 = time.perf_counter_ns()
    if trace is not None:
        root = [len(trace.spans), None, len(trace.spans), "bench.request", t0, t1, False]
        trace.spans.append(root)
        if path.exists():
            trace.absorb(_read_spans(path), root)
    return t0, t1, rc, stdout, stderr


def clean_refusal(stdout: str, stderr: str) -> bool:
    """A deliberate error: nothing on stdout and one ``symquot: ...`` line
    on stderr, so a crash (a traceback, or argparse's usage text) that
    happens to exit with the expected status does not pass."""
    lines = stderr.splitlines()
    return stdout == "" and len(lines) == 1 and lines[0].startswith("symquot: ")


def _read_spans(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    path.unlink()
    return doc


# ---------------------------------------------------------------------------
# Checks against the reference.


def check_census(op: dict, ref: dict, tally: Tally) -> None:
    want = ref["census"]
    if op["error"] is not None:
        tally.check(False, f"census raised: {op['error']}", len(want))
        return
    bad = checks.census_failures(op["rows"], want)
    tally.attempted += len(want)
    if bad:
        tally.failed += bad
        tally.notes.append(f"census: {bad} rows differ from the reference")


def check_lift(op: dict, ref: dict, tally: Tally) -> None:
    want = ref["lift"][op["tag"]][op["verb"]]
    tally.check(
        op["rc"] == 0 and op["content"] == want,
        f"{op['verb']} {op['tag']}: rc={op['rc']} {op['error'] or ''}".strip(),
    )


def check_cli(request, rc: int, stdout: str, stderr: str, ref: dict, tally: Tally) -> None:
    want = ref["cli"][wl.request_key(request)]
    if rc != want["rc"]:
        ok = False
    elif rc == 0:
        ok = checks.content(request[0], request[1], stdout) == want["content"]
    else:
        ok = clean_refusal(stdout, stderr)
    tally.check(ok, f"{wl.request_key(request)}: rc={rc}")


# ---------------------------------------------------------------------------
# Rounds.  A request is what one user waits for: a census call, the three
# verbs on one big_lift tag, or one CLI process.  Each round returns one
# sample (request, part, wall ns) per timed call: a big_lift request has
# one part per verb, the others one part each.  Given a Trace, the round
# runs traced.


def census_round(env, ref, tally, _, trace=None):
    (op,) = run_worker(["census"], env, trace)
    check_census(op, ref, tally)
    return [("census", "census", op["wall_ns"])]


def lift_round(env, ref, tally, tags, trace=None):
    out = []
    for tag in tags:
        for op in run_worker(["lift", tag], env, trace):
            check_lift(op, ref, tally)
            out.append((tag, op["verb"], op["wall_ns"]))
    return out


def cli_round(env, ref, tally, batch, trace=None):
    out = []
    for request in batch:
        t0, t1, rc, stdout, stderr = cli_request(request, env, trace)
        check_cli(request, rc, stdout, stderr, ref, tally)
        out.append((wl.request_key(request), "", t1 - t0))
    return out


ROUNDS = {"census_sweep": census_round, "big_lift": lift_round, "cli_mix": cli_round}


def nearest_rank(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def fastest_requests(samples) -> dict[str, int]:
    """Each request's time: the sum over its parts of the fastest
    repetition of that part.  For census_sweep and big_lift, whose
    requests take seconds and repeat a few times in a run: the host's
    slowdowns only ever add time, so the fastest of several fresh-process
    repetitions is the steadiest estimate of what the code costs, and a
    slower program is slower in every repetition, so the minimum moves
    with it."""
    best: dict[tuple[str, str], int] = {}
    for request, part, wall in samples:
        key = (request, part)
        best[key] = min(wall, best.get(key, wall))
    out: Counter = Counter()
    for (request, _), wall in best.items():
        out[request] += wall
    return dict(out)


def end_to_end(workload, seconds, seed, env, ref, tally) -> tuple[dict, str]:
    """Untraced rounds until the next one would overrun ``seconds``, and
    at least the workload's MIN_ROUNDS unless the next would overrun the
    run's deadline."""
    one_round = ROUNDS[workload]
    floor = wl.MIN_ROUNDS[workload]
    inputs = wl.rounds(workload, seed)
    samples, rounds = [], 0
    t_start = time.perf_counter_ns()
    while True:
        r0 = time.perf_counter_ns()
        samples += one_round(env, ref, tally, next(inputs))
        rounds += 1
        now = time.perf_counter_ns()
        if rounds >= floor and (now - t_start + now - r0) / 1e9 > seconds:
            break
        if (now + now - r0) / 1e9 > deadline:
            break
    if workload == "cli_mix":
        # hundreds of short requests, each one user's wait: their spread
        # is the latency users see
        walls = [wall for _, _, wall in samples]
    else:
        walls = list(fastest_requests(samples).values())
    triples = sum(wl.TRIPLES_PER_REQUEST[workload] for _ in walls)
    values = {
        "triples_per_s": triples / (sum(walls) / 1e9),
        "request_p50_ms": statistics.median(walls) / 1e6,
        "request_p90_ms": nearest_rank(walls, 0.9) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "passed_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    return values, f"{rounds} rounds, {len(samples)} timed calls, {len(walls)} request times"


# ---------------------------------------------------------------------------
# Traced measurement: one round untraced, then the same round traced.


class Trace:
    """Spans, counters and cache totals merged from every traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.cache = [0, 0]

    def absorb(self, doc: dict, parent: list | None = None) -> None:
        spans.graft(self.spans, doc["spans"], parent)
        self.counts.update(doc["counts"])
        for key, value in doc["maxima"].items():
            self.maxima[key] = max(value, self.maxima.get(key, 0))
        self.cache[0] += doc["cache"][0]
        self.cache[1] += doc["cache"][1]


def _scratch(tag: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / f"{tag}-{os.getpid()}.json"


def per_layer(workload, seed, env, ref, tally) -> tuple[dict, str]:
    one_round = ROUNDS[workload]
    batch = next(wl.rounds(workload, seed))
    plain = sum(w for _, _, w in one_round(env, ref, tally, batch))
    trace = Trace()
    traced = sum(w for _, _, w in one_round(env, ref, tally, batch, trace))

    selfs = spans.self_times(trace.spans)
    bad_ops = spans.self_sum_mismatches(trace.spans, selfs)
    tally.check(not bad_ops, f"self times miss the root duration in ops {bad_ops[:5]}")
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    errors: Counter = Counter()
    starts = []
    for s in trace.spans:
        calls[s[3]] += 1
        self_ns[s[3]] += selfs[s[0]]
        if s[6]:
            errors[s[3].split(".")[0]] += 1
        if s[3] == "bench.request":
            starts.append(selfs[s[0]])

    values: dict = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_ns[name] / 1e9
    for layer in spans.LAYERS:
        values[f"{layer}.errors"] = errors[layer]
    hits, misses = trace.cache
    values.update(
        {
            # request latency minus the child's cli.run span
            "cli.process_start_ms": statistics.median(starts) / 1e6 if starts else 0.0,
            "groups_catalog.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "permgroup.chain_degree_max": trace.maxima.get("permgroup.chain_degree_max", 0),
            "permgroup.transversal_entries": trace.maxima.get("permgroup.transversal_entries", 0),
            "permgroup.transversal_ints": trace.maxima.get("permgroup.transversal_ints", 0),
            "graphs.is_g_symmetric.arcs": trace.counts["graphs.is_g_symmetric.arcs"],
            "graphs.serialize.bytes": trace.counts["graphs.serialize.bytes"],
            "constructions.vertices": trace.counts["constructions.vertices"],
            "constructions.edges": trace.counts["constructions.edges"],
            "trace.overhead_s": (traced - plain) / 1e9,
            "trace.overhead_frac": (traced - plain) / plain,
            "trace.spans": len(trace.spans),
        }
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(trace.spans, fh)
    ops = sum(1 for s in trace.spans if s[1] is None)
    note = (
        f"traced {plain / 1e9:.3f} s of untraced work in {traced / 1e9:.3f} s; "
        f"{ops - len(bad_ops)} of {ops} ops have self times adding up to their root span; "
        "no layer has a queue and one thread runs, so no wait time is reported; "
        "permgroup.transversal_ints is entries x degree, computed, not measured"
    )
    return values, note


# ---------------------------------------------------------------------------


def _cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return None


def host_record(before, after) -> str:
    steal = "n/a"
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        if sum(delta):
            steal = f"{delta[7] / sum(delta):.4f}"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"loadavg {load}, cpu steal share {steal}"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "symquot" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no symquot package under {SRC}\n")
        return 2

    global deadline
    deadline = time.perf_counter() + RUN_LIMIT_S
    cpu0 = _cpu_times()
    env = child_env(wl.hash_seed(args.workload, args.seed))
    ref = checks.load_reference()
    tally = Tally()
    if args.trace:
        values, note = per_layer(args.workload, args.seed, env, ref, tally)
        units = dict(per_layer_metrics())
    else:
        setup_s = measure_setup(env)
        values, note = end_to_end(args.workload, args.seconds, args.seed, env, ref, tally)
        values["setup_s"] = setup_s
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(host_record(cpu0, _cpu_times()))
    print(f"{args.workload} seed {args.seed}: {note}")
    for line in tally.notes[:20]:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
