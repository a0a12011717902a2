"""Benchmark of the lamrho library and CLI on four seeded workloads.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

runs one workload in this process against the ``src/`` of the checkout
that holds this file, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics from traced rounds. The lines before
it report the run environment, each metric with its unit and sample
count, and any wrong answer. Exit status: 0 when every answer checks,
1 when one does not, 2 when the checkout cannot be measured.

    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --steady 10 --workload all

print every end-to-end metric of every workload, and repeat each workload
over seeds 1..N to report each metric's median, quartiles and spread
against its bound. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
# No bytecode cache is written (the CLI children get PYTHONDONTWRITEBYTECODE
# too), so every import of lamrho compiles the same sources: set-up does the
# same work on the first run in a checkout as on every later one.
sys.dont_write_bytecode = True

import spans  # noqa: E402
import workloads  # noqa: E402

BUILDERS = {
    "tables": workloads.build_tables,
    "enumerate": workloads.build_enumerate,
    "decompose": workloads.build_decompose,
    "cli": workloads.build_cli,
}
DEFAULT_SEED = 1
# A run answers the whole query list at least MIN_ROUNDS times and sets up
# at least MIN_SETUPS times, whatever --seconds says.
MIN_ROUNDS = 2
MIN_SETUPS = 5
GOLDEN = HERE / "golden.json"
CHILD_TIMEOUT_S = 120


class Unmeasurable(Exception):
    """The checkout lacks what the benchmark needs; nothing is measured."""


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise Unmeasurable(f"cannot read BENCHMARK.json: {exc}") from None


def require_sources() -> None:
    if not (SRC / "lamrho" / "__init__.py").is_file():
        raise Unmeasurable(f"no lamrho package under {SRC}")


def import_lamrho():
    """Import lamrho afresh from this checkout's src/ (never an installed copy)."""
    require_sources()
    for key in [k for k in sys.modules if k == "lamrho" or k.startswith("lamrho.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lamrho = importlib.import_module("lamrho")
    importlib.import_module("lamrho.serialize")
    if Path(lamrho.__file__).resolve().parent != SRC / "lamrho":
        raise Unmeasurable(f"imported lamrho from {lamrho.__file__}, not from {SRC}")
    return lamrho


def environment(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lamrho").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class CliRunner:
    """Starts one CLI child at a time; traced children go through the launcher."""

    def __init__(self, workdir: str, tracer: spans.Tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.exit_codes: list[int] = []
        self.traced_children = 0

    def __call__(self, args):
        if self.tracer.enabled:
            self.traced_children += 1
            out = os.path.join(self.workdir, f"spans-{self.traced_children}.json")
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), out, *args]
        else:
            out = None
            cmd = [sys.executable, "-m", "lamrho.cli", *args]
        proc = subprocess.run(
            cmd, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        )
        self.exit_codes.append(proc.returncode)
        if out is not None:
            self.tracer.merge_file(out)
            os.remove(out)
        return proc.returncode, proc.stdout


def setup(workload: str, seed: int, workdir: str, tracer: spans.Tracer):
    """Import lamrho and build the seeded query list; returns (seconds, runner, queries)."""
    start = time.perf_counter()
    lamrho = import_lamrho()
    runner = CliRunner(workdir, tracer)
    rng = random.Random(f"{workload}:{seed}")
    queries = BUILDERS[workload](lamrho, rng, workloads.Workspace(workdir, runner))
    return time.perf_counter() - start, runner, queries


def digest_of(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_pass(queries, indices, tracer, traced, golden, problems):
    """Answer each query once; returns ({index: latency}, failures, digests)."""
    latencies, digests, failed = {}, {}, 0
    for i in indices:
        q = queries[i]
        # cyclic garbage left by earlier queries (enumerate_systems keeps its
        # candidate lists in a reference cycle, up to 200 MB) is collected
        # here, untimed, instead of inside whichever later query happens to
        # start a full collection
        gc.collect()
        root = tracer.open(f"query.{q.kind}") if traced else None
        tracer.enabled = traced
        start = time.perf_counter()
        try:
            result = q.run()
            latencies[i] = time.perf_counter() - start
            error = None
        except Exception as exc:  # a query that raises is a failed query
            latencies[i] = time.perf_counter() - start
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        tracer.enabled = False
        if root is not None:
            tracer.close(root)
        if error is None:
            try:
                q.check(result)
                if golden is not None:
                    digests[i] = digest_of(q.digest(result))
                    if str(i) in golden and golden[str(i)] != digests[i]:
                        error = "answer differs from the golden record of the default seed"
            except Exception as exc:  # any error while checking is a wrong answer
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            problems.append(f"query {i} ({q.kind}): {error}")
    return latencies, failed, digests


def percentile(values, p):
    """The p-th percentile (exclusive method); the only value of a 1-sample list."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def measure(args, spec) -> tuple[dict, dict, list]:
    """Run one workload; returns (result object, report notes, problems).

    A run answers the whole query list in as many rounds as fit in
    ``--seconds`` (at least ``MIN_ROUNDS``). Every round starts with a fresh
    set-up (a new import of lamrho and newly built inputs), so none can
    reuse work left by an earlier one, and then times each query once. A
    query's latency is the median of its samples, one per round: on a
    shared machine other tenants change the speed of every query by up to
    1.5x for seconds at a time, and the median of samples spread over the
    whole run follows that far less than a single sample or the best one.
    A traced run alternates untraced and traced rounds, as many pairs as
    fit (at least one), so that both see the machine in the same state.
    """
    names = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = spans.Tracer()
    golden = None
    if args.seed == DEFAULT_SEED or args.record_golden:
        golden = {} if args.record_golden else load_golden().get(args.workload, {})
    setups, problems = [], []
    failed = attempted = 0
    peak_rss = None

    def one_round(traced):
        """A fresh set-up, then one pass over the query list; returns
        (latencies, runner, queries, digests)."""
        nonlocal failed, attempted, peak_rss
        seconds, runner, queries = setup(args.workload, args.seed, str(workdir), tracer)
        if traced:
            spans.install(tracer)
            tracer.reset()
        else:
            setups.append(seconds)
        indices = [i for i, q in enumerate(queries) if q.smoke or not args.smoke]
        # each round answers the queries in its own fixed order, so that the
        # samples of the short queries are spread over the whole run instead
        # of falling in one few-second window of each round
        random.Random(f"round:{len(setups)}:{traced}").shuffle(indices)
        lat, bad, digests = run_pass(
            queries, indices, tracer, traced, None if traced else golden, problems
        )
        failed, attempted = failed + bad, attempted + len(indices)
        if peak_rss is None:
            # memory is read after the first round: later rounds reuse a heap
            # fragmented by the first, so their peak depends on the round count
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak_rss = resource.getrusage(who).ru_maxrss / 1024
        return lat, runner, queries, digests

    untraced, traced, digests = {}, {}, {}
    rounds = 0
    try:
        started = time.perf_counter()
        while True:
            last = time.perf_counter()
            lat, _, queries, found = one_round(False)
            digests.update(found)
            for i, t in lat.items():
                untraced.setdefault(i, []).append(t)
            if args.trace:
                # spans, counts and exit codes are those of the last traced round
                lat, runner, _, _ = one_round(True)
                for i, t in lat.items():
                    traced.setdefault(i, []).append(t)
            rounds += 1
            now = time.perf_counter()
            # another round only if one more, as long as the last, still fits
            enough = rounds >= (1 if args.trace else MIN_ROUNDS)
            if enough and (now - started) + (now - last) > args.seconds:
                break
        while len(setups) < MIN_SETUPS:
            setups.append(setup(args.workload, args.seed, str(workdir), tracer)[0])
        if args.record_golden:
            record_golden(args.workload, digests)
        latency = {i: statistics.median(v) for i, v in untraced.items()}
        wall = sum(latency.values())
        if args.trace:
            traced_wall = sum(statistics.median(v) for v in traced.values())
            spans_file = HERE / "out" / f"spans-{args.workload}-{args.seed}.json"
            tracer.write(str(spans_file))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    startup = [t for i, t in latency.items() if queries[i].kind == "startup"]
    if not args.trace:
        latencies = list(latency.values())
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "query_p50_ms": 1000 * statistics.median(latencies),
            "query_p90_ms": 1000 * percentile(latencies, 90),
            "peak_rss_mb": peak_rss,
        }
        per_query = f"n={len(latency)} queries, each the median of its {rounds} samples"
        notes = {
            "setup_s": f"median of {len(setups)} set-ups, one before each of {rounds} rounds",
            "wall_s": f"sum of the latencies of {per_query}",
            "query_p50_ms": per_query,
            "query_p90_ms": f"{per_query}; {len(latency) // 10} beyond",
            "peak_rss_mb": ("largest CLI child" if args.workload == "cli" else "this process")
            + ", over set-up and the first round",
        }
    else:
        values = {}
        times, calls = tracer.layer_times(), tracer.layer_calls()
        for layer in spans.LAYERS:
            values[f"{layer}.calls"] = calls[layer]
            values[f"{layer}.self_s"] = times[layer]
        for code in (0, 1, 2):
            values[f"cli.exit_{code}"] = runner.exit_codes.count(code)
        for name in names:
            values.setdefault(name, tracer.counts.get(name, 0))
        attempted_div = tracer.counts.get("semigroup.divides_attempted", 0)
        values["semigroup.divides_hit_ratio"] = (
            tracer.counts.get("semigroup.divides_present", 0) / attempted_div
            if attempted_div else 0.0
        )
        values["cli.startup_ms"] = 1000 * statistics.median(startup) if startup else 0.0
        values["trace.untraced_wall_s"] = wall
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall
        values["trace.spans"] = len(tracer.names)
        notes = {
            "semigroup.divides_hit_ratio": f"base: {attempted_div} divides calls",
            "trace.overhead_s": f"base: untraced wall {wall:.4f} s; both sums of per-query "
            f"medians over {rounds} rounds",
            "trace.spans": f"written to {spans_file.relative_to(ROOT)}",
            "cli.startup_ms": f"median of {len(startup)} `lamrho examples` calls, untraced",
        }
    missing = set(names) - set(values)
    if missing:
        raise Unmeasurable(f"no value for metrics {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {"failed_frac": (failed, attempted), "notes": notes}
    return result, report, problems


def load_golden() -> dict:
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)["workloads"]
    except FileNotFoundError:
        return {}


def record_golden(workload: str, digests: dict) -> None:
    doc = {"seed": DEFAULT_SEED, "workloads": load_golden()}
    doc["workloads"][workload] = {str(i): d for i, d in sorted(digests.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_one(args) -> int:
    spec = load_spec()
    print("env " + json.dumps(environment(args.workload, args.seed)), flush=True)
    result, report, problems = measure(args, spec)
    for line in problems[:20]:
        print("wrong answer: " + line, file=sys.stderr)
    for name, m in result["metrics"].items():
        note = report["notes"].get(name, "")
        print(f"metric {name} = {m['value']} {m['unit']}" + (f"  ({note})" if note else ""))
    failed, attempted = report["failed_frac"]
    print(f"metric failed_frac = {failed / attempted} 1  ({failed} of {attempted} queries)")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def child_result(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), lines[:-1]
    except (IndexError, ValueError):
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode} without a result:\n{proc.stderr[-3000:]}"
        ) from None


def run_all(args) -> int:
    """Every end-to-end metric of every workload, one child process each."""
    status, combined = 0, {}
    for workload in BUILDERS:
        result, lines = child_result(workload, args.seed, args.seconds, args.trace)
        combined[workload] = result
        print(f"== {workload}")
        for line in lines:
            print("   " + line)
        status = status or (0 if result["correct"] else 1)
    print(json.dumps({"seed": args.seed, "workloads": combined}))
    return status


def run_steady(args) -> int:
    """Repeat each workload over seeds 1..N; report median, quartiles, spread."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    chosen = list(BUILDERS) if args.workload == "all" else [args.workload]
    record = {"runs": args.steady, "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in chosen:
        values = {name: [] for name in bounds}
        for seed in range(1, args.steady + 1):
            result, _ = child_result(workload, seed, args.seconds, 0)
            status = status or (0 if result["correct"] else 1)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            flag = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO WIDE")
            print(f"{workload:9s} {name:13s} median {median:12.5f} "
                  f"q1 {q1:12.5f} q3 {q3:12.5f} spread {spread:.4f} bound {bounds[name]} {flag}",
                  flush=True)
        record["workloads"][workload] = rows
    if args.steady_out:
        with open(args.steady_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measure for about this long (at least two rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat over seeds 1..N and report each metric's spread")
    parser.add_argument("--steady-out", help="also write the steadiness report here")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the cheap queries (harness test)")
    parser.add_argument("--record-golden", action="store_true",
                        help=f"rewrite the golden digests of seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    try:
        require_sources()
        if args.steady:
            return run_steady(args)
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except Unmeasurable as exc:
        print(f"cannot measure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
