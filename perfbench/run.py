"""brandtlift benchmark: CLI job lists in a closed loop, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload paper-check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1    # every metric of every workload
    python3 perfbench/run.py --record                    # re-record output digests

Each job is one brandtlift command run in this process through
brandtlift.cli.main(argv), one after another on one thread.  A pass runs the
workload's whole job list; passes repeat while another one fits in
--seconds (at least one always runs).  Every job's output is checked on
every pass.  End-to-end metrics come from untraced passes only; their
times are scaled to the host's reference speed by a fixed probe timed
while the jobs run (hostspeed.py), because the shared host's speed
drifts.  With --trace 1 two traced passes follow: their spans give the
per-layer metrics, and their counts must agree exactly.  The last stdout
line is one JSON object; the lines before it name every metric with its
unit.  The exit code is 1 if any job failed, 2 if the repository is not
there to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
import hostspeed
import tracer as tr
from workloads import LIFT222_BOUND99, WORKLOADS, make_jobs, pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5

# Counts that must come out the same in both traced passes and in every
# traced run of the same seed and sources.
DETERMINISTIC = [
    "brandt.pair_lattices",
    "orders.neighbors",
    "orders.equivalent_ideals.calls",
    "orders.equivalent_ideals.hits",
    "qalg.certify_presentation.calls",
    "shortvec.vector_counts.vectors",
    "theta.theta_series.vectors",
]

# Counts read from ancestry: spans of the first name under one of the second.
UNDER = {
    "orders.neighbors": ("orders.minimal_vector", "orders.right_ideal_classes"),
    "brandt.pair_lattices": ("orders.multiply", "brandt.brandt_matrix"),
}
# Counts summed from span values.
VALUE_OF = {
    "orders.classes": "orders.right_ideal_classes",
    "cli.bytes_out": tr.CLI_MAIN,
}


class Failure(Exception):
    """The benchmark cannot run here: nothing to measure, no result printed."""


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh interpreters of importing brandtlift and sympy and
    making the job list; the interpreter's own start is not counted.  Returns
    it as measured and at the reference speed of the probes run between the
    interpreters."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(Path(__file__).parent)!r}]\n"
        "import sympy, brandtlift, brandtlift.cli\n"
        "from workloads import make_jobs\n"
        f"make_jobs({workload!r}, {seed})\n"
        "print(time.perf_counter() - t0)\n"
    )
    samples, probes = [], [hostspeed.probe()]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise Failure(f"set-up interpreter failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
        probes.append(hostspeed.probe())
    setup = statistics.median(samples)
    return setup, hostspeed.at_reference_speed(setup, probes)


class Runner:
    """Runs job lists through brandtlift.cli.main and checks every output."""

    def __init__(self, digests: dict):
        from brandtlift import cli

        self.cli = cli
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.tracer: tr.Tracer | None = None
        self.sampler: hostspeed.Sampler | None = None

    def run_job(self, job, job_id: int) -> tuple[float, int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        t = self.tracer
        if t is not None:
            t.current_job = job_id
            sid = t.open(t.name_id(tr.CLI_MAIN))
        s = self.sampler
        busy = s.busy if s is not None else 0.0
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
        if s is not None:
            seconds -= s.busy - busy
        text = out.getvalue()
        if t is not None:
            t.close(sid, len(text.encode()))
            t.current_job = -1
        if rc is None:
            return seconds, rc, f"raised:\n{err.getvalue()}"
        return seconds, rc, text

    def run_pass(self, jobs, first_id: int = 0) -> float:
        """Runs every job once; returns the summed job time (checks excluded)."""
        wall = 0.0
        for k, job in enumerate(jobs):
            seconds, rc, text = self.run_job(job, first_id + k)
            wall += seconds
            self.attempted += 1
            problem = text if rc is None else checks.check_job(job, rc, text, ROOT, self.digests)
            if problem is not None:
                self.failed += 1
                print(f"FAILED {job.key}: {problem}", file=sys.stderr)
        return wall

    def run_for(self, jobs, seconds: float) -> list[tuple[float, float]]:
        """Untraced passes while another pass fits in `seconds`; at least one.
        Returns each pass's job time as measured and at the reference speed of
        the host probes taken during the pass (their own time taken off)."""
        walls, lengths = [], []
        begin = perf_counter()
        while True:
            t0 = perf_counter()
            rounds = [hostspeed.probe(hostspeed.SAMPLE_ROUNDS)]
            with hostspeed.Sampler() as self.sampler:
                wall = self.run_pass(jobs)
            rounds += self.sampler.rounds
            self.sampler = None
            walls.append((wall, hostspeed.at_reference_speed(wall, rounds)))
            lengths.append(perf_counter() - t0)
            if perf_counter() - begin + statistics.median(lengths) > seconds:
                return walls


def layer_metrics(t: tr.Tracer, names: list[str], untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics from one traced pass's spans."""
    n = len(t.name)
    calls = defaultdict(int)
    busy = defaultdict(float)
    value = defaultdict(int)
    child = [0.0] * n
    for sid in range(n):
        dur = t.end[sid] - t.start[sid]
        nm = t.names[t.name[sid]]
        calls[nm] += 1
        busy[nm] += dur
        value[nm] += t.value[sid]
        if t.parent[sid] >= 0:
            child[t.parent[sid]] += dur
    children = defaultdict(float)
    for sid in range(n):
        children[t.names[t.name[sid]]] += child[sid]

    def under(name: str, ancestor: str) -> int:
        nid, aid = t.name_id(name), t.name_id(ancestor)
        total = 0
        for sid in range(n):
            if t.name[sid] != nid:
                continue
            p = t.parent[sid]
            while p >= 0 and t.name[p] != aid:
                p = t.parent[p]
            total += p >= 0
        return total

    out = {}
    for metric in names:
        if metric == "trace.overhead":
            out[metric] = traced_wall / untraced_wall
        elif metric in UNDER:
            out[metric] = under(*UNDER[metric])
        elif metric in VALUE_OF:
            out[metric] = value[VALUE_OF[metric]]
        else:
            span, stat = metric.rsplit(".", 1)
            if stat == "self_s":
                out[metric] = busy[span] - children[span]
            elif stat == "s":
                out[metric] = busy[span]
            elif stat == "calls":
                out[metric] = calls[span]
            elif stat in ("hits", "vectors"):
                out[metric] = value[span]
            else:
                raise ValueError(f"no rule for per-layer metric {metric!r}")
    return out


def sources_digest(jobs) -> str:
    """Digest of the brandtlift sources and the job list, which fix the counts."""
    h = hashlib.sha256()
    h.update("\n".join(job.key for job in jobs).encode() + b"\0")
    for path in sorted((SRC / "brandtlift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(workload: str, seed: int, jobs, passes: list[dict]) -> list[str]:
    """Counts must agree between the two traced passes and with the last traced
    run of the same seed on the same sources, when one left its counts here."""
    counts = [{k: p[k] for k in DETERMINISTIC} for p in passes]
    problems = [f"{k}: {counts[0][k]} then {counts[1][k]}" for k in DETERMINISTIC if counts[0][k] != counts[1][k]]
    path = OUT_DIR / f"counts-{workload}-seed{seed}-{sources_digest(jobs)}.json"
    if path.exists():
        before = json.loads(path.read_text())
        problems += [f"{k}: {before[k]} in an earlier run, {counts[0][k]} now" for k in DETERMINISTIC if before[k] != counts[0][k]]
    else:
        path.write_text(json.dumps(counts[0], indent=1, sort_keys=True) + "\n")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict, digests: dict) -> dict:
    """Untraced passes for the end-to-end metrics, then, with trace, two
    traced passes for the per-layer ones."""
    jobs = make_jobs(workload, seed)
    setup_measured, setup_s = setup_seconds(workload, seed)
    runner = Runner(digests)
    walls = runner.run_for(jobs, seconds)
    wall_measured = statistics.median(w for w, _ in walls)
    wall_s = statistics.median(w for _, w in walls)
    print(f"{workload}: {len(walls)} untraced passes; as measured, wall {wall_measured:.3f} s and "
          f"set-up {setup_measured:.3f} s; at the reference speed {wall_s:.3f} s and {setup_s:.3f} s",
          file=sys.stderr)
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    e2e = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    result = {"e2e": e2e, "layers": {}, "problems": [], "runner": runner}
    if not trace:
        return result
    names = [m["name"] for m in spec["per_layer"]]
    passes = []
    OUT_DIR.mkdir(exist_ok=True)
    for k in (1, 2):
        t = tr.Tracer()
        runner.tracer = t
        with tr.Patch(t):
            traced_wall = runner.run_pass(jobs, first_id=(k - 1) * len(jobs))
        runner.tracer = None
        passes.append(layer_metrics(t, names, wall_measured, traced_wall))
        t.write(OUT_DIR / f"spans-{workload}-seed{seed}-pass{k}.tsv.gz")
    result["problems"] = check_determinism(workload, seed, jobs, passes)
    # times: mean of the two traced passes; counts are equal in both
    result["layers"] = {
        m: (passes[0][m] + passes[1][m]) / 2 if isinstance(passes[0][m], float) else passes[0][m]
        for m in names
    }
    return result


def record(digests_path: Path) -> int:
    """Runs every job any seed can draw once and records its exit code and digest."""
    runner = Runner({})
    recorded = {}
    for workload in WORKLOADS:
        for job in pool(workload):
            if job.key in recorded:
                continue
            _, rc, text = runner.run_job(job, 0)
            if rc is None:
                print(f"{job.key}: {text}", file=sys.stderr)
                return 1
            recorded[job.key] = {"rc": rc, "sha256": checks.digest(text)}
            print(f"recorded rc={rc} {recorded[job.key]['sha256'][:12]} {job.key}")
    _, rc, text = runner.run_job(LIFT222_BOUND99, 0)
    if rc != 0:
        print(f"{LIFT222_BOUND99.key}: exit {rc}\n{text}", file=sys.stderr)
        return 1
    checks.LIFT222_BOUND99.write_text(text)
    digests_path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record output digests of every job")
    args = parser.parse_args(argv)

    if not (SRC / "brandtlift" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        raise Failure(f"no brandtlift sources under {ROOT}; run from a checkout of the repository")
    if not spec_path.is_file():
        raise Failure("BENCHMARK.json is missing")
    sys.path.insert(0, str(SRC))
    if args.record:
        return record(checks.DIGESTS)
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(workloads) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    digests = checks.load_digests()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = failed = 0
    problems = []
    reported = {}
    for workload in workloads:
        res = measure(workload, args.seed, seconds, bool(args.trace), spec, digests)
        attempted += res["runner"].attempted
        failed += res["runner"].failed
        problems += [f"{workload}: {p}" for p in res["problems"]]
        for name, val in {**res["e2e"], **res["layers"]}.items():
            print(f"{workload:12s} {name:48s} {val:>16.6f} {units[name]}" if isinstance(val, float)
                  else f"{workload:12s} {name:48s} {val:>16d} {units[name]}")
        shown = res["layers"] if args.trace else res["e2e"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        reported.update({prefix + k: {"value": v, "unit": units[k]} for k, v in shown.items()})
    for p in problems:
        print(f"NOT DETERMINISTIC {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
