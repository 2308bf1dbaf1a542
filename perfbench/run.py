"""End-to-end and per-module benchmark of the `blamescope` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run writes its inputs from
--seed under perfbench/out/, then:

--trace 0  runs `python -m blamescope ...` in a fresh subprocess, one after
           another, for about --seconds, and interleaves set-up probes (a
           fresh interpreter that imports blamescope.cli, loads the input
           file through the io loader and exits). It reports the medians
           of wall_s, setup_s and peak_rss_mb.
--trace 1  runs the same command in-process through perfbench/inproc.py,
           alternating an untraced and a traced child, and reports the
           per-module metrics from the traced spans (medians over pairs).

The run and its children are pinned to one CPU, and times are reported in
reference seconds (see REFERENCE_KERNEL_S and SpeedSampler).

Every report is parsed as strict JSON and checked against the workload's
reference (perfbench/workloads.py); a failed check makes "correct" false.
The full record (environment, input hashes, every sample) goes to
perfbench/out/results/; the last line on stdout is the summary JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, strict_loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_INVOCATIONS = 3  # per --trace 0 run, whatever --seconds says
MIN_SETUPS = 5
DEADLINE_S = 160.0  # the whole run must end well inside 180 s
# End-to-end times are reported in reference seconds: raw seconds times
# REFERENCE_KERNEL_S over the median CPU time of unit_kernel sampled on the
# same CPU while the timed process ran. Shared hosts drift in speed by up
# to 1.6x within tens of seconds, and this scaling removes most of it.
REFERENCE_KERNEL_S = 0.005
SAMPLE_PERIOD_S = 0.25
SAMPLE_PAD_S = 1.0

SETUP_PROBE = (
    "import sys, blamescope.cli\n"
    "from blamescope import io\n"
    "getattr(io, sys.argv[1])(sys.argv[2])\n"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TIME_UNITS = ("s", "us", "ns")  # per-layer units scaled to reference seconds

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "io.load_scm_bundle.self_s": "s",
    "io.load_cases.self_s": "s",
    "io.load_cases.rows": "count",
    "io.canonical_dumps.self_s": "s",
    "io.canonical_dumps.bytes": "bytes",
    "hitl.run.calls": "count",
    "hitl.run.self_s": "s",
    "hitl.hitl_blame.self_s": "s",
    "hitl.cases_decided": "count",
    "hitl.useful_ratio": "ratio",
    "attribution.annotate.self_s": "s",
    "attribution.summarize.self_s": "s",
    "attribution.records": "count",
    "scm.validate.calls": "count",
    "scm.validate.self_s": "s",
    "scm.event_probability.calls": "count",
    "scm.event_probability.self_s": "s",
    "blame.expected_cost.calls": "count",
    "blame.expected_cost.self_s": "s",
    "blame.apply_action.calls": "count",
    "blame.discounted_blame.passes": "count",
    "scm.states_enumerated": "count",
    "scm.us_per_state": "us",
    "scm.abduct.self_s": "s",
    "scm.abduct.support_size": "count",
    "scm.abduct.useful_ratio": "ratio",
    "scm.intervene.calls": "count",
    "scm.event_probability_mc.self_s": "s",
    "scm.mc.samples": "count",
    "scm.mc.ns_per_sample_var": "ns",
    "trace.overhead_frac": "ratio",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(cmd, env, log: Path, deadline: Deadline):
    """Run cmd to completion; return (rc, wall seconds, peak RSS in MB).

    Wall time runs from just before the spawn to the reap; the peak RSS
    is the child's own, from os.wait4. A child still running at the
    deadline is killed, which shows as a negative rc."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def check_report(path: Path, check) -> list:
    try:
        report = strict_loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    return check(report)


# ------------------------------------------------------------- end to end


def unit_kernel() -> None:
    """A fixed piece of pure-Python work: tuple keys, dict reads and
    writes and integer arithmetic, the kind of work the package's hot
    loops do. About 5 ms of CPU. Never change it: its time defines the
    reference second the end-to-end times are reported in."""
    table = {}
    acc = 0
    for i in range(20_000):
        key = (i & 1023, i % 7)
        acc += table.get(key, 0)
        table[key] = acc & 0xFFFF


class SpeedSampler:
    """Samples this CPU's speed while the timed children run.

    A thread runs unit_kernel every SAMPLE_PERIOD_S and records its own
    CPU time for it. The benchmark and its children share one CPU, so the
    samples see the speed the child sees, at the cost of about 2% of the
    CPU."""

    def __init__(self):
        self.samples = []  # (perf_counter at start, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t = time.perf_counter()
            c0 = time.thread_time()
            unit_kernel()
            self.samples.append((t, time.thread_time() - c0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per raw second over [t0, t1], from the median
        kernel time of the samples within SAMPLE_PAD_S of the interval
        (of all samples, should none fall there)."""
        near = [c for t, c in self.samples if t0 - SAMPLE_PAD_S <= t <= t1 + SAMPLE_PAD_S]
        return REFERENCE_KERNEL_S / statistics.median(near or [c for _, c in self.samples])


def run_end_to_end(prep, work: Path, seconds: float, deadline: Deadline):
    env = child_env()
    log = work / "stderr.log"
    report = work / "report.json"
    cli = [sys.executable, "-m", "blamescope", *prep.argv, "--out", str(report)]
    probe = [sys.executable, "-c", SETUP_PROBE, prep.loader, str(prep.input_path)]

    # Untimed: compiles the package's bytecode once, as an installed
    # package would have it already.
    spawn(probe, env, log, deadline)

    spans = {"wall_s": [], "setup_s": []}  # (start, end, raw seconds)
    rss, failures, probe_errors = [], [], []
    attempted = 0

    with SpeedSampler() as sampler:

        def timed(cmd, metric):
            t0 = time.perf_counter()
            rc, wall, peak = spawn(cmd, env, log, deadline)
            spans[metric].append((t0, t0 + wall, wall))
            return rc, peak

        def probe_setup() -> bool:
            rc, _ = timed(probe, "setup_s")
            if rc != 0:
                probe_errors.append(f"setup probe exit code {rc}")
            return rc == 0

        t_start = time.perf_counter()
        while deadline.left() > 0:
            if report.exists():
                report.unlink()
            rc, peak = timed(cli, "wall_s")
            attempted += 1
            errs = [f"exit code {rc}"] if rc != 0 else check_report(report, prep.check)
            if errs:
                failures.append(errs)
            rss.append(peak)
            if not probe_setup():
                break
            elapsed = time.perf_counter() - t_start
            per_round = elapsed / attempted
            if attempted >= MIN_INVOCATIONS and elapsed + per_round > seconds:
                break
        while len(spans["setup_s"]) < MIN_SETUPS and deadline.left() > 0 and probe_setup():
            pass
        time.sleep(SAMPLE_PAD_S)

    samples = {"peak_rss_mb": rss, "setup_probe_errors": probe_errors,
               "kernel_cpu_s": [c for _, c in sampler.samples]}
    metrics = {}
    for metric, timed_spans in spans.items():
        scaled = [raw * sampler.scale(t0, t1) for t0, t1, raw in timed_spans]
        samples[metric] = scaled
        samples["raw_" + metric] = [raw for _, _, raw in timed_spans]
        if scaled:
            metrics[metric] = statistics.median(scaled)
    if rss:
        metrics["peak_rss_mb"] = statistics.median(rss)
    return metrics, attempted, failures, samples


# ------------------------------------------------------------- per layer


def layer_metrics(spans) -> dict:
    """Per-module metrics from one traced run's spans.

    Self time is a span's duration minus the durations of its direct
    children; spans are nested and single-threaded, so the children
    never overlap."""
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    calls, self_s, counters = {}, {}, {}
    for i, (name, parent, t0, t1, cnt) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
        for key, value in cnt.items():
            counters[(name, key)] = counters.get((name, key), 0) + value

    def under(i, ancestor):
        parent = spans[i][1]
        while parent is not None:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][1]
        return False

    def c(name, key):
        return counters.get((name, key), 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    passes = sum(
        1 for i, s in enumerate(spans)
        if s[0] in ("scm.event_probability", "blame.expected_cost")
        and under(i, "blame.discounted_blame")
    )
    enum_names = ("scm.event_probability", "blame.expected_cost", "scm.abduct")
    states = sum(c(n, "states") for n in enum_names)
    enum_self = sum(self_s.get(n, 0.0) for n in enum_names)
    rows = c("io.load_cases", "rows")
    decided = c("hitl.run", "cases")
    mc_work = 0
    for name, _, _, _, cnt in spans:
        if name == "scm.event_probability_mc" and "samples" in cnt:
            mc_work += cnt["samples"] * cnt["variables"]

    return {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "io.load_scm_bundle.self_s": self_s.get("io.load_scm_bundle", 0.0),
        "io.load_cases.self_s": self_s.get("io.load_cases", 0.0),
        "io.load_cases.rows": rows,
        "io.canonical_dumps.self_s": self_s.get("io.canonical_dumps", 0.0),
        "io.canonical_dumps.bytes": c("io.canonical_dumps", "bytes"),
        "hitl.run.calls": calls.get("hitl.run", 0),
        "hitl.run.self_s": self_s.get("hitl.run", 0.0),
        "hitl.hitl_blame.self_s": self_s.get("hitl.hitl_blame", 0.0),
        "hitl.cases_decided": decided,
        "hitl.useful_ratio": ratio(rows, decided),
        "attribution.annotate.self_s": self_s.get("attribution.annotate", 0.0),
        "attribution.summarize.self_s": self_s.get("attribution.summarize", 0.0),
        "attribution.records": c("attribution.annotate", "records"),
        "scm.validate.calls": calls.get("scm.validate", 0),
        "scm.validate.self_s": self_s.get("scm.validate", 0.0),
        "scm.event_probability.calls": calls.get("scm.event_probability", 0),
        "scm.event_probability.self_s": self_s.get("scm.event_probability", 0.0),
        "blame.expected_cost.calls": calls.get("blame.expected_cost", 0),
        "blame.expected_cost.self_s": self_s.get("blame.expected_cost", 0.0),
        "blame.apply_action.calls": calls.get("blame.apply_action", 0),
        "blame.discounted_blame.passes": ratio(passes, calls.get("blame.discounted_blame", 0)),
        "scm.states_enumerated": states,
        "scm.us_per_state": ratio(enum_self, states, 1e6),
        "scm.abduct.self_s": self_s.get("scm.abduct", 0.0),
        "scm.abduct.support_size": c("scm.abduct", "support"),
        "scm.abduct.useful_ratio": ratio(c("scm.abduct", "support"), c("scm.abduct", "states")),
        "scm.intervene.calls": calls.get("scm.intervene", 0),
        "scm.event_probability_mc.self_s": self_s.get("scm.event_probability_mc", 0.0),
        "scm.mc.samples": c("scm.event_probability_mc", "samples"),
        "scm.mc.ns_per_sample_var": ratio(
            self_s.get("scm.event_probability_mc", 0.0), mc_work, 1e9),
    }


def run_traced(prep, work: Path, seconds: float, deadline: Deadline):
    env = child_env()
    log = work / "stderr.log"
    report = work / "report.json"
    inproc = HERE / "inproc.py"

    runs, failures = [], []  # runs: (start, end, traced, child's record)
    attempted = 0
    with SpeedSampler() as sampler:
        t_start = time.perf_counter()
        while deadline.left() > 0:
            for traced in (False, True):
                result = work / f"inproc-{attempted}.json"
                if report.exists():
                    report.unlink()
                cmd = [sys.executable, str(inproc), "--result", str(result)]
                if traced:
                    cmd.append("--trace")
                cmd += ["--", *prep.argv, "--out", str(report)]
                t0 = time.perf_counter()
                rc, wall, _ = spawn(cmd, env, log, deadline)
                attempted += 1
                if rc != 0 or not result.exists():
                    failures.append([f"in-process runner exit code {rc}"])
                    continue
                rec = json.loads(result.read_text(encoding="utf-8"))
                errs = ([f"exit code {rec['rc']}"] if rec["rc"] != 0
                        else check_report(report, prep.check))
                if errs:
                    failures.append(errs)
                    continue
                runs.append((t0, t0 + wall, traced, rec))
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / (attempted // 2) > seconds:
                break
        time.sleep(SAMPLE_PAD_S)

    # Times in reference seconds, as for the end-to-end metrics.
    per_rep, imports, plain_s, traced_s = [], [], [], []
    for t0, t1, traced, rec in runs:
        k = sampler.scale(t0, t1)
        imports.append(rec["import_s"] * k)
        if traced:
            traced_s.append(rec["main_s"] * k)
            per_rep.append({name: value * k if PER_LAYER[name] in TIME_UNITS else value
                            for name, value in layer_metrics(rec["spans"]).items()})
        else:
            plain_s.append(rec["main_s"] * k)

    metrics = {}
    for name in per_rep[0] if per_rep else ():
        values = [r[name] for r in per_rep]
        exact = all(isinstance(v, int) for v in values)  # counts stay whole
        metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    if plain_s and traced_s:
        base = statistics.median(plain_s)
        metrics["trace.overhead_frac"] = (statistics.median(traced_s) - base) / base
    samples = {"import_s": imports, "untraced_main_s": plain_s,
               "traced_main_s": traced_s, "per_layer": per_rep,
               "kernel_cpu_s": [c for _, c in sampler.samples]}
    return metrics, attempted, failures, samples


# ------------------------------------------------------------- records


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blamescope").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs (6-bit chains, 500 cases)")
    parser.add_argument("--perturb", action="store_true",
                        help="check against a deliberately wrong reference")
    args = parser.parse_args(argv)

    if not (SRC / "blamescope" / "__init__.py").is_file():
        sys.stderr.write(f"no blamescope sources under {SRC}; run from a source checkout\n")
        return 2
    deadline = Deadline(DEADLINE_S)
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child: the two never run at
    # once, and a child that stays on one CPU times more steadily.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    tag = f"{args.workload}{'-toy' if args.toy else ''}-s{args.seed}-t{args.trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _, full, toy = WORKLOADS[args.workload]
    prep = (toy if args.toy else full)(args.seed, work, perturb=args.perturb)

    if args.trace:
        values, attempted, failures, samples = run_traced(prep, work, args.seconds, deadline)
        units = PER_LAYER
    else:
        values, attempted, failures, samples = run_end_to_end(
            prep, work, args.seconds, deadline)
        units = END_TO_END
    summary = {
        "correct": (not failures and not samples.get("setup_probe_errors")
                    and attempted > 0 and set(values) == set(units)),
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "perturb": args.perturb,
        "argv": prep.argv, "environment": environment(), "inputs": prep.inputs,
        "reference": prep.ref, "failures": failures[:20], "samples": samples,
        "summary": summary,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for errs in failures[:3]:
        print("check failed: " + "; ".join(errs)[:500])
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
