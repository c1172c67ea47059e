"""dttokit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):

* ``modelspace-mix``: in-process ``cli.dispatch_minmod`` jobs over every
  symbol class with basis width W from 70 to 10k and a cluster at a
  typical W near 550, plus direct ``min_modulus_corner`` calls;
* ``galerkin``: in-process single-truncation ``galerkin_sweep`` jobs,
  n from 16 to 256, plus a cluster of sweeps at a typical n near 64;
* ``cli``: ``python -m dttokit minmod`` subprocesses over every symbol
  class at small W, and ``dttokit verify`` runs (one in four jobs).

Jobs run closed-loop from one client in whole blocks (every block has the
workload's full mix) until ``--seconds`` is spent.  Every job's answer is
checked: it must not raise or exit non-zero, its value must lie in
[0, sup |phi|], and oracle-backed jobs (shift dichotomy, divisibility,
constants) must hit their closed form.  Afterwards a negative control
re-checks the answers against oracles shifted by 1e-3, which must fail
exactly the oracle-backed jobs, and the cli workload runs
``dttokit verify --perturb-oracle 1e-3``, which must exit 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with span wrappers on every layer (see
``spans.py``) and prints the per-layer metrics and the tracing overhead.
The last stdout line is the JSON result; a fuller record, with host facts,
goes to ``perfbench/out/``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

OUT = wl.ROOT / "perfbench" / "out"
SETUP_PROBES = 9
ORACLE_SHIFT = 1e-3
_VERIFY_TALLY = re.compile(r"^(\d+)/(\d+) checks passed$")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(wl.SRC)
    env.pop("MINMOD_THREADS", None)
    return env


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile, samples): the highest percentile with >= 10 jobs beyond it."""
    xs = sorted(values)
    n = len(xs)
    idx = max(0, n - 11)
    return xs[idx], 100.0 * (n - 10) / n if n > 10 else 0.0, n


# ---------------------------------------------------------------------------
# job execution


@dataclass(slots=True)
class Outcome:
    latency: float
    value: Optional[float] = None  # None for verify jobs, which report a tally
    error: float = 0.0  # the report's certified error
    failure: Optional[str] = None
    rss_kb: int = 0  # peak RSS of a subprocess job


def _parse_cli_output(job, rc: int, out: str):
    """(value, entry_error, failure) from a cli job's exit code and stdout."""
    if rc != 0:
        return None, 0.0, f"exit code {rc}"
    if job.kind == "cli-verify":
        lines = out.strip().splitlines()
        m = _VERIFY_TALLY.match(lines[-1]) if lines else None
        if not m or m.group(1) != m.group(2) or int(m.group(2)) == 0:
            return None, 0.0, f"verify tally {lines[-1] if lines else '(empty)'!r}"
        return None, 0.0, None
    rep = json.loads(out)
    return float(rep["value"]), float(rep.get("entry_error") or 0.0), None


def run_subprocess(job) -> Outcome:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "dttokit", *job.argv],
        env=child_env(), cwd=wl.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    value, error, failure = _parse_cli_output(job, proc.returncode, out.decode())
    if failure and err:
        failure += ": " + err.decode().strip().splitlines()[-1]
    return Outcome(latency, value, error, failure, usage.ru_maxrss)


def run_inprocess(job) -> Outcome:
    from dttokit import cli, minmod

    t0 = time.perf_counter()
    if job.kind == "dispatch":
        rep = cli.dispatch_minmod(job.inner, job.symbol, wl.TOL)
        latency = time.perf_counter() - t0
        return Outcome(latency, float(rep["value"]), float(rep.get("entry_error") or 0.0))
    if job.kind == "corner":
        rep = minmod.min_modulus_corner(job.inner, job.symbol, wl.TOL)
        latency = time.perf_counter() - t0
        failure = None
        if rep.oracle_value is not None:
            # inner symbols carry the Hankel-norm cross-value; compare on
            # squares with the budget dispatch_minmod uses for its two routes
            gap = abs(rep.value**2 - rep.oracle_value**2)
            if gap > 1e-7 + rep.entry_error_bound:
                failure = f"corner value {rep.value:.12g} vs Hankel cross-value {rep.oracle_value:.12g}"
        return Outcome(latency, rep.value, rep.entry_error_bound, failure)
    if job.kind == "galerkin":
        rep = minmod.galerkin_sweep(job.inner, job.symbol, [job.n], wl.TOL)[-1]
        latency = time.perf_counter() - t0
        return Outcome(latency, rep.value, rep.entry_error_bound)
    # cli jobs in process: the same argv through cli.main, stdout captured
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(job.argv)
    latency = time.perf_counter() - t0
    value, error, failure = _parse_cli_output(job, rc, buf.getvalue())
    return Outcome(latency, value, error, failure)


def execute(job, runner) -> Outcome:
    t0 = time.perf_counter()
    try:
        res = runner(job)
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        return Outcome(time.perf_counter() - t0, failure=f"{type(exc).__name__}: {exc}")
    if res.failure is None and res.value is not None:
        res.failure = wl.check_value(job, res.value, res.error)
    return res


class Pass:
    """The jobs of one closed-loop pass and the wall time of each block."""

    def __init__(self):
        self.records = []  # (job, Outcome)
        self.block_s = []
        self.block_ok = []

    def jobs_per_s(self) -> float:
        """Completed jobs per second of the pass."""
        return sum(self.block_ok) / sum(self.block_s)


def run_pass(blocks, runner, seconds: float = math.inf, rec=None, nblocks: int = 0) -> Pass:
    """Run whole blocks until ``seconds`` is spent, or exactly ``nblocks``
    blocks if given."""
    out = Pass()
    t_start = time.perf_counter()
    while True:
        b = len(out.block_s)
        elapsed = time.perf_counter() - t_start
        if nblocks and b == nblocks:
            break
        if not nblocks and b > 0 and elapsed + 0.5 * elapsed / b >= seconds:
            break
        t_block = time.perf_counter()
        ok = 0
        for job in blocks[b % len(blocks)]:
            if rec is not None:
                rec.job = len(out.records)
            res = execute(job, runner)
            ok += res.failure is None
            out.records.append((job, res))
        out.block_s.append(time.perf_counter() - t_block)
        out.block_ok.append(ok)
    return out


def warm_up(blocks, runner):
    """One small job of each kind (in process: of each class), untimed, so
    lazy set-up is done and the file cache is warm."""
    seen = {}
    for job in blocks[0] + blocks[1]:
        key = (job.kind, job.cls if runner is run_inprocess else "")
        size = job.n or (job.inner.degree if job.inner is not None else 0)
        if key not in seen or size < seen[key][0]:
            seen[key] = (size, job)
    for _, job in seen.values():
        execute(job, runner)


# ---------------------------------------------------------------------------
# checks and metrics


def negative_control(records) -> dict:
    """Re-check every passing answer against oracles shifted by ORACLE_SHIFT."""
    backed = [(j, o) for j, o in records if o.failure is None and j.oracle is not None]
    passed = [(j, o) for j, o in records if o.failure is None and o.value is not None]
    shifted_fail = sum(
        wl.check_value(j, o.value, o.error, oracle_shift=ORACLE_SHIFT) is not None for j, o in passed
    )
    return {
        "oracle_backed": len(backed),
        "failed_when_shifted": shifted_fail,
        "failed_frac_shifted": shifted_fail / max(len(records), 1),
        "oracle_backed_share": len(backed) / max(len(records), 1),
        "ok": shifted_fail == len(backed) and len(backed) > 0,
    }


def end_to_end(run: Pass, setup_s: float, peak_rss_kb: float):
    records = run.records
    lat = [o.latency for _, o in records]
    failed = sum(o.failure is not None for _, o in records)
    tail_v, tail_pct, n = tail(lat)
    metrics = {
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_v, "s"),
        "jobs_per_s": (run.jobs_per_s(), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    extra = {
        "job_tail_percentile": tail_pct,
        "job_samples": n,
        "failed_frac": failed / max(len(records), 1),
    }
    return metrics, extra


def setup_times(workload: str, seed: int, digest: str):
    """Fresh interpreter to inputs ready, SETUP_PROBES times; also checks determinism."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(wl.ROOT / "perfbench" / "workloads.py"), "--probe", workload, str(seed)],
            env=child_env(), cwd=wl.ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.split() != ["ready", digest]:
            raise RuntimeError(f"setup probe disagreed with this run's inputs: {line!r}")
    return times


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_end_to_end(blocks, subproc: bool, seconds: float, setup):
    """Untraced run: (metrics, facts for the record, job records)."""
    runner = run_subprocess if subproc else run_inprocess
    warm_up(blocks, runner)
    run = run_pass(blocks, runner, seconds)
    if subproc:
        peak_kb = max(o.rss_kb for _, o in run.records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics, facts = end_to_end(run, statistics.median(setup), peak_kb)
    facts.update(
        block_s=run.block_s,
        job_latency_s=[[j.cls, o.latency] for j, o in run.records],
    )
    return metrics, facts, run.records


def measure_layers(blocks, subproc: bool, seconds: float, spans_path: Path):
    """Traced run: an untraced pass, then the same blocks with span wrappers.

    The cli workload first spends a third of the time on subprocess jobs,
    whose median latency against the in-process one gives the process
    overhead; the traced pass calls ``cli.main`` in process.
    """
    import hostfacts
    import spans

    sub_records = []
    share = seconds / 2.0
    if subproc:
        share = seconds / 3.0
        warm_up(blocks, run_subprocess)
        sub_records = run_pass(blocks, run_subprocess, share).records
    warm_up(blocks, run_inprocess)
    plain = run_pass(blocks, run_inprocess, share)
    rec = spans.Recorder()
    # the traced pass repeats exactly the untraced pass's blocks, so the
    # difference in throughput is the tracing overhead
    with spans.traced(rec):
        traced = run_pass(blocks, run_inprocess, rec=rec, nblocks=len(plain.block_s))
    layer, by_name = spans.layer_metrics(rec, len(traced.records))
    plain_jps, traced_jps = plain.jobs_per_s(), traced.jobs_per_s()
    layer["trace.overhead_frac"] = (plain_jps - traced_jps) / plain_jps
    layer["cli.process_overhead_s"] = (
        statistics.median(o.latency for _, o in sub_records)
        - statistics.median(o.latency for _, o in plain.records)
        if sub_records else 0.0
    )
    imports = hostfacts.import_times(child_env(), wl.ROOT)
    layer["cli.import.numpy_s"] = imports.get("numpy", 0.0)
    layer["cli.import.dttokit_s"] = imports.get("dttokit", 0.0)
    rec.dump(spans_path)
    facts = {
        "wrappers_left": spans.leftover_wrappers(),
        "import_cumulative_s": imports,
        "jobs_per_s_untraced": plain_jps,
        "jobs_per_s_traced": traced_jps,
        "spans": len(rec.spans),
        "spans_file": str(spans_path.relative_to(wl.ROOT)),
        "by_function": {n: {"calls": c, "s": t, "self_s": ts} for n, (c, t, ts) in sorted(by_name.items())},
        "block_s": plain.block_s,
        "traced_block_s": traced.block_s,
    }
    metrics = {k: (v, spans.PER_LAYER_UNITS[k]) for k, v in layer.items()}
    return metrics, facts, sub_records + plain.records + traced.records


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    import hostfacts

    hostfacts.pin_blas_threads()
    try:
        wl.ensure_src_on_path()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    host = hostfacts.host_facts(wl.ROOT)
    text = wl.build_deck(args.workload, args.seed)
    digest = wl.deck_digest(text)
    blocks = wl.parse_deck(text)
    setup = setup_times(args.workload, args.seed, digest)
    subproc = args.workload == "cli"
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "inputs_sha256": digest, "setup_probes_s": setup,
    }
    record["host_speed_before"] = hostfacts.speed_probe()
    if args.trace == 0:
        metrics, facts, records = measure_end_to_end(blocks, subproc, args.seconds, setup)
    else:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        metrics, facts, records = measure_layers(blocks, subproc, args.seconds, spans_path)
    record["host_speed_after"] = hostfacts.speed_probe()
    record.update(facts)

    failures = [f"{j.kind}/{j.cls}: {o.failure}" for j, o in records if o.failure is not None][:20]
    if facts.get("wrappers_left"):
        failures.append(f"span wrappers left installed: {facts['wrappers_left']}")
    control = negative_control(records)
    record["negative_control"] = control
    if not control["ok"]:
        failures.append(f"negative control: {control}")
    if subproc:
        proc = subprocess.run(
            [sys.executable, "-m", "dttokit", "verify", "--perturb-oracle", str(ORACLE_SHIFT)],
            env=child_env(), cwd=wl.ROOT, capture_output=True, timeout=120,
        )
        record["verify_perturbed_exit"] = proc.returncode
        if proc.returncode != 1:
            failures.append(f"verify --perturb-oracle {ORACLE_SHIFT} exited {proc.returncode}, not 1")

    failed = sum(o.failure is not None for _, o in records)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result=result, failures=failures)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed}: {len(records)} jobs, {failed} failed")
    for line in failures:
        print(f"  FAIL {line}")
    print(f"negative control: {json.dumps(control)}")
    print(f"host speed before/after (ms): {json.dumps(record['host_speed_before'])} "
          f"{json.dumps(record['host_speed_after'])}")
    if args.trace == 0:
        print(f"tail is p{facts['job_tail_percentile']:.1f} of {facts['job_samples']} jobs; "
              f"failed_frac {facts['failed_frac']:.4g}")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(f"record: {out_path.relative_to(wl.ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
