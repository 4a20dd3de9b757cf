#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sepsets CLI.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload big-counts --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --out result.json

A run repeats one seeded op list (see workloads.py) in rounds.  Each round
is a fresh child process that imports the package from ``src/`` and runs the
ops one after another through ``sepsets.cli.main`` (closed loop, one
client); rounds continue until ``--seconds`` have passed and at least ten
latency samples lie beyond p90.  A few extra children only import the
package, for set-up time.  After the last round every op's output is
checked (checks.py) and must be byte-identical in every round.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced rounds (tracing.py) and prints the per-layer metrics, per traced
round.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # the checks import the package

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import IDENTITIES, WORKLOADS, input_shares, make_ops, ops_digest  # noqa: E402

SETUP_SPAWNS = 8          # import-only children per run, after one warm-up
# Op times are reported at a reference machine speed: each op's wall time is
# multiplied by REF_PROBE_S over the time a fixed loop took around that op
# (child.py).  On the shared VM the benchmark was written on, machine speed
# switches by up to 1.6x every few seconds, and raw wall times spread 15-40%
# between runs; scaled, 3-13%.  Raw figures are printed and saved as well.
REF_PROBE_S = 0.001
MIN_BEYOND_P90 = 10       # latency samples a run needs above its p90
RUN_BUDGET_S = 150        # hard stop for the rounds of one run

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes


def _spawn(args: list[str], timeout: float) -> tuple[float, dict]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a round ran past {timeout:.0f} s and was stopped") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["package"] != str(Path(src, "sepsets").resolve()):
        raise BenchError(f"child imported sepsets from {report['package']}, not {src}")
    return report["ready"] - start, report


def _scaled(report: dict) -> list[float]:
    """A round's op times at the reference machine speed."""
    return [r[0] * REF_PROBE_S / r[5] for r in report["results"]]


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _beyond_p90(latencies: list[float]) -> int:
    p90 = _percentile(latencies, 0.9)
    return sum(v > p90 for v in latencies)


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    ops = make_ops(workload, seed, tiny)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops_path = workdir / "ops.json"
        ops_path.write_text(json.dumps(ops))
        out_dir = workdir / "outputs"
        out_dir.mkdir()
        _spawn(["--setup"], RUN_BUDGET_S)  # warm-up: bytecode and file cache
        setups = [_spawn(["--setup"], RUN_BUDGET_S)[0] for _ in range(SETUP_SPAWNS)]
        rounds: list[dict] = []
        begin = time.monotonic()
        while True:
            traced = trace and len(rounds) % 2 == 1
            left = RUN_BUDGET_S - (time.monotonic() - begin)
            setup, report = _spawn(
                [str(ops_path), str(out_dir) if not rounds else "-", "1" if traced else "0"],
                max(left, 1.0))
            setups.append(setup)
            report["traced"] = traced
            rounds.append(report)
            plain = [r[0] for rep in rounds if not rep["traced"] for r in rep["results"]]
            enough = trace or tiny or _beyond_p90(plain) >= MIN_BEYOND_P90
            if time.monotonic() - begin >= seconds and enough and len(rounds) >= 1 + trace:
                break
        outputs = [(out_dir / f"{i}.out").read_bytes() for i in range(len(ops))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarise(workload, seed, ops, outputs, rounds, setups, trace)


def _verdicts(ops: list[dict], first: list[list], outputs: list[bytes]) -> list[tuple]:
    """Per op: (status, reason) of the first round, status one of
    'ok', 'error' (bad exit or exception) and 'wrong' (bad output)."""
    checks.allow_long_ints()
    memo: dict = {}
    out = []
    for op, result, data in zip(ops, first, outputs):
        code = result[1]
        want = checks.expected_code(op)
        if code != want:
            out.append(("error", f"exit {code!r}, expected {want}; {result[4].strip()}"))
            continue
        reason = checks.check_output(op, data, memo)
        out.append(("wrong", reason) if reason else ("ok", None))
    return out


def _summarise(workload, seed, ops, outputs, rounds, setups, trace) -> dict:
    first = rounds[0]["results"]
    check_start = time.monotonic()
    verdicts = _verdicts(ops, first, outputs)
    check_s = time.monotonic() - check_start
    statuses = []          # (op index, status) for every sample of every round
    problems = []
    for rep in rounds:
        for i, (result, (status, reason)) in enumerate(zip(rep["results"], verdicts)):
            if status == "ok" and (result[1], result[2]) != (first[i][1], first[i][2]):
                status, reason = "wrong", "output differs from the first round" + (
                    " with tracing on" if rep["traced"] else "")
            statuses.append((i, status))
            if status != "ok" and reason not in [p[2] for p in problems if p[0] == i]:
                problems.append((i, status, reason))
    attempted = len(statuses)
    failed = sum(status != "ok" for _, status in statuses)
    correct = not any(status == "wrong" or (status == "error" and not ops[i]["edge"])
                      for i, status in statuses)

    plain = [rep for rep in rounds if not rep["traced"]]
    latencies = [t for rep in plain for t in _scaled(rep)]
    raw = [r[0] for rep in plain for r in rep["results"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * _percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * _percentile(latencies, 0.9),
        "peak_rss_mb": max(rep["rss_kb"] for rep in plain) / 1024,
    }
    unscaled = {
        "ops_per_s": len(raw) / sum(raw),
        "latency_p50_ms": 1000 * _percentile(raw, 0.5),
        "latency_p90_ms": 1000 * _percentile(raw, 0.9),
        "probe_ms": 1000 * statistics.median(r[5] for rep in plain for r in rep["results"]),
    }
    shares = input_shares(ops)
    conditions = {
        "workload": workload,
        "seed": seed,
        "ops_digest": ops_digest(ops),
        "ops_per_round": len(ops),
        "rounds": len(plain),
        "traced_rounds": len(rounds) - len(plain),
        "load": "closed loop, 1 client, in-process ops, fresh child per round",
        "git_sha": _git_sha(),
        "python": rounds[0]["python"],
        "nproc": os.cpu_count(),
        "kernel_backend": rounds[0]["backend"],
        **shares,
    }
    result = {
        "conditions": conditions,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "check_s": check_s,
        "samples": {"setup_s": len(setups), "latency": len(latencies),
                    "beyond_p90": _beyond_p90(latencies), "rss_children": len(plain)},
        "e2e": e2e,
        "unscaled": unscaled,
        "latencies": [[r[0] for r in rep["results"]] for rep in plain],
        "probes": [[r[5] for r in rep["results"]] for rep in plain],
        "problems": problems,
    }
    if trace:
        result["per_layer"] = _per_layer(rounds, shares, failed / attempted)
    return result


def _per_layer(rounds: list[dict], shares: dict, fail_ratio: float) -> dict:
    traced = [rep for rep in rounds if rep["traced"]]
    plain = [rep for rep in rounds if not rep["traced"]]
    n = len(traced)

    def wall(reps):
        return sum(t for rep in reps for t in _scaled(rep)) / len(reps)

    def total(field, keys):
        return sum(rep["trace"][field].get(k, 0) for rep in traced for k in keys) / n

    traced_wall = wall(traced)
    keys = list(traced[0]["trace"]["calls"])
    out = {}
    for layer in tracing.LAYERS:
        mine = [k for k in keys if tracing.layer_of(k) == layer]
        out[f"{layer}.calls"] = total("calls", mine)
        out[f"{layer}.self_s"] = total("self_s", mine)
        out[f"{layer}.share"] = out[f"{layer}.self_s"] / traced_wall
    kernel = [k for k in keys if k.endswith(".count_separate")]
    out["oracle.count_calls"] = total("calls", ["sepsets.oracle.count_brute"])
    out["oracle.count_self_s"] = total("self_s", ["sepsets.oracle.count_brute", *kernel])
    out["oracle.list_calls"] = total("calls", ["sepsets.oracle.list_brute"])
    out["oracle.list_self_s"] = total("self_s", ["sepsets.oracle.list_brute"])
    out["oracle.subsets_listed"] = total("yields", ["sepsets.oracle.list_brute"])
    out["oracle.cap_errors"] = sum(rep["trace"]["cap_errors"] for rep in traced) / n
    out["counting.composition_self_s"] = total("self_s", ["sepsets.counting.h_composition"])
    out["counting.closed_self_s"] = total("self_s", [
        k for k in keys if k.startswith("sepsets.counting.h_closed_")
        or k == "sepsets.counting.g_closed"])
    out["omega_phi.compositions_yielded"] = total("yields", ["sepsets.omega_phi.compositions"])
    out["omega_phi.direct_self_s"] = total("self_s", [
        "sepsets.omega_phi.omega_direct", "sepsets.omega_phi.phi_direct"])
    out["binomials.binom_gen_calls"] = total("calls", ["sepsets.binomials.binom_gen"])
    out["binomials.binom_gen_self_s"] = total("self_s", ["sepsets.binomials.binom_gen"])
    out["binomials.binom_nat_calls"] = total("calls", ["sepsets.binomials.binom_nat"])
    out["series.mul_calls"] = total("calls", ["sepsets.series.PowerSeries.__mul__"])
    recurrences = ["sepsets.audit.h_recurrence", "sepsets.audit.g_recurrence"]
    out["audit.recurrence_calls"] = total("calls", recurrences)
    out["audit.recurrence_self_s"] = total("self_s", recurrences)
    for ident in IDENTITIES:
        name = f"audit.identity.{ident}.s"
        out[name] = total("labelled", [name])
    out["cli.output_bytes"] = sum(r[3] for rep in traced for r in rep["results"]) / n
    out["trace.overhead_ratio"] = traced_wall / wall(plain)
    out.update(shares)
    out["fail_ratio"] = fail_ratio
    return out


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# reporting


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def _print_result(res: dict) -> None:
    c = res["conditions"]
    s = res["samples"]
    print(f"# conditions {json.dumps(c, sort_keys=True)}")
    print(f"{c['workload']}: seed {c['seed']}, {c['rounds']} rounds x {c['ops_per_round']} ops"
          f" (+{c['traced_rounds']} traced), backend {c['kernel_backend']}, {c['load']}")
    e, u = res["e2e"], res["unscaled"]
    print(f"  op times at the reference speed (fixed loop = {1000 * REF_PROBE_S:g} ms);"
          f" the loop took {u['probe_ms']:.4f} ms here")
    rows = [
        ("setup_s", e["setup_s"], "s", f"median of {s['setup_s']} child starts"),
        ("ops_per_s", e["ops_per_s"], "1/s",
         f"{s['latency']} ops; unscaled {u['ops_per_s']:.4f}"),
        ("latency_p50_ms", e["latency_p50_ms"], "ms",
         f"n={s['latency']}; unscaled {u['latency_p50_ms']:.4f}"),
        ("latency_p90_ms", e["latency_p90_ms"], "ms",
         f"n={s['latency']}, {s['beyond_p90']} beyond; unscaled {u['latency_p90_ms']:.4f}"),
        ("peak_rss_mb", e["peak_rss_mb"], "MiB", f"max of {s['rss_children']} children"),
        ("fail_ratio", res["fail_ratio"], "ratio",
         f"{res['failed']}/{res['attempted']}, edge share {c['input.edge_share']:.4f}"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:>12.4f} {unit:<5} ({note})")
    for name, value in res.get("per_layer", {}).items():
        print(f"  {name:<40} {value:>14.6g} {per_layer_unit(name)}")
    for i, status, reason in res["problems"][:20]:
        print(f"  op {i} {status}: {reason}")
    print(f"  correct: {res['correct']} (checks took {res['check_s']:.1f} s)")


def _metrics(res: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + k: {"value": v, "unit": per_layer_unit(k)}
                for k, v in res["per_layer"].items()}
    return {prefix + k: {"value": v, "unit": E2E_UNITS[k]} for k, v in res["e2e"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result set to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sepsets" / "cli.py").is_file():
        print(f"error: no sepsets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for res in results:
        _print_result(res)
        prefix = f"{res['conditions']['workload']}." if len(results) > 1 else ""
        metrics.update(_metrics(res, bool(args.trace), prefix))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
