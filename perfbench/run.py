"""Layered benchmark of the pmc-synth CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up generates the workload's models
and operation list from the seed and writes them under ``.perfbench/NAME``;
it runs at least SETUPS times and until SETUP_MIN_S is spent, each time
into a fresh directory, and the copies must be byte-identical.  A child
process (``replay.py``) then replays the operation list against
``pmcsynth.cli.main``, from the top again and again for ``--seconds``, and
every answer is verified here afterwards (``verify.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

    wall_s       time to replay the whole list once: the sum over operations
                 of each one's mean latency over its runs
    op_p50_s     median over operations of each one's mean latency
    peak_rss_mb  peak RSS of the replaying process
    setup_s      median of the set-up times

The three times are scaled to a host of fixed speed by ``hostspeed.scale``
of the ``hostspeed.task`` times measured beside them, in the replay for the
first two and in the set-up for the last (see ``hostspeed.py``).  The
unscaled times are printed too.

With ``--trace 1`` they are the per-layer metrics of one traced pass (see
``layers.py``), and ``trace.overhead_ratio``, the traced pass's time over
the first untraced pass's.  ``failed / attempted`` is the error rate over
all runs of all operations: a run fails if it raises, returns an unexpected
exit code, prints an answer that fails verification, or prints something
else than the operation's first run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUPS = 3  # at least this many set-ups, and more until SETUP_MIN_S is spent
SETUP_MIN_S = 1.0
SETUP_MAX = 50
DEADLINE_S = 150  # the child is stopped after this many seconds of the run
P90_MIN_SAMPLES = 100  # p90 is printed only with at least 10 samples above it

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def set_up(workloads, workload: str, seed: int, work: Path, gauge) -> tuple[Path, list[float], bool]:
    """Run set-up several times, sampling the host's speed between them;
    returns the inputs, the times, and whether every copy was
    byte-identical."""
    times, digests = [], []
    k = 0
    while k < SETUPS or (sum(times) < SETUP_MIN_S and k < SETUP_MAX):
        directory = work / f"setup{k}"
        start = time.perf_counter()
        workloads.setup(workload, seed, ROOT, directory)
        times.append(time.perf_counter() - start)
        gauge.after(times[-1])
        digests.append(digest(directory))
        if k:
            shutil.rmtree(directory)
        k += 1
    return work / "setup0", times, len(set(digests)) == 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the pmc-synth CLI")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "pmcsynth" / "__init__.py").is_file():
        print(f"error: no pmcsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import layers
    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_gauge = hostspeed.Gauge()
    inputs, setup_times, deterministic = set_up(workloads, args.workload, args.seed, work, setup_gauge)
    ops = json.loads((inputs / "ops.json").read_text())

    replay = [
        sys.executable,
        str(HERE / "replay.py"),
        "--dir",
        str(inputs),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    try:
        subprocess.run(replay, check=True, timeout=DEADLINE_S - (time.perf_counter() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: replay failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((inputs / "result.json").read_text())

    with contextlib.chdir(inputs):
        failed, failures = verify.count_failures(ops, result)
    attempted = sum(result["runs"])

    samples = result["samples"]
    reference = result["reference"]
    scale = hostspeed.scale(reference)
    means = [statistics.mean(s) for s in samples]
    latencies = sorted(lat for s in samples for lat in s)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"{len(latencies)} untraced runs ({len(latencies) / len(ops):.2f} passes) "
          f"in {sum(latencies):.3f} s")
    print(f"host speed: {len(reference)} reference tasks, mean {statistics.mean(reference):.4f} s, "
          f"scale {scale:.4f}; unscaled wall {sum(means):.4f} s, op p50 {statistics.median(means):.4f} s")
    print(f"{len(setup_times)} set-ups, unscaled median {statistics.median(setup_times):.4f} s "
          f"(min {min(setup_times):.4f}, max {max(setup_times):.4f}), "
          f"identical copies: {'yes' if deterministic else 'NO'}")
    line = f"unscaled operation latency: n={len(latencies)}, p50={statistics.median(latencies):.4f} s"
    if len(latencies) >= P90_MIN_SAMPLES:
        line += f", p90={statistics.quantiles(latencies, n=10)[-1]:.4f} s"
    print(line)
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.4f}")
    for reason in failures[:10]:
        print(f"FAILED {reason}")

    if args.trace:
        first_pass = sum(s[0] for s in samples)
        spans = layers.read_spans(inputs / "spans.jsonl")
        values = layers.layer_metrics(spans, result["counts"], result["traced_wall"] / first_pass)
        shares = sorted(layers.self_time_shares(spans).items(), key=lambda kv: -kv[1])
        print("self-time shares: " + ", ".join(f"{name} {share:.3f}" for name, share in shares))
        metrics = {name: {"value": v, "unit": layers.unit(name)} for name, v in values.items()}
    else:
        values = {
            "wall_s": sum(means) * scale,
            "op_p50_s": statistics.median(means) * scale,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setup_times) * hostspeed.scale(setup_gauge.times),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    correct = failed == 0 and deterministic
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
