"""Replay a workload's operation list against ``pmcsynth.cli.main``.

    python3 perfbench/replay.py --dir DIR --seconds S --trace 0|1

Runs in its own process, so that its peak RSS belongs to one workload.  One
client in a closed loop: each operation is one in-process ``cli.main(argv)``
call, started when the previous one has returned; ``gc.collect()`` runs
between operations, outside the timed region, so every operation starts on
a collected heap as a fresh CLI process would.

Untraced, it replays the list from the top again and again, at least once
whole, and stops before the first run of which less than half would fit
in ``--seconds``, so that the replay ends as near ``--seconds`` as it can;
the last round may stop part-way, so every operation has one sample more
or less than another.
Between operations a ``hostspeed.Gauge`` samples the host's speed all
through the run.  Traced, it makes one untraced pass and then one traced
pass, whose spans go to ``spans.jsonl``.  The result, with every operation's
latencies, exit code and output, goes to ``result.json`` in ``DIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pmcsynth import cli  # noqa: E402

import hostspeed  # noqa: E402
from layers import ROOT_SPAN, Tracer  # noqa: E402


_TIMING = re.compile(r"\b(T_G|T_mc)=\S+")


def _output_file(argv: list[str]) -> str | None:
    return argv[argv.index("-o") + 1] if "-o" in argv else None


def run_op(argv: list[str], tracer: Tracer | None) -> tuple[float, dict]:
    """One operation; returns its latency and what it printed and returned."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run(ROOT_SPAN, cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising operation is a failed one, not a failed replay
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    # the statistics row carries timings, the only output that varies between passes
    text = _TIMING.sub(r"\1=*", stdout.getvalue())
    out = {"code": code, "stdout": text, "stderr": stderr.getvalue(), "error": error}
    path = _output_file(argv)
    if path is not None and os.path.exists(path):
        out["file_sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return latency, out


def run_pass(ops: list[dict], tracer: Tracer | None) -> tuple[float, list[float], list[dict]]:
    latencies, outputs = [], []
    wall = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        latency, out = run_op(op["argv"], tracer)
        wall += latency
        latencies.append(latency)
        outputs.append(out)
    return wall, latencies, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(args.dir)
    ops = json.loads(Path("ops.json").read_text())
    samples: list[list[float]] = [[] for _ in ops]  # untraced latencies
    gauge = hostspeed.Gauge()
    runs = [0] * len(ops)
    outputs: list[dict] = []
    mismatches = [0] * len(ops)

    def record(i: int, out: dict) -> None:
        runs[i] += 1
        if len(outputs) == i:
            outputs.append(out)
        elif out != outputs[i]:
            mismatches[i] += 1

    started = time.perf_counter()
    done = 0
    while done < len(ops) or not args.trace:
        i = done % len(ops)
        # after the first pass, start a run only if half of it fits in --seconds,
        # judged by its previous run and the gauge's share after it
        expected = samples[i][-1] * (1 + hostspeed.SHARE) if samples[i] else 0.0
        if done >= len(ops) and time.perf_counter() - started + expected / 2 > args.seconds:
            break
        latency, out = run_op(ops[i]["argv"], None)
        samples[i].append(latency)
        record(i, out)
        done += 1
        gauge.after(latency)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    counts = traced_wall = None
    if args.trace:
        tracer = Tracer()
        restore = tracer.install()
        try:
            traced_wall, _, outs = run_pass(ops, tracer)
        finally:
            restore()
        for i, out in enumerate(outs):
            record(i, out)
        tracer.write_spans(Path("spans.jsonl"))
        counts = dict(tracer.counts)

    result = {
        "samples": samples,
        "reference": gauge.times,
        "traced_wall": traced_wall,
        "runs": runs,
        "outputs": outputs,
        "mismatches": mismatches,
        "peak_rss_kb": peak_rss_kb,
        "counts": counts,
    }
    Path("result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
