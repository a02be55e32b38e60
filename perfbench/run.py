#!/usr/bin/env python3
"""Benchmark of the ``selfaffine`` command line, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload tile-1d --seed 1 --seconds 40 --trace 0

One client runs the workload's commands in a closed loop: each command
starts only when the previous one has ended.  ``--trace 0`` times every
command twice per pass, once as a subprocess (``python -m selfaffine``, the
user's view) and once through ``selfaffine.cli.main`` in this process (the
library user's view), and prints the end-to-end metrics.  ``--trace 1``
runs the same commands in this process with the span recorder installed
and prints the per-layer metrics.  Every output is checked against the
recorded hashes in ``reference.json`` and the workload's known answers.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
breakdown (sample counts, every layer's self time, machine info).  Pair
files, the children's stderr, spans and work counters are written under
``.perfbench_work/`` in the checkout.
``--record`` rewrites ``reference.json`` from the current program.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from counters import LevelSizes, candidate, count_pass
from spans import LAYERS, SpanRecorder, root_time, self_times
from workloads import PAIRS, WORKLOADS, renorm_within_3_stderr, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

#: Fewest passes a run makes, however short --seconds is.
MIN_PASSES = 3
#: A set-up sample is taken before every SETUP_EVERY-th command of a pass.
SETUP_EVERY = 2
#: Samples of the import time in a traced run.
IMPORT_SAMPLES = 3
#: Timed constructor calls in the canonicalization probe.
PROBE_SAMPLES = 3
#: Least share of the traced in-process time the top-level spans must cover.
MIN_COVERAGE = 0.99

median = statistics.median


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], env: dict):
    """Run ``python <args>`` in the work directory; (seconds, stdout, exit code, rusage)."""
    with open(WORK / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                stderr=err, cwd=WORK, env=env)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be cumulative
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, out, proc.returncode, usage


def run_inproc(cli, argv) -> tuple[float, bytes, int]:
    """Run ``cli.main(argv)`` with stdout captured; (seconds, stdout, exit code)."""
    buf = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    return elapsed, buf.getvalue().encode(), code


class Gate:
    """Correctness of every command run: exit code, output hash, known answer."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.seeded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.renorm_misses = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, cmd, code, out: bytes) -> None:
        self.attempted += 1
        digest = hashlib.sha256(out).hexdigest()
        expected = (self.seeded.setdefault(cmd.key, digest) if cmd.seeded
                    else self.reference.get(cmd.key))
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if digest != expected:
            problems.append(f"stdout sha256 {digest[:12]} != {str(expected)[:12]}")
        if code == 0 and cmd.answer is not None:
            try:
                cmd.answer(out.decode())
            except (AssertionError, ValueError, IndexError) as exc:
                problems.append(f"known answer missed: {exc}")
        if not problems and cmd.argv[0] == "renorm-check" and not renorm_within_3_stderr(out.decode()):
            self.renorm_misses += 1
        if problems:
            self.fail(f"{cmd.key}: {'; '.join(problems)}")


def time_version(env, gate) -> float:
    """Interpreter start plus ``import selfaffine``: ``python -m selfaffine --version``."""
    elapsed, out, code, _ = run_child(["-m", "selfaffine", "--version"], env)
    gate.attempted += 1
    if code != 0 or not out.startswith(b"selfaffine "):
        gate.fail(f"--version: exit {code}, stdout {out[:40]!r}")
    return elapsed


def time_import(env, gate) -> float:
    """``import selfaffine`` alone, timed inside a fresh interpreter."""
    code_text = ("import time; t = time.perf_counter(); import selfaffine; "
                 "print(repr(time.perf_counter() - t))")
    _, out, code, _ = run_child(["-c", code_text], env)
    gate.attempted += 1
    if code != 0:
        gate.fail(f"import selfaffine: exit {code}")
        return float("nan")
    return float(out)


def enough(passes: int, started: float, longest: float, seconds: float) -> bool:
    """Stop once MIN_PASSES are done and another pass would end more than
    half a pass after --seconds, so that a run lasts --seconds on average.

    ``started`` is the start of the run, so set-up counts against --seconds.
    """
    return passes >= MIN_PASSES and time.perf_counter() - started + longest / 2 > seconds


def end_to_end(cmds, cli, env, gate, seconds, started):
    """The untraced closed loop; returns ({name: (value, unit)}, sample counts)."""
    time_version(env, gate)  # untimed: lets the bytecode cache fill
    setup = [time_version(env, gate) for _ in range(2)]
    wall, inproc, rss = defaultdict(list), defaultdict(list), []
    longest, passes = 0.0, 0
    while not enough(passes, started, longest, seconds):
        pass_start = time.perf_counter()
        peak = 0
        for i, cmd in enumerate(cmds):
            if i % SETUP_EVERY == 0:
                setup.append(time_version(env, gate))
            elapsed, out, code, usage = run_child(["-m", "selfaffine", *cmd.argv], env)
            gate.check(cmd, code, out)
            wall[cmd.key].append(elapsed)
            peak = max(peak, usage.ru_maxrss)
            elapsed, out, code = run_inproc(cli, cmd.argv)
            gate.check(cmd, code, out)
            inproc[cmd.key].append(elapsed)
        rss.append(peak / 1024.0)  # ru_maxrss is in KiB on Linux
        passes += 1
        longest = max(longest, time.perf_counter() - pass_start)
    metrics = {
        "wall_s": (sum(median(v) for v in wall.values()), "s"),
        "inproc_s": (sum(median(v) for v in inproc.values()), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median(rss), "MiB"),
    }
    samples = {"passes": passes, "setup_s": len(setup),
               "per_command": {k: len(v) for k, v in wall.items()}}
    return metrics, samples


def canonicalize_probe(largest, rows, gate) -> float:
    """Time the public ``WeightedPointSet`` constructor on the largest pre-merge candidate.

    The candidate is the multiset ``expand_level`` merges last
    (``counters.candidate``); it must have ``rows`` rows, and the
    constructed set must equal the traced level-k result.
    """
    from selfaffine import WeightedPointSet

    pair, k, expected = largest
    points, weights = candidate(pair, k)
    times = []
    for _ in range(PROBE_SAMPLES):
        gc.collect()
        start = time.perf_counter()
        built = WeightedPointSet(points, weights)
        times.append(time.perf_counter() - start)
    gate.attempted += 1
    if len(points) != rows or built != expected:
        gate.fail("WeightedPointSet of the last candidate differs from expand_level")
    return median(times)


#: Per-layer time metrics: the span-name prefix whose self time each one sums.
LAYER_TIMES = {
    "pairs.validate_s": "pairs.",
    "expansion.expand_s": "expansion.expand_level",
    "expansion.analyze_s": "expansion.analyze_expansion",
    "beurling.upper_s": "beurling.upper_density_profile",
    "beurling.lower_s": "beurling.lower_density_profile",
    "sdensity.scan_s": "sdensity.upper_s_density_profile",
    "sdensity.sample_s": "sdensity.sample_self_similar_measure",
    "sdensity.renorm_s": "sdensity.check_renormalization",
    "attractor.raster_s": "attractor.raster_attractor",
    "attractor.render_s": "attractor.render_raster",
    "attractor.osc_s": "attractor.osc_verdict",
    "cantor.dominance_s": "cantor.translation_dominance_check",
}


def per_layer(cmds, cli, env, gate, seconds, started, name):
    """The traced run; returns (per-layer values, sample counts)."""
    import_s = median([time_import(env, gate) for _ in range(IMPORT_SAMPLES)])
    # one user-view pass first: child CPU time and output size, and a warm-up
    child_cpu = out_bytes = 0
    for cmd in cmds:
        _, out, code, usage = run_child(["-m", "selfaffine", *cmd.argv], env)
        gate.check(cmd, code, out)
        child_cpu += usage.ru_utime + usage.ru_stime
        if not cmd.seeded:  # a count, so it must not depend on the seed
            out_bytes += len(out)

    rec, sizes = SpanRecorder(), LevelSizes()
    rec.workload = name
    untraced, traced, rows, counts = [], [], defaultdict(list), []
    largest = None
    longest, passes = 0.0, 0
    while not enough(passes, started, longest, seconds):
        pass_start = time.perf_counter()
        total = 0.0
        for cmd in cmds:
            elapsed, out, code = run_inproc(cli, cmd.argv)
            gate.check(cmd, code, out)
            total += elapsed
        untraced.append(total)

        first, total = len(rec.spans), 0.0
        rec.install()
        try:
            for cmd in cmds:
                rec.command = cmd.key
                elapsed, out, code = run_inproc(cli, cmd.argv)
                gate.check(cmd, code, out)
                total += elapsed
        finally:
            rec.restore()
        traced.append(total)

        # the top-level spans (cli.main) must account for the traced time,
        # so that little of it goes unattributed to any layer
        covered = root_time(rec.spans, first)
        gate.attempted += 1
        if not MIN_COVERAGE * total <= covered <= total:
            gate.fail(f"top-level spans cover {covered / total:.2%} of the traced time")
        rows["bench.unattributed_s"].append(total - covered)
        own = self_times(rec.spans, first)
        layers = {layer: sum(v for k, v in own.items() if k.startswith(layer + "."))
                  for layer in LAYERS if layer != "cli"}
        for layer, value in layers.items():
            rows[f"layer.{layer}_s"].append(value)
        # cli self time: everything in the traced commands not covered by another layer
        rows["cli.self_s"].append(total - sum(layers.values()))
        for metric, prefix in LAYER_TIMES.items():
            rows[metric].append(sum(v for k, v in own.items() if k.startswith(prefix)))

        pass_counts, largest = count_pass(rec.calls, rec.spans, sizes)
        rec.calls.clear()
        rows["expansion.points_per_s"].append(
            pass_counts["expansion.points"] / rows["expansion.expand_s"][-1])
        counts.append(pass_counts)
        passes += 1
        longest = max(longest, time.perf_counter() - pass_start)

    gate.attempted += 1
    if any(c != counts[0] for c in counts):
        gate.fail("work counters differ between passes")
    # keyed by program and seed-free command list, so only runs of the same code are compared
    key = hashlib.sha256(json.dumps([c.key for c in workload(name, seed=0)]).encode())
    for path in sorted((SRC / "selfaffine").glob("*.py")):
        key.update(path.read_bytes())
    previous = WORK / f"counts-{name}-{key.hexdigest()[:16]}.json"
    if previous.exists() and json.loads(previous.read_text()) != counts[0]:
        gate.fail(f"work counters differ from the previous run ({previous.name})")
    previous.write_text(json.dumps(counts[0], indent=1, sort_keys=True))

    layer_values = {name: median(v) for name, v in rows.items()}
    layer_values.update(counts[0])
    layer_values.update({
        "init.import_s": import_s,
        "pointset.canonicalize_s": canonicalize_probe(largest, counts[0]["pointset.rows"], gate),
        "cli.out_bytes": out_bytes,
        "bench.trace_overhead_s": median(traced) - median(untraced),
        "bench.child_cpu_s": child_cpu,
        "traced_inproc_s": median(traced),
        "untraced_inproc_s": median(untraced),
    })
    rec.write(WORK / f"spans-{name}.jsonl")
    return layer_values, {"passes": passes, "import_samples": IMPORT_SAMPLES,
                          "canonicalize_samples": PROBE_SAMPLES}


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
    blas = {k: os.environ.get(k, "unset") for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "blas_threads": blas,
        "clients": 1,
    }


def record_reference(env) -> int:
    """Write reference.json: the stdout hash of every unseeded command."""
    reference = {}
    for name in WORKLOADS:
        for cmd in workload(name, seed=0):
            if cmd.seeded:
                continue
            _, out, code, _ = run_child(["-m", "selfaffine", *cmd.argv], env)
            if code != 0:
                print(f"{cmd.key}: exit {code}", file=sys.stderr)
                return 1
            if cmd.answer is not None:
                cmd.answer(out.decode())
            reference[cmd.key] = hashlib.sha256(out).hexdigest()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "selfaffine" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'selfaffine'} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        parser.error("--workload is required")

    (WORK / "pairs").mkdir(parents=True, exist_ok=True)
    for name, text in PAIRS.items():
        (WORK / "pairs" / name).write_text(text, encoding="utf-8")
    (WORK / "stderr.txt").write_bytes(b"")
    env = child_env()
    sys.path.insert(0, str(SRC))
    if args.record:
        return record_reference(env)

    os.chdir(WORK)  # in-process commands read the same relative pair paths
    from selfaffine import cli

    cmds = workload(args.workload, args.seed)
    gate = Gate(json.loads(REFERENCE.read_text()))
    if args.trace:
        values, samples = per_layer(cmds, cli, env, gate, args.seconds, started, args.workload)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
        detail = values
    else:
        values, samples = end_to_end(cmds, cli, env, gate, args.seconds, started)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        detail = {name: v for name, (v, _) in values.items()}
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "samples": samples,
        "values": detail,
        "renorm_within_3_stderr_misses": gate.renorm_misses,
        "errors": gate.errors,
        "machine": machine_info(args.seed),
    }
    print(json.dumps(info))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
