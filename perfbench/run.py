"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload expander_cover --seed 7 --seconds 30 --trace 0

Run from the repository root.  Every repetition is a fresh process
(``rep.py``) with BLAS threads pinned to one before numpy loads; the
program sees only inputs derived from ``--seed``.  ``--trace 0``
reports the end-to-end metrics: ``setup_s`` is the median over several
set-up-only processes plus the repetitions, the others the median over
the repetitions that fit in ``--seconds`` (at least one).  Times are
reported at a reference host speed: each is scaled by a fixed piece of
benchmark-owned work timed beside it in the same process
(``at_reference_speed``), except the passes of ``ensemble_kernels``.
``--trace 1`` pairs an untraced repetition with a traced one and reports
the per-layer metrics of the traced run, plus the tracing overhead.

Each metric is printed by name with its unit, followed by the
environment and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (every
repetition, the environment, any check failures) is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import PINNED_THREADS, WORKLOADS  # noqa: E402

#: Set-up-only processes per ``--trace 0`` run, on top of the repetitions.
SETUP_PROBES = 2

#: A repetition still running this many seconds into the run is killed,
#: inside the run's own 180-second limit.
DEADLINE_S = 170.0

#: No repetition starts after this many seconds into the run.
LAST_START_S = 85.0

#: Seconds ``rep.reference_work`` takes on the 2-vCPU host the bounds were
#: set on.  Times are reported at that host speed (``at_reference_speed``).
REFERENCE_WORK_S = 0.2

#: Per time metric, the reference-work samples taken right before and
#: after the section it times (set-up has only the one after it).
REFERENCE_SAMPLES = {"setup_s": (0, 0), "wall_s": (0, 1), "warm_s": (1, 2)}

class RepFailed(RuntimeError):
    """A repetition process crashed or overran."""


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of a repetition's process group and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    for _ in range(200):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def repetition(args: argparse.Namespace, started: float, *flags: str) -> dict:
    """Run ``rep.py`` once in its own process group; return its result."""
    out = OUT / f"rep-{uuid.uuid4().hex}.json"
    env = {**os.environ, **PINNED_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--out", str(out),
        *flags,
    ]
    t0 = time.time()
    process = subprocess.Popen(
        [*command, "--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        raise RepFailed("repetition overran the run's time limit") from None
    finally:
        _stop_group(process)
    try:
        if code != 0:
            raise RepFailed(f"repetition exited with code {code}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def at_reference_speed(rep: dict, name: str) -> float:
    """A repetition's time ``name`` scaled to the reference host speed.

    The time is multiplied by ``REFERENCE_WORK_S`` over the mean of the
    reference work timed right before and right after the section, in the
    same process.  A host that slows every computation by a factor for a
    while (other tenants on shared cores) moves both alike, so the ratio
    keeps what the program itself changes and drops most of the host's
    drift between runs.  A pass of a workload whose passes are not scaled
    has no reference samples after it, and its time is returned as measured.
    """
    samples = REFERENCE_SAMPLES[name]
    if max(samples) >= len(rep["reference_s"]):
        return rep[name]
    before, after = (rep["reference_s"][i] for i in samples)
    return rep[name] * REFERENCE_WORK_S / ((before + after) / 2)


def load_metric_units() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def measure(
    args: argparse.Namespace, started: float
) -> tuple[dict[str, float], list[dict], list[dict]]:
    """The metrics of one run, its repetitions, and its set-up-only probe times.

    The probes and the repetitions share one window of ``--seconds``: a
    repetition (or a traced pair) starts only if one as long as the mean of
    those so far still fits, so a run ends close to ``--seconds`` after it
    starts.
    """
    reps: list[dict] = []
    durations: list[float] = []

    def typical() -> float:
        return sum(durations) / len(durations) if durations else 0.0

    def more() -> bool:
        """Start another repetition: always a first one, then while the window lasts."""
        elapsed = time.monotonic() - started
        return not reps or (elapsed + typical() <= args.seconds and elapsed < LAST_START_S)

    def timed(*flag_sets: tuple[str, ...]) -> list[dict]:
        """One repetition per flag set, back to back; their total time is one duration."""
        begun = time.monotonic()
        results = [repetition(args, started, *flags) for flags in flag_sets]
        durations.append(time.monotonic() - begun)
        return results

    if not args.trace:
        probes = [repetition(args, started, "--setup-only") for _ in range(SETUP_PROBES)]
        while more():
            reps.extend(timed(()))
        metrics = {
            name: median(at_reference_speed(rep, name) for rep in reps)
            for name in ("wall_s", "warm_s")
        }
        metrics["setup_s"] = median(at_reference_speed(rep, "setup_s") for rep in probes + reps)
        metrics["peak_rss_mb"] = median(rep["peak_rss_mb"] for rep in reps)
        return metrics, reps, probes

    overheads = []
    while more():
        plain, traced = timed((), ("--trace",))
        reps.extend([plain, traced])
        overheads.append(
            at_reference_speed(traced, "wall_s") - at_reference_speed(plain, "wall_s")
        )
    traced_reps = [rep for rep in reps if "layers" in rep]
    metrics = {
        name: median(rep["layers"][name] for rep in traced_reps)
        for name in traced_reps[0]["layers"]
    }
    metrics["trace.overhead_s"] = median(overheads)
    return metrics, reps, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "micro"),
        default="full",
        help="micro shrinks every workload to a smoke test (reference checks still apply)",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Turn SIGTERM into an exception so that the running repetition's
    # process group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    units = load_metric_units()["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    failures: list[str] = []
    try:
        metrics, reps, setup_probes = measure(args, started)
    except RepFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        failures.extend(rep["failures"])
    unlisted = sorted(set(metrics) ^ set(units))
    if unlisted:
        print(f"error: metrics and BENCHMARK.json disagree on {unlisted}", file=sys.stderr)
        return 1

    environment = reps[-1]["environment"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "environment": environment,
        "setup_probes": setup_probes,
        "repetitions": reps,
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2))

    for name in units:
        print(f"{name:<30} {metrics[name]:>16.6f} {units[name]}")
    print(
        f"{'failed_ratio':<30} {failed / attempted:>16.6f} 1"
        f"  ({failed} of {attempted} operations)"
    )
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(f"repetitions: {len(reps)}  environment: {json.dumps(environment, sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
