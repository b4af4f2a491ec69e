"""detctl benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload thm41-steps --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  Each
attempt is one whole ``detctl simulate`` or ``detctl sweep`` command, driven
in-process through ``detctl.cli.main`` on a config generated from a shipped
preset (see ``workloads.py``), and is checked by the correctness gate.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``steps_per_s``
over the commands run in ``--seconds``, balanced over the workload's
initial conditions, ``setup_s`` as the median of several fresh processes, and
the process's ``peak_rss_mb``; times are scaled to a reference machine speed
(see ``untraced_metrics``).
``--trace 1`` alternates untraced and traced commands and reports the
per-layer metrics from the traced ones (see ``spans.py``) with the tracing
overhead.  Nothing in detctl waits on a queue, lock or other process, so
there are no wait-time metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.fft import dct, idct

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"

SETUP_PROCESSES = 7
SPAN_BUDGET = 1_500_000     # stop tracing further commands past this many spans
ACCOUNTING_TOL = 0.01       # self times must sum to the traced wall time within 1%
CALIBRATION_ROUNDS = 80
CALIBRATION_REF_S = 0.018   # reference speed: the calibration kernel takes 18 ms
CALIBRATION_EVERY_S = 0.5   # one kernel sample per this much command time
CALIBRATION_TRIM = 0.1      # share of kernel samples cut from each end before the mean
# How much of the kernel's slowdown the workloads share: between the machine's
# fast and slow phases the kernel's time changes about 1.7x, a command's about
# 1.45x, and 1.45 = 1.7 ** 0.7.
CALIBRATION_EXPONENT = 0.7

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
    "trace.spans_per_command": "count",
    "bench.calibration_ms": "ms",
    "analysis.sweep.useful_cell_ratio": "ratio",
}


def load_detctl():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import detctl
        import detctl.cli  # noqa: F401  (imports every layer module)
    except ImportError as err:
        raise SystemExit(f"bench: cannot import detctl from {src}: {err}") from None
    if Path(detctl.__file__).resolve().parent != (src / "detctl").resolve():
        raise SystemExit(f"bench: detctl imported from {detctl.__file__}, not from {src}")
    return detctl


class Session:
    """Runs whole commands of one workload and checks each one's outputs.

    The j-th initial condition is member ``(seed + j) % family`` of the
    workload's family.  How long a command takes depends on its
    initial condition (``np.power`` is several times slower on negative
    samples), so every run cycles through the same family, and the seed only
    picks where it starts.  Command 0 is the warm-up.
    """

    def __init__(self, detctl, wl: workloads.Workload, seed: int, tiny: bool):
        self.detctl = detctl
        self.wl = wl
        self.seed = seed
        self.tiny = tiny
        self.run_dir = RUNS_DIR / wl.name
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.out_dir = self.run_dir / "out"
        self.out_dir.mkdir(parents=True)
        self.config_path = self.run_dir / "config.json"
        self.preset_seed = wl.preset_seed(ROOT)
        self.reference = None if tiny else workloads.load_reference(wl)
        self.attempted = 0
        self.failed = 0
        self.ics = 0
        self._write_config()

    def _write_config(self) -> None:
        """Config of the next initial condition, written where commands read it."""
        self.ic_seed = self.preset_seed + (self.seed + self.ics) % self.wl.family
        self.doc = self.wl.config(ROOT, self.ic_seed, self.tiny)
        self.config_path.write_text(json.dumps(self.doc, indent=2), encoding="utf-8")

    def command(self, tracer: spans.Tracer | None = None, same_ic: bool = False) -> tuple[float, int]:
        """Run a command from the next initial condition, or from the last
        one again; returns its wall time in seconds and the time steps it
        integrates."""
        if not same_ic:
            self._write_config()
            self.ics += 1
        doc = self.doc
        self.attempted += 1
        steps = workloads.steps_per_command(self.detctl, self.wl, doc)
        argv = [self.wl.command, str(self.config_path), "--out-dir", str(self.out_dir)]
        installed = tracer.installed(self.detctl) if tracer is not None else contextlib.nullcontext()
        gc.collect()  # untimed: every command starts from a collected heap, as a new process would
        try:
            with installed, contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = self.detctl.cli.main(argv)
                wall = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return float("nan"), steps
        reference = self.reference if self.ic_seed == self.preset_seed else None
        problems = workloads.check_outputs(self.wl, self.out_dir, rc, doc, reference)
        if problems:
            self.failed += 1
            print(f"bench: {self.wl.name} ic.seed {self.ic_seed} output check failed: "
                  f"{'; '.join(problems)}", file=sys.stderr)
        return wall, steps

    def setup_seconds(self) -> float:
        """One fresh process's set-up time, on the warm-up command's config."""
        probe = Path(__file__).resolve().parent / "setup_probe.py"
        out = subprocess.run(
            [sys.executable, str(probe), str(ROOT), self.wl.command, str(self.config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(out.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(np.nanmedian(np.asarray(values, dtype=float)))


def calibration_seconds() -> float:
    """Time of a fixed kernel that uses numpy and scipy the way detctl does
    (small transforms and elementwise ops from a Python loop) but no detctl
    code: the median of five chunks, times five."""
    x = np.linspace(0.0, 1.0, 128)
    chunks = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_ROUNDS):
            w = idct(dct(x, type=2), type=2)
            float(np.max(np.abs(w * w * w)))
        chunks.append(time.perf_counter() - t0)
    return 5 * statistics.median(chunks)


def calibration_scale(samples) -> float:
    """Factor that turns times measured next to these kernel samples into
    reference seconds.

    The kernel's time is bimodal (the machine has a fast and a slow phase),
    and a command spans many phases, so the level is a trimmed mean, which
    follows the share of slow samples smoothly, where a median would jump
    from one phase to the other.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    cut = int(CALIBRATION_TRIM * len(x))
    level = float(np.mean(x[cut:len(x) - cut]))
    return (CALIBRATION_REF_S / level) ** CALIBRATION_EXPONENT


def untraced_metrics(s: Session, seconds: float, setups: int) -> dict[str, float]:
    """End-to-end metrics, with times in reference seconds.

    Commands run until ``seconds`` have passed, and at least one whole cycle
    of the workload's initial-condition family.  A command's cost depends on
    its initial condition, and the costs fall into two clusters, so a median
    over commands would jump between them as the mix of members in the run
    changed.  ``wall_s`` is instead the mean over the family of each
    member's median time: the mean time of a command over the family.

    On a machine whose cores are shared with other tenants, speed drifts
    over minutes.  So the calibration kernel runs before and after every
    set-up process, and after every command once per CALIBRATION_EVERY_S of
    its time, so that its samples spread over the run like the commands do.
    Set-up and command times are scaled by ``calibration_scale`` of all the
    run's kernel samples: a slow phase of the machine slows both and mostly
    cancels, while a slower program still shows in full.
    """
    setup, calib = [], [calibration_seconds()]
    for _ in range(setups):
        setup.append(s.setup_seconds())
        calib.append(calibration_seconds())
    s.command()  # warm-up: first-call caches and lazy imports
    walls: dict[int, list[float]] = {}
    steps: dict[int, int] = {}
    stop = time.perf_counter() + seconds
    while len(walls) < s.wl.family or time.perf_counter() < stop:
        wall, steps[s.ic_seed] = s.command()
        walls.setdefault(s.ic_seed, []).append(wall)
        kernels = 1 if np.isnan(wall) else max(1, round(wall / CALIBRATION_EVERY_S))
        calib.extend(calibration_seconds() for _ in range(kernels))
    per_ic = [median(w) for w in walls.values()]
    wall_s = float(np.mean(per_ic))
    rate = sum(steps.values()) / float(np.sum(per_ic))
    scale = calibration_scale(calib)
    commands = sum(len(w) for w in walls.values())
    print(f"measured: {commands} commands over {len(walls)} initial conditions, mean command "
          f"{wall_s:.6g} s, steps_per_s {rate:.6g} 1/s, scale {scale:.4g} from "
          f"{len(calib)} kernel samples; setup_s {median(setup):.6g} s")
    return {
        "wall_s": wall_s * scale,
        "setup_s": median(setup) * scale,
        "steps_per_s": rate / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(s: Session, seconds: float) -> tuple[dict[str, float], set[str], bool]:
    tracer = spans.Tracer()
    s.command()  # warm-up
    plain, traced, calib = [], [], [calibration_seconds()]
    traced_steps = 0
    stop = time.perf_counter() + seconds
    while not traced or (time.perf_counter() < stop and len(tracer) < SPAN_BUDGET):
        plain.append(s.command()[0])
        wall, steps = s.command(tracer, same_ic=True)
        traced.append(wall)
        traced_steps += steps
        calib.append(calibration_seconds())
    metrics, absent = spans.layer_metrics(tracer, len(traced))
    self_sum_frac = tracer.root_ns() / 1e9 / sum(traced)
    accounting_ok = abs(self_sum_frac - 1.0) <= ACCOUNTING_TOL
    if not accounting_ok:
        print(f"bench: self times sum to {self_sum_frac:.4f} of the traced wall time",
              file=sys.stderr)
    if tracer.counters["steps"] != traced_steps:
        accounting_ok = False
        print(f"bench: traced commands integrated {tracer.counters['steps']} steps, "
              f"their configs ask for {traced_steps}", file=sys.stderr)
    metrics.update({
        "trace.wall_s": median(traced),
        "trace.untraced_wall_s": median(plain),
        "trace.overhead_frac": median(traced) / median(plain) - 1.0,
        "trace.self_sum_frac": self_sum_frac,
        "trace.spans_per_command": len(tracer) / len(traced),
        "bench.calibration_ms": 1e3 * median(calib),
    })
    if s.wl.command == "sweep":
        with open(s.out_dir / "summary.json", encoding="utf-8") as fh:
            metrics["analysis.sweep.useful_cell_ratio"] = workloads.useful_cell_ratio(json.load(fh))
    else:
        metrics["analysis.sweep.useful_cell_ratio"] = 0.0
        absent.add("analysis.sweep.useful_cell_ratio")
    tracer.save(s.run_dir / "spans.npz")
    return metrics, absent, accounting_ok


def machine() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="where in the initial-condition family the run starts")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-check size: 20 steps or a 9-cell sweep, one set-up process")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    detctl = load_detctl()
    wl = workloads.WORKLOADS[args.workload]
    s = Session(detctl, wl, args.seed, args.tiny)

    if args.trace:
        values, absent, correct = traced_metrics(s, args.seconds)
        units = {**spans.PER_LAYER_UNITS, **TRACE_UNITS}
        for key, val in machine().items():
            print(f"machine.{key} {val}")
    else:
        values = untraced_metrics(s, args.seconds, 1 if args.tiny else SETUP_PROCESSES)
        absent, correct = set(), True
        units = END_TO_END_UNITS
    correct = correct and s.failed == 0

    print(f"workload {wl.name} seed {args.seed} commands {s.attempted}{' (tiny)' if args.tiny else ''}")
    for name, unit in units.items():
        note = "  (not called on this workload)" if name in absent else ""
        print(f"  {name:48s} {values[name]:14.6g} {unit}{note}")
    print(f"  {'failed_frac':48s} {s.failed / s.attempted:14.6g} ratio")
    result = {
        "correct": bool(correct),
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
