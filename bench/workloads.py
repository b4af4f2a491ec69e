"""Benchmark workloads: configs generated from the shipped presets, step
counts, and the correctness gate every command run must pass.

Each workload copies one preset, keeps its ``dt`` and ``record_every``,
shortens ``T`` so one command takes about a second, and draws each command's
initial-condition seed from a fixed family: the preset's seed plus 0 to
``family - 1``.  The workload seed picks where in the family a run starts.
Whenever a command runs the preset's own seed, its output table must also
match ``bench/reference/<workload>.csv``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Certified sweep verdict of the sweep-remark21 preset: minimal rank per alpha.
SWEEP_MINIMAL_N = {"4": 1, "16": 2, "64": 3}

# Same-behaviour tolerance: max-norm error over max-norm of the reference.
REL_TOL = 1e-12

TINY_STEPS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    command: str                      # "simulate" or "sweep"
    why: str
    family: int                       # initial conditions one run cycles through
    edits: dict = field(default_factory=dict)   # dotted config path -> value

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv"

    def preset_seed(self, root: Path) -> int:
        doc = _load_preset(root, self.preset)
        return doc["sweep"]["ic"]["seed"] if self.command == "sweep" else doc["sim"]["ic"]["seed"]

    def config(self, root: Path, seed: int, tiny: bool = False) -> dict:
        """The generated config: the preset with this workload's edits and seed."""
        doc = copy.deepcopy(_load_preset(root, self.preset))
        for path, value in self.edits.items():
            _set(doc, path, value)
        if self.command == "sweep":
            doc["sweep"]["ic"]["seed"] = seed
            if tiny:
                doc["sweep"]["N_range"] = [1, 3]
        else:
            doc["sim"]["ic"]["seed"] = seed
            if tiny:
                doc["sim"]["T"] = TINY_STEPS * doc["sim"]["dt"]
        return doc


WORKLOADS = {w.name: w for w in (
    Workload(
        "thm41-steps", "thm41", "simulate",
        "stepping hot path at M=64 with a record every 50 steps: dispatch-bound "
        "transforms and the cube, almost no recording",
        12, {"sim.T": 0.8},
    ),
    Workload(
        "thm71-records", "thm71", "simulate",
        "periodic delta control with a record every step: the record path, energy "
        "residual, CSV writer and the complex control matmul dominate",
        24, {"sim.T": 0.1},
    ),
    Workload(
        "sweep-remark21", "sweep-remark21", "sweep",
        "24 short ETD1 cells at M in {64,72,80,84}, one record each: per-cell setup "
        "and sweep structure dominate, recording barely shows",
        8,
    ),
)}


def _load_preset(root: Path, preset: str) -> dict:
    with open(root / "presets" / f"{preset}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _set(doc: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


def steps_per_command(detctl, wl: Workload, doc: dict) -> int:
    """Time steps one command integrates, from the config alone."""
    cli, analysis = detctl.cli, detctl.analysis
    if wl.command == "simulate":
        _, _, cfg, _ = cli.parse_simulate_config(doc)
        return int(round(cfg.T / cfg.dt))
    sw = cli.parse_sweep_config(doc)
    lo, hi = sw["N_range"]
    total = 0
    for alpha in sw["alphas"]:
        for N in range(lo, hi + 1):
            cfg, _ = analysis.sweep_cell_config(
                sw["nu"], alpha, sw["L"], sw["mu_of"](alpha), N, kind=sw["kind"],
                ic_seed=sw["ic_seed"], ic_kmax=sw["ic_kmax"], ic_amplitude=sw["ic_amplitude"],
            )
            total += int(round(cfg.T / cfg.dt))
    return total


def output_table(wl: Workload, out_dir: Path) -> Path:
    return out_dir / ("sweep.csv" if wl.command == "sweep" else "trajectory.csv")


def check_outputs(wl: Workload, out_dir: Path, rc: int, doc: dict,
                  reference: np.ndarray | None) -> list[str]:
    """Reasons the command's outputs fail the gate; empty when they pass.

    The certified verdicts are required at every seed; the stored reference,
    when given, is compared to ``REL_TOL``.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        with open(out_dir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        table = np.loadtxt(output_table(wl, out_dir), delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as err:
        return problems + [f"unreadable outputs: {err}"]
    if wl.command == "sweep":
        if summary.get("minimal_N") != SWEEP_MINIMAL_N:
            problems.append(f"minimal_N {summary.get('minimal_N')} != {SWEEP_MINIMAL_N}")
    else:
        if summary.get("failed_checks"):
            problems.append(f"failed checks {summary['failed_checks']}")
        if summary.get("blowup") is not None:
            problems.append(f"blow-up {summary['blowup']}")
    if reference is not None:
        problems += compare_to_reference(wl, table, reference, doc)
    return problems


def compare_to_reference(wl: Workload, table: np.ndarray, ref: np.ndarray,
                         doc: dict) -> list[str]:
    if table.shape != ref.shape:
        return [f"table shape {table.shape} != reference {ref.shape}"]
    if wl.command == "sweep":
        # every cell is its own quantity: elementwise relative error
        same_inf = np.isinf(ref) & (table == ref)
        err = np.where(same_inf, 0.0, np.abs(table - ref))
        bad = ~(err <= REL_TOL * np.abs(np.where(same_inf, 0.0, ref)))
        return [f"sweep.csv differs from the reference in {int(bad.sum())} values"] if bad.any() else []
    tol = REL_TOL * np.max(np.abs(ref), axis=0)
    tol[-1] = REL_TOL * _residual_scale(ref, doc)
    bad = [i for i in range(ref.shape[1])
           if not np.max(np.abs(table[:, i] - ref[:, i])) <= tol[i]]  # NaN fails too
    return [f"trajectory.csv column {i} differs from the reference" for i in bad]


def _residual_scale(ref: np.ndarray, doc: dict) -> float:
    """Size of the terms whose cancellation the energy residual is.

    residual = |d/dt |u|^2 / 2 + nu |u_x|^2 - alpha |u|^2 + |u|_4^4 + mu <I_h u, u>|,
    where the derivative is a difference quotient over the record spacing, so
    rounding in |u|^2 is amplified by |u|^2 / spacing; the pairing is bounded
    by |I_h u| |u|.
    """
    t, l2, h1x, l4p4, ih_l2 = ref[:, 0], ref[:, 1], ref[:, 2], ref[:, 4], ref[:, 6]
    p = doc["params"]
    spacing = float(np.min(np.diff(t))) if len(t) > 1 else 1.0
    e = np.max(l2 ** 2)
    return (0.5 * e / spacing + p["nu"] * np.max(h1x ** 2) + p["alpha"] * e
            + np.max(l4p4) + p.get("mu", 0.0) * np.max(ih_l2 * l2))


def load_reference(wl: Workload) -> np.ndarray:
    return np.loadtxt(wl.reference_path(), delimiter=",", skiprows=1, ndmin=2)


def useful_cell_ratio(summary: dict) -> float:
    """Sweep cells with N <= the minimal stabilizing N, over cells run."""
    minimal = summary["minimal_N"]
    cells = summary["cells"]
    useful = sum(1 for c in cells
                 if minimal[format(c["alpha"], "g")] is None
                 or c["N"] <= minimal[format(c["alpha"], "g")])
    return useful / len(cells)

