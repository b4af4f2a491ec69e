"""`detctl` command line: run configured simulations, controller-rank sweeps,
and verification suites, emitting reproducible CSV/JSON artifacts.

Configs are single JSON documents with sections {grid, params, control, sim,
experiment} (simulate) or {sweep, experiment} (sweep); unknown keys are
rejected with field-level paths.  Numeric output uses 17-significant-digit
formatting and LF endings so identical configs reproduce identical bytes.

Every verdict comes from :mod:`detctl.analysis` (``verdicts``, ``rank_scan``), at its tolerances.
Exit codes: 0 success, 1 scientific failure (a certified bound was violated
or the integration blew up), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__, analysis, verify
from .dynamics import (
    BlowupError,
    ClosedLoopParams,
    ICSpec,
    SimConfig,
    TrajectoryRecord,
    simulate,
)
from .fields import NEUMANN, PERIODIC, Grid1D
from .interpolants import KINDS, InterpolantSpec, check_grid

OUT_DIR_ENV = "DETCTL_OUT_DIR"
CSV_COLUMNS = ("t", "l2", "h1x", "h1", "l4p4", "gamma2", "ih_l2", "energy_residual")
SWEEP_COLUMNS = "alpha,N,mu,terminal_ratio,stabilized,minimal_N,predicted_N_ref".split(",")
CSV_BLOCK_ROWS = 1024


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


# ---------------------------------------------------------------------------
# config schema
#
# Each section is a table ``key -> (check, default)``.  A check is a function
# ``(value, path) -> value`` that raises ConfigError, a nested table, or a
# ``_Tagged`` section whose tag picks the table of its other keys.  A null
# value means the key is absent, and an absent key takes its default, which
# is checked like a given value (a None default stays None).

_REQUIRED = object()  # the default of a key that must be given
_ROOT = "config"  # the document's path; its sections are named bare


class _Tagged(NamedTuple):
    tag: str
    tables: dict


def _finite(val) -> bool:
    """A JSON number that is a finite float; booleans are not numbers."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _real(bound: str | None = None):
    """Check: a finite number, optionally "positive" or "nonnegative"."""
    def check(val, path):
        if not _finite(val):
            raise ConfigError(f"{path}: expected a number, got {val!r}")
        if bound == "positive" and val <= 0 or bound == "nonnegative" and val < 0:
            raise ConfigError(f"{path}: must be {bound}, got {val}")
        return float(val)
    return check


def _integer_from(minimum: int):
    def check(val, path):
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}: expected an integer, got {val!r}")
        if val < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {val}")
        return val
    return check


def _one_of(*choices: str):
    def check(val, path):
        if val not in choices:
            raise ConfigError(f"{path}: expected one of {' | '.join(choices)}, got {val!r}")
        return val
    return check


def _holds(ok, expected: str):
    """Check: ``ok(value)`` is true."""
    def check(val, path):
        if not ok(val):
            raise ConfigError(f"{path}: expected {expected}")
        return val
    return check


def _alphas(val, path):
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{path}: expected a nonempty list of positive numbers")
    for i, a in enumerate(val):
        if not (_finite(a) and a > 0):
            raise ConfigError(f"{path}[{i}]: expected a positive number, got {a!r}")
        if analysis.alpha_key(a) in map(analysis.alpha_key, val[:i]):  # the summary's keys
            raise ConfigError(f"{path}[{i}]: {a!r} repeats an earlier entry at %g")
    return [float(a) for a in val]


_POSITIVE = _real("positive")
_NONNEGATIVE = _real("nonnegative")
_POINTS = _holds(lambda v: isinstance(v, list) and all(map(_finite, v)), "a list of numbers")
_NAME = _holds(lambda v: isinstance(v, str) and v != "", "a nonempty string")

_IC = _Tagged("kind", {
    "single-mode": {"k": (_integer_from(0), _REQUIRED), "amplitude": (_real(), _REQUIRED)},
    "random-band": {"seed": (_integer_from(0), _REQUIRED), "kmax": (_integer_from(0), _REQUIRED),
                    "amplitude": (_POSITIVE, _REQUIRED)},
    "constant": {"value": (_real(), _REQUIRED)},
})

_SIMULATE = {
    "grid": ({"L": (_POSITIVE, _REQUIRED), "M": (_integer_from(8), _REQUIRED),
              "bc": (_one_of(NEUMANN, PERIODIC), NEUMANN)}, _REQUIRED),
    "params": ({"nu": (_POSITIVE, _REQUIRED), "alpha": (_POSITIVE, _REQUIRED),
                "mu": (_NONNEGATIVE, 0.0)}, _REQUIRED),
    "control": ({"kind": (_one_of(*KINDS), _REQUIRED), "N": (_integer_from(1), _REQUIRED),
                 "include_mean": (_holds(lambda v: isinstance(v, bool), "a boolean"), None),
                 "obs_points": (_POINTS, None), "act_points": (_POINTS, None)}, None),
    "sim": ({"dt": (_POSITIVE, _REQUIRED), "T": (_POSITIVE, _REQUIRED), "ic": (_IC, _REQUIRED),
             "record_every": (_integer_from(1), 1),
             "scheme": (_one_of("etd1", "etdrk2"), "etd1")}, _REQUIRED),
    "experiment": ({"name": (_NAME, _REQUIRED), "fit_t0": (_NONNEGATIVE, None)}, _REQUIRED),
}

_N_RANGE = _holds(lambda v: isinstance(v, list) and len(v) == 2
                  and all(isinstance(n, int) and not isinstance(n, bool) for n in v)
                  and 1 <= v[0] <= v[1], "[lo, hi] with 1 <= lo <= hi")

_SWEEP = {
    "sweep": ({
        "alphas": (_alphas, _REQUIRED), "nu": (_POSITIVE, _REQUIRED), "L": (_POSITIVE, _REQUIRED),
        "mu_rule": (_Tagged("type", {"proportional": {"factor": (_NONNEGATIVE, _REQUIRED)},
                                     "constant": {"value": (_NONNEGATIVE, _REQUIRED)}}),
                    _REQUIRED),
        "N_range": (_N_RANGE, _REQUIRED),
        "kind": (_one_of("volume", "nodal", "fourier"), "volume"),
        "ic": ({"seed": (_integer_from(0), 0), "kmax": (_integer_from(0), 2),
                "amplitude": (_POSITIVE, 1.0)}, {}),
    }, _REQUIRED),
    "experiment": ({"name": (_NAME, _REQUIRED)}, _REQUIRED),
}


def _walk(obj, path: str, table) -> dict:
    """The checked values of ``obj``'s keys under ``table``, defaults filled in."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    if isinstance(table, _Tagged):
        pick = _one_of(*table.tables)
        tag = pick(obj.get(table.tag), f"{path}.{table.tag}")
        table = {table.tag: (pick, _REQUIRED), **table.tables[tag]}
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = [key for key, (_, default) in table.items()
               if default is _REQUIRED and key not in obj]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")
    out = {}
    for key, (check, default) in table.items():
        sub = key if path == _ROOT else f"{path}.{key}"
        val = default if obj.get(key) is None else obj[key]
        if val is _REQUIRED:
            raise ConfigError(f"{sub}: missing value")
        if val is not None:
            val = _walk(val, sub, check) if isinstance(check, (dict, _Tagged)) else check(val, sub)
        out[key] = val
    return out


@contextlib.contextmanager
def _reported_at(section: str):
    """Report a ValueError (or overflow) raised while building ``section`` at its path."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"{section}: {err}") from None


def parse_simulate_config(doc: dict) -> tuple[Grid1D, ClosedLoopParams, SimConfig, dict]:
    c = _walk(doc, _ROOT, _SIMULATE)
    g, ctl, s = c["grid"], c["control"], c["sim"]
    with _reported_at("grid"):
        grid = Grid1D(g["L"], g["M"], g["bc"])
    spec = None
    if ctl is not None:
        with _reported_at("control"):
            spec = InterpolantSpec(ctl["kind"], ctl["N"], grid.L,
                                   obs_points=ctl["obs_points"], act_points=ctl["act_points"],
                                   include_mean=ctl["include_mean"])
            check_grid(spec, grid)
    with _reported_at("params"):
        params = ClosedLoopParams(L=grid.L, spec=spec, **c["params"])
    with _reported_at("sim.ic"):
        ic = ICSpec(**s["ic"])
        ic.realize(grid)  # the initial condition's grid-dependent rules
    with _reported_at("sim"):
        cfg = SimConfig(grid, s["dt"], s["T"], ic, s["record_every"], s["scheme"])
    return grid, params, cfg, c["experiment"]


def parse_sweep_config(doc: dict) -> dict:
    c = _walk(doc, _ROOT, _SWEEP)
    sw, ic, rule = c["sweep"], c["sweep"]["ic"], c["sweep"]["mu_rule"]
    mu_of = ((lambda a: rule["factor"] * a) if rule["type"] == "proportional"
             else lambda a: rule["value"])
    return {
        "name": c["experiment"]["name"], "alphas": sw["alphas"], "nu": sw["nu"], "L": sw["L"],
        "mu_of": mu_of, "N_range": tuple(sw["N_range"]), "kind": sw["kind"],
        "ic_seed": ic["seed"], "ic_kmax": ic["kmax"], "ic_amplitude": ic["amplitude"],
    }


# ---------------------------------------------------------------------------
# artifact writers

def _py(obj):
    """Plain Python for stable, strict JSON: numpy scalars and arrays become
    Python values, and a non-finite float becomes its repr ("inf", "nan")."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_py(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, columns: Sequence[str], rows) -> None:
    """``rows`` as CSV under a ``columns`` header, each value as a float: byte for
    byte what ``np.savetxt`` with ``%.17g`` writes (an integer prints as one).

    Each block of ``CSV_BLOCK_ROWS`` rows is one ``%`` operation on the
    repeated row format, which bounds the text held in memory on long runs.
    """
    data = np.asarray(rows, dtype=float)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[i: i + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path: Path, traj: TrajectoryRecord) -> None:
    """The record as CSV, one row per record under ``CSV_COLUMNS``."""
    write_csv(path, CSV_COLUMNS, np.column_stack([
        traj.times, traj.l2, traj.h1x, traj.h1, traj.l4p4, traj.gamma2, traj.ih_l2,
        traj.energy_residual]))


# ---------------------------------------------------------------------------
# summaries

def build_summary(name: str, traj: TrajectoryRecord, p: ClosedLoopParams,
                  experiment: dict, blowup: BlowupError | None = None) -> dict:
    """``summary.json``: the run's layout around :func:`analysis.verdicts`."""
    h1x = np.asarray(traj.h1x)
    return {
        "experiment": name,
        "version": __version__,
        "h1x_ratio_final": float(h1x[-1] / h1x[0]) if len(traj) >= 2 and h1x[0] > 0 else None,
        "terminal": {
            "t": float(traj.times[-1]) if len(traj) else None,
            "l2": float(traj.l2[-1]) if len(traj) else None,
            "l2_ratio": float(traj.l2[-1] / traj.l2[0]) if len(traj) and traj.l2[0] > 0 else None,
        },
        "blowup": None if blowup is None else {"time": blowup.time, "reason": blowup.reason},
        **analysis.verdicts(traj, p, experiment["fit_t0"], blowup),
    }


# ---------------------------------------------------------------------------
# commands

def _resolve_out_dir(arg: str | None) -> Path:
    out = arg or os.environ.get(OUT_DIR_ENV) or "runs"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None


def _write_manifest(out: Path, doc: dict, seed, started: str, outputs: dict, **extra) -> None:
    """``manifest.json``: the config echo, version, seed, timestamps and output names."""
    finished = datetime.now(timezone.utc).isoformat()
    write_json(out / "manifest.json", {
        "config": doc, "version": __version__, "seed": seed,
        "timestamps": {"started": started, "finished": finished}, "outputs": outputs, **extra,
    })


def cmd_simulate(config_path: str, out_dir: str | None) -> int:
    doc = _load_json(config_path)
    if isinstance(doc, dict) and "config" in doc:  # a manifest: replay its embedded config
        doc = doc["config"]
        if not isinstance(doc, dict):
            raise ConfigError("manifest.config: expected an object")
    grid, p, cfg, experiment = parse_simulate_config(doc)
    out = _resolve_out_dir(out_dir)
    started = datetime.now(timezone.utc).isoformat()

    blowup = None
    try:
        traj = simulate(cfg, p)
    except BlowupError as err:
        blowup = err
        traj = err.record

    summary = build_summary(experiment["name"], traj, p, experiment, blowup)
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_json(out / "summary.json", summary)
    _write_manifest(out, doc, cfg.ic.seed, started,
                    {"trajectory_csv": "trajectory.csv", "summary_json": "summary.json"},
                    condition_report=summary["condition_report"])

    failed = bool(summary["failed_checks"]) or blowup is not None
    print(f"[simulate] {experiment['name']}: wrote {out}/trajectory.csv, summary.json, manifest.json")
    for key, passed, detail in analysis.verdict_lines(summary):
        print(f"  {key}: {'n/a' if passed is None else 'PASS' if passed else 'FAIL'} ({detail})")
    if blowup is not None:
        print(f"  blow-up at t={blowup.time:.6g}: {blowup.reason}", file=sys.stderr)
    return 1 if failed else 0


def cmd_sweep(config_path: str, out_dir: str | None) -> int:
    doc = _load_json(config_path)
    sw = parse_sweep_config(doc)
    out = _resolve_out_dir(out_dir)
    started = datetime.now(timezone.utc).isoformat()

    lo, hi = sw["N_range"]
    mus = [sw["mu_of"](alpha) for alpha in sw["alphas"]]
    scan = analysis.rank_scan(sw["nu"], sw["alphas"], sw["L"], mus, range(lo, hi + 1),
                              kind=sw["kind"], ic_seed=sw["ic_seed"], ic_kmax=sw["ic_kmax"],
                              ic_amplitude=sw["ic_amplitude"])
    key, predicted = analysis.alpha_key, scan["predicted_N_ref"]
    minimal = {k: -1 if N is None else N for k, N in scan["minimal_N"].items()}  # -1: none
    write_csv(out / "sweep.csv", SWEEP_COLUMNS,
              [(c["alpha"], c["N"], c["mu"], c["terminal_ratio"], c["stabilized"],
                minimal[key(c["alpha"])], predicted[key(c["alpha"])]) for c in scan["cells"]])
    write_json(out / "summary.json", {"experiment": sw["name"], "version": __version__, **scan})
    _write_manifest(out, doc, sw["ic_seed"], started,
                    {"sweep_csv": "sweep.csv", "summary_json": "summary.json"})

    print(f"[sweep] {sw['name']}: wrote {out}/sweep.csv, summary.json, manifest.json")
    for k, N in scan["minimal_N"].items():
        print(f"  alpha={k}: minimal N = {N}")
    return 0


def cmd_verify(suite: str, seed: int, out_dir: str | None) -> int:
    report = verify.run_suite(suite, seed)
    out = _resolve_out_dir(out_dir)
    write_json(out / f"verify_{suite}.json", report)
    for name, prop in report["properties"].items():
        status = "PASS" if prop["passed"] else "FAIL"
        extra = "" if prop.get("asserted", True) else " (reference only)"
        print(f"  {status} {name}: worst ratio {prop['worst_ratio']:.6g}{extra}")
    print(f"[verify] suite={suite} seed={seed}: "
          f"{'all properties hold' if report['passed'] else 'FAILURES'}")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="detctl",
        description="Finite-rank feedback stabilization experiments for the "
                    "1D Chafee-Infante equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=None,
                     help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")

    ps = sub.add_parser("simulate", parents=[out], help="run one configured simulation")
    ps.add_argument("config", help="JSON config (or a manifest to replay)")

    pw = sub.add_parser("sweep", parents=[out], help="run a controller-rank sweep")
    pw.add_argument("config", help="JSON sweep config")

    pv = sub.add_parser("verify", parents=[out], help="run a verification suite")
    pv.add_argument("suite", choices=verify.SUITES)
    pv.add_argument("--seed", type=int, default=0, help="random seed, an integer >= 0")

    args = parser.parse_args(argv)
    if args.command == "verify" and args.seed < 0:
        pv.error(f"argument --seed: must be >= 0, got {args.seed}")
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out_dir)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out_dir)
        return cmd_verify(args.suite, args.seed, args.out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
