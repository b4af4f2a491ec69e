"""Set-up time of one fresh process, printed in seconds.

Times ``import detctl``, parsing the workload config and constructing the
first ``Stepper`` (for a sweep, after the first ``sweep_cell_config``).

    python3 bench/setup_probe.py <checkout root> <simulate|sweep> <config.json>
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    root, command, config = Path(argv[0]), argv[1], argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import detctl
    from detctl import analysis, cli, dynamics

    if Path(detctl.__file__).resolve().parent != (root / "src" / "detctl").resolve():
        print(f"detctl imported from {detctl.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 1
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
    if command == "simulate":
        grid, p, cfg, _ = cli.parse_simulate_config(doc)
    else:
        sw = cli.parse_sweep_config(doc)
        alpha = sw["alphas"][0]
        cfg, p = analysis.sweep_cell_config(
            sw["nu"], alpha, sw["L"], sw["mu_of"](alpha), sw["N_range"][0], kind=sw["kind"],
            ic_seed=sw["ic_seed"], ic_kmax=sw["ic_kmax"], ic_amplitude=sw["ic_amplitude"],
        )
        grid = cfg.grid
    dynamics.Stepper(grid, p, cfg.dt, cfg.scheme)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
