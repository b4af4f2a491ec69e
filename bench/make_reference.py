"""Write bench/reference/<workload>.csv: each workload's output table at the
preset's own initial-condition seed, from the source in ``src``.

    python3 bench/make_reference.py

The references pin "same behaviour" for later changes; regenerate them only
in a change that means to alter results, and say so in CHANGES.md.
"""

import contextlib
import io
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    detctl = run.load_detctl()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        doc = wl.config(run.ROOT, wl.preset_seed(run.ROOT))
        out = run.RUNS_DIR / "reference" / wl.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = out / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = detctl.cli.main([wl.command, str(config), "--out-dir", str(out)])
        problems = workloads.check_outputs(wl, out, rc, doc, None)
        if problems:
            print(f"{wl.name}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        shutil.copyfile(workloads.output_table(wl, out), wl.reference_path())
        print(f"wrote {wl.reference_path().relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
