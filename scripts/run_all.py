#!/usr/bin/env python3
"""Run every sample config through the CLI and collect the reports.

Reports land in scripts/out/<config-name>.report.json; a one-line summary per
command is printed as it completes.  The program is imported from ``src/`` of
the checkout that holds this script, so it runs without installing upbkit.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))

from upbkit.cli import main  # noqa: E402


def run():
    OUT.mkdir(exist_ok=True)
    failures = 0
    for config in sorted((HERE / "configs").glob("*.json")):
        out = OUT / f"{config.stem}.report.json"
        code = main(["--config", str(config), "--out", str(out)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{config.name:32s} -> {out.name}  [{status}]")
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
