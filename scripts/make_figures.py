"""Render SVG figures for the bundled scenarios into out/figures/."""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# run from a plain checkout: import vfblock from this checkout's src/
sys.path.insert(0, str(ROOT / "src"))

from vfblock.cli import _plot_for  # noqa: E402
from vfblock.scenario import parse_scenario, run_scenario  # noqa: E402


def main() -> int:
    out_dir = ROOT / "out" / "figures"
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "plot" not in data:
            continue
        scenario = parse_scenario(data)
        report = run_scenario(scenario).to_json()
        out_path = out_dir / (path.stem + ".svg")
        _plot_for(report, scenario, str(out_path))
        print(f"wrote {out_path}")
        count += 1
    print(f"{count} figures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
