"""Write schemas/scenario.schema.json from vfblock.scenario.SCENARIO_SCHEMA:
sorted keys, indent 2 and a trailing newline.  Run it after changing the
schema or `CHECK_OPS`; CI runs it and fails on any difference."""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# run from a plain checkout: import vfblock from this checkout's src/
sys.path.insert(0, str(ROOT / "src"))

from vfblock.scenario import SCENARIO_SCHEMA  # noqa: E402


def main() -> int:
    path = ROOT / "schemas" / "scenario.schema.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(SCENARIO_SCHEMA, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
