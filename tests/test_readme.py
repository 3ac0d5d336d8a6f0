"""The README's examples run as written: the Quick tour prints what its
comments say, the scenario file it shows exits 0, and its table of ops is
the scenario dispatch table."""

import contextlib
import io
import json
import pathlib
import re

from vfblock.scenario import CHECK_OPS, run_scenario

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang: str, after: str) -> str:
    """The first fenced `lang` block after the line `after`."""
    found = re.compile(rf"^```{lang}\n(.*?)^```", re.S | re.M).search(README, README.index(after))
    return found.group(1)


def test_quick_tour_prints_its_comments():
    code = _block("python", "## Quick tour")
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["1", "True", "{'status': 'Pass'}"]
    assert len(comments) == len(printed)
    for line, comment in zip(printed, comments):     # a comment may add ", why"
        assert comment == line or comment.startswith(line + ", ")


def test_scenario_example_exits_0():
    scenario = json.loads(_block("json", "Scenario files are JSON"))
    assert run_scenario(scenario).exit_code == 0


def _expand(key: str) -> list:
    """`a.{b,c}` -> a.b, a.c."""
    top, brace, subs = key.partition(".{")
    return [f"{top}.{sub}" for sub in subs.rstrip("}").split(",")] if brace else [key]


def test_available_ops_are_the_dispatch_table():
    # each row: the op, each argument with its kind and default, the data keys
    start = README.index("| op | arguments (kind, default) | data keys |")
    rows = README[start:README.index("\n\n", start)].splitlines()[2:]
    table = {}
    for row in rows:
        op, args, keys = (cell.strip() for cell in row.strip("|").split("|"))
        table[op.strip("`")] = ([tuple(a.split(" ", 1)) for a in args.split(", ")],
                                [k for key in re.findall(r"`([^`]+)`", keys) for k in _expand(key)])
    assert list(table) == list(CHECK_OPS)
    for op, (_, kinds, keys) in CHECK_OPS.items():
        assert table[op] == ([(f"`{a}`", kind.name) for a, kind in kinds.items()], list(keys))
