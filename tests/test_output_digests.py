"""The byte contract across commits: every command line of
``tools/same_outputs.py`` at seed 1, run in-process, writes the exit code,
stdout and files whose sha256 digests ``tests/output_digests.txt`` records.

The digests hold for the numpy and BLAS named in the file's header. A
change that moves bits on purpose re-records the file with
``python3 tools/same_outputs.py --record tests/output_digests.txt`` and
lists in CHANGES.md every line that moved.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from gwmc.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "output_digests.txt"


def _same_outputs(monkeypatch):
    """tools/same_outputs.py, unedited; it imports the benchmark's command lines."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    tool = _same_outputs(monkeypatch)
    on, recorded = tool.read_record(RECORD)
    moved = []
    lines = list(tool.command_lines(tool.RECORD_SEED))
    for i, argv in enumerate(lines):
        work = tmp_path / str(i)
        work.mkdir()
        monkeypatch.chdir(work)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        mine = tool.digests({"exit code": str(code).encode(), "stdout": stdout.getvalue().encode(),
                             **tool.written(work)})
        theirs = recorded.get(tool.shown(argv))
        if theirs is None:
            moved.append(f"{tool.shown(argv)}\n    not recorded")
            continue
        differ = tool.differing(mine, theirs)
        if differ:
            moved.append(f"{tool.shown(argv)}\n    in: {', '.join(differ)}")
    moved += [f"{line}\n    recorded, no longer run" for line in recorded.keys() - set(map(tool.shown, lines))]
    assert not moved, (
        f"{len(moved)} of {len(lines)} command lines moved from {RECORD.name} (recorded on {on}; "
        f"here {tool.platform()}):\n" + "\n".join(moved) +
        "\nRe-record only in a change whose CHANGES.md entry lists these lines.")
