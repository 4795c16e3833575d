"""The README's examples run as shown: the ``## Library`` code block prints
the ranking its comment shows, and each ``rankpl run`` command under
``## Example corpus`` runs from the repository root."""

import contextlib
import io
import re
import shlex

from conftest import REPO, run_cli


def section(title: str) -> str:
    """The README text under the ``## title`` heading, up to the next one."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_prints_what_it_shows():
    [code] = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
    [shown] = re.findall(r"^# (.*)$", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines()[0] == shown


def test_example_corpus_commands_run(monkeypatch):
    blocks = re.findall(r"```sh\n(.*?)```", section("Example corpus"), re.S)
    commands = [" ".join(block.replace("\\\n", " ").split()) for block in blocks]
    assert len(commands) == 3 and all(c.startswith("rankpl run ") for c in commands)
    monkeypatch.chdir(REPO)
    for command in commands:
        code, out, err = run_cli(shlex.split(command)[1:])
        assert (code, err) == (0, ""), command
        assert out.startswith("rank 0: "), command
