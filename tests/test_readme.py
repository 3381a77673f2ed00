"""README's examples, run as written.

Every ``distcolor`` line of the CLI block runs through ``cli.main`` in
order, in one directory, since ``verify cert.json`` reads the file that
the first line writes. A quoted output in a line's comment is its exact
stdout. The library example block is executed as is.
"""

import re
import shlex
from pathlib import Path

from distcolor.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading, language):
    # the first fenced block of the given language after the heading
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_cli_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in block("## CLI", "sh").splitlines() if line.startswith("distcolor ")]
    assert len(lines) == 13
    quoted = 0
    for line in lines:
        command, _, comment = line.partition("#")
        code = main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        expected = re.fullmatch(r'\s*"(.*)"\s*', comment)
        if expected:
            assert out == expected.group(1) + "\n", line
            quoted += 1
    assert quoted == 3
    assert (tmp_path / "cert.json").is_file()


def test_library_example():
    exec(block("## Library example", "python"), {})
