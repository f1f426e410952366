"""The README's CLI examples run as written: each `locality-lab ...` line of
the sh block under "## CLI", in order and in one working directory, exits 0.
"""

import re
import shlex
from pathlib import Path

from locality_lab.cli import main
from locality_lab.code_core import CAPS_ENV_VAR

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("locality-lab ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CAPS_ENV_VAR, raising=False)
    # `analyze from-file path=ham.txt` reads the file the first line writes
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) == 12
    for argv in examples:
        rc = main(argv)
        capsys.readouterr()
        assert rc == 0, argv
