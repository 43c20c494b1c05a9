"""Every ``python -m repro ...`` command the docs show parses on the real CLI.

The commands are taken from README.md, docs/*.md and the verify skill:
lines of fenced blocks, and whole inline code spans, that start with
``python -m repro`` after an optional ``$ `` or ``VAR=value`` prefix.
Each is only parsed with :func:`repro.__main__.build_parser`; nothing
runs.  A flag that the CLI drops then fails here, not in a reader's
shell.
"""

import re
import shlex
from pathlib import Path

from repro.__main__ import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    REPO_ROOT / "README.md",
    *sorted((REPO_ROOT / "docs").glob("*.md")),
    REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

_COMMAND = re.compile(r"^(?:\$ )?(?:[A-Z_]+=\S* )*python -m repro(?: (.*))?$")
_CUTS = re.compile(r" #|\||>|&&")
_SPAN = re.compile(r"`([^`]+)`")
#: Placeholders: ``<subcommand>``, ``[--jobs N]`` and ``N M L U`` capitals.
_PLACEHOLDER = re.compile(r"[<\[]|(?:^|\s)[A-Z]+(?=\s|$)")


def _fenced_and_prose(text: str) -> tuple[list[str], str]:
    """Joined lines of the fenced blocks, and the prose outside them."""
    fenced: list[str] = []
    prose: list[str] = []
    inside = False
    pending = ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
            prose.append("")
            continue
        if not inside:
            prose.append(line)
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        fenced.append(line)
    return fenced, "\n".join(prose)


def _argv(candidate: str) -> list[str] | None:
    """The CLI arguments of one documented command, or None to skip it."""
    match = _COMMAND.match(" ".join(candidate.split()))
    if match is None or not match.group(1):
        return None
    rest = _CUTS.split(match.group(1))[0].strip()
    if not rest or _PLACEHOLDER.search(rest):
        return None
    return shlex.split(rest)


def documented_commands() -> list[tuple[str, list[str]]]:
    commands = []
    for path in DOCS:
        fenced, prose = _fenced_and_prose(path.read_text())
        for candidate in fenced + _SPAN.findall(prose):
            argv = _argv(candidate)
            if argv is not None:
                commands.append((path.name, argv))
    return commands


def test_documented_commands_found():
    assert len(documented_commands()) >= 50


def test_documented_commands_parse(capsys):
    parser = build_parser()
    failures = []
    for source, argv in documented_commands():
        try:
            parser.parse_args(argv)
        except SystemExit:
            error = capsys.readouterr().err.strip().splitlines()[-1]
            failures.append(f"{source}: {shlex.join(argv)}: {error}")
    assert failures == []
