"""The exit-code contract: enum, CLI aliases and README table agree.

``ExitCode`` is the canonical definition; the CLI's ``EXIT_*`` aliases
and the README's scripting table are derived views.  Each test pins one
view to the enum so a code added (or renumbered) in one place cannot
silently drift in the others.
"""

from __future__ import annotations

import os
import re

from repro.core.errors import ExitCode

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

#: Which exception the CLI maps to each non-zero code, by alias name.
EXPECTED_MEMBERS = {
    "OK": 0,
    "CONFIG": 2,
    "PHASE_ORDER": 3,
    "TASK_FAILURE": 4,
    "VALIDATION": 5,
    "SERVE": 6,
}


def readme_codes():
    """The codes documented in the README's exit-code table."""
    with open(README) as handle:
        text = handle.read()
    section = text.split("Exit codes are stable for scripting", 1)[1]
    codes = []
    for line in section.splitlines():
        match = re.match(r"\| `(\d+)` \| \S", line)
        if match:
            codes.append(int(match.group(1)))
        elif codes and line.strip() and not line.startswith("|"):
            break  # the table ended
    return codes


class TestExitCodeContract:
    def test_enum_members_are_exactly_the_contract(self):
        assert {
            member.name: int(member) for member in ExitCode
        } == EXPECTED_MEMBERS

    def test_cli_aliases_mirror_the_enum(self):
        from repro import cli

        for name, value in EXPECTED_MEMBERS.items():
            alias = getattr(cli, f"EXIT_{name}")
            assert alias is getattr(ExitCode, name)
            assert int(alias) == value

    def test_readme_table_lists_every_code(self):
        documented = readme_codes()
        expected = sorted(int(member) for member in ExitCode)
        assert documented == expected

    def test_contract_table_mentions_every_member(self):
        # The errors module's docstring carries the contract table; a
        # new member without a row there is as undocumented as one
        # missing from the README.
        from repro.core import errors

        table = errors.__doc__.split("Code", 1)[1]
        for member in ExitCode:
            assert re.search(
                rf"^{int(member)} ", table, re.MULTILINE
            ), member
