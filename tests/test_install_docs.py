import re
from pathlib import Path

from privforget.cli import DEFAULTS

ROOT = Path(__file__).resolve().parents[1]


def test_ci_installs_with_the_readme_commands():
    """CI's Install step runs the README's install commands as written, so
    the documented install is the tested one."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Install\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [line.split("#")[0].strip() for line in block.splitlines()]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"- name: Install.*?\n        run: \|\n((?:          .*\n)+)", workflow)
    assert step, "no multi-line Install step in the workflow"
    assert [line.strip() for line in step.group(1).splitlines()] == commands


def test_readme_config_keys_are_the_defaults():
    """The README's "Config keys:" paragraph names exactly the keys of
    cli.DEFAULTS; the values it lists in parentheses are not keys."""
    readme = (ROOT / "README.md").read_text()
    paragraph = re.search(r"^Config keys: (.*?)\n\n", readme, re.S | re.M).group(1)
    named = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", paragraph))
    assert sorted(named) == sorted(DEFAULTS)
