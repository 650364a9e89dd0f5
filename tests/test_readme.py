"""The python blocks of README.md run as written, and its command lines parse.

The blocks run in order in one namespace, so a later block may use the
names an earlier one defines, as a reader following along would.  A block
indented under a list item runs with its indent stripped.
"""

import re
import shlex
import textwrap
from pathlib import Path

from ocd.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```$", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for k, (_, block) in enumerate(blocks, 1):
        exec(compile(textwrap.dedent(block), f"README.md python block {k}", "exec"), namespace)


def test_readme_command_lines_parse():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("ocd ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
