"""The python blocks of README.md run as written.

The blocks run in order in one namespace, so a later block may use the
names an earlier one defines, as a reader following along would.  A block
indented under a list item runs with its indent stripped.
"""

import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```$", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for k, (_, block) in enumerate(blocks, 1):
        exec(compile(textwrap.dedent(block), f"README.md python block {k}", "exec"), namespace)
