"""The README's python examples run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_examples_run(capsys):
    assert len(BLOCKS) == 3  # quick start, the orbit scan, lifting
    namespace = {}
    printed = []
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
        printed.append(capsys.readouterr().out.splitlines())
    assert printed[0][-1] == "True"  # the quick start's isomorphism check
    assert namespace["ia"].scan.bfs_bases == 2
