"""The README's library example prints what its comments say."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_print_their_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert blocks
    for block in blocks:
        # each print is followed by a comment line holding what it prints
        lines = block.splitlines()
        expected = []
        for line, after in zip(lines, lines[1:] + [""]):
            if line.startswith("print("):
                assert after.startswith("# "), line
                expected.append(after[2:])
        assert expected, block
        out = io.StringIO()
        with redirect_stdout(out):
            exec(block, {})
        assert out.getvalue().splitlines() == expected
