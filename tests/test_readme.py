"""The README's Python examples run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / 'README.md'
BLOCKS = re.findall(r'^```python\n(.*?)^```', README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize('index', range(len(BLOCKS)))
def test_readme_example_runs(index):
    code = compile(BLOCKS[index], '%s[python block %d]' % (README, index),
                   'exec')
    exec(code, {'__name__': '__readme__'})
