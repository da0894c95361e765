import ast
from pathlib import Path

import ehlab


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10: no module may use
    # syntax that only a later grammar accepts
    paths = sorted(Path(ehlab.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
