"""Rules on the library's source text: each is a pattern that must match no
line of the files it names.  Most rules read `src/pseudosum/*.py` less the
one module that owns what the rule guards.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pseudosum"


def _modules(*exempt):
    return [f for f in sorted(SRC.glob("*.py")) if f.name not in exempt]


def _library_files():
    return [f for f in sorted(SRC.rglob("*")) if f.is_file()]


RULES = {
    # a table's structure is decided in lut.py alone: no other module reads
    # or writes LutTable's memoized private state
    "table state stays in lut.py": (r"\._(structure|assoc)\b", _modules("lut.py")),
    # tables are built where they are recognized: no other module calls
    # LutTable( or defines a make_*_lut generator
    "tables are built in lut.py": (r"LutTable\(|def make_\w*_lut", _modules("lut.py")),
    # integer, index and size arguments are read by lut.py's helpers alone:
    # no other module converts an integer argument itself
    "integer arguments are read in lut.py": (r"operator\.index", _modules("lut.py")),
    # array arguments are read by lut.as_array alone: no other module
    # converts a caller's vector or table itself
    "array arguments are read in lut.py": (r"np\.(as)?array\(", _modules("lut.py")),
    # np.array(..., copy=False) copies if needed on numpy 1.x but raises on
    # numpy 2.x whenever a copy is needed, and both are supported
    "no copy=False in the library": (r"copy=False", _library_files()),
    # a message shows a value through errors.shown, which caps its text;
    # __init__.py's AttributeError follows Python's own wording
    "messages show values through shown": (r"!r\}", _modules("__init__.py")),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_source_rule(rule):
    pattern, files = RULES[rule]
    assert files
    found = re.compile(pattern)
    hits = [f"{f.relative_to(SRC)}:{i}: {line.strip()}"
            for f in files
            for i, line in enumerate(f.read_text(encoding="utf-8", errors="replace").splitlines(), 1)
            if found.search(line)]
    assert not hits, hits


def test_cli_imports_nothing_from_the_package_but_errors():
    # the CLI calls the library only as ps.<name>, so the package's _EXPORTS
    # table alone decides which modules a command loads
    lines = (SRC / "cli.py").read_text(encoding="utf-8").splitlines()
    imports = [line for line in lines if re.search(r"^\s*from (\.|pseudosum\.)\w+ import", line)]
    assert imports
    assert [line for line in imports if not re.search(r"from \.errors import", line)] == []
