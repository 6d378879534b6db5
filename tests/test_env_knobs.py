"""The README's table of ``REPRO_*`` environment variables is complete.

Every ``REPRO_*`` name under ``src/`` is a knob a user can set, so the
table in README.md ("Environment variables") must list exactly those
names: a knob added without a row, or a row left behind after its knob
was deleted, fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_table_lists_every_repro_variable():
    in_source = {name for path in (ROOT / "src").rglob("*.py")
                 for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Environment variables", 1)[1]
    section = section.split("\n#", 1)[0]
    in_table = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))
    assert in_table == in_source
