"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    family, rate = capsys.readouterr().out.split()[1:]
    assert family == "composite" and float(rate) > 0.0


def test_key_list_matches_schema():
    from turbchan.config import _SCHEMA
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Scenario files"):]
    section = section[:section.index("\n### ", 1)]
    listed = re.findall(r"^\| `([a-z0-9_.]+)` \|", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(_SCHEMA)


def test_exit_codes_match_cli():
    from turbchan.cli import EXIT_CODES
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Exit codes"):]
    section = section[:section.index("\n\n", section.index("|"))]
    listed = re.findall(r"^\| (\d+) \| *`?([a-z/ ]*?)`? *\|", section,
                        flags=re.MULTILINE)
    assert listed[0] == ("0", "")
    assert len(listed) == len({code for code, _ in listed})
    assert set(listed[1:]) == {(str(code), label)
                               for _, code, label in EXIT_CODES}
