"""One version literal: pyproject.toml, turbchan.__version__ and the run
manifest agree."""

import json
import tomllib
from pathlib import Path

import turbchan
from turbchan.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_version_has_one_source(tmp_path):
    pyproject = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["version"] == turbchan.__version__
    # Run from source, with no installed metadata to read.
    assert main(["stats", str(ROOT / "scenarios" / "vacuum.cfg"),
                 "--no-cache", "--out-dir", str(tmp_path)]) == 0
    manifest, = tmp_path.glob("*_manifest.json")
    versions = json.loads(manifest.read_text(encoding="utf-8"))["versions"]
    assert versions["turbchan"] == turbchan.__version__
