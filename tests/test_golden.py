"""The fixture pipeline's output bytes, pinned: see golden.py. After a
deliberate output change, run scripts/golden_digests.py and list each
changed entry in CHANGES.md."""

import json

import numpy as np
import pytest

import golden
import golden_digests

# the first path component of each entry: the fixture's inputs, one work
# dir per configuration, the resumed run and the stage subcommands
GROUPS = ("input", *golden.VARIANTS, "resume", "stages")


@pytest.fixture(scope="module")
def expected():
    return json.loads(golden.TABLE.read_text("utf-8"))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return golden.compute(tmp_path_factory.mktemp("golden"))


def test_every_entry_is_in_a_group(expected, digests):
    names = expected["digests"].keys() | digests.keys()
    assert {name.split("/")[0] for name in names} == set(GROUPS)


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_the_golden_table(expected, digests, group):
    changed = sorted(name for name in expected["digests"].keys() | digests.keys()
                     if name.split("/")[0] == group
                     and expected["digests"].get(name) != digests.get(name))
    assert not changed, (
        f"{len(changed)} outputs differ from the golden table, written under numpy "
        f"{expected['numpy']}, here numpy {np.__version__}: {', '.join(changed)}")


def test_script_rewrites_the_table_and_names_changed_entries(
        tmp_path, monkeypatch, capsys, digests):
    old = dict(digests, **{"a/run.stdout": "0" * 64, "gone/file": "1" * 64})
    del old["stages/pack.bin"]
    table = tmp_path / "tests" / "golden_digests.json"
    table.parent.mkdir()
    table.write_text(json.dumps({"numpy": "0.0", "digests": old}), encoding="utf-8")
    monkeypatch.setattr(golden, "TABLE", table)
    monkeypatch.setattr(golden, "compute", lambda root: dict(digests))
    monkeypatch.setattr(golden_digests, "ROOT", tmp_path)
    golden_digests.main()
    assert capsys.readouterr().out.splitlines() == [
        "changed: a/run.stdout", "changed: gone/file", "changed: stages/pack.bin",
        f"wrote {len(digests)} digests to tests/golden_digests.json"]
    assert table.read_text("utf-8") == golden.table(digests)
