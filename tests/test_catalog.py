"""The catalog's bytes against the committed manifest ``tests/catalog.sha256``
(see ``tests/catalog_manifest.py``, which rewrites it)."""

from catalog_manifest import FORMATS, GRID_POINTS, HEADER, catalog_lines, differences, keyed, read_manifest


def test_manifest_covers_every_entry_in_both_formats_at_every_grid():
    _, lines = read_manifest()
    runs = {key[:3] for key in keyed(lines) if key[1] != "-"}
    entries = {entry for entry, *_ in runs}
    assert runs == {(e, f, str(n)) for e in entries for f in FORMATS for n in GRID_POINTS}
    listed = [key for key in keyed(lines) if key[1:] == ("-", "-", "stdout")]
    assert listed == [("list", "-", "-", "stdout")]


def test_catalog_bytes_match_the_manifest(tmp_path):
    header, lines = read_manifest()
    problems = differences(lines, catalog_lines(tmp_path))
    versions = f"manifest written with {header[-1][2:]}, running {HEADER[-1][2:]}"
    assert not problems, "\n".join([versions, *problems])
