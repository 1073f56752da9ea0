"""The pinned-cell id grammar: one parser for the CLI and the manifest."""

import pytest

from repro.cli import main
from repro.serve.manifest import ManifestError, parse_manifest
from repro.validate import golden


def test_every_id_parses_to_its_cell_in_order():
    ids = golden.available_cell_ids()
    assert [golden.parse_cell_id(cell_id) for cell_id in ids] \
        == golden.all_cells()
    assert len(ids) == len(set(ids)) == 15


@pytest.mark.parametrize("cell_id", [
    "bogus", "insure:video", "insure:video:sunny:x", "magic:video:sunny",
    "scenario-bogus", "insure-video-sunny",
])
def test_unknown_id_lists_every_cell(cell_id):
    with pytest.raises(ValueError) as excinfo:
        golden.parse_cell_id(cell_id)
    message = str(excinfo.value)
    assert message.startswith(f"unknown cell {cell_id!r}")
    for known in golden.available_cell_ids():
        assert known in message


def test_cli_and_manifest_report_the_same_listing():
    with pytest.raises(ValueError) as parsed:
        golden.parse_cell_id("bogus")
    with pytest.raises(SystemExit) as cli:
        main(["validate", "--cell", "bogus"])
    # A string exit code is printed to stderr and exits with status 1.
    assert cli.value.code == str(parsed.value)
    with pytest.raises(ManifestError) as manifest:
        parse_manifest({"cell": "bogus"})
    assert str(manifest.value) == str(parsed.value)


def test_resolved_cells_match_the_stored_records():
    for cell_id in golden.available_cell_ids():
        cell = golden.resolve_cell(**golden.parse_cell_id(cell_id))
        config = golden.load_record(cell.name)["config"]
        assert (cell.controller, cell.workload, cell.weather, cell.seed) == (
            config["controller"], config["workload"], config["weather"],
            config["seed"])
        assert cell.scenario == config.get("scenario")
