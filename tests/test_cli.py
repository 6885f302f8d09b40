from __future__ import annotations

import json
from pathlib import Path

import pytest

import arrspec
from arrspec.cli import main
from arrspec.docio import load_input, parse_input, parse_output, render, result_to_dict
from arrspec.spectrum import prepare, spectrum
from arrspec.fixtures import FIXTURE_LIMITS, resolve_fixture
from arrspec.arrangement import ValidationError
from test_cli_golden import DOCUMENTS, FIXTURES, GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_fixture_json(capsys):
    code, out, err = run(capsys, "compute", "example-a")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["degree"] == 3
    assert doc["spectrum"] == [
        {"alpha": "2/3", "k": 2, "mult": 1, "p": 0},
        {"alpha": "1", "k": 3, "mult": 2, "p": 0},
        {"alpha": "4/3", "k": 1, "mult": 1, "p": 1},
    ]
    assert doc["warnings"] == []
    assert all(c["passed"] for c in doc["checks"])


def test_compute_text_mode(capsys):
    code, out, _ = run(capsys, "compute", "example-a", "--no-json", "--no-checks")
    assert code == 0
    assert "alpha 2/3: multiplicity 1" in out
    assert "checks" not in out


def test_compute_no_checks_omits_field(capsys):
    code, out, _ = run(capsys, "compute", "example-a", "--no-checks")
    assert code == 0
    assert "checks" not in json.loads(out)


def test_compute_from_file(capsys, tmp_path):
    doc = {
        "n": 3,
        "hyperplanes": [
            {"coeffs": [1, -1, 0]},
            {"coeffs": [1, 1, 0]},
            {"coeffs": ["1", "0", "-1"], "mult": 1},
            {"coeffs": [1, 0, 1]},
        ],
    }
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "compute", str(path))
    assert code == 0
    got = json.loads(out)
    assert [e["alpha"] for e in got["spectrum"]] == ["3/4", "1", "3/2", "2", "9/4"]


def test_missing_file_is_validation_error(capsys):
    code, out, err = run(capsys, "compute", "no-such-file.json")
    assert code == 1
    assert "error:" in err


def test_malformed_json_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2,\n  "hyperplanes": [}')
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1
    assert "line 2" in err


def test_json_errors_name_the_file_and_the_reason(capsys, tmp_path):
    # an input document and a --building-set file go through one reader
    document, building = tmp_path / "doc.json", tmp_path / "building.json"
    document.write_text('{"n": 2\n"hyperplanes": []}')
    building.write_text("[[0]\n[1]]")
    cases = [(document, [str(document)]), (building, ["example-a", "--building-set", str(building)])]
    for path, argv in cases:
        code, _, err = run(capsys, "compute", *argv)
        assert code == 1
        assert err == f"error: {path}: not valid JSON (line 2, column 1): Expecting ',' delimiter\n"


def test_files_that_are_not_utf8_exit_1(capsys, tmp_path):
    # a UTF-16 byte-order mark before "{}": an input document and a
    # --building-set file are rejected alike, naming the file
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    for argv in ([str(path)], ["example-a", "--building-set", str(path)]):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: not UTF-8 text (byte 0: invalid start byte)\n"


def test_field_errors_name_the_field(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "hyperplanes": [{"coeffs": [0.5, 1]}]}))
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1
    assert "hyperplanes[0].coeffs[0]" in err
    path.write_text(json.dumps({"n": 2, "hyperplanes": [{"coeffs": [1, 0], "mult": "2"}]}))
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1
    assert "mult" in err


def test_proportional_normals_rejected(capsys, tmp_path):
    path = tmp_path / "prop.json"
    path.write_text(
        json.dumps({"n": 2, "hyperplanes": [{"coeffs": [1, 0]}, {"coeffs": [2, 0]}]})
    )
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1
    assert "merge" in err


def test_unknown_fixture_integer(capsys):
    code, _, err = run(capsys, "compute", "lines:x")
    assert code == 1
    assert "not an integer" in err


def test_fixture_parameters_are_bounded(capsys):
    for prefix, limit in FIXTURE_LIMITS.items():
        code, _, err = run(capsys, "lattice", f"{prefix}{limit + 1}")
        assert code == 1
        assert f"the limit is {prefix}{limit}" in err
    code, _, err = run(capsys, "compute", "lines:100000")
    assert code == 1
    assert "the limit is lines:" in err
    # the largest fixtures that tests, demos and docs use stay accepted
    assert len(resolve_fixture("lines:100").hyperplanes) == 100
    assert len(resolve_fixture("generic3d:20").hyperplanes) == 20
    most = FIXTURE_LIMITS["generic3d:"]
    assert len(resolve_fixture(f"generic3d:{most}").hyperplanes) == most


def test_package_exports_resolve():
    names = arrspec.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(arrspec, name)] == []
    namespace = {}
    exec("from arrspec import *", namespace)
    assert set(names) <= set(namespace)


def test_jobs_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "compute", "example-b1", "--jobs", "1")
    _, out8, _ = run(capsys, "compute", "example-b1", "--jobs", "8")
    assert out1 == out8


def test_jobs_must_be_positive(capsys):
    code, _, err = run(capsys, "compute", "example-a", "--jobs", "0")
    assert code == 1
    assert "--jobs" in err


def test_lattice_text_dump(capsys):
    code, out, _ = run(capsys, "lattice", "example-a")
    assert code == 0
    assert "flats (5):" in out
    assert "mobius +2" in out
    # in C^2 the minimal and the maximal set coincide
    assert "building set (4 elements, maximal):" in out
    assert "euler characteristic of projectivized complement: -1" in out
    code, out, _ = run(capsys, "lattice", "example-b1")
    assert code == 0 and "building set (5 elements, minimal):" in out


def test_lattice_json_dump(capsys):
    code, out, _ = run(capsys, "lattice", "example-b2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 4
    assert doc["essential"] is True
    assert doc["euler_projective_complement"] == 1
    assert len(doc["flats"]) == 12
    assert sorted(f["mobius"] for f in doc["flats"]) == sorted(
        [1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, -3]
    )
    # the plane/line incidence pattern: 12 cover pairs between codim 1 and 2
    flats = {f["index"]: f for f in doc["flats"]}
    pairs = [
        (i, j)
        for i, j in doc["covers"]
        if flats[i]["codim"] == 1 and flats[j]["codim"] == 2
    ]
    assert len(pairs) == 12
    # four generic planes: the origin splits as a product, so the default,
    # minimal building set holds only the irreducible flats, the hyperplanes
    assert [b["closure"] for b in doc["building_set"]] == [None, [0], [1], [2], [3]]
    code, out, _ = run(capsys, "lattice", "example-b2", "--json", "--building-set", "maximal")
    assert code == 0
    assert len(json.loads(out)["building_set"]) == 11


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "example-b2")
    assert code == 0
    assert "all checks passed" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "example-a", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "euler characteristic per eigenvalue" in names
    assert "plane curve oracle" in names


def test_building_set_file_option(capsys, tmp_path):
    path = tmp_path / "building.json"
    path.write_text(json.dumps([[0], [1], [2], [0, 1, 2]]))
    code, out, _ = run(capsys, "compute", "example-a", "--building-set", str(path))
    assert code == 0
    code2, base_out, _ = run(capsys, "compute", "example-a")
    assert code2 == 0
    assert json.loads(out)["spectrum"] == json.loads(base_out)["spectrum"]


def test_building_set_option_overrides_the_document(capsys, tmp_path):
    # example-b1's planes, listing the building set of its irreducible flats
    doc = str(Path(__file__).resolve().parent / "golden" / "cli" / "custom-b1.json")
    _, out, _ = run(capsys, "lattice", doc)
    assert "building set (5 elements, custom):" in out
    code, out, _ = run(capsys, "lattice", doc, "--building-set", "maximal")
    assert code == 0 and "building set (11 elements, maximal):" in out
    code, out, _ = run(capsys, "compute", doc, "--building-set", "maximal")
    assert code == 0
    assert out == run(capsys, "compute", "example-b1", "--building-set", "maximal")[1]
    # the document lists the irreducible flats, which the fixture takes by default
    assert run(capsys, "compute", "example-b1")[1] == run(capsys, "compute", doc)[1]
    path = tmp_path / "building.json"
    path.write_text(json.dumps([[0], [1], [2], [3], [0, 1, 2, 3]]))
    code, out, _ = run(capsys, "lattice", "example-b1", "--building-set", str(path))
    assert code == 0 and "building set (5 elements, custom):" in out
    code, out, _ = run(capsys, "compute", "example-b1", "--building-set", str(path))
    assert code == 0 and out == run(capsys, "compute", doc)[1]


def test_building_set_file_invalid(capsys, tmp_path):
    path = tmp_path / "building.json"
    path.write_text(json.dumps({"not": "a list"}))
    code, _, err = run(capsys, "compute", "example-a", "--building-set", str(path))
    assert code == 1
    assert "closure sets" in err


def test_invalid_building_set_exits_1(capsys, tmp_path):
    # braid arrangement A3 with only its hyperplanes: not a building set
    normals = [[1, -1, 0], [1, 0, -1], [0, 1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({
        "n": 3,
        "hyperplanes": [{"coeffs": c} for c in normals],
        "building_set": [[i] for i in range(6)],
    }))
    code, out, err = run(capsys, "compute", str(path))
    assert code == 1 and out == ""
    assert "not a building set" in err


def test_boolean_multiplicity_exits_1(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({
        "n": 2,
        "hyperplanes": [{"coeffs": [1, 0], "mult": True}, {"coeffs": [0, 1]}, {"coeffs": [1, 1]}],
    }))
    code, out, err = run(capsys, "compute", str(path))
    assert code == 1 and out == ""
    assert "multiplicity" in err


def test_boolean_closure_index_exits_1(capsys, tmp_path):
    # [true] would otherwise be read as hyperplane 1 and give a valid building set
    closures = [[0], [True], [2], [0, 1, 2]]
    normals = [[1, 0], [0, 1], [1, 1]]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "n": 2, "hyperplanes": [{"coeffs": c} for c in normals], "building_set": closures,
    }))
    code, out, err = run(capsys, "compute", str(doc))
    assert code == 1 and out == ""
    assert "closure sets" in err
    building = tmp_path / "building.json"
    building.write_text(json.dumps(closures))
    code, out, err = run(capsys, "compute", "example-a", "--building-set", str(building))
    assert code == 1 and out == ""
    assert "closure sets" in err


def test_output_roundtrip():
    result = spectrum(resolve_fixture("example-b1"))
    doc = result_to_dict(result)
    assert parse_output(render(doc)) == doc


def test_input_roundtrip():
    text = json.dumps(
        {
            "n": 2,
            "hyperplanes": [
                {"coeffs": ["1/2", "-1/3"], "mult": 2},
                {"coeffs": [0, 1], "mult": 1},
            ],
        }
    )
    doc = parse_input(text)
    arr = doc.arrangement
    assert arr.degree == 3
    from arrspec.docio import arrangement_to_dict

    again = parse_input(json.dumps(arrangement_to_dict(arr)))
    assert again.arrangement == arr


def test_parse_input_keeps_the_building_set_as_named():
    doc = {"n": 2, "hyperplanes": [{"coeffs": [1, 0]}, {"coeffs": [0, 1]}]}
    assert parse_input(json.dumps(doc)).building_closures is None
    doc["building_set"] = "maximal"
    assert parse_input(json.dumps(doc)).building_closures == "maximal"
    doc["building_set"] = [[0], [1], [0, 1]]
    assert parse_input(json.dumps(doc)).building_closures == [[0], [1], [0, 1]]


def _spectrum_and_ranks(out):
    """The spectrum of `compute --json` and the ranks its detail names."""
    doc = json.loads(out)
    [detail] = [c["detail"] for c in doc["checks"] if c["name"] == "cohomology ranks"]
    return doc["spectrum"], [int(r) for r in detail.split()[1].split(",")]


@pytest.mark.parametrize("source", FIXTURES + DOCUMENTS)
def test_cli_default_is_the_library_default(capsys, source):
    if source in DOCUMENTS:
        source = str(GOLDEN / f"{source}.json")
        arr = load_input(source).arrangement
    else:
        arr = resolve_fixture(source)
    expected = result_to_dict(spectrum(arr))["spectrum"]
    code, out, _ = run(capsys, "compute", source)
    assert code == 0
    assert _spectrum_and_ranks(out) == (expected, prepare(arr).ideal.quotient_ranks)
    code, out, _ = run(capsys, "compute", source, "--building-set", "maximal")
    assert code == 0
    assert _spectrum_and_ranks(out) == (expected, prepare(arr, "maximal").ideal.quotient_ranks)


def test_parse_rejects_unknown_fields():
    with pytest.raises(ValidationError, match="unknown"):
        parse_input(json.dumps({"n": 2, "hyperplanes": [], "extra": 1}))


def test_permutation_invariance_through_cli(capsys, tmp_path):
    arr = resolve_fixture("example-b2")
    perm = arr.permuted([2, 0, 3, 1])
    from arrspec.docio import arrangement_to_dict

    path = tmp_path / "perm.json"
    path.write_text(json.dumps(arrangement_to_dict(perm)))
    code1, out1, _ = run(capsys, "compute", "example-b2")
    code2, out2, _ = run(capsys, "compute", str(path))
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_closure_index_exits_1(capsys, tmp_path, bad):
    building = tmp_path / "building.json"
    building.write_text(json.dumps([[0], [1], [2], [0, 1, 2], [bad]]))
    code, out, err = run(capsys, "compute", "example-a", "--building-set", str(building))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "not a proper flat" in err
