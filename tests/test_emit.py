"""The write step of a run: exact output bytes, input validation and loadable files."""

import json
import sys

import numpy as np
import pytest

from oracles import protocol_to_dict, python_text
from qmodes import scenarios
from qmodes.text import format_rows

FORMATS = ("csv", "json")


def reference_csv(names, columns):
    """The per-value CSV writer the block writer replaced."""
    lines = [",".join(names)]
    for row in np.column_stack(columns):
        lines.append(",".join("%.12g" % v for v in row))
    return "\n".join(lines) + "\n"


def reference_json(names, columns):
    """The json.dumps writer the block writer replaced."""
    rows = [[float(v) for v in row] for row in zip(*columns)]
    return json.dumps({"columns": names, "rows": rows}, indent=2, sort_keys=True) + "\n"


REFERENCE = {"csv": reference_csv, "json": reference_json}


def write(out_dir, fmt, files):
    """Write ``files`` as a run called ``r`` does, and return their names."""
    return scenarios._write(out_dir, "r", fmt, files)


rng = np.random.default_rng(7)
SPECIALS = np.array([0.0, -0.0, 1e-320, 1e16, 1e-5, 1.0 / 3.0, -2.5e-300, 123456789012345.0])
TABLES = {
    "special-values": (["v", "neg"], [SPECIALS, -SPECIALS]),
    "integer-column": (["k", "w"], [np.arange(6), rng.random(6)]),
    "integer-only": (["k"], [np.arange(-3, 4, dtype=np.int32)]),
    "one-column": (["x"], [rng.standard_normal(10)]),
    "one-row": (["a", "b", "c"], [np.array([0.5]), np.array([-1.0]), np.array([2.0])]),
    "eight-columns": ([f"c{i}" for i in range(8)], list(rng.standard_normal((8, 37)))),
    # more rows than one write block, so block boundaries are crossed
    "multi-block": (["p", "q"], [np.linspace(-3.0, 3.0, 1500), rng.random(1500)]),
    "non-finite": (["x", "y"], [np.array([np.nan, 1.0, np.inf]), np.array([-np.inf, 0.0, 2.0])]),
    # every notation repr and %.12g switch between, both signs
    "decades": (["x", "neg"], [1.2345678901234567 * 10.0 ** np.arange(-30, 31), -(10.0 ** np.arange(-30, 31))]),
    # more values than one write block, ending inside a block
    "long": (["p", "q", "r"], [np.linspace(0.0, 7.0, 700), rng.random(700), rng.standard_normal(700) * 1e-7]),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", list(TABLES))
def test_table_bytes_match_the_reference_writer(tmp_path, fmt, case):
    names, columns = TABLES[case]
    assert write(tmp_path, fmt, [("t", "table", (names, columns))]) == [f"r_t.{fmt}"]
    expected = REFERENCE[fmt](names, columns).encode("utf-8")
    assert (tmp_path / f"r_t.{fmt}").read_bytes() == expected


BAD_TABLES = {
    "more-names-than-columns": (["a", "b", "c"], [np.ones(3), np.ones(3)]),
    "fewer-names-than-columns": (["a"], [np.ones(3), np.ones(3)]),
    "unequal-lengths": (["a", "b"], [np.ones(5), np.ones(3)]),
    "two-dimensional": (["a", "b"], [np.ones(4), np.ones((4, 1))]),
    "scalar": (["a"], [np.float64(1.0)]),
    "complex": (["a", "b"], [np.ones(3), np.ones(3) * 1j]),
    "text": (["a"], [np.array(["x", "y"])]),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", list(BAD_TABLES))
def test_malformed_tables_raise_and_write_nothing(tmp_path, fmt, case):
    names, columns = BAD_TABLES[case]
    with pytest.raises(ValueError, match="table 't'"):
        write(tmp_path / "out", fmt, [("t", "table", (names, columns))])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("exists", [False, True])
@pytest.mark.parametrize("fmt", FORMATS)
def test_a_malformed_table_after_valid_files_writes_no_file(tmp_path, fmt, exists):
    out = tmp_path / "out"
    if exists:
        out.mkdir()
    files = [
        ("good", "table", TABLES["one-row"]),
        ("p", "protocol", protocol(2, 2)),
        ("j", "json", {"x": 1.0}),
        ("t", "table", BAD_TABLES["unequal-lengths"]),
    ]
    with pytest.raises(ValueError, match="table 't': column 'b'"):
        write(out, fmt, files)
    if exists:
        assert list(out.iterdir()) == []
    else:
        assert not out.exists()


def test_files_are_written_in_their_order_and_named_by_kind(tmp_path):
    # a protocol and a JSON file are JSON in a CSV run too
    files = [("z", "json", {"x": 1.0}), ("a", "table", TABLES["one-row"]), ("p", "protocol", protocol(1, 1))]
    assert write(tmp_path, "csv", files) == ["r_z.json", "r_a.csv", "r_p.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r_a.csv", "r_p.json", "r_z.json"]


N = 256
TABLE_SHAPES = {
    "fig1": {"fig1_momentum": (N, 2), "fig1_coordinate": (N, 2)},
    "fig3": {"fig3_modes": (N, 3), "fig3_marginal": (N, 3), "fig3_weights": (2, 2)},
    "fig6-data": {"fig6-data_intensity": (N, 6)},
    "tomography-demo": {},
}


@pytest.mark.parametrize("scenario", list(TABLE_SHAPES))
def test_catalog_files_load_with_the_right_shape(tmp_path, scenario):
    for fmt in FORMATS:
        scenarios.run(scenario, tmp_path / fmt, fmt, N, {})
        for path in (tmp_path / fmt).glob("*.json"):
            json.loads(path.read_text(encoding="utf-8"))
    shapes = {}
    for path in (tmp_path / "csv").glob("*.csv"):
        header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        table = json.loads((tmp_path / "json" / f"{path.stem}.json").read_text(encoding="utf-8"))
        assert table["columns"] == header
        assert rows.shape == (len(table["rows"]), len(header))
        np.testing.assert_allclose(rows, table["rows"], rtol=1e-11, atol=0.0, err_msg=path.stem)
        shapes[path.stem] = rows.shape
    assert shapes == TABLE_SHAPES[scenario]


def near_ties():
    # (10 D + 5) 10^q: exact 13th-digit ties for q = 0, 1, 2, the nearest floats otherwise
    from fractions import Fraction

    d = [100000000000, 123456789012, 555555555555, 999999999999]
    return [float(Fraction(10 * k + 5) * Fraction(10) ** q) for k in d for q in range(-30, 31)]


def powers_of_ten_and_neighbours():
    return [
        float(f"1e{k}") * (1.0 + sign * j * 2.0**-52)
        for k in range(-323, 309)
        for j in range(4)
        for sign in (1.0, -1.0)
    ]


EDGES = [9.9999999999995e-5, 999999999999.5, 1234567890125.0, 0.0, -0.0, np.nan, np.inf, -np.inf]
EDGES += [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e23, 0.1, 1.0 / 3.0]


def repr_edges():
    powers_of_two = [2.0**k for k in range(-1074, 1024)]
    switches = [1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-4, 1e-5, 9.999999999999999e-05]
    switches += [9.999999999999999e-06, 1e99, 1e100, 1e-99, 1e-100, 1e-289, 1e290, 1e-290, 1e291]
    neighbours = [np.nextafter(v, t) for v in switches for t in (0.0, np.inf)]
    specials = [5e-324, 2.0**-1022, sys.float_info.max, 0.1 + 0.2, 0.0, -0.0, np.nan, np.inf, -np.inf]
    # integers above 2^53, whose rounding intervals end on integers
    integers = [float(2**53 + 2 * i) for i in range(40)] + [float(10**17 + 16 * i) for i in range(40)]
    return powers_of_two + switches + neighbours + specials + integers


def repr_ties():
    # x = m 2^-(k + 1), m odd: x 10^k = m 5^k / 2 lies halfway between two 17-digit integers
    ties = []
    for k in range(1, 22):
        low = 2 * 10**16 // 5**k | 1
        ties += [m / 2 ** (k + 1) for m in (low, low + 24690, 4 * low + 1) if m < 2**53]
    return ties


def repr_near_ties():
    # x = m 2^-(j + k) with m 5^k = 2^(j - 1) +/- delta (mod 2^j): x 10^k = m 5^k / 2^j lies
    # delta 2^-j from a half-integer, closer than the kernel's arithmetic can resolve
    near = []
    for k in range(24, 60, 3):
        j = int(k * 2.3219) - 2
        inverse = pow(5**k, -1, 2**j)
        for delta in range(1, 100):
            for m in ((2 ** (j - 1) + sign * delta) * inverse % 2**j for sign in (1, -1)):
                if 2**52 <= m < 2**53 and 10**16 <= m * 5**k // 2**j < 10**17:
                    near.append(m / 2 ** (j + k))
    return near


# every case runs in both formats: the ties and near-ties of one digit rule
# are ordinary values for the other
KERNEL_CASES = {
    "near-ties": near_ties() + repr_near_ties(),
    "powers-of-ten": powers_of_ten_and_neighbours(),
    "edges": EDGES + repr_edges(),
    "ties": repr_ties(),
}


def check_kernel(fmt, case, cols):
    values = np.array(KERNEL_CASES[case])
    block = np.resize(values, (-(-values.size // cols), cols))
    seps = [b",\n  "] * (cols - 1) + [b"]\n"]
    for signed in (block, -block):
        assert format_rows(signed, seps, fmt) == python_text(signed, seps, fmt)


@pytest.mark.parametrize("cols", [1, 3, 4])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_g12_rows_is_pythons_formatting(case, cols):
    check_kernel("csv", case, cols)


@pytest.mark.parametrize("cols", [1, 3, 4])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_repr_rows_is_pythons_repr(case, cols):
    # non-finite values as json.dumps spells them: NaN, Infinity, -Infinity
    check_kernel("json", case, cols)


# an ndarray in a JSON file, and the lists json.dumps writes for it
SAVED_ARRAYS = {
    "real-1d": (np.array([1.0, -2.5, 1e-300]), [1.0, -2.5, 1e-300]),
    "real-2d": (np.array([[0.5, np.nan], [-0.0, np.inf]]), [[0.5, float("nan")], [-0.0, float("inf")]]),
    "integer": (np.arange(3), [0, 1, 2]),
    "complex-1d": (np.array([complex(1.0, 2.0), complex(0.0, -0.5)]), [[1.0, 2.0], [0.0, -0.5]]),
    "complex-2d": (
        np.array([[complex(3.0, 0.0), complex(-1e-7, np.inf)]]),
        [[[3.0, 0.0], [-1e-7, float("inf")]]],
    ),
}


@pytest.mark.parametrize("case", list(SAVED_ARRAYS))
def test_save_json_writes_an_array_as_lists_and_a_complex_entry_as_its_pair(tmp_path, case):
    array, lists = SAVED_ARRAYS[case]
    scenarios._save_json(tmp_path / "a.json", {"x": array, "n": 2})
    expected = json.dumps({"x": lists, "n": 2}, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == expected


def test_save_json_refuses_what_is_neither_json_nor_an_array(tmp_path):
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        scenarios._save_json(tmp_path / "a.json", {"x": {1, 2}})


def protocol(rows, s, seed=0):
    values = np.random.default_rng(seed).standard_normal((rows, s * s, 2)) * [1e-3, 1.0]
    return values[..., 0] + 1j * values[..., 1]


@pytest.mark.parametrize("rows, s", [(1, 1), (2, 2), (3, 3), (700, 2)])
def test_protocol_file_is_json_dumps_of_the_protocol(tmp_path, rows, s):
    matrix = protocol(rows, s)
    (name,) = write(tmp_path, "json", [("p", "protocol", matrix)])
    expected = json.dumps(protocol_to_dict(matrix), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / name).read_text(encoding="utf-8") == expected


def test_protocol_with_non_finite_entries_is_written_by_json(tmp_path):
    matrix = protocol(2, 2)
    matrix[1, 2] = complex(np.nan, np.inf)
    (name,) = write(tmp_path, "json", [("p", "protocol", matrix)])
    expected = json.dumps(protocol_to_dict(matrix), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / name).read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("block", [1, 7, 2048])
def test_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block):
    # one block size serves both formats: each table of 700 rows x 3 values
    # is written in min(700, ceil(2100 / block)) kernel calls
    names, columns = TABLES["long"]
    matrix = protocol(700, 2)
    calls = []

    def counted(rows, seps, fmt):
        calls.append(fmt)
        return format_rows(rows, seps, fmt)

    monkeypatch.setattr(scenarios, "_BLOCK_VALUES", block)
    monkeypatch.setattr(scenarios, "format_rows", counted)
    for fmt in FORMATS:
        calls.clear()
        write(tmp_path, fmt, [("t", "table", (names, columns))])
        assert len(calls) == min(700, -(-2100 // block))
        assert (tmp_path / f"r_t.{fmt}").read_bytes() == REFERENCE[fmt](names, columns).encode("utf-8")
    write(tmp_path, "json", [("p", "protocol", matrix)])
    expected = json.dumps(protocol_to_dict(matrix), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "r_p.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("scenario", list(scenarios.list_scenarios()))
def test_catalog_json_files_are_json_dumps_of_their_contents(tmp_path, scenario):
    scenarios.run(scenario, tmp_path, "json", 1024, {})
    for path in tmp_path.glob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text, path.name


@pytest.mark.parametrize("scenario", list(scenarios.list_scenarios()))
def test_catalog_csv_files_are_g12_of_their_values(tmp_path, scenario):
    # twelve significant digits survive float64, so re-rendering is exact
    scenarios.run(scenario, tmp_path, "csv", 1024, {})
    for path in tmp_path.glob("*.csv"):
        header, *lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "", path.name
        rows = [[float(v) for v in line.split(",")] for line in lines[:-1]]
        assert all(len(row) == header.count(",") + 1 for row in rows), path.name
        expected = "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows)
        assert "\n".join(lines) == expected, path.name
