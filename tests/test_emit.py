"""Scenario data tables: exact output bytes, input validation and loadable files."""

import json

import numpy as np
import pytest

from qmodes import scenarios
from qmodes.g12 import g12_rows

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


def emitter(tmp_path, fmt):
    return scenarios._Emitter(scenarios.ScenarioConfig("t", tmp_path, fmt))


rng = np.random.default_rng(7)
SPECIALS = np.array([0.0, -0.0, 1e-320, 1e16, 1e-5, 1.0 / 3.0, -2.5e-300, 123456789012345.0])
TABLES = {
    "special-values": (["v", "neg"], [SPECIALS, -SPECIALS]),
    "integer-column": (["k", "w"], [np.arange(6), rng.random(6)]),
    "integer-only": (["k"], [np.arange(-3, 4, dtype=np.int32)]),
    "one-column": (["x"], [rng.standard_normal(10)]),
    "one-row": (["a", "b", "c"], [np.array([0.5]), np.array([-1.0]), np.array([2.0])]),
    "zero-rows": (["a", "b"], [np.zeros(0), np.zeros(0)]),
    "eight-columns": ([f"c{i}" for i in range(8)], list(rng.standard_normal((8, 37)))),
    # more rows than one write block, so block boundaries are crossed
    "multi-block": (["p", "q"], [np.linspace(-3.0, 3.0, 1500), rng.random(1500)]),
    "non-finite": (["x", "y"], [np.array([np.nan, 1.0, np.inf]), np.array([-np.inf, 0.0, 2.0])]),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", list(TABLES))
def test_table_bytes_match_the_reference_writer(tmp_path, fmt, case):
    names, columns = TABLES[case]
    name = emitter(tmp_path, fmt).table("t", names, columns)
    assert name == f"t.{fmt}"
    expected = REFERENCE[fmt](names, columns).encode("utf-8")
    assert (tmp_path / name).read_bytes() == expected


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
    emit = emitter(tmp_path, fmt)
    with pytest.raises(ValueError, match="table 't'"):
        emit.table("t", names, columns)
    assert emit.files == []
    assert not (tmp_path / f"t.{fmt}").exists()


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
        scenarios.run(scenarios.ScenarioConfig(scenario, tmp_path / fmt, fmt, N))
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


def reference_rows(block):
    """Python's ``%.12g`` of every value, joined as the CSV writer joins them."""
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in block.tolist())


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
KERNEL_CASES = {
    "near-ties": near_ties(),
    "powers-of-ten": powers_of_ten_and_neighbours(),
    "edges": EDGES,
}


@pytest.mark.parametrize("cols", [1, 3, 4])
@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_g12_rows_is_pythons_formatting(case, cols):
    values = np.array(KERNEL_CASES[case])
    block = np.resize(values, (-(-values.size // cols), cols))
    assert g12_rows(block) == reference_rows(block)
    assert g12_rows(-block) == reference_rows(-block)
