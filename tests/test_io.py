# CSV readers/writers and the JSON report serializer.

import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from altkit import (
    LifeRecord,
    MoistureTable,
    dump_json,
    format_float,
    read_degradation_csv,
    read_life_csv,
    read_mc_csv,
    read_spectral_csv,
    write_life_csv,
)
from altkit.errors import DataError


class TestLifeCsv:
    def test_roundtrip_is_lossless(self):
        records = [
            LifeRecord(6.48, "censored", {"voltstress": 170.0, "temp_C": 40.0}),
            LifeRecord(1.0 / 3.0, "failed", {"voltstress": 220.0,
                                             "temp_C": 55.5}),
        ]
        buf = io.StringIO()
        write_life_csv(records, buf)
        back = read_life_csv(io.StringIO(buf.getvalue()))
        assert len(back) == 2
        for orig, rt in zip(records, back):
            assert rt.time == orig.time  # bit-exact via repr round trip
            assert rt.status == orig.status
            assert rt.condition == orig.condition

    def test_short_floats_stay_short(self):
        buf = io.StringIO()
        write_life_csv([LifeRecord(6.48, "censored", {"v": 170.0})], buf)
        assert buf.getvalue().splitlines()[1] == "6.48,censored,170.0"

    def test_condition_columns_sorted(self):
        buf = io.StringIO()
        write_life_csv([LifeRecord(1.0, "failed",
                                   {"z": 1.0, "a": 2.0, "m": 3.0})], buf)
        assert buf.getvalue().splitlines()[0] == "time,status,a,m,z"

    def test_missing_condition_rejected_on_write(self):
        records = [LifeRecord(1.0, "failed", {"v": 1.0}),
                   LifeRecord(2.0, "failed", {})]
        with pytest.raises(DataError):
            write_life_csv(records, io.StringIO())

    def test_read_validation(self):
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,condition\n1.0,2.0\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,status\n1.0,running\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,status\nnot-a-number,failed\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,status\ninf,failed\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO(""))

    def test_blank_lines_keep_line_numbers(self):
        with pytest.raises(DataError, match="^line 4, column v: expected a number, got 'x'$"):
            read_life_csv(io.StringIO("time,status,v\n1,failed,1\n\n2,failed,x\n"))

    @pytest.mark.parametrize("row", ["1,failed,1,9", "1,failed"])
    def test_row_width_must_match_header(self, row):
        with pytest.raises(DataError, match=r"^line 2: expected 3 cells, got \d$"):
            read_life_csv(io.StringIO(f"time,status,v\n{row}\n"))

    def test_duplicate_column_rejected(self):
        with pytest.raises(DataError, match="duplicate column"):
            read_life_csv(io.StringIO("time,status,time\n1,failed,2\n"))

    def test_statuses(self):
        recs = read_life_csv(io.StringIO(
            "time,status\n1.5,failed\n6.48,censored\n"))
        assert recs[0].failed and not recs[1].failed


class TestDegradationCsv:
    def test_grouping_by_unit(self):
        text = ("unit,time,response,temp_C\n"
                "a,0.0,1.00,60\n"
                "a,2.0,0.90,60\n"
                "b,0.0,1.00,80\n"
                "b,2.0,0.70,80\n"
                "b,4.0,0.50,80\n")
        samples = read_degradation_csv(io.StringIO(text))
        assert [s.unit_id for s in samples] == ["a", "b"]
        assert samples[1].times == (0.0, 2.0, 4.0)
        assert samples[1].condition == {"temp_C": 80.0}

    def test_condition_must_be_constant_per_unit(self):
        text = ("unit,time,response,temp_C\n"
                "a,0.0,1.00,60\n"
                "a,2.0,0.90,70\n")
        with pytest.raises(DataError):
            read_degradation_csv(io.StringIO(text))

    def test_required_columns(self):
        with pytest.raises(DataError):
            read_degradation_csv(io.StringIO("unit,time\na,0.0\n"))


class TestSpectralCsv:
    def test_columns(self):
        text = ("wavelength_nm,irradiance,absorbance\n"
                "290,1.0,0.5\n"
                "305,1.2,0.6\n"
                "320,1.1,0.7\n")
        lam, cols = read_spectral_csv(io.StringIO(text))
        assert_allclose(lam, [290.0, 305.0, 320.0], rtol=0)
        assert set(cols) == {"irradiance", "absorbance"}
        assert_allclose(cols["irradiance"], [1.0, 1.2, 1.1], rtol=0)

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            read_spectral_csv(io.StringIO("wavelength_nm,irradiance\n290,1.0\n"))


class TestMoistureCsv:
    def test_reads_table(self):
        table = read_mc_csv(io.StringIO(
            "rh,moisture_content\n0.0,0.0\n0.5,2.0\n1.0,6.0\n"))
        assert isinstance(table, MoistureTable)
        assert_allclose(table(0.25), 1.0, rtol=1e-15)


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-1e6, 1e6, 50):
            assert float(format_float(float(x))) == float(x)
        assert float(format_float(math.pi)) == math.pi

    def test_six_digit_table_format(self):
        assert format_float(24.46050364086682, sig=6) == "24.4605"

    def test_nonfinite(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"


class TestDumpJson:
    def test_is_valid_json_and_lossless(self):
        obj = {
            "name": "fit",
            "ok": True,
            "count": 3,
            "value": math.pi,
            "items": [1.5, 2.5],
            "arr": np.array([0.1, 0.2]),
            "nothing": None,
        }
        text = dump_json(obj)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["name"] == "fit"
        assert parsed["ok"] is True
        assert parsed["count"] == 3
        assert parsed["value"] == math.pi
        assert parsed["arr"] == [0.1, 0.2]
        assert parsed["nothing"] is None

    def test_nonfinite_becomes_null(self):
        parsed = json.loads(dump_json({"a": float("nan"), "b": float("inf")}))
        assert parsed["a"] is None and parsed["b"] is None

    def test_insertion_order_preserved(self):
        text = dump_json({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')
