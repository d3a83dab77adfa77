# The model formula mini-language and design-matrix construction.

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from altkit import LifeData, LifeRecord, ModelSpec, design_matrix, design_row, parse_model
from altkit.data import (
    read_variable, resolve_kelvin, resolve_variable, temperature_source, variable_source,
)
from altkit.errors import (
    AltkitError,
    DataError,
    DomainError,
    FormulaError,
    InvalidTemperatureError,
    MissingVariableError,
    UnitMismatchError,
)
from altkit.formula import Factor, Term
from altkit.relationships import box_cox_transform
from altkit.units import Temperature, to_kelvin


class TestParsing:
    def test_minimal_model(self):
        spec = parse_model("lognormal: mu ~ 1")
        assert spec.family == "lognormal"
        assert spec.mu_terms == ()
        assert spec.n_mu == 1 and spec.n_sigma == 1 and spec.n_params == 2
        assert spec.param_names == ("mu:(Intercept)", "logsigma:(Intercept)")

    def test_single_covariate(self):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        assert spec.param_names == (
            "mu:(Intercept)", "mu:log(voltstress)", "logsigma:(Intercept)")

    def test_varying_sigma(self):
        spec = parse_model("weibull: mu ~ arrh(temp); sigma ~ arrh(temp)")
        assert spec.family == "weibull"
        assert spec.n_params == 4
        assert spec.param_names[-1] == "logsigma:arrh(temp)"

    def test_interaction_and_multiple_terms(self):
        spec = parse_model("lognormal: mu ~ arrh(temp) + log(rh) + "
                           "arrh(temp):log(rh)")
        assert spec.n_mu == 4
        assert spec.param_names[3] == "mu:arrh(temp):log(rh)"

    def test_nested_functions(self):
        spec = parse_model("lognormal: mu ~ sq(arrh(temp))")
        row = design_row(spec.mu_terms, {"temp_C": 50.0})
        expected = (11605.0 / 323.15) ** 2
        assert_allclose(row[1], expected, rtol=1e-12)

    def test_text_roundtrip(self):
        text = "lognormal: mu ~ arrh(temp) + log(rh); sigma ~ log(rh)"
        spec = parse_model(text)
        assert parse_model(spec.text).text == spec.text

    def test_errors(self):
        with pytest.raises(FormulaError):
            parse_model("gamma: mu ~ 1")  # unknown family
        with pytest.raises(FormulaError):
            parse_model("lognormal: mu ~ log(v) + log(v)")  # duplicate term
        with pytest.raises(FormulaError):
            parse_model("lognormal: sigma ~ 1")  # mu block is required
        with pytest.raises(FormulaError):
            parse_model("lognormal mu ~ 1")  # missing colon
        with pytest.raises(FormulaError):
            parse_model("lognormal: mu ~ exp(v)")  # unknown function
        with pytest.raises(FormulaError):
            parse_model("lognormal: mu ~ boxcox(v)")  # needs an exponent
        with pytest.raises(FormulaError):
            parse_model("lognormal: mu ~ arrh(log(temp))")  # arrh wants a name
        with pytest.raises(FormulaError):
            # at most one power-transform exponent per model
            parse_model("lognormal: mu ~ boxcox(v,0.5) + boxcox(w,1.0)")
        for text, message in [
            ("lognormal: mu ~ log(v))", "unbalanced parentheses"),
            ("lognormal: mu ~ log(v", "unbalanced parentheses"),
            ("lognormal: mu ~ v:", "^empty factor$"),
            ("lognormal: mu ~ 2v", "^invalid variable name '2v'$"),
            ("lognormal: mu ~ v +", "^empty term in mu part$"),
            ("lognormal: mu ~ 1; sigma ~ 1; sigma ~ 1", "at most two parts"),
        ]:
            with pytest.raises(FormulaError, match=message):
                parse_model(text)

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "1e400", "x"])
    def test_boxcox_exponent_must_be_finite(self, lam):
        # Not a data problem: the formula itself names no exponent to fit at.
        message = rf"^boxcox lambda must be a finite number, got '{lam}'$"
        with pytest.raises(FormulaError, match=message):
            parse_model(f"lognormal: mu ~ boxcox(v, {lam})")


class TestBoxCoxHandling:
    def test_lambda_accessors(self):
        spec = parse_model("lognormal: mu ~ boxcox(voltstress, 0.5)")
        assert spec.boxcox_lambda() == 0.5
        swapped = spec.with_boxcox_lambda(1.25)
        assert swapped.boxcox_lambda() == 1.25
        assert spec.boxcox_lambda() == 0.5  # original untouched
        assert swapped.family == spec.family

    def test_lambda_swap_keeps_other_terms(self):
        spec = parse_model("lognormal: mu ~ boxcox(v, 1) + log(t)")
        swapped = spec.with_boxcox_lambda(2.0)
        assert swapped.boxcox_lambda() == 2.0
        assert swapped.mu_terms[1] == spec.mu_terms[1]

    def test_missing_boxcox(self):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        with pytest.raises(FormulaError):
            spec.boxcox_lambda()
        with pytest.raises(FormulaError):
            spec.with_boxcox_lambda(1.0)

    def test_boxcox_column_value(self):
        spec = parse_model("lognormal: mu ~ boxcox(v, 2)")
        row = design_row(spec.mu_terms, {"v": 3.0})
        assert_allclose(row[1], (9.0 - 1.0) / 2.0, rtol=1e-15)
        log_spec = spec.with_boxcox_lambda(0.0)
        row0 = design_row(log_spec.mu_terms, {"v": 3.0})
        assert_allclose(row0[1], math.log(3.0), rtol=1e-15)


class TestDesignMatrix:
    def test_values(self):
        spec = parse_model("lognormal: mu ~ arrh(temp) + log(rh) + logit(rh)")
        conditions = [{"temp_C": 120.0, "rh": 0.8},
                      {"temp_K": 393.15, "rh": 0.4}]
        x = np.array([design_row(spec.mu_terms, c) for c in conditions])
        assert x.shape == (2, 4)
        assert_allclose(x[:, 0], 1.0, rtol=0)
        assert_allclose(x[0, 1], 11605.0 / 393.15, rtol=1e-12)
        # Celsius and kelvin spellings of the same temperature agree.
        assert_allclose(x[1, 1], x[0, 1], rtol=1e-12)
        assert_allclose(x[0, 2], math.log(0.8), rtol=1e-12)
        assert_allclose(x[1, 3], math.log(0.4 / 0.6), rtol=1e-12)

    def test_interaction_is_a_product(self):
        spec = parse_model("lognormal: mu ~ log(v):log(w)")
        row = design_row(spec.mu_terms, {"v": 7.0, "w": 11.0})
        assert_allclose(row[1], math.log(7.0) * math.log(11.0), rtol=1e-12)
        # An overflowing factor times 0 is nan, as on Python floats, and
        # no numpy warning escapes.
        spec = parse_model("lognormal: mu ~ arrh(temp):v")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = design_row(spec.mu_terms, {"temp_K": 1e-305, "v": 0.0})
        assert math.isnan(row[1])

    def test_derived_voltage_stress(self):
        # voltstress falls back to voltage / thickness when not given.
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        row = design_row(spec.mu_terms, {"voltage": 340.0, "thickness": 2.0})
        assert_allclose(row[1], math.log(170.0), rtol=1e-12)
        direct = design_row(spec.mu_terms, {"voltstress": 170.0})
        assert_allclose(row[1], direct[1], rtol=0)

    def test_derived_division_by_zero_is_a_data_error(self):
        # The scalar and the column path reject a zero thickness alike.
        condition = {"voltage": 1.0, "thickness": 0.0}
        with pytest.raises(DataError, match="voltstress"):
            resolve_variable(condition, "voltstress")
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        with pytest.raises(DataError, match="voltstress"):
            design_row(spec.mu_terms, condition)

    def test_unit_suffixed_column_resolution(self):
        # A bare variable name picks up its unit-suffixed column.
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        row = design_row(spec.mu_terms, {"voltstress_V_per_mm": 170.0})
        assert_allclose(row[1], math.log(170.0), rtol=1e-12)

    def test_ambiguous_suffix_rejected(self):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        with pytest.raises(MissingVariableError):
            design_row(spec.mu_terms,
                       {"voltstress_V_per_mm": 170.0, "voltstress_kV": 0.17})

    def test_missing_variable(self):
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        with pytest.raises(MissingVariableError):
            design_row(spec.mu_terms, {"temp_C": 120.0})

    def test_temperature_requires_unit_suffix(self):
        # An unsuffixed temperature column is ambiguous between C and K.
        spec = parse_model("lognormal: mu ~ arrh(temp)")
        with pytest.raises(UnitMismatchError):
            design_row(spec.mu_terms, {"temp": 120.0})

    def test_temperature_named_with_its_own_suffix(self):
        # A suffixed name is read from that column alone.
        assert resolve_kelvin({"temp_K": 300.0}, "temp_K") == 300.0
        assert resolve_kelvin({"temp_C": 20.0, "temp_K": 1.0}, "temp_C") == 293.15
        with pytest.raises(MissingVariableError, match="temp_C"):
            resolve_kelvin({"temp_K": 300.0}, "temp_C")
        with pytest.raises(UnitMismatchError, match="supplied in both _C and _K"):
            resolve_kelvin({"temp_C": 20.0, "temp_K": 293.15}, "temp")

    def test_domain_errors_surface(self):
        spec = parse_model("lognormal: mu ~ log(v)")
        with pytest.raises(DomainError):
            design_row(spec.mu_terms, {"v": -3.0})
        spec2 = parse_model("lognormal: mu ~ logit(rh)")
        with pytest.raises(DomainError):
            design_row(spec2.mu_terms, {"rh": 1.2})

    def test_unknown_factor_kind(self):
        term = Term((Factor("cube", inner=Factor("var", "v")),))
        with pytest.raises(FormulaError, match="^unknown factor kind 'cube'$"):
            design_row((term,), {"v": 2.0})

    def test_non_finite_entry_names_its_column(self):
        spec = parse_model("lognormal: mu ~ arrh(temp) + log(v)")
        with pytest.raises(DataError, match="'v'"):
            design_matrix(spec.mu_terms, LifeData([1.0, 1.0], [True, True],
                                                  {"temp_C": [80.0, 90.0], "v": [2.0, math.nan]}))
        with pytest.raises(DataError, match="'temp_C'"):
            design_row(spec.mu_terms, {"temp_C": float("inf"), "v": 2.0})

    def test_error_from_the_keys_is_row_0s_unless_a_rule_before_it_flags_row_0(self):
        # temp has no unit suffix, which every row reports once log(v) is done.
        spec = parse_model("lognormal: mu ~ log(v) + arrh(temp)")
        data = LifeData([1.0, 2.0], [True, True], {"v": [1.0, -1.0], "temp": [20.0, 20.0]},
                        lines=[2, 3])
        with pytest.raises(UnitMismatchError, match="^temperature variable 'temp' needs"):
            design_matrix(spec.mu_terms, data)
        data.columns["v"][0] = 0.0
        with pytest.raises(DomainError, match=r"^line 2: log of non-positive value in log\(v\)$"):
            design_matrix(spec.mu_terms, data)

    def test_non_finite_life_data_cell_names_its_line(self):
        spec = parse_model("lognormal: mu ~ arrh(temp) + log(v)")
        data = LifeData([1.0, 2.0, 3.0], [True, True, False],
                        {"temp_C": [80.0, 90.0, 100.0], "v": [2.0, 3.0, math.inf],
                         "w": [math.nan] * 3}, lines=[2, 4, 5])
        with pytest.raises(DataError,
                           match="^line 5, column v: expected a finite number, got inf$"):
            design_matrix(spec.mu_terms, data)
        # The unused column w may hold nan.
        assert design_matrix(spec.mu_terms, data[:2]).shape == (2, 3)
        data.lines = None
        with pytest.raises(DataError,
                           match=r"^condition column 'v' has a non-finite value \(inf\)$"):
            design_matrix(spec.mu_terms, data)


# Row-wise reference: each condition and term evaluated on its own with
# scalar arithmetic, in row order, each column checked for finiteness as it
# is read and then a derived value, with LifeData's messages.  design_matrix
# must agree with it on values and, when a row is invalid, on the error
# raised; `line` is the row's CSV line, or None when it is not known.
def at(line, message):
    return message if line is None else f"line {line}: {message}"


def oracle_read(condition, key, line):
    value = float(condition[key])
    if math.isfinite(value):
        return value
    if line is None:
        raise DataError(f"condition column {key!r} has a non-finite value ({value})")
    raise DataError(f"line {line}, column {key}: expected a finite number, got {value}")


def oracle_factor(factor, condition, line):
    if factor.kind == "var":
        source = variable_source(condition, factor.var)
        with np.errstate(divide="ignore", invalid="ignore"):  # v / 0 as numpy gives it
            value = float(read_variable(
                source, lambda key: np.float64(oracle_read(condition, key, line))))
        if not math.isfinite(value):
            raise DataError(at(line, f"condition variable {factor.var!r} "
                                     f"has a non-finite value ({value})"))
        return value
    if factor.kind == "arrh":
        key, unit = temperature_source(condition, factor.var)
        try:
            return 11605.0 / to_kelvin(Temperature(oracle_read(condition, key, line), unit))
        except InvalidTemperatureError as err:
            raise InvalidTemperatureError(at(line, str(err))) from None
    v = oracle_factor(factor.inner, condition, line)
    if factor.kind == "log":
        if v <= 0.0:
            raise DomainError(at(line, f"log of non-positive value in {factor.name()}"))
        return math.log(v)
    if factor.kind == "logit":
        if not 0.0 < v < 1.0:
            raise DomainError(at(line, f"logit argument outside (0, 1) in {factor.name()}"))
        return math.log(v / (1.0 - v))
    if factor.kind == "sq":
        return v * v
    assert factor.kind == "boxcox"
    try:
        return box_cox_transform(v, factor.lam)
    except DomainError as err:
        raise DomainError(at(line, str(err))) from None


def oracle_matrix(terms, conditions, lines=None):
    x = np.ones((len(conditions), 1 + len(terms)))
    for i, condition in enumerate(conditions):
        for j, term in enumerate(terms):
            value = 1.0
            for factor in term.factors:
                value *= oracle_factor(factor, condition, None if lines is None else lines[i])
            x[i, 1 + j] = value
    return x


def number(draw, low, high):
    """A float in [low, high], or now and then nan or an infinity."""
    if draw(st.integers(0, 24)) == 0:
        return draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return draw(st.floats(low, high))


@st.composite
def conditions(draw):
    """A condition whose keys vary from row to row: temperature in _C or
    _K (rarely both), voltstress given, unit-suffixed, derived from voltage
    and thickness (now and then 0) or (rarely) ambiguous, rh bare or
    suffixed.  The ranges reach past each function's domain, and now and
    then a value is nan or infinite."""
    cond = {}
    for key in draw(st.sampled_from([["temp_C"]] * 5 + [["temp_K"]] * 5
                                    + [["temp_K", "temp_C"]])):
        low = -280.0 if key == "temp_C" else -5.0
        cond[key] = number(draw, low, 400.0)
    form = draw(st.sampled_from(["given"] * 3 + ["suffixed"] * 3 + ["derived"] * 3
                                + ["ambiguous"]))
    stress = number(draw, -5.0, 400.0)
    if form == "given":
        cond["voltstress"] = stress
    elif form == "suffixed":
        cond["voltstress_V_per_mm"] = stress
    elif form == "derived":
        cond["thickness"] = draw(st.sampled_from([0.0]) | st.floats(0.1, 5.0))
        cond["voltage"] = stress * cond["thickness"] if cond["thickness"] else stress
    else:
        cond["voltstress_V_per_mm"] = stress
        cond["voltstress_kV"] = stress / 1000.0
    cond[draw(st.sampled_from(["rh", "rh_frac"]))] = number(draw, -0.05, 1.05)
    cond["v"] = number(draw, -1.0, 50.0)
    return cond


# numpy's log may differ from math.log by one ulp, so results that can
# differ feed only well-conditioned operations (sq, products); log, logit
# and boxcox take exact inputs (variables, arrh, sq of a variable).
_LAMBDAS = ("0", "5e-7", "-5e-7", "1")
_TERMS = (
    ["v", "log(v)", "sq(v)", "log(sq(v))", "logit(rh)", "arrh(temp)",
     "sq(arrh(temp))", "log(voltstress)", "sq(log(voltstress))",
     "arrh(temp):log(voltstress)", "logit(rh):sq(v)", "v:arrh(temp):logit(rh)"]
    + [f"boxcox(voltstress, {lam})" for lam in _LAMBDAS]
    + [f"sq(boxcox(v, {lam}))" for lam in _LAMBDAS]
)


class TestColumnsMatchRowWise:
    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(st.sampled_from(_TERMS), min_size=1, max_size=3, unique=True)
        .filter(lambda ts: sum("boxcox" in t for t in ts) <= 1),
        rows=st.lists(conditions(), min_size=1, max_size=6),
    )
    def test_design_matrix(self, terms, rows):
        spec = parse_model("lognormal: mu ~ " + " + ".join(terms))
        # The rows one at a time (their keys may differ), in order.
        builds = [(lambda: np.array([design_row(spec.mu_terms, row) for row in rows]), None)]
        if len({frozenset(row) for row in rows}) == 1:
            # Rows with one set of keys as a LifeData: one group, no
            # grouping; then as read from a CSV, each row naming its line.
            data = LifeData.of([LifeRecord(1.0, "failed", row) for row in rows])
            lines = [3 + 2 * i for i in range(len(rows))]
            named = LifeData(data.time, data.failed, data.columns, lines)
            builds += [(lambda: design_matrix(spec.mu_terms, data), None),
                       (lambda: design_matrix(spec.mu_terms, named), lines)]
        for build, lines in builds:
            try:
                expected = oracle_matrix(spec.mu_terms, rows, lines)
            except AltkitError as err:
                with pytest.raises(AltkitError) as raised:
                    build()
                assert type(raised.value) is type(err)
                assert str(raised.value) == str(err)
                continue
            assert_allclose(build(), expected, rtol=1e-15, atol=0)
