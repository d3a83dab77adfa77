"""Accelerated life testing toolkit.

Quantitative models for accelerated reliability tests: acceleration-factor
relationships over temperature, voltage stress, humidity, use rate and
cycling; scale-accelerated lifetime models on log-location-scale families;
degradation-path models with threshold crossing and pseudo failure times;
effective UV dosage and reciprocity; and censored maximum-likelihood
regression with quantile, profile and bootstrap reporting.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.  `import altkit` loads
# no submodule: `__getattr__` (PEP 562) imports a name's module the first
# time the name is used and keeps the value in the package's globals.
_MODULE_OF = {name: module for module, names in {
    "data": (
        "CENSORED", "FAILED", "LifeData", "LifeRecord", "resolve_kelvin",
        "resolve_variable",
    ),
    "datasets": (
        "Censoring", "GAB_CENSOR_TIME", "GAB_CONDITION_COLUMN", "GAB_CONTENT_SHA256",
        "GAB_USE_VOLTSTRESS", "SyntheticGenerator", "gab_content_hash", "generate",
        "load_gab",
    ),
    "degradation": (
        "DegradationSample", "DielectricPathParams", "FailureThreshold",
        "FirstOrderPathParams", "ParallelPathParams", "crossing_time",
        "dielectric_failure_time", "dielectric_strength", "first_order_path",
        "parallel_crossing_time", "parallel_path", "pseudo_failure_times",
    ),
    "errors": (
        "AltkitError", "ConfigError", "DataError", "DomainError", "FormulaError",
        "IllPosedFitError", "InestimableError", "InvalidTemperatureError",
        "MissingVariableError", "NoCrossingError", "NonConvergenceError",
        "UnitMismatchError",
    ),
    "fitml": (
        "BootstrapQuantiles", "FitResult", "ProfilePoint", "QuantileEstimate",
        "ReciprocityResult", "bootstrap_quantile", "default_profile_grid", "fit_ml",
        "likelihood_gradient", "profile_lambda", "quantile_at_use", "reciprocity_test",
    ),
    "formula": ("ModelSpec", "design_matrix", "design_row", "parse_model"),
    "io": (
        "TABLE_SIG_DIGITS", "dump_json", "format_float", "read_degradation_csv",
        "read_life_csv", "read_mc_csv", "read_spectral_csv", "write_life_csv",
    ),
    "lifetime": (
        "AxiomReport", "FAMILIES", "LifeDistribution", "SaftModel", "TimeTransformation",
        "VaryingSigmaModel", "cdf", "check_time_transformation", "ph_transform",
        "quantile", "saft_distribution_at", "saft_quantile", "std_cdf", "std_d2logpdf",
        "std_d2logsf", "std_dlogpdf", "std_dlogsf", "std_logpdf", "std_logsf",
        "std_quantile", "varying_sigma_quantile_ratio",
    ),
    "photodeg": (
        "ExposureConfig", "MoistureTable", "PhotoMuParams", "SpectralFunctions",
        "SpectralGrid", "UVB_BAND", "effective_exposure", "instantaneous_dosage",
        "photo_mu", "total_dosage",
    ),
    "relationships": (
        "COFFIN_MANSON_BETA1_METALS", "COFFIN_MANSON_BETA1_PLASTIC_ENCAPSULEMENT",
        "CoffinMansonParams", "GenEyringParams", "ReactionRateParams", "arrhenius_af",
        "arrhenius_rate", "blacks_af", "box_cox_af", "box_cox_transform",
        "coffin_manson_af", "coffin_manson_cycles", "extended_coffin_manson_cycles",
        "eyring_af", "gen_eyring_af", "gen_eyring_rate", "inverse_power_af",
        "klinger_af", "peck_af", "rh_transform", "temp_voltage_af", "use_rate_af",
    ),
    "units": (
        "ARRHENIUS_COEFF_EV", "ARRHENIUS_COEFF_KCAL", "ARRHENIUS_COEFF_KJ",
        "ActivationEnergy", "CELSIUS_OFFSET", "GAS_CONSTANT_KCAL", "GAS_CONSTANT_KJ",
        "K_BOLTZMANN_EV", "KCAL_PER_MOL_PER_EV", "KJ_PER_MOL_PER_EV", "Temperature",
        "as_activation_energy", "to_kelvin",
    ),
}.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
