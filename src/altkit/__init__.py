"""Accelerated life testing toolkit.

Quantitative models for accelerated reliability tests: acceleration-factor
relationships over temperature, voltage stress, humidity, use rate and
cycling; scale-accelerated lifetime models on log-location-scale families;
degradation-path models with threshold crossing and pseudo failure times;
effective UV dosage and reciprocity; and censored maximum-likelihood
regression with quantile, profile and bootstrap reporting.
"""

from .data import CENSORED, FAILED, LifeData, LifeRecord, resolve_kelvin, resolve_variable
from .datasets import (
    Censoring,
    GAB_CENSOR_TIME,
    GAB_CONDITION_COLUMN,
    GAB_CONTENT_SHA256,
    GAB_USE_VOLTSTRESS,
    SyntheticGenerator,
    gab_content_hash,
    generate,
    load_gab,
)
from .degradation import (
    DegradationSample,
    DielectricPathParams,
    FailureThreshold,
    FirstOrderPathParams,
    ParallelPathParams,
    crossing_time,
    dielectric_failure_time,
    dielectric_strength,
    first_order_path,
    parallel_crossing_time,
    parallel_path,
    pseudo_failure_times,
)
from .errors import (
    AltkitError,
    ConfigError,
    DataError,
    DomainError,
    FormulaError,
    IllPosedFitError,
    InestimableError,
    InvalidTemperatureError,
    MissingVariableError,
    NoCrossingError,
    NonConvergenceError,
    UnitMismatchError,
)
from .fitml import (
    BootstrapQuantiles,
    FitResult,
    ProfilePoint,
    QuantileEstimate,
    ReciprocityResult,
    bootstrap_quantile,
    default_profile_grid,
    fit_ml,
    likelihood_gradient,
    profile_lambda,
    quantile_at_use,
    reciprocity_test,
)
from .formula import ModelSpec, design_matrix, design_row, parse_model
from .io import (
    TABLE_SIG_DIGITS,
    dump_json,
    format_float,
    read_degradation_csv,
    read_life_csv,
    read_mc_csv,
    read_spectral_csv,
    write_life_csv,
)
from .lifetime import (
    AxiomReport,
    FAMILIES,
    LifeDistribution,
    SaftModel,
    TimeTransformation,
    VaryingSigmaModel,
    cdf,
    check_time_transformation,
    ph_transform,
    quantile,
    saft_distribution_at,
    saft_quantile,
    std_cdf,
    std_d2logpdf,
    std_d2logsf,
    std_dlogpdf,
    std_dlogsf,
    std_logpdf,
    std_logsf,
    std_quantile,
    varying_sigma_quantile_ratio,
)
from .photodeg import (
    ExposureConfig,
    MoistureTable,
    PhotoMuParams,
    SpectralFunctions,
    SpectralGrid,
    UVB_BAND,
    effective_exposure,
    instantaneous_dosage,
    photo_mu,
    total_dosage,
)
from .relationships import (
    COFFIN_MANSON_BETA1_METALS,
    COFFIN_MANSON_BETA1_PLASTIC_ENCAPSULEMENT,
    CoffinMansonParams,
    GenEyringParams,
    ReactionRateParams,
    arrhenius_af,
    arrhenius_rate,
    blacks_af,
    box_cox_af,
    box_cox_transform,
    coffin_manson_af,
    coffin_manson_cycles,
    extended_coffin_manson_cycles,
    eyring_af,
    gen_eyring_af,
    gen_eyring_rate,
    inverse_power_af,
    klinger_af,
    peck_af,
    rh_transform,
    temp_voltage_af,
    use_rate_af,
)
from .units import (
    ARRHENIUS_COEFF_EV,
    ARRHENIUS_COEFF_KCAL,
    ARRHENIUS_COEFF_KJ,
    ActivationEnergy,
    CELSIUS_OFFSET,
    GAS_CONSTANT_KCAL,
    GAS_CONSTANT_KJ,
    K_BOLTZMANN_EV,
    KCAL_PER_MOL_PER_EV,
    KJ_PER_MOL_PER_EV,
    Temperature,
    as_activation_energy,
    to_kelvin,
)

__version__ = "0.1.0"
