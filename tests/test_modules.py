# Module boundaries: a name that starts with an underscore is private to
# the module that defines it, so no module of the package imports one from
# a sibling, and the module itself must use it or it is dead code; the
# package runs on numpy and the standard library alone, so no module
# imports scipy; and the package exports its names through one table,
# loading a name's module the first time the name is used.

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altkit


def imports(path):
    """Each `import` and `from ... import` node of one source file."""
    return [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def top_level_names(tree, imports):
    """The names that a module's top-level statements bind: its functions,
    classes and assignments, and its imports too if `imports`."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name).partition(".")[0] for a in node.names)
    return defined


PACKAGE = Path(altkit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
# The names that `__init__` bound when it imported every submodule itself.
EXPORTED = [
    "ARRHENIUS_COEFF_EV", "ARRHENIUS_COEFF_KCAL", "ARRHENIUS_COEFF_KJ", "ActivationEnergy",
    "AltkitError", "AxiomReport", "BootstrapQuantiles", "CELSIUS_OFFSET", "CENSORED",
    "COFFIN_MANSON_BETA1_METALS", "COFFIN_MANSON_BETA1_PLASTIC_ENCAPSULEMENT", "Censoring",
    "CoffinMansonParams", "ConfigError", "DataError", "DegradationSample",
    "DielectricPathParams", "DomainError", "ExposureConfig", "FAILED", "FAMILIES",
    "FailureThreshold", "FirstOrderPathParams", "FitResult", "FormulaError",
    "GAB_CENSOR_TIME", "GAB_CONDITION_COLUMN", "GAB_CONTENT_SHA256", "GAB_USE_VOLTSTRESS",
    "GAS_CONSTANT_KCAL", "GAS_CONSTANT_KJ", "GenEyringParams", "IllPosedFitError",
    "InestimableError", "InvalidTemperatureError", "KCAL_PER_MOL_PER_EV",
    "KJ_PER_MOL_PER_EV", "K_BOLTZMANN_EV", "LifeData", "LifeDistribution", "LifeRecord",
    "MissingVariableError", "ModelSpec", "MoistureTable", "NoCrossingError",
    "NonConvergenceError", "ParallelPathParams", "PhotoMuParams", "ProfilePoint",
    "QuantileEstimate", "ReactionRateParams", "ReciprocityResult", "SaftModel",
    "SpectralFunctions", "SpectralGrid", "SyntheticGenerator", "TABLE_SIG_DIGITS",
    "Temperature", "TimeTransformation", "UVB_BAND", "UnitMismatchError",
    "VaryingSigmaModel", "arrhenius_af", "arrhenius_rate", "as_activation_energy",
    "blacks_af", "bootstrap_quantile", "box_cox_af", "box_cox_transform", "cdf",
    "check_time_transformation", "coffin_manson_af", "coffin_manson_cycles",
    "crossing_time", "default_profile_grid", "design_matrix", "design_row",
    "dielectric_failure_time", "dielectric_strength", "dump_json", "effective_exposure",
    "extended_coffin_manson_cycles", "eyring_af", "first_order_path", "fit_ml",
    "format_float", "gab_content_hash", "gen_eyring_af", "gen_eyring_rate", "generate",
    "instantaneous_dosage", "inverse_power_af", "klinger_af", "likelihood_gradient",
    "load_gab", "parallel_crossing_time", "parallel_path", "parse_model", "peck_af",
    "ph_transform", "photo_mu", "profile_lambda", "pseudo_failure_times", "quantile",
    "quantile_at_use", "read_degradation_csv", "read_life_csv", "read_mc_csv",
    "read_spectral_csv", "reciprocity_test", "resolve_kelvin", "resolve_variable",
    "rh_transform", "saft_distribution_at", "saft_quantile", "std_cdf", "std_d2logpdf",
    "std_d2logsf", "std_dlogpdf", "std_dlogsf", "std_logpdf", "std_logsf", "std_quantile",
    "temp_voltage_af", "to_kelvin", "total_dosage", "use_rate_af",
    "varying_sigma_quantile_ratio", "write_life_csv",
]


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in MODULES:
        for node in imports(path):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").partition(".")[0] == "altkit"):
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_imports_scipy():
    found = []
    for path in MODULES:
        for node in imports(path):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if node.level == 0 else [])
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] == "scipy"]
    assert found == []


def test_every_private_module_name_is_used_in_its_module():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = top_level_names(tree, imports=True)
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        # Dunder names such as __version__ are read from outside the module.
        found += [f"{path.name}: {name}" for name in sorted(defined - used)
                  if name.startswith("_") and not name.endswith("__")]
    assert found == []


def test_package_imports_no_submodule_at_module_level():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    found, nodes = [], list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.partition(".")[0] == "altkit"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").partition(".")[0] == "altkit"):
            found.append(f"{'.' * node.level}{node.module or ''}")
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes.extend(ast.iter_child_nodes(node))
    assert found == []


def test_export_table_points_at_the_defining_module():
    defined = {path.stem: top_level_names(ast.parse(path.read_text()), imports=False)
               for path in MODULES}
    assert [f"{module}.{name}" for name, module in altkit._MODULE_OF.items()
            if name not in defined.get(module, ())] == []


def test_export_table_names_the_exported_names():
    assert sorted(altkit._MODULE_OF) == EXPORTED
    assert sorted(altkit.__all__) == EXPORTED


def test_each_exported_name_is_its_modules_object():
    for name, module in altkit._MODULE_OF.items():
        assert getattr(altkit, name) is getattr(
            importlib.import_module(f"altkit.{module}"), name), name


def test_dir_and_star_import_give_the_exported_names():
    # In a fresh interpreter, so that no name has been used yet.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([
        sys.executable, "-c",
        "import json, altkit; listed = dir(altkit); namespace = {}\n"
        "exec('from altkit import *', namespace); namespace.pop('__builtins__')\n"
        "print(json.dumps([listed, sorted(namespace)]))"],
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    listed, star = json.loads(proc.stdout)
    assert set(EXPORTED) <= set(listed)
    assert star == EXPORTED


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'altkit' has no attribute 'fit_mle'$"):
        altkit.fit_mle
